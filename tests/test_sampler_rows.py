"""The verify samplers of the canonical handles.

Each canonical handle has one sampler per job: ``sample_thetas(rng,
shape, radius)`` gives parameter points ``shape + (n,)`` for an int or a
tuple ``shape``, and ``sample_datasets(rng, count)`` a stack of ``count``
data sets.  Each call makes one generator call per distribution it draws
from.  Those calls are written out below as the documented formulas, so
the reference does not share code with the samplers.
"""

import numpy as np
import pytest

from infogeo import coherent, discrete_instance, get_model

CANONICAL = ("qubit", "coherent", "coherent2", "discrete2", "discrete3")
HANDLES = {name: get_model(name) for name in CANONICAL}
HANDLES["triangle"] = discrete_instance([1.0, 2.0, 1.0], [[0.0, 1.0, 2.0],
                                                          [0.0, 1.0, 0.0]])
# the families whose parameter entries come from one distribution
UNIFORM = sorted(name for name in HANDLES if name != "qubit")


def formula_thetas(handle, rng, shape, radius=3.0):
    """One ``sample_thetas`` call, as its documented generator calls."""
    shape = tuple(np.atleast_1d(shape))
    if handle.name == "qubit":
        v = rng.normal(size=shape + (3,))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        return v * rng.uniform(0.05, radius, size=shape + (1,))
    return rng.uniform(-radius, radius, size=shape + (handle.descriptor.n,))


def formula_datasets(handle, rng, count):
    """One ``sample_datasets`` call, as its documented generator calls."""
    if handle.name == "qubit":
        v = rng.normal(size=(count, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * np.cbrt(rng.uniform(0.0, 1.0, size=(count, 1)))
    if handle.name.startswith("coherent"):
        size = handle.nmax + 1
        g = rng.normal(size=(count, 2, size))
        c = (g[:, 0] + 1j * g[:, 1]) * np.exp(-0.35 * np.arange(size))
        return c / np.array([np.linalg.norm(row) for row in c])[:, None]
    return rng.dirichlet(np.ones(handle.family.alphabet_size), size=count)


def data_size(handle):
    if handle.name.startswith("coherent"):
        return handle.nmax + 1
    return handle.x_size


def bits(values):
    return np.asarray(values).tobytes()


def same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_point_samplers_are_the_per_call_formulas(name):
    # each call is its documented generator calls, one per distribution,
    # for int and tuple shapes alike, and leaves the generator where they do
    handle = HANDLES[name]
    ref, rng = np.random.default_rng(3), np.random.default_rng(3)
    for shape, radius in ((1, 3.0), (4, 1.5), ((2, 3), 2.0), ((3, 1, 2), 0.5)):
        assert bits(handle.sample_thetas(rng, shape, radius)) == bits(
            formula_thetas(handle, ref, shape, radius))
        assert same_state(rng, ref)
    for count in (1, 5):
        assert bits(handle.sample_datasets(rng, count)) == bits(
            formula_datasets(handle, ref, count))
        assert same_state(rng, ref)


@pytest.mark.parametrize("name", UNIFORM)
@pytest.mark.parametrize("size", [1, 2, 3])
def test_theta_sets_equal_consecutive_point_calls(name, size):
    # one distribution fills the array in order, so a set of calls drawn
    # as one array is the consecutive calls (the qubit draws all its
    # directions before its lengths, so its sets are not)
    handle = HANDLES[name]
    ref, rng = np.random.default_rng(5), np.random.default_rng(5)
    want = np.stack([handle.sample_thetas(ref, size, 2.0) for _ in range(300)])
    got = handle.sample_thetas(rng, (300, size), radius=2.0)
    assert bits(got) == bits(want)
    assert same_state(rng, ref)


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_samplers_give_the_documented_shapes(name):
    handle = HANDLES[name]
    n, rng = handle.descriptor.n, np.random.default_rng(6)
    for shape, want in ((7, (7, n)), ((2, 5), (2, 5, n)), ((3, 4, 2), (3, 4, 2, n)),
                        (np.int64(3), (3, n)), ((0,), (0, n))):
        assert handle.sample_thetas(rng, shape).shape == want
    assert handle.sample_datasets(rng, 6).shape == (6, data_size(handle))
    assert handle.sample_datasets(rng, 0).shape == (0, data_size(handle))


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_samples_lie_in_their_support(name):
    handle = HANDLES[name]
    rng = np.random.default_rng(8)
    for radius in (0.7, 3.0):
        thetas = handle.sample_thetas(rng, (50, 4), radius)
        if name == "qubit":
            lengths = np.linalg.norm(thetas, axis=-1)
            assert lengths.min() >= 0.05 - 1e-12 and lengths.max() <= radius + 1e-12
        else:
            assert np.abs(thetas).max() <= radius
    xs = handle.sample_datasets(rng, 500)
    if name == "qubit":
        assert np.linalg.norm(xs, axis=1).max() <= 1.0
        handle.descriptor.dataset_answers(xs)
    elif name.startswith("coherent"):
        assert np.abs(np.linalg.norm(xs, axis=1) - 1.0).max() <= 1e-12
        coherent.check_state(xs)
    else:
        assert xs.min() >= 0.0 and np.abs(xs.sum(axis=1) - 1.0).max() <= 1e-12
        handle.descriptor.dataset_answers(xs)


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_the_same_seed_gives_the_same_samples(name):
    handle = HANDLES[name]

    def draws(seed):
        rng = np.random.default_rng(seed)
        return [bits(handle.sample_thetas(rng, (2, 10))), bits(handle.sample_datasets(rng, 10)),
                bits(handle.sample_thetas(rng, 10, 1.5))]

    assert draws(12) == draws(12)
    assert all(a != b for a, b in zip(draws(12), draws(13)))
