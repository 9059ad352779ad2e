"""The verify samplers on stacks: each stacked form against the point
calls it replaces.

A sampling loop in ``verify`` makes only a handle's generator calls
(``theta_draws``, ``dataset_draws``) and finishes the points once on the
stack (``thetas_from``, ``datasets_from``); ``sample_theta_sets`` draws
many ``sample_thetas`` calls at once.  Every stacked form must give the
points of the consecutive point calls bit for bit, and leave the
generator in the same state.  The point calls are written out below as
the per-call formulas, so the reference does not share code with the
stacked forms.
"""

import numpy as np
import pytest

from infogeo import discrete_instance, get_model, verify

CANONICAL = ("qubit", "coherent", "coherent2", "discrete2", "discrete3")
HANDLES = {name: get_model(name) for name in CANONICAL}
HANDLES["triangle"] = discrete_instance([1.0, 2.0, 1.0], [[0.0, 1.0, 2.0],
                                                          [0.0, 1.0, 0.0]])


def point_thetas(handle, rng, count, radius=3.0):
    """One ``sample_thetas`` call, as the per-call formula."""
    if handle.name == "qubit":
        v = rng.normal(size=(count, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * rng.uniform(0.05, radius, size=(count, 1))
    return rng.uniform(-radius, radius, size=(count, handle.descriptor.n))


def point_dataset(handle, rng):
    """One data set, as the per-call formula."""
    if handle.name == "qubit":
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        return v * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
    if handle.name.startswith("coherent"):
        size = handle.nmax + 1
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        c *= np.exp(-0.35 * np.arange(size))
        c /= np.linalg.norm(c)
        return c
    return rng.dirichlet(np.ones(handle.family.alphabet_size))


def bits(values):
    return np.asarray(values).tobytes()


def same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_point_samplers_are_the_per_call_formulas(name):
    handle = HANDLES[name]
    ref, rng = np.random.default_rng(3), np.random.default_rng(3)
    for count, radius in ((1, 3.0), (4, 1.5)):
        assert bits(handle.sample_thetas(rng, count, radius)) == bits(
            point_thetas(handle, ref, count, radius))
    one = handle.datasets_from([handle.dataset_draws(rng)])
    assert bits(one[0]) == bits(point_dataset(handle, ref))
    assert same_state(rng, ref)


@pytest.mark.parametrize("name", sorted(HANDLES))
@pytest.mark.parametrize("size", [1, 2, 3])
def test_theta_sets_equal_consecutive_point_calls(name, size):
    handle = HANDLES[name]
    ref, rng = np.random.default_rng(5), np.random.default_rng(5)
    want = np.stack([point_thetas(handle, ref, size, 2.0) for _ in range(300)])
    got = handle.sample_theta_sets(rng, 300, size, radius=2.0)
    assert got.shape == (300, size, handle.descriptor.n)
    assert bits(got) == bits(want)
    assert same_state(rng, ref)


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_interleaved_draws_finish_to_the_point_calls(name):
    # the rounds of verify's data checks (verify._rounds): a data set, a
    # parameter point and a draw the handle does not own, in turn
    handle = HANDLES[name]
    ref, rng = np.random.default_rng(9), np.random.default_rng(9)
    want_x, want_t, want_other = [], [], []
    for _ in range(400):
        want_x.append(point_dataset(handle, ref))
        want_t.append(point_thetas(handle, ref, 1, 2.0)[0])
        want_other.append(ref.uniform(0.0, 2.0))
    xs, thetas, other = verify._rounds(rng, 400, handle.dataset_draws,
                                       lambda r: handle.theta_draws(r, 1, 2.0),
                                       lambda r: r.uniform(0.0, 2.0))
    assert bits(handle.datasets_from(xs)) == bits(np.array(want_x))
    assert bits(handle.thetas_from(thetas)) == bits(np.array(want_t))
    assert other == want_other
    assert same_state(rng, ref)
