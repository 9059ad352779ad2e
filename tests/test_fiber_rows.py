"""Fibers on stacks: the stacked fiber sampler and Definition 5 against
their one-fiber views.

A ``fiber_sampler`` call on energy rows (k, n) returns the stack (k, c,
m) of their fibers; without an rng, fiber i of it carries the bits of
the one-row call on row i.  ``divergence_def5`` on rows gives row i the
bits of its point call.  A stack with failing rows raises the error of
the lowest of them, as that row raises it alone.  ``verify`` samples each
fiber check's fibers with one sampler call.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from infogeo import (
    ConvergenceError,
    DomainError,
    InfeasibleError,
    TruncationError,
    coherent,
    core,
    discrete_instance,
    divergence_def5,
    get_model,
    verify,
)
from infogeo.coherent import mu_map

CANONICAL = ("qubit", "coherent", "coherent2", "discrete2", "discrete3")
HANDLES = {name: get_model(name) for name in CANONICAL}
#: one observable on four letters and two on five: both have 2-D fibers
HANDLES["four-letter"] = discrete_instance([1.0, 1.0, 1.0, 1.0], [[0.0, 1.0, 2.0, 3.0]])
HANDLES["five-letter"] = discrete_instance([1.0, 2.0, 1.0, 3.0, 1.0],
                                           [[0.0, 1.0, 2.0, 3.0, 4.0],
                                            [1.0, 0.0, 0.0, 1.0, 0.0]])


def bits(values):
    return np.asarray(values).tobytes()


def energy_rows(handle, seed, count):
    """``count`` model points on the fiber radius of the family."""
    rng = np.random.default_rng(seed)
    thetas = handle.sample_thetas(rng, count, radius=handle.fiber_radius)
    return core.dual_points(handle.descriptor, thetas)[1]


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_stacked_fibers_without_rng_equal_one_fiber_calls(name):
    model = HANDLES[name].descriptor
    us = energy_rows(HANDLES[name], 81, 5)
    stack = model.fiber_sampler(us, 7, None)
    assert stack.shape[:2] == (5, 1 if name in ("qubit", "discrete2") else 7)
    for i, u in enumerate(us):
        one = model.fiber_sampler(us[i:i + 1], 7, None)[0]
        assert bits(stack[i]) == bits(one)
        answers = model.dataset_answers(one)[0]
        assert np.max(np.abs(answers - u)) <= 1e-9


#: the digest of each family's frozen samples and the rng's next draw
FROZEN_DRAWS = {
    "discrete3": ("64b54ea612735f55", 0.9113563804485241),
    "four-letter": ("b8b6c08fc548a8f7", 0.25669475793344865),
    "five-letter": ("fe898bf85bbf811a", 0.25669475793344865),
    "coherent2": ("f4a978446e0661b2", 0.24342664673874748),
}


@pytest.mark.parametrize("name", list(FROZEN_DRAWS))
def test_one_fiber_draws_are_frozen(name):
    # The samples and the rng's next draw after them, recorded with the
    # one-fiber sampler before it took energy rows.  The coherent2 samples
    # were recorded again when the pin became a closed form, and the
    # one-observable samples when the moment fit started from the family's
    # start table (the member moved within the fit tolerance); each next
    # draw is unchanged, so the sampler drew and failed as before.
    digest, after = FROZEN_DRAWS[name]
    model = HANDLES[name].descriptor
    u = core.theta_to_u(model, np.full(model.n, 0.3))
    rng = np.random.default_rng(8)
    samples = model.fiber_sampler(u[None], 20, rng)[0]
    assert hashlib.sha256(bits(samples)).hexdigest()[:16] == digest
    assert rng.random() == after


@pytest.mark.parametrize("name", ["discrete3", "four-letter", "five-letter"])
def test_stacked_discrete_fibers_draw_once_for_the_stack(name):
    # With an rng, a stacked discrete call takes the directions of fibers
    # of dimension 2 or more from one normal call, and every chord offset
    # from one uniform call, so the rng ends where those two calls leave it.
    handle = HANDLES[name]
    model = handle.descriptor
    us = energy_rows(handle, 82, 4)
    rng = np.random.default_rng(9)
    stack = model.fiber_sampler(us, 6, rng)
    letters = handle.family.alphabet_size
    assert stack.shape == (4, 6, letters)
    for u, fiber in zip(us, stack):
        assert np.max(np.abs(model.dataset_answers(fiber)[0] - u)) <= 1e-12
    dimension = letters - 1 - model.n
    drawn = np.random.default_rng(9)
    if dimension >= 2:
        drawn.normal(size=(4, 6, dimension))
    drawn.uniform(size=(4, 6))
    assert rng.random() == drawn.random()


@pytest.mark.parametrize("name", ["qubit", "discrete2"])
def test_samplers_that_draw_nothing_leave_the_rng_alone(name):
    model = HANDLES[name].descriptor
    us = energy_rows(HANDLES[name], 83, 3)
    rng = np.random.default_rng(10)
    stack = model.fiber_sampler(us, 5, rng)
    assert stack.shape[:2] == (3, 1)
    assert np.max(np.abs(model.dataset_answers(stack[:, 0])[0] - us)) <= 1e-12
    assert rng.random() == np.random.default_rng(10).random()


@pytest.mark.parametrize("name", ["coherent", "coherent2"])
def test_stacked_coherent_fibers_pin_every_sample(name):
    handle = HANDLES[name]
    model = handle.descriptor
    us = energy_rows(handle, 84, 6)
    rng = np.random.default_rng(11)
    stack = model.fiber_sampler(us, 5, rng)
    assert stack.shape == (6, 5, handle.nmax + 1)
    for u, fiber in zip(us, stack):
        assert np.max(np.abs(mu_map(fiber, handle.constants) - u)) <= 1e-9
        # each fiber starts with its coherent state, pinned
        first = model.dataset_answers(fiber[:1])[1][0]
        assert first == pytest.approx(float(model.entropy_u(u)), abs=1e-10)
    # where no pin fails, a fiber draws its four noisy attempts in one round
    rng = np.random.default_rng(12)
    model.fiber_sampler(us[:1], 5, rng)
    drawn = np.random.default_rng(12)
    drawn.normal(size=(4, 2, handle.nmax - 1))
    assert rng.random() == drawn.random()


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_def5_rows_equal_point_calls(name):
    handle = HANDLES[name]
    model = handle.descriptor
    us = energy_rows(handle, 85, 4)
    rng = np.random.default_rng(86)
    xs = handle.sample_datasets(rng, 4)
    rows = divergence_def5(model, xs, us, fiber_samples=20)
    assert rows.shape == (4,)
    for i in range(4):
        point = divergence_def5(model, xs[i], us[i], fiber_samples=20)
        assert isinstance(point, float)
        assert bits(rows[i]) == bits(point)


@pytest.mark.parametrize("count", [0, -1])
def test_def5_refuses_fewer_than_one_fiber_sample(count):
    # The fibers of discrete3 are chords: a sample count below 1 is a
    # ValueError of the sampler, not a raw indexing or broadcast error.
    model = HANDLES["discrete3"].descriptor
    u = core.theta_to_u(model, np.array([0.3]))
    with pytest.raises(ValueError, match=f"count must be at least 1, got {count}"):
        divergence_def5(model, np.array([0.2, 0.3, 0.5]), u, fiber_samples=count)


def test_def5_point_values_are_frozen():
    # Recorded with the per-point Definition 5 before it took rows; the
    # discrete3 value again when the moment fit started from the family's
    # start table (5.1e-13 from the old value, within the fit tolerance).
    for name, value in (("discrete3", 0.13402257289979236),
                        ("four-letter", 0.17025443446732158),
                        ("five-letter", 0.23711459477931718)):
        model = HANDLES[name].descriptor
        u = core.theta_to_u(model, np.full(model.n, 0.3))
        x = np.linspace(1.0, 2.0, HANDLES[name].family.alphabet_size)
        x /= x.sum()
        assert divergence_def5(model, x, u, fiber_samples=30) == value
    model = HANDLES["qubit"].descriptor
    assert divergence_def5(model, np.array([0.1, -0.2, 0.3]),
                           np.array([0.2, 0.1, -0.4])) == 0.31924200271967573


# ------------------------------------------------------------ failing rows


def raised(form, *args):
    """``(type, message)`` of the error ``form(*args)`` raises."""
    with pytest.raises(Exception) as info:
        form(*args)
    return type(info.value), str(info.value)


def test_a_stack_raises_the_truncation_error_of_its_lowest_failing_fiber():
    model = HANDLES["coherent"].descriptor
    us = np.array([[0.5, 0.3], [4.5, 0.0], [0.2, 0.1], [0.0, 6.0]])
    alone = raised(model.fiber_sampler, us[1:2], 3, None)
    assert alone[0] is TruncationError
    assert raised(model.fiber_sampler, us, 3, None) == alone
    assert raised(model.fiber_sampler, us, 3, np.random.default_rng(1)) == alone


def test_a_stack_raises_the_noise_floor_error_of_its_lowest_failing_fiber(monkeypatch):
    # A pin that fails every attempt on the fibers of two amplitudes drives
    # both to the noise floor; the others are pinned as usual.
    doomed = (0.25 - 0.5j, -0.75 + 0.25j)
    pin = coherent._pin_rows

    def pin_except_doomed(rows, z):
        pinned, ok = pin(rows, z)
        return pinned, ok & ~np.isin(np.broadcast_to(z, ok.shape), doomed)

    monkeypatch.setattr(coherent, "_pin_rows", pin_except_doomed)
    model = HANDLES["coherent"].descriptor
    us = np.array([[0.5, 0.3], [0.25, -0.5], [0.1, 0.2], [-0.75, 0.25]])
    alone = raised(model.fiber_sampler, us[1:2], 3, None)
    assert alone[0] is ConvergenceError and "0.25-0.5j" in alone[1]
    assert raised(model.fiber_sampler, us, 3, None) == alone
    assert raised(model.fiber_sampler, us, 3, np.random.default_rng(2)) == alone


def test_a_stack_raises_the_fit_error_of_its_lowest_failing_fiber():
    model = HANDLES["discrete3"].descriptor
    us = np.array([[1.0], [2.5], [0.5], [-1.0]])
    alone = raised(model.fiber_sampler, us[1:2], 4, None)
    assert alone[0] is InfeasibleError
    assert raised(model.fiber_sampler, us, 4, None) == alone


def test_def5_rows_raise_the_error_of_the_lowest_failing_row():
    model = HANDLES["qubit"].descriptor
    us = np.array([[0.1, 0.2, 0.3], [1.5, 0.0, 0.0], [0.0, 0.0, 0.4], [0.0, 2.0, 0.0]])
    xs = np.zeros((4, 3))
    alone = raised(divergence_def5, model, xs[1], us[1])
    assert alone[0] is DomainError
    assert raised(divergence_def5, model, xs, us) == alone


# ------------------------------------------------------------ call budget


@pytest.mark.parametrize("name, most", [
    ("qubit", 2), ("coherent", 2), ("coherent2", 2), ("discrete2", 1), ("discrete3", 3),
])
def test_verify_samples_each_fiber_check_with_one_call(name, most):
    # One sampler call per fiber check: pythagoras-with-data, the
    # fiber-entropy checks and Definition 5 (through divergence_def5).
    # A per-fiber loop that comes back makes tens of calls.
    handle = HANDLES[name]
    calls = []

    def counted(us, count, rng=None):
        calls.append(np.shape(us))
        return handle.descriptor.fiber_sampler(us, count, rng)

    counting = dataclasses.replace(
        handle, descriptor=dataclasses.replace(handle.descriptor, fiber_sampler=counted))
    rows = verify.verify_handle(counting)
    assert all(row.passed for row in rows)
    assert 0 < len(calls) <= most, calls
