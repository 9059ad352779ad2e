"""Regression, sphere and coherent stacks and metric rows against their
one-set and point calls.

The regression functions take one point set or a stack of sets (an
array, or a ragged list); each set of a stack must carry the bits of its
one-set call, and a stack with bad sets raises the error of the lowest
of them, as that set raises it alone.  The sphere functions and the
coherent amplitude, log map and quadratic expectation take one point or
a stack of them, with the same rule.  ``metric_tensor`` on parameter
rows gives row i the bits of the point call on row i, and raises its
``DegeneracyError`` for the lowest failing row.  ``verify`` makes one
call per check.
"""

import numpy as np
import pytest

from infogeo import (
    DegeneracyError,
    DomainError,
    EvaluationError,
    ModelDescriptor,
    coherent,
    core,
    discrete_instance,
    get_model,
    metric_tensor,
    regression,
    sphere,
    verify,
)
from infogeo.numerics import Domain

FUNCTIONS = ("regression_questions", "regression_entropy", "regression_is_perfect",
             "regression_questions_pairwise", "regression_entropy_pairwise")
SPHERE_FUNCTIONS = ("sphere_mu", "sphere_entropy", "sphere_questions",
                    "sphere_from_questions")


def bits(values):
    return np.asarray(values).tobytes()


def ragged_sets(seed, count):
    """Point sets of 2 to 40 points; some share an x value, some sizes repeat."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        n = int(rng.integers(2, 41))
        pts = np.stack([rng.normal(size=n) * rng.uniform(0.1, 5.0),
                        rng.normal(size=n) * 3.0], axis=-1)
        if n > 2 and rng.uniform() < 0.2:
            pts[2, 0] = pts[0, 0]
        sets.append(pts)
    return sets


@pytest.mark.parametrize("fname", FUNCTIONS)
def test_ragged_stack_equals_one_set_calls_bitwise(fname):
    f = getattr(regression, fname)
    sets = ragged_sets(71, 120)
    got = f(sets)
    assert len(got) == len(sets)
    for i, pts in enumerate(sets):
        one = f(pts)
        assert bits(got[i]) == bits(one)
        assert type(one) in (float, bool, np.ndarray)
    # an array of sets of one size is the same stack
    same = [pts for pts in sets if len(pts) == len(sets[0])]
    assert bits(f(np.stack(same))) == bits(f(same))


@pytest.mark.parametrize("fname", FUNCTIONS)
def test_bad_set_raises_its_own_error_in_a_stack(fname):
    f = getattr(regression, fname)
    good = ragged_sets(72, 6)
    bad_sets = [
        np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 3.0]]),              # equal x
        np.array([[0.0, 1.0], [1e200, 2.0], [2.0, 3.0]]),            # overflow
        np.array([[0.0, 1.0], [np.nan, 2.0], [2.0, 3.0]]),           # non-finite
        np.array([[0.0, 1.0]]),                                      # one point
        np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]]),                # not (n, 2)
    ]
    for bad in bad_sets:
        with pytest.raises(Exception) as alone:
            f(bad)
        assert isinstance(alone.value, (ValueError, DegeneracyError, EvaluationError))
        # behind good sets, and ahead of a later bad set of another kind
        for later in bad_sets:
            stack = good[:3] + [bad] + good[3:] + [later]
            with pytest.raises(type(alone.value)) as in_stack:
                f(stack)
            assert str(in_stack.value) == str(alone.value)


def test_stacks_run_without_numpy_warnings():
    # Tier-1 turns a RuntimeWarning into a failure
    sets = ragged_sets(73, 10) + [np.array([[0.0, 1.0], [1e200, 2.0], [2.0, 3.0]])]
    for fname in FUNCTIONS:
        with pytest.raises(EvaluationError):
            getattr(regression, fname)(sets)


@pytest.mark.parametrize("name", ["qubit", "coherent2", "discrete3", "discrete3x2"])
def test_metric_rows_equal_point_calls_bitwise(name):
    # discrete3x2 is the configured family prior = 1, 2, 3 / hamiltonians =
    # 0, 1, 2; 1, 0, 0: two observables, so each row is a 2x2 covariance
    handle = (discrete_instance([1.0, 2.0, 3.0], [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]])
              if name == "discrete3x2" else get_model(name))
    model = handle.descriptor
    thetas = handle.sample_thetas(np.random.default_rng(74), 12, radius=2.0)
    rows = metric_tensor(model, thetas)
    assert rows.shape == (12, model.n, model.n)
    for i, theta in enumerate(thetas):
        assert bits(rows[i]) == bits(metric_tensor(model, theta))


def test_metric_rows_raise_for_the_lowest_failing_row():
    # a hand-built descriptor whose closed metric is 1 for theta < 1 and -1
    # past it: the metric is -1 at rows 1 and 3, and the error names row
    # 1's eigenvalue
    def metric(thetas):
        return np.where(thetas[:, :, None] < 1.0, 1.0, -1.0)

    domain = Domain(1, np.array([[-10.0, 10.0]]), lambda u: np.abs(u[..., 0]) < 10.0,
                    np.array([0.0]))
    model = ModelDescriptor(domain, lambda u: np.zeros(np.shape(u)[:-1]),
                            closed_dual_points=None, closed_metric=metric,
                            closed_u_to_theta=None, dataset_answers=None,
                            fiber_sampler=None)
    thetas = np.array([[0.0], [3.0], [-2.0], [5.0]])
    with pytest.raises(DegeneracyError) as rows_error:
        metric_tensor(model, thetas)
    with pytest.raises(DegeneracyError) as one_error:
        metric_tensor(model, thetas[1])
    assert str(rows_error.value) == str(one_error.value)
    assert "-1.000e+00" in str(rows_error.value)
    assert metric_tensor(model, thetas[::2])[:, 0, 0] == pytest.approx([1.0, 1.0])


def test_verify_makes_one_call_per_check(monkeypatch):
    counted_functions = ((core, "metric_tensor"), (regression, "regression_questions"),
                         (coherent, "log_weight_coherent"),
                         *((sphere, f) for f in SPHERE_FUNCTIONS))
    calls = dict.fromkeys((fname for _, fname in counted_functions), 0)
    for module, fname in counted_functions:
        real = getattr(module, fname)

        def counted(*args, real=real, fname=fname, **kwargs):
            calls[fname] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, fname, counted)
    verify.verify_handle(get_model("coherent"))
    verify.verify_regression()
    verify.verify_sphere()
    # metric-positive-definite, metric-inverse-duality, metric-constant-gaussian
    assert calls["metric_tensor"] == 3
    # one call in each of the five checks
    assert calls["regression_questions"] == 5
    # log-map-affine-identity
    assert calls["log_weight_coherent"] == 1
    # ray-entropy-peak and entropy-nonpositive; chart-roundtrip
    assert calls["sphere_entropy"] == 2
    assert calls["sphere_mu"] == calls["sphere_questions"] == 1
    assert calls["sphere_from_questions"] == 1


# ------------------------------------------------ sphere and coherent rows

COHERENT2 = coherent.PhaseConstants(r=2.0, hbar=0.5)


def sphere_rows(fname, seed, count):
    """Vectors of lengths 1e-320 to 1e300 with x3 > 0, or chart values
    of sizes 1e-320 to 1e300."""
    rng = np.random.default_rng(seed)
    size = 2 if fname == "sphere_from_questions" else 3
    rows = rng.normal(size=(count, size)) * 10.0 ** rng.choice(
        [-320, -200, -155, 0, 0, 0, 154, 200, 300], size=(count, 1))
    rows[:, -1] = np.abs(rows[:, -1])
    return rows


@pytest.mark.parametrize("fname", SPHERE_FUNCTIONS)
def test_sphere_rows_equal_point_calls_bitwise(fname):
    f = getattr(sphere, fname)
    rows = sphere_rows(fname, 75, 200)
    got = f(rows)
    assert len(got) == 200
    for i, x in enumerate(rows):
        assert bits(got[i]) == bits(f(x))
    # a point is row 0 of the one-row call, and a stack (2, 100, n) holds
    # the rows in order
    assert bits(f(rows[0])) == bits(f(rows[:1])[0])
    assert bits(f(rows.reshape(2, 100, -1))) == bits(got)


SPHERE_BAD = {
    "sphere_mu": [np.zeros(3), np.array([1.0, np.nan, 1.0]),
                  np.array([np.inf, 0.0, 1.0])],
    "sphere_entropy": [np.zeros(3), np.array([1.0, np.nan, 1.0]),
                       np.array([3e305, 0.0, 1.0]), np.full(3, 1.7e308)],
    "sphere_questions": [np.array([1.0, 2.0, 0.0]), np.array([1.0, 2.0, -1.0]),
                         np.array([1.0, 2.0, np.inf]), np.array([1e300, 0.0, 1e-10]),
                         np.array([np.nan, 0.0, 1.0])],
    "sphere_from_questions": [np.array([np.nan, 1.0]), np.array([np.inf, 1.0])],
}


@pytest.mark.parametrize("fname", SPHERE_FUNCTIONS)
def test_sphere_bad_row_raises_its_own_error_in_a_stack(fname):
    f = getattr(sphere, fname)
    good = sphere_rows(fname, 76, 6)
    bad_rows = SPHERE_BAD[fname]
    for bad in bad_rows:
        with pytest.raises(Exception) as alone:
            f(bad)
        assert isinstance(alone.value, (ValueError, DomainError, EvaluationError))
        # behind good rows, and ahead of a later bad row of another kind
        for later in bad_rows:
            stack = np.concatenate([good[:3], [bad], good[3:], [later]])
            with pytest.raises(type(alone.value)) as in_stack:
                f(stack)
            assert str(in_stack.value) == str(alone.value)
    with pytest.raises(ValueError):
        f(np.ones((4, 4)))


def coherent_points(seed, count):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, size=(count, 2))


def test_z_of_u_rows_equal_point_calls_bitwise():
    us = coherent_points(77, 50)
    zs = coherent.z_of_u(us, COHERENT2)
    assert zs.shape == (50,)
    for i, u in enumerate(us):
        assert bits(zs[i]) == bits(coherent.z_of_u(u, COHERENT2))
    assert bits(coherent.z_of_u(us[0], COHERENT2)) == bits(
        coherent.z_of_u(us[:1], COHERENT2)[0])


def test_log_map_and_expectation_rows_equal_point_calls_bitwise():
    handle = get_model("coherent2")
    nmax = handle.nmax
    us = coherent_points(78, 12)
    states = handle.sample_datasets(np.random.default_rng(79), 12)
    lowered = coherent.annihilate(states)
    values = coherent.log_weight_coherent(states, us, COHERENT2)
    assert lowered.shape == (12, nmax + 1) and values.shape == (12,)
    for i, (u, psi) in enumerate(zip(us, states)):
        assert bits(lowered[i]) == bits(coherent.annihilate(psi))
        assert bits(values[i]) == bits(coherent.log_weight_coherent(psi, u, COHERENT2))
