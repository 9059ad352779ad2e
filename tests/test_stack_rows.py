"""Regression stacks and metric rows against their one-set and point calls.

The regression functions take one point set or a stack of sets (an
array, or a ragged list); each set of a stack must carry the bits of its
one-set call, and a stack with bad sets raises the error of the lowest
of them, as that set raises it alone.  ``metric_tensor`` on parameter
rows gives row i the bits of the point call on row i, and raises its
``DegeneracyError`` for the lowest failing row.  ``verify`` makes one
call per check.
"""

import numpy as np
import pytest

from infogeo import (
    DegeneracyError,
    EvaluationError,
    ModelDescriptor,
    core,
    get_model,
    metric_tensor,
    regression,
    verify,
)
from infogeo.numerics import Domain

FUNCTIONS = ("regression_questions", "regression_entropy", "regression_is_perfect",
             "regression_questions_pairwise", "regression_entropy_pairwise")


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


@pytest.mark.parametrize("name", ["qubit", "coherent2", "discrete3"])
def test_metric_rows_equal_point_calls_bitwise(name):
    handle = get_model(name)
    model = handle.descriptor
    thetas = handle.sample_thetas(np.random.default_rng(74), 12, radius=2.0)
    rows = metric_tensor(model, thetas)
    assert rows.shape == (12, model.n, model.n)
    for i, theta in enumerate(thetas):
        assert bits(rows[i]) == bits(metric_tensor(model, theta))


def test_metric_rows_raise_for_the_lowest_failing_row():
    # Phi = theta^2 / 2 for theta < 1 and -theta^2 / 2 past it: the metric
    # is -1 at rows 1 and 3, and the error names row 1's eigenvalue
    def dual(thetas):
        t = thetas[:, 0]
        phi = np.where(t < 1.0, 0.5, -0.5) * t * t
        return phi, -thetas, np.zeros(len(t))

    domain = Domain(1, np.array([[-10.0, 10.0]]), lambda u: np.abs(u[..., 0]) < 10.0,
                    np.array([0.0]))
    model = ModelDescriptor(domain, lambda u: np.zeros(np.shape(u)[:-1]), dual,
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
    calls = {"metric_tensor": 0, "regression_questions": 0}
    for module, fname in ((core, "metric_tensor"), (regression, "regression_questions")):
        real = getattr(module, fname)

        def counted(*args, real=real, fname=fname, **kwargs):
            calls[fname] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, fname, counted)
    verify.verify_handle(get_model("coherent"))
    verify.verify_regression()
    # metric-positive-definite, metric-inverse-duality, metric-constant-gaussian
    assert calls["metric_tensor"] == 3
    # one call in each of the five checks
    assert calls["regression_questions"] == 5
