"""The one damped-Newton core of ``numerics`` on synthetic objectives.

The core serves two callers of different shapes: ``maximize_concave_rows``
with finite-difference derivatives, and the discrete moment fit with
analytic value, gradient and Newton-direction callbacks that carry
per-row state from the value to the derivatives.  For both, a row that
can never pass the Armijo test ends as stalled (``converged=False``), a
row whose value fails ends with its own error, and every other row of the
same call converges with the bits of its one-row solve.
"""

import numpy as np
import pytest

from infogeo import ConvergenceError, EvaluationError, InfoGeoError, numerics
from infogeo.numerics import _damped_newton

#: Row kinds: a concave quadratic that converges, a row whose reported
#: ascent is a trap that no step passes, and a row whose value fails past
#: x_0 = 0.35.
KINDS = {"converges": 0.0, "trap": 1.0, "fails": 2.0}
TRAP_SLOPE, TRAP_WALL, CEILING = 1e8, 1e12, 0.35


def _rows(n, kinds, seed=0):
    """Parameter rows ``[centre (n), curvature (n), kind]``."""
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-0.6, 0.6, (len(kinds), n))
    centre[:, 0] = np.where([kind == "fails" for kind in kinds], 0.9, centre[:, 0])
    curvature = rng.uniform(0.5, 3.0, (len(kinds), n))
    return np.column_stack([centre, curvature, [KINDS[kind] for kind in kinds]])


# ------------------------------------------------ finite differences

def _objective(points, params):
    """Row-wise objective of ``maximize_concave_rows``: the quadratic
    ``-1/2 sum_j c_j (x_j - a_j)^2``, or, on a trap row, ``s sum_j x_j -
    w sum_j |x_j|`` around the start 0, whose central differences see the
    slope s while every step away from 0 loses; a failing row raises past
    the ceiling."""
    n = points.shape[1]
    centre, curvature, kind = params[:, :n], params[:, n:2 * n], params[:, 2 * n]
    past = (kind == KINDS["fails"]) & (points[:, 0] > CEILING)
    if past.any():
        raise ConvergenceError(f"no value past {points[past][0].tolist()}")
    quadratic = -0.5 * (curvature * (points - centre) ** 2).sum(axis=1)
    trap = TRAP_SLOPE * points.sum(axis=1) - TRAP_WALL * np.abs(points).sum(axis=1)
    return np.where(kind == KINDS["trap"], trap, quadratic)


def _box(n):
    return numerics.Domain(n, np.array([[-1.0, 1.0]] * n),
                           lambda u: np.all(np.abs(u) < 1.0, axis=-1), np.zeros(n))


def _one_row(domain, row, tol):
    try:
        return numerics.maximize_concave(
            lambda points: _objective(points, np.repeat(row[None], len(points), axis=0)),
            domain, tol)
    except InfoGeoError as exc:
        return exc


@pytest.mark.parametrize("n", [1, 2])
def test_fd_rows_stall_fail_and_keep_their_one_row_bits(n):
    kinds = ["converges", "trap", "converges", "fails", "converges", "trap"]
    params = _rows(n, kinds)
    domain = _box(n)
    outcomes = numerics.maximize_concave_rows(_objective, domain, params, 1e-9)
    for kind, got, row in zip(kinds, outcomes, params):
        want = _one_row(domain, row, 1e-9)
        if kind == "fails":
            assert isinstance(got, ConvergenceError) and type(want) is type(got)
            assert str(got) == str(want)
            continue
        assert isinstance(got, numerics.OptimizationResult)
        assert got.argmax.tobytes() == want.argmax.tobytes()
        assert (got.value, got.iterations, got.gradient_norm, got.converged) == (
            want.value, want.iterations, want.gradient_norm, want.converged)
        if kind == "trap":
            # the first step finds no admissible length: a stall, not the cap
            assert not got.converged and got.iterations == 1
            assert got.argmax.tobytes() == np.zeros(n).tobytes()
        else:
            assert got.converged and got.gradient_norm <= 1e-9
            assert np.allclose(got.argmax, row[:n], atol=1e-8)


def test_fd_row_whose_value_turns_nan_ends_with_an_evaluation_error():
    def objective(points, params):
        values = -0.5 * ((points - params) ** 2).sum(axis=1)
        return np.where((params[:, 0] > 0.5) & (points[:, 0] > 0.3), np.nan, values)

    params = np.array([[0.2], [0.8], [-0.4]])
    outcomes = numerics.maximize_concave_rows(objective, _box(1), params, 1e-9)
    assert outcomes[0].converged and outcomes[2].converged
    assert isinstance(outcomes[1], EvaluationError)
    alone = numerics.maximize_concave_rows(objective, _box(1), params[1:2], 1e-9)[0]
    assert str(alone) == str(outcomes[1])


# ------------------------------------------------ analytic callbacks

def _analytic(params, tol):
    """Solve the rows of ``params`` with analytic callbacks shaped as the
    moment fit's: the value carries each point's gradient as state, the
    gradient reads it back, and the direction is the Newton step of the
    diagonal Hessian.  A failing row is recorded and given NaN, as the core
    asks; returns each row's ``(x, f, iterations, gradient_norm)`` from the
    core's ``finish``, or its error."""
    n = (params.shape[1] - 1) // 2
    centre, curvature, kind = params[:, :n], params[:, n:2 * n], params[:, 2 * n]
    errors = [None] * len(params)

    def value(rows, points):
        trap = kind[rows] == KINDS["trap"]
        past = (kind[rows] == KINDS["fails"]) & (points[:, 0] > CEILING)
        for i in np.flatnonzero(past):
            errors[rows[i]] = ConvergenceError(f"no value past {points[i].tolist()}")
        diff = points - centre[rows]
        f = -0.5 * (curvature[rows] * diff ** 2).sum(axis=1)
        f = np.where(trap, -TRAP_WALL * np.abs(points).sum(axis=1), f)
        # the trap reports the slope it shows central differences
        grad = np.where(trap[:, None], TRAP_SLOPE, -curvature[rows] * diff)
        return np.where(past, np.nan, f), grad

    def direction(rows, grad, x, f, state):
        return np.where((kind[rows] == KINDS["trap"])[:, None], grad, grad / curvature[rows])

    results = [None] * len(params)

    def finish(rows, x, f, iterations, gnorm):
        for i, row in enumerate(rows):
            results[row] = (x[i], f[i], iterations, gnorm[i])

    _damped_newton(np.zeros((len(params), n)), tol, value, lambda rows, x, f, grad: grad,
                   direction, lambda rows, x, f: 1e-15 * (1.0 + np.abs(f)), finish)
    return [error or result for error, result in zip(errors, results)]


@pytest.mark.parametrize("n", [1, 3])
def test_analytic_rows_stall_fail_and_keep_their_one_row_bits(n):
    kinds = ["trap", "converges", "fails", "converges", "converges", "trap", "fails"]
    params = _rows(n, kinds, seed=n)
    tol = 1e-12
    stacked = _analytic(params, tol)
    for i, (kind, got) in enumerate(zip(kinds, stacked)):
        (want,) = _analytic(params[i:i + 1], tol)
        if kind == "fails":
            assert isinstance(got, ConvergenceError) and str(got) == str(want)
            continue
        x, f, iterations, gnorm = got
        assert x.tobytes() == want[0].tobytes()
        assert (f, iterations, gnorm) == tuple(want[1:])
        if kind == "trap":
            assert iterations == 1 and gnorm > tol      # stalled: not converged
            assert not x.any()
        else:
            assert gnorm <= tol and iterations >= 1     # converged
            assert np.allclose(x, params[i, :n], atol=1e-12)


def test_analytic_stack_of_only_failing_rows_returns_their_errors():
    params = _rows(2, ["fails", "fails"])
    stacked = _analytic(params, 1e-12)
    assert all(isinstance(outcome, ConvergenceError) for outcome in stacked)
    assert [str(e) for e in stacked] == [str(_analytic(params[i:i + 1], 1e-12)[0])
                                         for i in range(2)]
