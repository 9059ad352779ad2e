"""Batched numeric oracles against their one-row forms.

``grad_fd``/``hess_fd`` on centres ``(k, n)``, the k-row damped-Newton
maximizer and the row-wise numeric Legendre transform must give every
row the bits of the one-row call, and a failing row the error that the
one-row call raises.  The maximizer is held to a literal per-row copy of
the one-problem algorithm: damped Newton with domain-fitted stencils,
Armijo backtracking and a gradient-ascent fallback.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from infogeo import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    InfoGeoError,
    ModelDescriptor,
    core,
    get_model,
    numerics,
)
from infogeo.numerics import (
    ARMIJO_C,
    BACKTRACK_FACTOR,
    GRAD_STEP,
    HESS_STEP,
    MAX_BACKTRACKS,
    MAX_ITERATIONS,
    grad_fd,
    hess_fd,
)

CANONICAL = ("qubit", "coherent", "coherent2", "discrete2", "discrete3")
SETTINGS = settings(max_examples=12, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------- the one-row algorithm

class _Outside(Exception):
    pass


def _reference_stencil_fd(fd, f, x, domain, step):
    def inside(rows):
        if not np.all(domain.membership(rows)):
            raise _Outside
        return f(rows)

    h = None
    for _ in range(MAX_BACKTRACKS):
        try:
            return fd(inside, x, h)
        except _Outside:
            h = BACKTRACK_FACTOR * (step * float(np.max(np.abs(x), initial=1.0))
                                    if h is None else h)
    raise DomainError(f"no finite-difference stencil at {x.tolist()} fits in the domain")


def _reference_direction(grad, hess):
    try:
        low = np.linalg.cholesky(-hess)
        p = np.linalg.solve(low.T, np.linalg.solve(low, grad))
    except np.linalg.LinAlgError:
        return grad.copy()
    if not np.all(np.isfinite(p)) or float(p @ grad) <= 0.0:
        return grad.copy()
    return p


def _reference_value(f, x):
    values = np.asarray(f(x[None]), dtype=float)
    if not np.isfinite(values).all():
        raise EvaluationError(
            f"objective returned non-finite value at {x.tolist()}")
    return float(values[0])


def _reference_maximize(f, domain, tol):
    """The one-problem damped-Newton loop, point by point."""
    x = domain.interior_point
    fx = _reference_value(f, x)
    for it in range(MAX_ITERATIONS):
        grad = _reference_stencil_fd(grad_fd, f, x, domain, GRAD_STEP)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            return numerics.OptimizationResult(x, fx, it, gnorm, True)
        hess = _reference_stencil_fd(hess_fd, f, x, domain, HESS_STEP)
        p = _reference_direction(grad, hess)
        slope = float(grad @ p)
        slack = 1e-15 * (1.0 + abs(fx))
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            cand = x + t * p
            if domain.membership(cand):
                fc = _reference_value(f, cand)
                if fc >= fx + ARMIJO_C * t * slope - slack:
                    x, fx = cand, fc
                    break
            t *= BACKTRACK_FACTOR
        else:
            return numerics.OptimizationResult(x, fx, it + 1, gnorm, False)
    grad = _reference_stencil_fd(grad_fd, f, x, domain, GRAD_STEP)
    gnorm = float(np.linalg.norm(grad))
    return numerics.OptimizationResult(x, fx, MAX_ITERATIONS, gnorm, gnorm <= tol)


def _outcome(call):
    try:
        return call()
    except InfoGeoError as exc:
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got.argmax.tobytes() == np.asarray(want.argmax, dtype=float).tobytes()
    assert (got.value, got.iterations, got.gradient_norm, got.converged) == (
        want.value, want.iterations, want.gradient_norm, want.converged)


# ------------------------------------------------------------ stencils

def _box(n, lo=0.0, hi=1.0, start=0.5):
    return numerics.Domain(
        n, np.array([[lo, hi]] * n),
        lambda u: np.all((u > lo) & (u < hi), axis=-1), np.full(n, start))


def _curved(us):
    return np.sin(us).sum(axis=1) + np.prod(us, axis=1) - 0.3 * (us * us * us).sum(axis=1)


@SETTINGS
@given(st.integers(1, 3), st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=18),
       st.sampled_from([None, 1e-3, 1e-5]))
def test_fd_on_centres_equals_per_centre_calls_bitwise(n, coords, h):
    k = len(coords) // n
    centres = np.array(coords[:k * n]).reshape(k, n)
    calls = []
    counted = lambda rows: calls.append(len(rows)) or _curved(rows)
    g = grad_fd(counted, centres, h)
    hess = hess_fd(counted, centres, h)
    # one objective call per kernel, over every centre's stencil
    assert calls == [2 * n * k, (2 * n * n + 1) * k]
    assert g.shape == (k, n) and hess.shape == (k, n, n)
    for i, x in enumerate(centres):
        assert g[i].tobytes() == grad_fd(_curved, x, h).tobytes()
        assert hess[i].tobytes() == hess_fd(_curved, x, h).tobytes()


@SETTINGS
@given(st.integers(1, 3), st.lists(st.floats(1e-17, 1e-2), min_size=2, max_size=8))
def test_stencil_steps_are_halved_per_centre(n, gaps):
    # Centres at several distances from the lower edge of the box: each
    # needs its own number of halvings, and a batched fit gives each the
    # steps that a fit of that centre alone gives, which are the steps of
    # the one-row algorithm.
    domain = _box(n)
    centres = np.array([np.full(n, 1e-3) + np.eye(n)[0] * (gap - 1e-3) for gap in gaps])
    for stencil in (numerics._GRAD, numerics._HESS):
        points, hs, failed = numerics._fitted_stencils(stencil, centres, domain)
        assert not failed.any()
        for i, x in enumerate(centres):
            one = numerics._fitted_stencils(stencil, x[None], domain)
            assert points[i].tobytes() == one[0][0].tobytes()
            assert hs[i].tobytes() == one[1][0].tobytes()
            fd = grad_fd if stencil is numerics._GRAD else hess_fd
            steps = []
            _reference_stencil_fd(lambda f, x, h: steps.append(h) or fd(f, x, h),
                                  lambda rows: rows[:, 0], x, domain, stencil.step)
            want = numerics._steps(x[None], steps[-1], stencil.step)[0]
            assert hs[i].tobytes() == want.tobytes()


def test_stencil_steps_near_an_edge_differ_per_centre():
    centres = np.array([[0.5], [1e-5], [1e-9], [1e-15]])
    _, hs, failed = numerics._fitted_stencils(numerics._HESS, centres, _box(1))
    assert not failed.any()
    assert hs[0, 0] == HESS_STEP
    assert len(set(hs[:, 0].tolist())) == 4
    assert np.all(hs[1:, 0] < centres[1:, 0])
    # a centre that the domain excludes gets no stencil; the others do
    domain = numerics.Domain(1, np.array([[0.0, 1.0]]),
                             lambda u: (u[..., 0] > 0.0) & (u[..., 0] < 1.0)
                             & (u[..., 0] != 0.25), np.array([0.5]))
    _, _, failed = numerics._fitted_stencils(numerics._HESS, np.array([[0.25], [0.5]]),
                                             domain)
    assert failed.tolist() == [True, False]


# ----------------------------------------------------------- maximizer

def _objective(points, params):
    """Row-wise ``-s |u - a|^2 + c . u`` in n = points.shape[1] dimensions;
    raises for points of a row beyond that row's ceiling ``b`` and is NaN
    below its floor ``d``."""
    n = points.shape[1]
    a, s, c = params[:, :n], params[:, n], params[:, n + 1:2 * n + 1]
    b, d = params[:, 2 * n + 1], params[:, 2 * n + 2]
    if np.any(points[:, 0] > b):
        raise ConvergenceError(f"no value above {points[points[:, 0] > b][0].tolist()}")
    diff = points - a
    value = -s * (diff * diff).sum(axis=1) + (c * points).sum(axis=1)
    return np.where(points[:, 0] < d, np.nan, value)


_ROW = st.tuples(
    st.floats(-2.0, 3.0), st.floats(-2.0, 3.0),
    st.sampled_from([0.0, 1.0, 1e3, -1.0]),
    st.floats(-1e-2, 1e-2), st.floats(-1e-2, 1e-2),
    st.sampled_from([math.inf, math.inf, 0.9, 0.6, 0.2]),
    st.sampled_from([-math.inf, -math.inf, 0.4]))


def _params(rows, n):
    return np.array([[*r[:n], r[2], *r[3:3 + n], r[5], r[6]] for r in rows])


def _check_rows_equal_per_row_loop(domain, params, tol):
    outcomes = numerics.maximize_concave_rows(_objective, domain, params, tol)
    assert len(outcomes) == len(params)
    for got, p in zip(outcomes, params):
        f = lambda us, p=p: _objective(us, np.repeat(p[None], len(us), axis=0))
        want = _outcome(lambda: _reference_maximize(f, domain, tol))
        _assert_same_outcome(got, want)
        # the one-row view is the same kernel
        _assert_same_outcome(_outcome(lambda: numerics.maximize_concave(f, domain, tol)),
                             want)
    return outcomes


@SETTINGS
@given(st.integers(1, 2), st.lists(_ROW, min_size=1, max_size=5),
       st.sampled_from([1e-8, 1e-12]))
def test_maximizer_rows_equal_the_per_row_algorithm(n, rows, tol):
    _check_rows_equal_per_row_loop(_box(n), _params(rows, n), tol)


def test_maximizer_rows_cover_stall_cap_and_errors():
    rows = [(0.3, 0.0, 1.0, 0.0, 0.0, math.inf, -math.inf),   # converges
            (5.0, 0.0, 1e3, 0.0, 0.0, math.inf, -math.inf),   # stalls at the edge
            (0.9, 0.0, 1.0, 0.0, 0.0, 0.6, -math.inf),        # f raises on a candidate
            (0.3, 0.0, 1.0, 0.0, 0.0, 0.2, -math.inf),        # f raises at the start
            (-1.0, 0.0, 1.0, 0.0, 0.0, math.inf, 0.4)]        # NaN on a candidate
    outcomes = _check_rows_equal_per_row_loop(_box(1), _params(rows, 1), 1e-8)
    assert outcomes[0].converged
    assert not outcomes[1].converged and outcomes[1].iterations < MAX_ITERATIONS
    assert isinstance(outcomes[2], ConvergenceError)
    assert isinstance(outcomes[3], ConvergenceError)
    assert isinstance(outcomes[4], EvaluationError)
    # a gradient norm that never reaches tol runs every row into the cap
    capped = _check_rows_equal_per_row_loop(_box(1), _params(rows[:1], 1), -1.0)
    assert capped[0].iterations == MAX_ITERATIONS and not capped[0].converged


# ---------------------------------------------------- numeric Legendre

@pytest.mark.parametrize("name", CANONICAL)
@settings(max_examples=2, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_legendre_rows_equal_one_row_transforms_bitwise(name, seed):
    handle = get_model(name)
    model = handle.descriptor
    thetas = handle.sample_thetas(np.random.default_rng(seed), 12)
    phi, u = core.legendre_rows(model, thetas, tol=1e-7)
    for i, th in enumerate(thetas):
        one_phi, one_u = core.legendre_rows(model, th[None], tol=1e-7)
        assert phi[i].tobytes() == one_phi[0].tobytes()
        assert u[i].tobytes() == one_u[0].tobytes()


def test_legendre_rows_raise_the_lowest_failing_row():
    # S = -u^2/2 has no value past |u| = 2, where rows 1 and 2 take their
    # first step; row 1's error is the one-row error of the lowest failing
    # row.  (The kernel test above covers a later row failing first.)
    def entropy(us):
        us = np.asarray(us, dtype=float)
        bad = np.abs(us[..., 0]) > 2.0
        if bad.any():
            raise ConvergenceError(f"no entropy at {us[bad][0].tolist()}")
        return -0.5 * us[..., 0] ** 2

    domain = numerics.Domain(1, np.array([[-10.0, 10.0]]),
                             lambda u: np.abs(u[..., 0]) < 10.0, np.array([0.0]))
    model = ModelDescriptor(domain, entropy, closed_dual_points=None,
                            closed_metric=None, closed_u_to_theta=None,
                            dataset_answers=None, fiber_sampler=None)
    thetas = np.array([[-1.0], [-3.0], [5.0]])
    with pytest.raises(ConvergenceError) as rows_error:
        core.legendre_rows(model, thetas)
    with pytest.raises(ConvergenceError) as one_error:
        core.legendre_rows(model, thetas[1:2])
    assert str(rows_error.value) == str(one_error.value) == "no entropy at [3.0]"
    # row 0 alone converges, to Phi(-1) = 1/2
    assert core.legendre_rows(model, thetas[:1])[0][0] == pytest.approx(0.5, abs=1e-12)

