"""Numerical kernels shared by every model.

Central finite differences, one damped-Newton loop for concave
objectives, a deterministic brute-force grid supremum, and closed-form
spectral calculus for 2x2 Hermitian matrices.

Objectives and domain membership are row-wise: they take points stacked
along the last axis and decide or evaluate each one, independently of
the other rows.  The finite differences take one centre ``(n,)`` or k
centres ``(k, n)``: a gradient evaluates the 2n stencil points of every
centre in one objective call and a Hessian their 2n^2+1.  The Newton
loop solves k problems at once for the discrete moment fit and for
:func:`maximize_concave_rows` (:func:`maximize_concave` is its one-row
view), which evaluates the gradient stencils of all rows in one call,
their Hessian stencils in another and the candidates of one step length
in a third; each row gets the bits and the error that it gets alone.
The grid supremum evaluates every member row of a slab in one call.

All routines are pure: they never mutate their inputs and contain no
hidden state, so concurrent use is safe.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EvaluationError, InfoGeoError

EPS = float(np.finfo(float).eps)
#: Default step for central first differences: balances O(h^2) truncation
#: against O(eps/h) rounding.
GRAD_STEP = EPS ** (1.0 / 3.0)
#: Default step for central second differences, where the rounding term
#: scales like eps/h^2 and the balance point moves to eps**0.25.
HESS_STEP = EPS ** 0.25

ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60
MAX_ITERATIONS = 200


def _frozen(a) -> np.ndarray:
    """A read-only float copy of ``a``."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Domain:
    """Open subset of R^n described by a membership predicate.

    Parameters
    ----------
    dimension : int
        Ambient dimension n.
    bounding_box : (n, 2) array
        Finite per-coordinate bounds containing every member point.  The
        domain keeps a read-only copy, as it does of ``interior_point``.
    membership : callable
        Row-wise predicate deciding strict interiority: points of shape
        ``(..., n)`` map to a bool array of shape ``(...)``, so a single
        point ``(n,)`` gives a 0-d bool.  Each point's decision must not
        depend on the other rows it is stacked with.
    interior_point : (n,) array
        A point satisfying ``membership``; used as the default start of
        iterative searches.
    unbounded : bool
        True when the box is an artificial cutoff rather than a true
        boundary (the supremum may escape to infinity).
    """

    dimension: int
    bounding_box: np.ndarray
    membership: Callable[[np.ndarray], bool]
    interior_point: np.ndarray
    unbounded: bool = False

    def __post_init__(self):
        box = _frozen(self.bounding_box).reshape(self.dimension, 2)
        object.__setattr__(self, "bounding_box", box)
        x0 = _frozen(self.interior_point).reshape(self.dimension)
        object.__setattr__(self, "interior_point", x0)
        if not np.all(np.isfinite(box)):
            raise ValueError("bounding box must be finite")
        if np.any(box[:, 1] <= box[:, 0]):
            raise ValueError("bounding box must have positive extent")
        if not self.membership(x0):
            raise ValueError("interior_point must satisfy membership")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of an iterative maximization."""

    argmax: np.ndarray
    value: float
    iterations: int
    gradient_norm: float
    converged: bool


@dataclass(frozen=True)
class Matrix2H:
    """2x2 Hermitian matrix stored as four real degrees of freedom, or a
    stack of k of them with each field an array ``(k,)``.

    The represented matrix is ``[[a, x - i y], [x + i y, d]]``: ``a`` and
    ``d`` are the real diagonal, ``x + i y`` is the lower off-diagonal
    entry.  The spectral functions below take a single matrix or a stack
    and treat each matrix of a stack as they treat it alone.
    """

    a: float | np.ndarray
    d: float | np.ndarray
    x: float | np.ndarray
    y: float | np.ndarray = 0.0

    def to_array(self) -> np.ndarray:
        """The complex matrix ``(2, 2)``, or the stack ``(k, 2, 2)``."""
        a, d, x, y = np.broadcast_arrays(self.a, self.d, self.x, self.y)
        out = np.zeros(a.shape + (2, 2), dtype=complex)
        out.real[..., 0, 0], out.real[..., 1, 1] = a, d
        out.real[..., 0, 1] = out.real[..., 1, 0] = x
        out.imag[..., 1, 0], out.imag[..., 0, 1] = y, -y
        return out

    def scaled(self, s) -> "Matrix2H":
        """The matrix times ``s``, a scalar or one factor per matrix."""
        return Matrix2H(s * self.a, s * self.d, s * self.x, s * self.y)


def _h2_fields(m: Matrix2H):
    """The fields of ``m`` as rows ``(k,)`` each, and whether ``m`` is a
    single matrix (then k = 1)."""
    fields = np.broadcast_arrays(*(np.asarray(f, dtype=float)
                                   for f in (m.a, m.d, m.x, m.y)))
    if fields[0].ndim > 1:
        raise ValueError("a stack of 2x2 matrices has one-dimensional fields")
    return [np.atleast_1d(f) for f in fields], fields[0].ndim == 0


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis of two ``(..., n)`` arrays.

    Evaluated as a stack of vector products, which numpy computes with
    the inner-product kernel of the 1-D ``a[i] @ b[i]``, so each value
    equals the per-row one bit for bit, and so does ``x @ x`` inside the
    1-D ``np.linalg.norm(x)`` (``np.linalg.norm(x, axis=1)`` does not).
    """
    if a.ndim == b.ndim == 1:  # that kernel, without the stacking overhead
        return np.dot(a, b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


# the smallest normal double: a sum of squares below it has lost digits
_TINY = float(np.finfo(float).tiny)


def row_norm(x: np.ndarray) -> np.ndarray:
    """``|x|`` along the last axis of ``x`` (..., n).

    Rescaled by ``max|x_j|`` only where the sum of squares overflows
    (``|x| >~ 1.3e154``) or falls below the smallest normal double
    (``|x| <~ 1.5e-154``), so other norms keep the bits of the 1-D
    ``np.linalg.norm``, and one column gives ``|x_0|``, which they equal;
    a zero row has norm 0, and a finite row longer than the largest double
    has norm inf, without a numpy warning.
    """
    if x.shape[-1] == 1:    # sqrt(x_0^2) is |x_0| exactly
        return np.abs(x[..., 0])
    with np.errstate(over="ignore"):
        squares = row_dot(x, x)
        t = np.sqrt(squares)
        odd = (squares == math.inf) | (squares < _TINY)
        if not np.count_nonzero(odd):   # faster than odd.any() on one row
            return t
        scale = np.abs(x).max(axis=-1, initial=0.0)
        odd &= (scale > 0.0) & (scale < math.inf)   # not a zero or non-finite row
        scale = np.where(odd, scale, 1.0)
        scaled = x / scale[..., None]
        return np.where(odd, scale * np.sqrt(row_dot(scaled, scaled)), t)[()]


def complex_row_norm(v: np.ndarray) -> np.ndarray:
    """``|v|`` along the last axis of the complex array ``v`` (..., n), with
    the bits of the 1-D ``np.linalg.norm``, which sums the real and
    imaginary squares apart.  Not rescaled: for vectors of moderate size."""
    return np.sqrt(row_dot(v.real, v.real) + row_dot(v.imag, v.imag))


def _steps(x: np.ndarray, h: float | None, default: float) -> np.ndarray:
    """Steps ``(k, n)`` at the centres ``x`` (k, n): ``h`` for every
    coordinate, or ``default * max(1, |x_j|)`` per coordinate."""
    if h is None:
        return default * np.maximum(1.0, np.abs(x))
    return np.full(x.shape, float(h))


def raise_first(*checks) -> None:
    """Raise the error of the lowest failing row of a stack, and at that
    row the error of the first check it fails; return when no row fails.

    Each check is ``(failed, error)``: ``failed`` a bool mask of shape
    ``(...)`` over the rows, the same for every check, and ``error`` an
    exception, or a function of the flat index of the row (its index in
    ``failed.ravel()``) that returns one.
    """
    if not any(np.count_nonzero(failed) for failed, _ in checks):
        return
    failed = np.array([np.ravel(f) for f, _ in checks])
    row = int(np.argmax(failed.any(axis=0)))
    error = checks[int(np.argmax(failed[:, row]))][1]
    raise error if isinstance(error, BaseException) else error(row)


def _eval_rows(f, rows: np.ndarray, columns: bool = False) -> np.ndarray:
    """Values of the row-wise objective ``f`` at ``rows`` (k, n).

    Raises ValueError unless ``f`` returns one value per row (with
    ``columns``, one value ``(k,)`` or one row ``(k, m)`` of values per
    row), and :class:`EvaluationError` naming the first row with a
    non-finite value.
    """
    values = np.asarray(f(rows), dtype=float)
    if values.shape[:1] != rows.shape[:1] or values.ndim > (2 if columns else 1):
        raise ValueError("objective must return one value per row")
    nonfinite = ~np.isfinite(values).reshape(len(rows), -1).all(axis=1)
    raise_first((nonfinite, lambda i: EvaluationError(
        f"objective returned non-finite value at {rows[i].tolist()}")))
    return values


class _Stencil(NamedTuple):
    """A central-difference scheme: ``points(x, hs)`` gives the ``(k, m,
    n)`` stencil points of the centres ``x`` (k, n) with steps ``hs``, and
    ``combine(values, hs)`` the derivatives from their ``(k, m)`` values;
    ``step`` is the default relative step."""

    points: Callable
    combine: Callable
    step: float


def _grad_points(x, hs):
    # x + h_j e_j and x - h_j e_j, j ascending
    steps = hs[:, :, None] * np.eye(x.shape[1])
    points = np.empty((len(x), 2 * x.shape[1], x.shape[1]))
    points[:, 0::2] = x[:, None, :] + steps
    points[:, 1::2] = x[:, None, :] - steps
    return points


def _grad_combine(values, hs):
    return (values[:, 0::2] - values[:, 1::2]) / (2.0 * hs)


def _hess_points(x, hs):
    # x, then for each j: x +- h_j e_j and, for each l > j, the four
    # points x +- h_j e_j +- h_l e_l
    steps = hs[:, :, None] * np.eye(x.shape[1])
    plus, minus = x[:, None, :] + steps, x[:, None, :] - steps
    points = [x]
    for j in range(x.shape[1]):
        points += [plus[:, j], minus[:, j]]
        for l in range(j + 1, x.shape[1]):
            points += [plus[:, j] + steps[:, l], plus[:, j] - steps[:, l],
                       minus[:, j] + steps[:, l], minus[:, j] - steps[:, l]]
    return np.stack(points, axis=1)


def _hess_combine(values, hs):
    n = hs.shape[1]
    f0 = values[:, 0]
    hess = np.empty((len(values), n, n))
    i = 1
    for j in range(n):
        # float_power squares with libm pow, as ``**`` on a numpy scalar
        # does; the array ``**`` multiplies, which can round differently
        hess[:, j, j] = ((values[:, i] - 2.0 * f0 + values[:, i + 1])
                         / np.float_power(hs[:, j], 2.0))
        i += 2
        for l in range(j + 1, n):
            v = values[:, i] - values[:, i + 1] - values[:, i + 2] + values[:, i + 3]
            hess[:, j, l] = hess[:, l, j] = v / (4.0 * hs[:, j] * hs[:, l])
            i += 4
    return hess


_GRAD = _Stencil(_grad_points, _grad_combine, GRAD_STEP)
_HESS = _Stencil(_hess_points, _hess_combine, HESS_STEP)


def _fd(stencil: _Stencil, f, x, h) -> np.ndarray:
    """``stencil``'s derivatives of the row-wise ``f`` at the centre ``x``
    (n,) or the centres ``x`` (k, n), from one call of ``f``."""
    x = np.asarray(x, dtype=float)
    centres = np.atleast_2d(x)
    hs = _steps(centres, h, stencil.step)
    points = stencil.points(centres, hs)
    k, m, n = points.shape
    values = _eval_rows(f, points.reshape(k * m, n))
    out = stencil.combine(values.reshape(k, m), hs)
    return out[0] if x.ndim == 1 else out


def grad_fd(f: Callable[[np.ndarray], np.ndarray], x, h=None) -> np.ndarray:
    """Central-difference gradient of ``f`` at the centre ``x`` (n,), or at
    each of the centres ``x`` (k, n).

    ``f`` is row-wise: it maps points ``(m, n)`` to their ``(m,)`` values,
    and the 2n stencil points of every centre go to one call, centre by
    centre: ``x + h_j e_j``, ``x - h_j e_j`` (in that order, j ascending).
    ``h`` is one step for every coordinate; the default is ``eps**(1/3) *
    max(1, |x_j|)`` per coordinate.  Returns ``(n,)`` or ``(k, n)``; row
    i has the bits of the one-centre call at ``x[i]``.  Raises
    :class:`EvaluationError` if ``f`` is non-finite at a stencil point.
    """
    return _fd(_GRAD, f, x, h)


def hess_fd(f: Callable[[np.ndarray], np.ndarray], x, h=None) -> np.ndarray:
    """Central-difference Hessian of the row-wise ``f`` at the centre ``x``
    (n,), or at each of the centres ``x`` (k, n).

    The 2n^2+1 stencil points of every centre go to one call of ``f``,
    centre by centre: ``x``, then for each j the points ``x +- h_j e_j``
    and, for each k > j, the four points ``x +- h_j e_j +- h_k e_k``.
    ``h`` is one step for every coordinate; the default is ``eps**0.25 *
    max(1, |x_j|)`` per coordinate.  Returns ``(n, n)`` or ``(k, n, n)``,
    each exactly symmetric; row i has the bits of the one-centre call.
    """
    return _fd(_HESS, f, x, h)


def _ascent_directions(grads: np.ndarray, hesss: np.ndarray) -> np.ndarray:
    """Ascent direction of each row: the Newton direction where the
    Hessian is negative definite (a Cholesky factor of -H exists) and the
    direction is a finite ascent direction, else the gradient."""
    try:
        low = np.linalg.cholesky(-hesss)
        p = np.linalg.solve(low.transpose(0, 2, 1),
                            np.linalg.solve(low, grads[:, :, None]))[:, :, 0]
    except np.linalg.LinAlgError:
        if len(grads) == 1:
            return grads.copy()
        # some row has no factor: decide each row on its own
        return np.concatenate([_ascent_directions(grads[i:i + 1], hesss[i:i + 1])
                               for i in range(len(grads))])
    gradient = ~(np.isfinite(p).all(axis=1) & (row_dot(p, grads) > 0.0))
    p[gradient] = grads[gradient]
    return p


def _fitted_stencils(stencil: _Stencil, x: np.ndarray, domain: Domain):
    """The ``stencil`` points ``(k, m, n)`` and steps ``(k, n)`` of the
    centres ``x`` (k, n) inside ``domain``, and the mask of the centres
    where no stencil fits.

    A centre whose stencil with the default steps leaves the domain is
    retried with one step ``step * max(1, max_j |x_j|)``, halved before
    each try, until the stencil fits, at most ``MAX_BACKTRACKS`` tries in
    all; each centre's steps depend on that centre alone.
    """
    # membership is row-wise: the points (k, m, n) give (k, m) flags
    outside = lambda points: ~np.asarray(domain.membership(points)).all(axis=-1)
    hs = _steps(x, None, stencil.step)
    points = stencil.points(x, hs)
    out = outside(points)
    h = stencil.step * np.max(np.abs(x), axis=1, initial=1.0)
    for _ in range(MAX_BACKTRACKS - 1):
        if not out.any():
            break
        h[out] *= BACKTRACK_FACTOR
        hs[out] = h[out, None]
        points[out] = stencil.points(x[out], hs[out])
        out[out] = outside(points[out])
    return points, hs, out


def _damped_newton(start: np.ndarray, tol: float, value, gradient, direction, slack,
                   finish):
    """Maximize k objectives by damped Newton steps in one shared loop, one
    from each row of ``start`` (k, n) (Boyd & Vandenberghe 2004, §9.5).

    The callbacks see the rows still iterating (``rows``, their indices
    into ``start``) and their state ``x, f(x), *aux``: ``value(rows,
    points)`` gives ``(f, *aux)`` at one point per row, ``gradient(rows,
    *state)`` the gradients and ``direction(rows, gradient, *state)``
    ascent directions.  A callback ends a row by recording its error and
    giving it NaN.  A row converges when ``row_norm(gradient) <= tol``.
    Else it steps to the first ``x + t p``, ``t = 1, 1/2, ...``
    (``MAX_BACKTRACKS`` tries), whose value passes the Armijo test ``f >=
    f(x) + ARMIJO_C t slope``, or that test less ``slack(rows, x, f(x))``;
    a row with no such step stalls.  Rows that converge, stall, reach
    ``MAX_ITERATIONS`` steps or get a NaN gradient go to ``finish(rows, x,
    f(x), iterations, gradient_norm)`` (a stall counts the step it could not
    take); each row gets the bits of its solve alone.
    """
    rows, x = np.arange(len(start)), start
    fx, *aux = value(rows, x)
    keep = ~np.isnan(fx)    # not ended at the start
    if np.count_nonzero(keep) < len(keep):
        rows, x, fx, *aux = (a[keep] for a in (rows, x, fx, *aux))
    for it in range(MAX_ITERATIONS + 1):
        if not rows.size:
            break
        grad = gradient(rows, x, fx, *aux)
        norm = row_norm(grad)
        # the rows that go on: neither converged nor ended (NaN), nor capped
        keep = norm > (tol if it < MAX_ITERATIONS else math.inf)
        if np.count_nonzero(keep) < len(keep):   # converged, capped or a NaN gradient
            finish(rows[~keep], x[~keep], fx[~keep], it, norm[~keep])
            if not np.count_nonzero(keep):
                break
            rows, x, fx, grad, norm, *aux = (a[keep] for a in (rows, x, fx, grad, norm, *aux))
        p = direction(rows, grad, x, fx, *aux)
        slope = row_dot(grad, p)
        cand = x + p    # t = 1 for every row; 1.0 * p is p
        fc, *ac = value(rows, cand)
        bound = fx + ARMIJO_C * slope
        ok = fc >= bound
        if np.count_nonzero(ok) < len(ok):
            # Near the optimum f is flat to machine precision, and the test
            # would reject every step on rounding jitter alone: the rows that
            # fail it try again with the slack (a row that passes without it
            # passes with it), then halve one shared t until they pass.
            allowance = slack(rows, x, fx)
            ok |= fc >= bound - allowance
            ended = np.isnan(slope) | np.isnan(fc)
            todo, t = np.flatnonzero(~(ok | ended)), 1.0
            while todo.size and t > BACKTRACK_FACTOR ** (MAX_BACKTRACKS - 1):
                t *= BACKTRACK_FACTOR
                c = x[todo] + t * p[todo]
                fc_t, *ac_t = value(rows[todo], c)
                ok_t = fc_t >= fx[todo] + ARMIJO_C * t * slope[todo] - allowance[todo]
                for a, a_t in zip((cand, fc, *ac), (c, fc_t, *ac_t)):
                    a[todo[ok_t]] = a_t[ok_t]
                ended[todo[np.isnan(fc_t)]] = True
                todo = todo[~(ok_t | np.isnan(fc_t))]
            finish(rows[todo], x[todo], fx[todo], it + 1, norm[todo])     # stalled
            ended[todo] = True
            rows, cand, fc, *ac = (a[~ended] for a in (rows, cand, fc, *ac))
        x, fx, aux = cand, fc, ac


def maximize_concave_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          domain: Domain, params, tol: float = 1e-8
                          ) -> list[OptimizationResult | InfoGeoError]:
    """Maximize k concave objectives over one open domain, one per row of
    ``params`` (k, p), from ``domain.interior_point`` in one
    :func:`_damped_newton` loop, with the Armijo slack ``1e-15 (1 + |f|)``.

    ``f(points, params)`` is row-wise: it maps points ``(m, n)``, each with
    its own problem's parameter row ``(m, p)``, to their ``(m,)`` values.
    An iteration evaluates the gradient stencils of all active rows in one
    call, their Hessian stencils in another and the candidates of one step
    length in one more, all inside the domain: a stencil that leaves it is
    retried with the step ``step * max(1, max_j |x_j|)`` halved until it
    fits (at most ``MAX_BACKTRACKS`` tries, then :class:`DomainError`).  A
    row steps along the Newton direction, or along the gradient where its
    finite-difference Hessian is not negative definite.

    Returns each row's :class:`OptimizationResult` (``converged=False``
    where it stalled or hit the cap), or the :class:`InfoGeoError` of ``f``
    or of a stencil that ended it, with the bits of the row solved alone.
    """
    params = np.asarray(params, dtype=float)
    outcomes: list = [None] * len(params)

    def evaluate(rows, points):
        """``f`` at ``points`` (j m, n), m points per row of ``rows`` (j,) in
        turn, NaN at the points of a row that it fails on, with that row's
        error: after a failure each row is evaluated alone, as when solved alone."""
        at = np.repeat(params[rows], len(points) // len(rows), axis=0)
        try:
            return _eval_rows(lambda pts: f(pts, at), points)
        except InfoGeoError as exc:
            if len(rows) == 1:
                outcomes[rows[0]] = exc
                return np.full(len(points), np.nan)
        return np.concatenate(list(map(evaluate, np.split(rows, len(rows)),
                                       np.split(points, len(rows)))))

    def derivative(stencil: _Stencil, rows, x):
        """``stencil``'s derivatives at the centres ``x`` of ``rows``, with
        each stencil fitted into the domain, or NaN where a row fails."""
        points, hs, unfit = _fitted_stencils(stencil, x, domain)
        for i in np.flatnonzero(unfit):
            outcomes[rows[i]] = DomainError(
                f"no finite-difference stencil at {x[i].tolist()} fits in the domain")
        fits = np.flatnonzero(~unfit)
        values = np.full(points.shape[:2], np.nan)
        if fits.size:
            at = evaluate(rows[fits], points[fits].reshape(-1, x.shape[1]))
            values[fits] = at.reshape(fits.size, -1)
        return stencil.combine(values, hs)

    def value(rows, points):    # -inf, no value, at a candidate outside the domain
        values = np.full(len(points), -np.inf)
        inside = np.flatnonzero(np.asarray(domain.membership(points), dtype=bool))
        if inside.size:
            values[inside] = evaluate(rows[inside], points[inside])
        return (values,)

    def direction(rows, grad, x, *_):
        hess = derivative(_HESS, rows, x)
        p = _ascent_directions(grad, hess)
        p[np.isnan(hess[:, 0, 0])] = np.nan     # the row failed
        return p

    def finish(rows, x, fx, iterations, gnorm):     # a row that failed keeps its error
        for i, row in enumerate(rows):
            outcomes[row] = outcomes[row] or OptimizationResult(
                x[i].copy(), float(fx[i]), iterations, float(gnorm[i]), bool(gnorm[i] <= tol))

    _damped_newton(np.repeat(domain.interior_point[None], len(params), axis=0), tol, value,
                   lambda rows, x, *_: derivative(_GRAD, rows, x), direction,
                   lambda rows, x, fx: 1e-15 * (1.0 + np.abs(fx)), finish)
    return outcomes


def maximize_concave(f: Callable[[np.ndarray], np.ndarray], domain: Domain,
                     tol: float = 1e-8) -> OptimizationResult:
    """Maximize a concave ``f`` over an open domain by damped Newton steps.

    The one-row view of :func:`maximize_concave_rows`: ``f`` is row-wise,
    as for :func:`grad_fd`, and an error that ends the row is raised.
    """
    outcome = maximize_concave_rows(lambda points, _: f(points), domain,
                                    np.zeros((1, 0)), tol)[0]
    if isinstance(outcome, InfoGeoError):
        raise outcome
    return outcome


def grid_sup(f: Callable[[np.ndarray], np.ndarray], domain: Domain,
             points_per_axis: int):
    """Brute-force supremum of ``f`` over a regular grid on the domain box.

    Intended as an assumption-free oracle for dimensions 1 to 3.
    ``f`` is batched: it maps member rows ``(k, n)`` to their ``(k,)``
    values, or to ``(k, m)`` values of m objectives at once.  The grid is
    walked one slab (the points sharing one coordinate of the first axis;
    a 1-D grid is a single slab) at a time, so at most
    ``points_per_axis**max(n-1, 1)`` points exist at once; only the rows
    of a slab that pass ``domain.membership`` reach ``f``, in one call
    that serves every objective.  Ties are broken deterministically in
    favor of the lowest linear grid index (row-major over the axes in
    coordinate order), for each objective on its own.  Returns ``(argmax
    (n,), value)``, or ``(argmax (m, n), values (m,))`` for m objectives,
    each the result of the one-objective walk.  Raises
    :class:`EvaluationError` when ``f`` is non-finite at a member and
    :class:`DomainError` when no grid point is a member.
    """
    n = domain.dimension
    if not 1 <= n <= 3:
        raise ValueError("grid_sup is restricted to dimensions 1 to 3")
    if points_per_axis < 2:
        raise ValueError("points_per_axis must be at least 2")
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in domain.bounding_box]
    if n == 1:
        slabs = [axes[0][:, None]]
    else:
        rest = np.array(list(itertools.product(*axes[1:])), dtype=float)
        slabs = (np.column_stack([np.full(len(rest), first), rest]) for first in axes[0])
    best_x = best_v = None
    for slab in slabs:
        member = np.asarray(domain.membership(slab))
        if member.shape != slab.shape[:1]:
            raise ValueError("membership must return one flag per row")
        rows = slab[member]
        if rows.shape[0] == 0:
            continue
        values = _eval_rows(f, rows, columns=True)
        one = values.ndim == 1
        values = values.reshape(len(rows), -1)
        # argmax keeps the first maximum of each column in the slab; the
        # strict test keeps the earlier slab on ties across slabs.
        i = np.argmax(values, axis=0)
        v = values[i, np.arange(values.shape[1])]
        if best_v is None:
            best_x, best_v = rows[i], v
            continue
        better = v > best_v
        best_x[better], best_v[better] = rows[i[better]], v[better]
    if best_x is None:
        raise DomainError("no grid point satisfies the domain membership")
    if one:
        return best_x[0], float(best_v[0])
    return best_x, best_v


def eig_h2(m: Matrix2H) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a 2x2 Hermitian matrix, or of
    each matrix of a stack.

    Returns ``(values, vectors)`` with eigenvalues ascending and
    orthonormal eigenvectors as the columns of ``vectors``: ``(2,)`` and
    ``(2, 2)`` for one matrix, ``(k, 2)`` and ``(k, 2, 2)`` for a stack.
    Each matrix gets the bits that it gets alone.
    """
    (a, d, x, y), single = _h2_fields(m)
    t = 0.5 * (a + d)
    z = 0.5 * (a - d)
    off2 = x * x + y * y
    r = np.sqrt(z * z + off2)
    vals = np.stack([t - r, t + r], axis=-1)
    # With z >= 0 the pair uses r + z, else r - z: neither cancels.
    upper = z >= 0.0
    plus = np.empty((len(a), 2), dtype=complex)
    minus = np.empty((len(a), 2), dtype=complex)
    plus.real[:, 0] = np.where(upper, r + z, x)
    plus.imag[:, 0] = np.where(upper, 0.0, -y)
    plus.real[:, 1] = np.where(upper, x, r - z)
    plus.imag[:, 1] = np.where(upper, y, 0.0)
    minus.real[:, 0] = np.where(upper, x, z - r)
    minus.imag[:, 0] = np.where(upper, -y, 0.0)
    minus.real[:, 1] = np.where(upper, -(r + z), x)
    minus.imag[:, 1] = np.where(upper, 0.0, y)
    # a diagonal matrix has a zero vector in the pair; its rows are
    # replaced below, so their 0/0 is no error
    with np.errstate(invalid="ignore", divide="ignore"):
        vecs = np.stack([minus / complex_row_norm(minus)[:, None],
                         plus / complex_row_norm(plus)[:, None]], axis=-1)
    # Diagonal matrix: eigenvectors are the standard basis, ordered by
    # eigenvalue.
    diagonal = off2 == 0.0
    vecs[diagonal] = np.where((z[diagonal] <= 0.0)[:, None, None],
                              np.eye(2), np.eye(2)[::-1])
    return (vals[0], vecs[0]) if single else (vals, vecs)


def _spectrum_map(g: Callable[[float], float], vals: np.ndarray) -> np.ndarray:
    """``g`` at each eigenvalue of the rows ``vals`` (k, 2), called on
    Python floats one value at a time, up to the first value where ``g``
    is undefined; raises the :class:`EvaluationError` of the first row on
    which ``g`` is undefined or non-finite."""
    out = np.zeros(vals.shape)
    flat = out.reshape(-1)
    undefined = np.zeros(len(vals), dtype=bool)
    for i, v in enumerate(vals.ravel().tolist()):
        try:
            flat[i] = float(g(v))
        except (ValueError, ZeroDivisionError, OverflowError):
            undefined[i // 2] = True    # no later row can come first
            break

    def error(what):
        return lambda row: EvaluationError(
            f"scalar function {what} on spectrum {vals[row].tolist()}")

    raise_first((undefined, error("undefined")),
                (~np.isfinite(out).all(axis=1), error("non-finite")))
    return out


def func_h2(m: Matrix2H, g: Callable[[float], float]) -> Matrix2H:
    """Apply a scalar function to a 2x2 Hermitian matrix spectrally, or
    to each matrix of a stack.

    ``g`` is called on each eigenvalue as a Python float (``math.exp``
    and ``math.log`` work).  Returns a matrix with float fields, or a
    stack; each matrix gets the bits that it gets alone.  Raises
    :class:`EvaluationError` when ``g`` is undefined or non-finite on an
    eigenvalue, for the first such matrix of a stack.
    """
    vals, vecs = eig_h2(m)
    single = vals.ndim == 1
    if single:
        vals, vecs = vals[None], vecs[None]
    gv = _spectrum_map(g, vals)

    def entry(r, c):
        # entry (r, c) of g_0 v_0 v_0^H + g_1 v_1 v_1^H, as np.outer builds it
        return (gv[:, 0] * (vecs[:, r, 0] * vecs[:, c, 0].conj())
                + gv[:, 1] * (vecs[:, r, 1] * vecs[:, c, 1].conj()))

    low = entry(1, 0)
    fields = entry(0, 0).real, entry(1, 1).real, low.real, low.imag
    if single:
        return Matrix2H(*(float(f[0]) for f in fields))
    return Matrix2H(*fields)
