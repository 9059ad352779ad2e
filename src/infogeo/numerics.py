"""Numerical kernels shared by every model.

Central finite differences, a damped-Newton maximizer for concave
objectives on open domains, a deterministic brute-force grid supremum,
and closed-form spectral calculus for 2x2 Hermitian matrices.

Objectives and domain membership are row-wise: they take points stacked
along the last axis and decide or evaluate each one, independently of
the other rows.  A central-difference gradient evaluates its 2n stencil
points in one objective call and a Hessian its 2n^2+1; the maximizer
passes its objective on to them and evaluates each candidate step as a
one-row call; the grid supremum evaluates every member row of a slab in
one call.

All routines are pure: they never mutate their inputs and contain no
hidden state, so concurrent use is safe.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError

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


@dataclass(frozen=True)
class Domain:
    """Open subset of R^n described by a membership predicate.

    Parameters
    ----------
    dimension : int
        Ambient dimension n.
    bounding_box : (n, 2) array
        Finite per-coordinate bounds containing every member point.
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
        box = np.asarray(self.bounding_box, dtype=float).reshape(self.dimension, 2)
        object.__setattr__(self, "bounding_box", box)
        x0 = np.asarray(self.interior_point, dtype=float).reshape(self.dimension)
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
    """2x2 Hermitian matrix stored as four real degrees of freedom.

    The represented matrix is ``[[a, x - i y], [x + i y, d]]``: ``a`` and
    ``d`` are the real diagonal, ``x + i y`` is the lower off-diagonal
    entry.
    """

    a: float
    d: float
    x: float
    y: float = 0.0

    def to_array(self) -> np.ndarray:
        off = complex(self.x, self.y)
        return np.array([[self.a, off.conjugate()], [off, self.d]], dtype=complex)

    def scaled(self, s: float) -> "Matrix2H":
        return Matrix2H(s * self.a, s * self.d, s * self.x, s * self.y)


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


def on_points(f: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Extend ``f`` from rows ``(k, n)`` to points ``(..., n)``.

    The points are flattened to rows for one call of ``f``, and the
    values come back in the shape of the points: a single point ``(n,)``
    gives a scalar.
    """
    def on_points(u):
        u = np.asarray(u, dtype=float)
        rows = u.reshape(math.prod(u.shape[:-1]), u.shape[-1])
        return np.asarray(f(rows)).reshape(u.shape[:-1])[()]

    return on_points


def _steps(x: np.ndarray, h, default: float) -> np.ndarray:
    if h is None:
        return default * np.maximum(1.0, np.abs(x))
    h = np.asarray(h, dtype=float)
    if h.ndim == 0:
        return np.full(x.shape, float(h))
    return h.reshape(x.shape).copy()


def _eval_rows(f, rows: np.ndarray) -> np.ndarray:
    """Values of the row-wise objective ``f`` at ``rows`` (k, n).

    Raises ValueError unless ``f`` returns one value per row, and
    :class:`EvaluationError` naming the first row with a non-finite value.
    """
    values = np.asarray(f(rows), dtype=float)
    if values.shape != rows.shape[:1]:
        raise ValueError("objective must return one value per row")
    finite = np.isfinite(values)
    if not finite.all():
        bad = rows[int(np.argmin(finite))]
        raise EvaluationError(
            f"objective returned non-finite value at {bad.tolist()}")
    return values


def grad_fd(f: Callable[[np.ndarray], np.ndarray], x, h=None) -> np.ndarray:
    """Central-difference gradient of ``f`` at ``x``.

    ``f`` is row-wise: it maps points ``(k, n)`` to their ``(k,)`` values,
    and all 2n stencil points ``x + h_j e_j``, ``x - h_j e_j`` (in that
    order, j ascending) go to one call.  ``h`` may be a scalar or
    per-coordinate array; the default is ``eps**(1/3) * max(1, |x_j|)``
    per coordinate.  Raises :class:`EvaluationError` if ``f`` is
    non-finite at a stencil point.
    """
    x = np.asarray(x, dtype=float)
    hs = _steps(x, h, GRAD_STEP)
    steps = np.diag(hs)
    rows = np.empty((2 * x.size, x.size))
    rows[0::2] = x + steps
    rows[1::2] = x - steps
    values = _eval_rows(f, rows)
    return (values[0::2] - values[1::2]) / (2.0 * hs)


def hess_fd(f: Callable[[np.ndarray], np.ndarray], x, h=None) -> np.ndarray:
    """Symmetrized central-difference Hessian of the row-wise ``f`` at ``x``.

    All 2n^2+1 stencil points go to one call of ``f``: ``x``, then for
    each j the points ``x +- h_j e_j`` and, for each k > j, the four
    points ``x +- h_j e_j +- h_k e_k``.  The default step is
    ``eps**0.25 * max(1, |x_j|)`` per coordinate.
    """
    x = np.asarray(x, dtype=float)
    hs = _steps(x, h, HESS_STEP)
    n = x.size
    steps = np.diag(hs)
    plus, minus = x + steps, x - steps
    rows = [x]
    for j in range(n):
        rows += [plus[j], minus[j]]
        for k in range(j + 1, n):
            rows += [plus[j] + steps[k], plus[j] - steps[k],
                     minus[j] + steps[k], minus[j] - steps[k]]
    values = iter(_eval_rows(f, np.array(rows)).tolist())
    f0 = next(values)
    hess = np.empty((n, n))
    for j in range(n):
        hess[j, j] = (next(values) - 2.0 * f0 + next(values)) / hs[j] ** 2
        for k in range(j + 1, n):
            v = next(values) - next(values) - next(values) + next(values)
            hess[j, k] = hess[k, j] = v / (4.0 * hs[j] * hs[k])
    return 0.5 * (hess + hess.T)


def _ascent_direction(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    # Newton direction requires the Hessian to be negative definite; test
    # via Cholesky of -H and fall back to plain gradient ascent otherwise.
    try:
        low = np.linalg.cholesky(-hess)
        p = np.linalg.solve(low.T, np.linalg.solve(low, grad))
    except np.linalg.LinAlgError:
        return grad.copy()
    if not np.all(np.isfinite(p)) or float(p @ grad) <= 0.0:
        return grad.copy()
    return p


def maximize_concave(f: Callable[[np.ndarray], np.ndarray], domain: Domain,
                     x0=None, tol: float = 1e-8) -> OptimizationResult:
    """Maximize a concave ``f`` over an open domain by damped Newton steps.

    ``f`` is row-wise, as for :func:`grad_fd`; the stencils of the
    gradient and Hessian at an iterate are one call each, and every other
    evaluation is a one-row call.  Every iterate satisfies
    ``domain.membership``; candidate steps are halved (at most
    ``MAX_BACKTRACKS`` times) until they are both inside the domain and
    pass an Armijo sufficient-increase test, which allows a slack of
    ``1e-15 * (1 + |f|)`` for rounding in ``f``.  When the
    finite-difference Hessian is not negative definite the step falls
    back to gradient ascent.  Success means the gradient norm dropped to
    ``tol`` or below; hitting the iteration cap returns the best iterate
    with ``converged=False``.
    """
    x = domain.interior_point if x0 is None else np.asarray(x0, dtype=float).copy()
    if not domain.membership(x):
        raise DomainError("starting point is outside the domain")
    fx = float(_eval_rows(f, x[None])[0])
    gnorm = math.inf
    for it in range(MAX_ITERATIONS):
        grad = grad_fd(f, x)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            return OptimizationResult(x, fx, it, gnorm, True)
        hess = hess_fd(f, x)
        p = _ascent_direction(grad, hess)
        slope = float(grad @ p)
        # Near the optimum f is flat to machine precision and the test
        # would reject every step on rounding jitter alone.
        slack = 1e-15 * (1.0 + abs(fx))
        t = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = x + t * p
            if domain.membership(cand):
                fc = float(_eval_rows(f, cand[None])[0])
                if fc >= fx + ARMIJO_C * t * slope - slack:
                    x, fx = cand, fc
                    accepted = True
                    break
            t *= BACKTRACK_FACTOR
        if not accepted:
            # No admissible improving step along either direction: stalled.
            return OptimizationResult(x, fx, it + 1, gnorm, False)
    grad = grad_fd(f, x)
    gnorm = float(np.linalg.norm(grad))
    return OptimizationResult(x, fx, MAX_ITERATIONS, gnorm, gnorm <= tol)


def grid_sup(f: Callable[[np.ndarray], np.ndarray], domain: Domain,
             points_per_axis: int) -> tuple[np.ndarray, float]:
    """Brute-force supremum of ``f`` over a regular grid on the domain box.

    Intended as an assumption-free oracle for dimensions 1 to 3.
    ``f`` is batched: it maps member rows ``(k, n)`` to their ``(k,)``
    values.  The grid is walked one slab (the points sharing one
    coordinate of the first axis; a 1-D grid is a single slab) at a time,
    so at most ``points_per_axis**max(n-1, 1)`` points exist at once; only
    the rows of a slab that pass ``domain.membership`` reach ``f``, in one
    call.  Ties are broken deterministically in favor of the
    lowest linear grid index (row-major over the axes in coordinate
    order).  Raises :class:`EvaluationError` when ``f`` is non-finite at
    a member and :class:`DomainError` when no grid point is a member.
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
    best_x = None
    best_v = -math.inf
    for slab in slabs:
        member = np.asarray(domain.membership(slab))
        if member.shape != slab.shape[:1]:
            raise ValueError("membership must return one flag per row")
        rows = slab[member]
        if rows.shape[0] == 0:
            continue
        values = _eval_rows(f, rows)
        # argmax keeps the first maximum in the slab; the strict test
        # keeps the earlier slab on ties across slabs.
        i = int(np.argmax(values))
        if values[i] > best_v:
            best_v = float(values[i])
            best_x = rows[i]
    if best_x is None:
        raise DomainError("no grid point satisfies the domain membership")
    return best_x.copy(), best_v


def eig_h2(m: Matrix2H) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a 2x2 Hermitian matrix.

    Returns ``(values, vectors)`` with eigenvalues ascending and
    orthonormal eigenvectors as the columns of ``vectors``.
    """
    t = 0.5 * (m.a + m.d)
    z = 0.5 * (m.a - m.d)
    off2 = m.x * m.x + m.y * m.y
    r = math.sqrt(z * z + off2)
    vals = np.array([t - r, t + r])
    if off2 == 0.0:
        # Diagonal matrix: eigenvectors are the standard basis, ordered
        # by eigenvalue.
        if z <= 0.0:
            vecs = np.eye(2, dtype=complex)
        else:
            vecs = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        return vals, vecs
    off = complex(m.x, m.y)
    if z >= 0.0:
        # (r+z) stays well away from cancellation for z >= 0.
        v_plus = np.array([r + z, off], dtype=complex)
        v_minus = np.array([off.conjugate(), -(r + z)], dtype=complex)
    else:
        v_plus = np.array([off.conjugate(), r - z], dtype=complex)
        v_minus = np.array([z - r, off], dtype=complex)
    v_plus = v_plus / np.linalg.norm(v_plus)
    v_minus = v_minus / np.linalg.norm(v_minus)
    return vals, np.stack([v_minus, v_plus], axis=-1)


def func_h2(m: Matrix2H, g: Callable[[float], float]) -> Matrix2H:
    """Apply a scalar function to a 2x2 Hermitian matrix spectrally.

    Raises :class:`EvaluationError` when ``g`` is undefined or non-finite
    on an eigenvalue.
    """
    vals, vecs = eig_h2(m)
    try:
        gv = [float(g(v)) for v in vals]
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EvaluationError(f"scalar function undefined on spectrum {vals.tolist()}") from exc
    if not all(math.isfinite(v) for v in gv):
        raise EvaluationError(f"scalar function non-finite on spectrum {vals.tolist()}")
    out = (gv[0] * np.outer(vecs[:, 0], vecs[:, 0].conjugate())
           + gv[1] * np.outer(vecs[:, 1], vecs[:, 1].conjugate()))
    return Matrix2H(float(out[0, 0].real), float(out[1, 1].real),
                    float(out[1, 0].real), float(out[1, 0].imag))
