"""Model-independent engine for entropy/Massieu duality.

A model is handed to the engine as a :class:`ModelDescriptor`: an open
domain of energy coordinates ``U``, the row-wise model entropy
``S(U)`` on that domain, the family's batched closed form of ``Phi``,
``U`` and ``S`` at parameter rows, and the data-set layer the model is
built on (the answers and entropies of a stack of data sets, and a
fiber sampler that returns such a stack).  Every operation below works
from the descriptor alone, so the same code serves all concrete models.

Each family evaluates ``Phi``, ``U`` and ``S`` with one kernel on
parameter rows, ``closed_dual_points``: :func:`dual_points` is its
batched view and :func:`massieu` and :func:`theta_to_u` its point views,
so a point call and the matching row of a batched call give the same
bits; so does :func:`metric_tensor` for the metric kernel ``closed_metric``.
The numeric routes are oracles in ``verify``: :func:`legendre_rows` solves
the Legendre transform of the entropy at k rows in one damped-Newton loop,
and ``numerics.hess_fd`` of Phi checks the metric; ``core`` imports no FD.

The divergence quantities take either parameter points ``(n,)`` or
rows ``(k, n)``: :func:`bregman_divergence`, :func:`divergence_from_data`,
:func:`pythagoras_data`, :func:`pythagoras_models` and
:func:`convexity_probe` evaluate k rows with one call of the family
kernel, and a point call returns row 0 of the one-row call, with
``float`` scalars.  With rows, the data argument is a stack of k data
sets; a single data set enters the data-set layer as the stack ``x[None]``.
The chart inversion keeps a row form, :func:`u_to_theta_rows`, because
it flags the rows outside the energy domain where :func:`u_to_theta`
raises; the domain is the chart's one boundary, as the chart inverts
every row inside it.

Conventions.  The Massieu function is the Legendre--Fenchel transform

    Phi(theta) = sup_U { S(U) - sum_j theta_j U_j },

so at a dual pair the canonical identity ``Phi - S(U) + theta . U = 0``
holds, together with ``dPhi/dtheta_j = -U_j`` and ``dS/dU_j = theta_j``.
The metric tensor is the Hessian of Phi, the observables' covariance.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CanonicalityError,
    ConstraintError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    EvaluationError,
    InfoGeoError,
)
from .numerics import Domain, maximize_concave_rows, raise_first, row_dot

#: Relative closeness to the bounding box at which an argmax on an
#: unbounded domain is treated as escaping to infinity.
_BOX_EDGE_RTOL = 1e-6

#: Default gradient tolerance of the numeric Legendre transform.
_LEGENDRE_TOL = 1e-9

#: Most negative metric eigenvalue, relative to the largest entry of the
#: metric, still read as rounding, not degeneracy.
_DEGENERACY_TOL = 1e-8

#: Largest canonical residual that :func:`canonical_check` accepts, and
#: largest answer mismatch with which :func:`pythagoras_data` reads a data
#: set as projecting onto its model point.
_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class ModelDescriptor:
    """Everything the engine needs to know about one model.

    The entropy and the domain membership are row-wise, so the numeric
    kernels evaluate whole stencils, grid slabs and sweeps in one call.
    Every field is required.

    Parameters
    ----------
    energy_domain : Domain
        Open domain of valid energy coordinates ``U``; its dimension is
        the number ``n`` of energy coordinates / natural parameters.
    entropy_u : callable
        Model entropy ``S(U)`` on the energy domain, row-wise: points
        ``(..., n)`` map to values ``(...)``, so a single point ``(n,)``
        gives a scalar.  Each row's value must not depend on the other
        rows it is stacked with.
    closed_dual_points : callable
        The family kernel: parameter rows ``(k, n)`` to ``(Phi (k,),
        U (k, n), S(U) (k,))``, each row independent of the others.  It
        is the one route of :func:`dual_points` and of its point views
        :func:`massieu` and :func:`theta_to_u`.
    closed_metric : callable
        The metric kernel ``g = Hess Phi``, rows ``(k, n) -> (k, n, n)``,
        each row independent of the others: the route of :func:`metric_tensor`.
    closed_u_to_theta : callable
        The closed chart inversion on energy rows ``(k, n) -> (k, n)``,
        each row independent of the others.  It inverts every row of the
        energy domain, so the domain's membership is the one boundary of
        the chart, and raises only where it cannot, with the error of its
        lowest failing row.  It is the one route of
        :func:`u_to_theta_rows` and :func:`u_to_theta`.
    dataset_answers : callable
        Data-set layer: maps a stack of k data sets, the array of their
        rows (one data set ``x`` is the stack ``x[None]``), to
        ``(answers (k, n), S (k,))``, where ``answers[i, j]`` is the i-th
        set's answer to the j-th question and ``S[i]`` its entropy.  Each
        row's values must not depend on the other rows, and a bad row
        raises the error it raises alone.
    fiber_sampler : callable
        ``(us (k, n), count, rng) -> stack (k, c, m)``: fiber i,
        ``stack[i]``, holds c data rows (m,) whose answers equal ``us[i]``
        (the fiber of that model point).  c is the same for every fiber
        of a call: 1 where the fibers are single points, ``max(count,
        1)`` otherwise.  ``rng`` None is deterministic, and then fiber i
        has the bits of the one-row call on ``us[i:i + 1]``; with an rng,
        the fibers draw from it in row order.  The stack raises the error
        of the lowest failing fiber.
    """

    energy_domain: Domain
    entropy_u: Callable[[np.ndarray], np.ndarray]
    closed_dual_points: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]]
    closed_metric: Callable[[np.ndarray], np.ndarray]
    closed_u_to_theta: Callable[[np.ndarray], np.ndarray]
    dataset_answers: Callable[[object], tuple[np.ndarray, np.ndarray]]
    fiber_sampler: Callable[[np.ndarray, int, object], np.ndarray]

    @property
    def n(self) -> int:
        return self.energy_domain.dimension


@dataclass(frozen=True)
class DualPair:
    """A parameter point with its dual energy point and both potentials.

    ``roundtrip_error`` is None when the chart has saturated: ``u`` has
    rounded onto the boundary of the energy domain, or past it.
    """

    theta: np.ndarray
    u: np.ndarray
    massieu: float
    entropy: float
    residual: float
    roundtrip_error: float | None


class DivergenceReport(NamedTuple):
    """Data-to-model divergence with its three-term decomposition and the
    answers of the data set: ``float`` terms and ``answers`` (n,) for one
    data set, ``(k,)`` terms and ``answers`` (k, n) for a stack of k."""

    value: float | np.ndarray
    massieu_at: float | np.ndarray
    entropy_of_x: float | np.ndarray
    linear_term: float | np.ndarray
    answers: np.ndarray


class BregmanReport(NamedTuple):
    """Model-to-model divergence with its terms: ``float`` terms and
    ``u_first`` (n,) for one pair of points, ``(k,)`` terms and
    ``u_first`` (k, n) for k pairs of rows."""

    value: float | np.ndarray
    massieu_first: float | np.ndarray
    massieu_second: float | np.ndarray
    linear_term: float | np.ndarray
    u_first: np.ndarray


class PythagorasReport(NamedTuple):
    """The three divergences of a Pythagorean triple and their residual.

    For a data triple ``(x, theta, zeta)`` the divergences are
    ``D(x||m_theta)``, ``D(m_theta||m_zeta)`` and ``D(x||m_zeta)``; for a
    model triple ``(theta, zeta, xi)`` they are ``D(theta||zeta)``,
    ``D(zeta||xi)`` and ``D(theta||xi)``.  ``residual = |first + second -
    third|``.  ``orthogonality`` is set on model triples only.  Each
    field is a ``float`` for one triple and ``(k,)`` for k triples.
    """

    first: float | np.ndarray
    second: float | np.ndarray
    third: float | np.ndarray
    residual: float | np.ndarray
    orthogonality: float | np.ndarray | None = None


def _as_point(model: ModelDescriptor, v, kind: str = "parameter") -> np.ndarray:
    """``v`` as one finite ``kind`` vector ``(n,)``; a 0-d ``v`` is a point
    of a one-dimensional model."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (model.n,):
        article = "an" if kind == "energy" else "a"
        raise ValueError(f"expected {article} {kind} vector of length {model.n}")
    if not np.isfinite(v).all():
        raise ValueError(f"{kind} vector must be finite")
    return v


def _near_box_edge(domain: Domain, x: np.ndarray) -> bool:
    box = domain.bounding_box
    width = box[:, 1] - box[:, 0]
    return bool(np.any((x - box[:, 0] <= _BOX_EDGE_RTOL * width)
                       | (box[:, 1] - x <= _BOX_EDGE_RTOL * width)))


def legendre_rows(model: ModelDescriptor, thetas,
                  tol: float = _LEGENDRE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``(Phi (k,), U (k, n))`` at the parameter rows ``thetas`` (k, n):
    the values and argmaxes of the numeric Legendre transform
    ``sup_U { S(U) - theta . U }`` of ``model.entropy_u``, the oracle of
    the family kernel.

    All rows are one :func:`maximize_concave_rows` solve, and row i has
    the bits of the one-row call on ``thetas[i]``.  Raises the error of
    the lowest failing row: :class:`DomainError` when its argmax reaches
    the bounding box of a domain flagged unbounded (the supremum lies
    beyond the search box, so no finite value found inside it is Phi),
    :class:`ConvergenceError` when it did not converge, or the error of
    the entropy or of a stencil that ended it.
    """
    (thetas,) = _as_rows(model, thetas)
    domain = model.energy_domain
    objective = lambda us, ths: model.entropy_u(us) - row_dot(us, ths)
    outcomes = maximize_concave_rows(objective, domain, thetas, tol=tol)
    for theta, result in zip(thetas, outcomes):
        if isinstance(result, InfoGeoError):
            raise result
        if domain.unbounded and _near_box_edge(domain, result.argmax):
            box = domain.bounding_box
            half_width = float(np.max(0.5 * (box[:, 1] - box[:, 0])))
            raise DomainError(
                f"the Massieu supremum at theta={theta.tolist()} lies beyond the"
                f" search box of half-width {half_width:g}; no dual energy point"
                f" was found inside it")
        if not result.converged:
            raise ConvergenceError(
                f"Legendre transform did not converge (best value {result.value!r},"
                f" gradient norm {result.gradient_norm:.3e})")
    return (np.array([r.value for r in outcomes]),
            np.array([r.argmax for r in outcomes]).reshape(thetas.shape))


@np.errstate(over="ignore", invalid="ignore")
def massieu(model: ModelDescriptor, theta) -> float:
    """Massieu function ``Phi(theta) = sup_U { S(U) - theta . U }``: the
    point view of the family kernel, with the bits of row 0 of
    :func:`dual_points` at ``theta``.

    Raises :class:`EvaluationError` when Phi overflows.
    """
    theta = _as_point(model, theta)
    phi = float(model.closed_dual_points(theta[None])[0][0])
    if not math.isfinite(phi):
        raise EvaluationError(f"the Massieu function overflows at {theta.tolist()}")
    return phi


@np.errstate(over="ignore", invalid="ignore")
def theta_to_u(model: ModelDescriptor, theta) -> np.ndarray:
    """Energy coordinates dual to ``theta`` (the Legendre argmax): the
    point view of the family kernel, with the bits of row 0 of
    :func:`dual_points` at ``theta``.

    Raises :class:`EvaluationError` when U overflows.
    """
    theta = _as_point(model, theta)
    u = model.closed_dual_points(theta[None])[1][0]
    if not np.isfinite(u).all():
        raise EvaluationError(f"the energy point dual to {theta.tolist()} overflows")
    return u


def _as_rows(model: ModelDescriptor, *arrays) -> list[np.ndarray]:
    """The arrays as parameter rows ``(k, n)``, all with the same ``k``."""
    rows = [np.asarray(a, dtype=float) for a in arrays]
    for a in rows:
        if a.ndim != 2 or a.shape[1] != model.n:
            raise ValueError(f"expected parameter rows of length {model.n}")
        if not np.isfinite(a).all():
            raise ValueError("parameter rows must be finite")
    if len({a.shape[0] for a in rows}) > 1:
        raise ValueError("expected the same number of parameter rows in each array")
    return rows


def _points(model: ModelDescriptor, *arrays,
            kind: str = "parameter") -> tuple[list[np.ndarray], bool]:
    """``(rows, single)``: the arrays as rows ``(k, n)`` with one ``k``, and
    whether each was a single ``kind`` point ``(n,)`` (then ``k = 1``).

    A 0-d array is a point of a one-dimensional model; a point mixed with
    rows raises ``ValueError``.
    """
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if all(a.ndim < 2 for a in arrays):
        return [_as_point(model, a, kind)[None] for a in arrays], True
    return _as_rows(model, *arrays), False


def _dual_rows(model: ModelDescriptor, thetas: np.ndarray):
    """:func:`dual_points` at rows the caller has validated.

    Call it under ``np.errstate(over="ignore", invalid="ignore")``: an
    overflow raises :class:`EvaluationError` here instead of a warning.
    """
    phi, u, s = model.closed_dual_points(thetas)
    _require_finite(np.isfinite(phi) & np.isfinite(u).all(axis=1) & np.isfinite(s),
                    "dual point", thetas)
    return phi, u, s


@np.errstate(over="ignore", invalid="ignore")
def dual_points(model: ModelDescriptor, thetas):
    """``(Phi (k,), U (k, n), S(U) (k,))`` at the parameter rows ``thetas``,
    from the model's batched closed form.

    Raises :class:`EvaluationError` naming the first row where a value
    overflows.
    """
    return _dual_rows(model, *_as_rows(model, thetas))


def _require_finite(finite: np.ndarray, what: str, *rows: np.ndarray) -> None:
    """Raise :class:`EvaluationError` naming the points of the first row
    that is not ``finite``."""
    def error(i):
        points = " and ".join(str(r[i].tolist()) for r in rows)
        return EvaluationError(f"the {what} at {points} overflows")

    raise_first((~finite, error))


@np.errstate(over="ignore", invalid="ignore")
def canonical_residuals(thetas: np.ndarray, phi: np.ndarray, u: np.ndarray,
                        s: np.ndarray) -> np.ndarray:
    """``|Phi - S(U) + theta . U|`` at each row of a dual point table.

    Where a term overflows although ``Phi``, ``S`` and ``U`` are finite
    (``theta . U`` near 2e308 on the coherent family), the row is
    evaluated on terms scaled by powers of two, which is exact, and scaled
    back; every other row keeps the bits of the plain formula.  Raises
    :class:`EvaluationError` where the residual itself overflows.
    """
    residual = np.abs(phi - s + row_dot(thetas, u))
    bad = ~np.isfinite(residual)
    if bad.any():
        e1 = np.frexp(np.abs(thetas[bad]).max(axis=1, initial=0.0))[1]
        e2 = np.frexp(np.abs(u[bad]).max(axis=1, initial=0.0))[1]
        scaled = np.abs(np.ldexp(phi[bad], -(e1 + e2)) - np.ldexp(s[bad], -(e1 + e2))
                        + row_dot(np.ldexp(thetas[bad], -e1[:, None]),
                                  np.ldexp(u[bad], -e2[:, None])))
        residual[bad] = np.ldexp(scaled, e1 + e2)
        _require_finite(np.isfinite(residual), "canonical residual", thetas)
    return residual


def _chart_rows(model: ModelDescriptor, us: np.ndarray):
    """``(theta (k, n), errors)`` at validated energy rows: ``errors[i]``
    is None, or the error row i raises alone (its theta is NaN): a
    :class:`DomainError` outside the domain, an :class:`EvaluationError`
    where theta overflows.

    One chart call inverts the rows inside the domain; an error it raises
    propagates.
    """
    inside = np.asarray(model.energy_domain.membership(us), dtype=bool)
    thetas = np.full(us.shape, np.nan)
    if inside.any():
        thetas[inside] = model.closed_u_to_theta(us[inside])
    errors: list[InfoGeoError | None] = [None] * len(us)
    for i in np.flatnonzero(~np.isfinite(thetas).all(axis=1)):
        point = us[i].tolist()
        errors[i] = (EvaluationError(f"the parameters dual to {point} overflow") if inside[i]
                     else DomainError(f"energy point {point} is outside the model domain"))
    return thetas, errors


@np.errstate(over="ignore", invalid="ignore")
def u_to_theta_rows(model: ModelDescriptor, us) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`u_to_theta`: ``(theta (k, n), refused (k,))`` at the
    energy rows ``us`` (k, n), from one call of the closed chart (one
    moment fit on a discrete model).

    Row i has the bits of ``u_to_theta(model, us[i])``.  A row outside
    the domain, which :func:`u_to_theta` refuses with
    :class:`DomainError`, is flagged in ``refused`` and holds NaN; an
    error of the chart, then the :class:`EvaluationError` of the lowest
    row whose theta overflows, is raised.
    """
    thetas, errors = _chart_rows(model, *_as_rows(model, us))
    for exc in errors:
        if exc is not None and not isinstance(exc, DomainError):
            raise exc
    return thetas, np.array([exc is not None for exc in errors], dtype=bool)


@np.errstate(over="ignore", invalid="ignore")
def u_to_theta(model: ModelDescriptor, u) -> np.ndarray:
    """Natural parameters dual to ``u`` via ``theta_j = dS/dU_j``: the
    one-row view of :func:`u_to_theta_rows`, raising the error of a
    refused row."""
    thetas, errors = _chart_rows(model, _as_point(model, u, "energy")[None])
    if errors[0] is not None:
        raise errors[0]
    return thetas[0]


@np.errstate(over="ignore", invalid="ignore")
def metric_tensor(model: ModelDescriptor, theta) -> np.ndarray:
    """Metric tensor ``g = Hessian(Phi)`` at the point ``theta`` (n,), or
    ``(k, n, n)`` at the parameter rows ``theta`` (k, n), from one call of
    ``closed_metric``; row i has the bits of the point call on ``theta[i]``.
    Raises :class:`EvaluationError` for the first row that overflows, then
    :class:`DegeneracyError` for the lowest row whose smallest eigenvalue is
    below ``-_DEGENERACY_TOL`` times its largest ``|g_jl|``: redundant
    questions in a descriptor built outside the package (each built-in
    kernel is a covariance of independent observables).  A metric that
    underflows to zero is returned.
    """
    (thetas,), single = _points(model, theta)
    g = model.closed_metric(thetas)
    _require_finite(np.isfinite(g).all(axis=(1, 2)), "metric tensor", thetas)
    min_eig = np.linalg.eigvalsh(g)[:, 0]
    scale = np.abs(g).max(axis=(1, 2), initial=0.0)
    raise_first((min_eig < -_DEGENERACY_TOL * scale, lambda i: DegeneracyError(
        f"metric tensor is not positive definite (min eigenvalue {min_eig[i]:.3e})")))
    return g[0] if single else g


@np.errstate(over="ignore", invalid="ignore")
def canonical_check(model: ModelDescriptor, theta) -> DualPair:
    """Evaluate the canonical identity ``Phi - S(U) + theta . U = 0``.

    ``Phi``, ``U`` and ``S(U)`` come from :func:`dual_points`, the route
    ``sweep`` takes, so a discrete model's ``S`` is its member's own
    entropy rather than a moment re-fit.  Also round-trips ``U`` through
    the chart inversion of :func:`u_to_theta_rows` against ``theta`` and
    reports the max-abs error, or None when ``U`` lies outside the domain
    (a saturated chart, e.g. the qubit at ``|theta| >~ 18.7``, where
    ``tanh|theta|`` rounds to 1).  Raises :class:`CanonicalityError`
    (with the pair attached) when the residual exceeds 1e-9, and
    :class:`EvaluationError` when Phi, U or S overflows.
    """
    theta = _as_point(model, theta)
    phis, us, ss = _dual_rows(model, theta[None])
    residual = float(canonical_residuals(theta[None], phis, us, ss)[0])
    back, errors = _chart_rows(model, us)
    if isinstance(errors[0], DomainError):
        roundtrip = None
    elif errors[0] is not None:
        raise errors[0]
    else:
        roundtrip = float(np.max(np.abs(back[0] - theta))) if model.n else 0.0
    pair = DualPair(theta=theta, u=us[0], massieu=float(phis[0]), entropy=float(ss[0]),
                    residual=residual, roundtrip_error=roundtrip)
    if residual > _IDENTITY_TOL:
        raise CanonicalityError(
            f"canonical identity residual {residual:.3e} exceeds {_IDENTITY_TOL:.1e}",
            pair=pair)
    return pair


def _divergences(phi_a: np.ndarray, phi_b: np.ndarray, a: np.ndarray,
                 b: np.ndarray, u_a: np.ndarray):
    """Row-wise ``D(m_a || m_b) = Phi(b) - Phi(a) + (b - a) . U(a)`` and
    its linear term, from the potentials of both rows and ``U(a)``."""
    linear = row_dot(b - a, u_a)
    return phi_b - phi_a + linear, linear


def _report(cls, single: bool, *fields):
    """``cls`` of the row fields, or on a point call of their row 0:
    ``float`` scalars and ``(n,)`` vectors."""
    if single:
        fields = [None if f is None else f[0].item() if f.ndim == 1 else f[0]
                  for f in fields]
    return cls(*fields)


@np.errstate(over="ignore", invalid="ignore")
def bregman_divergence(model: ModelDescriptor, theta, zeta) -> BregmanReport:
    """Divergence between model points,
    ``D(m_theta || m_zeta) = Phi(zeta) - Phi(theta) + (zeta - theta) . U(theta)``.

    This is the Bregman divergence of the (convex) Massieu function; it
    is nonnegative and vanishes exactly at ``theta = zeta``.  The report
    carries both Massieu values, the linear term and ``U(theta)``.  On
    rows ``theta`` and ``zeta`` (k, n) it holds the k pairs' divergences.
    Phi and U at all 2k points come from one :func:`dual_points` call.
    Raises :class:`EvaluationError` naming the first pair whose
    divergence overflows.
    """
    (thetas, zetas), single = _points(model, theta, zeta)
    k = len(thetas)
    phi, u, _ = _dual_rows(model, np.concatenate([thetas, zetas]))
    values, linear = _divergences(phi[:k], phi[k:], thetas, zetas, u[:k])
    _require_finite(np.isfinite(values), "divergence", thetas, zetas)
    return _report(BregmanReport, single, values, phi[:k], phi[k:], linear, u[:k])


def _answers(model: ModelDescriptor, xs, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(answers (k, n), S (k,))`` of the stack ``xs`` of ``k`` data sets."""
    answers, entropies = model.dataset_answers(xs)
    answers = np.asarray(answers, dtype=float)
    entropies = np.asarray(entropies, dtype=float)
    if answers.shape != (k, model.n) or entropies.shape != (k,):
        raise ValueError(f"expected {k} data sets, one per parameter row")
    return answers, entropies


@np.errstate(over="ignore", invalid="ignore")
def divergence_from_data(model: ModelDescriptor, x, theta) -> DivergenceReport:
    """Divergence of a data set from a model point,
    ``D(x || m_theta) = Phi(theta) - S(x) + sum_j theta_j <x|q_j>``.

    Nonnegative whenever the projection of ``x`` lies in the model chart.
    The report carries the answers of ``x``.  On rows ``theta`` (k, n),
    ``x`` is a stack of k data sets.  The answers and entropies come from
    one ``dataset_answers`` call and Phi from one call of the family
    kernel ``closed_dual_points``.  A bad data set raises the error it
    raises alone; an overflow raises :class:`EvaluationError` naming the
    answers and ``theta`` of the first such row.
    """
    (thetas,), single = _points(model, theta)
    answers, s_x = _answers(model, np.asarray(x)[None] if single else x, len(thetas))
    # an overflowing Phi makes the value non-finite too
    phi = model.closed_dual_points(thetas)[0]
    linear = row_dot(thetas, answers)
    values = phi - s_x + linear
    _require_finite(np.isfinite(values), "divergence", answers, thetas)
    return _report(DivergenceReport, single, values, phi, s_x, linear, answers)


@np.errstate(over="ignore", invalid="ignore")
def divergence_def5(model: ModelDescriptor, x, u_of_m,
                    fiber_samples: int = 200) -> float | np.ndarray:
    """Fiber-supremum divergence evaluated through the affine log form.

    Computes ``sup_y { S(y) + <y|L_m> } - ( S(x) + <x|L_m> )`` where the
    supremum runs over sampled data sets on the fiber of the model point
    with energy coordinates ``u_of_m``, and the log weight is evaluated
    through its affine form ``<y|L_m> = -Phi(theta) - sum_j theta_j
    <y|q_j>``.  On energy rows ``u_of_m`` (k, n), ``x`` is a stack of k
    data sets and the result holds the k divergences ``(k,)``: the k
    points are inverted with one chart call, their k fibers drawn with
    one ``fiber_sampler`` call (rng None), and the whole fiber stack, then
    the k data sets, read with one ``dataset_answers`` call each.  A point
    call returns row 0 of the one-row call as a ``float``, so row i has
    the bits of the point call on row i.  Each step raises the error of
    its lowest failing row; the inversion raises an error of the chart
    first, then that of the lowest row outside the domain or overflowing.
    """
    (us,), single = _points(model, u_of_m, kind="energy")
    thetas, errors = _chart_rows(model, us)
    raise_first(([exc is not None for exc in errors], lambda i: errors[i]))
    phi = model.closed_dual_points(thetas)[0]
    _require_finite(np.isfinite(phi), "Massieu function", thetas)
    fibers = model.fiber_sampler(us, fiber_samples, None)
    k, c = fibers.shape[:2]
    ans_y, s_y = _answers(model, fibers.reshape(k * c, -1), k * c)
    ans_x, s_x = _answers(model, np.asarray(x)[None] if single else x, k)
    weights = s_y + (-np.repeat(phi, c) - row_dot(ans_y, np.repeat(thetas, c, axis=0)))
    values = (weights.reshape(k, c).max(axis=1)
              - (s_x + (-phi - row_dot(ans_x, thetas))))
    return values[0].item() if single else values


@np.errstate(over="ignore", invalid="ignore")
def pythagoras_data(model: ModelDescriptor, x, theta, zeta) -> PythagorasReport:
    """The data-model-model Pythagorean identity.

    Preconditions: ``x`` projects onto ``m_theta``, i.e. its answers
    equal ``theta_to_u(theta)`` within 1e-9 (otherwise a
    :class:`ConstraintError` reports the mismatch).  The report holds
    ``D(x||m_theta)``, ``D(m_theta||m_zeta)``, ``D(x||m_zeta)`` and the
    residual ``|D(x||m_theta) + D(m_theta||m_zeta) - D(x||m_zeta)|``;
    each divergence has the bits of :func:`divergence_from_data` and
    :func:`bregman_divergence`.  On rows ``theta`` and ``zeta`` (k, n),
    ``x`` is a stack of k data sets, read with one ``dataset_answers``
    call, and Phi and U at all 2k model points come from one
    :func:`dual_points` call.  Raises the error of the first bad data
    set, then :class:`ConstraintError` for the first row whose data set
    does not project onto its ``m_theta``, then :class:`EvaluationError`
    for the first row that overflows.
    """
    (thetas, zetas), single = _points(model, theta, zeta)
    k = len(thetas)
    answers, s_x = _answers(model, np.asarray(x)[None] if single else x, k)
    phi, u, _ = _dual_rows(model, np.concatenate([thetas, zetas]))
    mismatch = np.max(np.abs(answers - u[:k]), axis=1, initial=0.0)
    raise_first((mismatch > _IDENTITY_TOL, lambda i: ConstraintError(
        f"data set does not project onto m_theta: max answer mismatch"
        f" {mismatch[i]:.3e} exceeds {_IDENTITY_TOL:.1e}")))
    model_step = _divergences(phi[:k], phi[k:], thetas, zetas, u[:k])[0]
    d_x_theta = phi[:k] - s_x + row_dot(thetas, answers)
    d_x_zeta = phi[k:] - s_x + row_dot(zetas, answers)
    residual = np.abs(d_x_theta + model_step - d_x_zeta)
    # an infinite or NaN divergence makes the residual non-finite too
    _require_finite(np.isfinite(residual), "data triple", thetas, zetas)
    return _report(PythagorasReport, single, d_x_theta, model_step, d_x_zeta, residual)


@np.errstate(over="ignore", invalid="ignore")
def pythagoras_models(model: ModelDescriptor, theta, zeta, xi) -> PythagorasReport:
    """Orthogonality and residual for a triple of model points.

    The report holds ``D(theta||zeta)``, ``D(zeta||xi)``, ``D(theta||xi)``,
    the residual ``|D(theta||zeta) + D(zeta||xi) - D(theta||xi)|`` and
    ``orthogonality = sum_j (zeta_j - xi_j)(U_j - V_j)`` with ``U =
    theta_to_u(theta)``, ``V = theta_to_u(zeta)``.  The residual vanishes
    exactly when the triple is orthogonal.  On rows (k, n), Phi and U at
    all 3k points come from one :func:`dual_points` call.  Raises
    :class:`EvaluationError` naming the first triple where a value
    overflows.
    """
    (thetas, zetas, xis), single = _points(model, theta, zeta, xi)
    k = len(thetas)
    phi, u, _ = _dual_rows(model, np.concatenate([thetas, zetas, xis]))
    phi_theta, phi_zeta, phi_xi = phi[:k], phi[k:2 * k], phi[2 * k:]
    u_theta, u_zeta = u[:k], u[k:2 * k]
    first = _divergences(phi_theta, phi_zeta, thetas, zetas, u_theta)[0]
    second = _divergences(phi_zeta, phi_xi, zetas, xis, u_zeta)[0]
    third = _divergences(phi_theta, phi_xi, thetas, xis, u_theta)[0]
    # an infinite or NaN divergence makes the residual non-finite too
    residual = np.abs(first + second - third)
    orthogonality = row_dot(zetas - xis, u_theta - u_zeta)
    _require_finite(np.isfinite(residual) & np.isfinite(orthogonality), "model triple",
                    thetas, zetas, xis)
    return _report(PythagorasReport, single, first, second, third, residual, orthogonality)


#: Blend weights of the convexity probe.
_BLENDS = np.linspace(0.0, 1.0, 21)


@np.errstate(over="ignore", invalid="ignore")
def convexity_probe(model: ModelDescriptor, theta1, theta2) -> float | np.ndarray:
    """Worst violation of Massieu convexity along a parameter segment.

    Returns ``max_l Phi(l theta1 + (1-l) theta2) - l Phi(theta1) -
    (1-l) Phi(theta2)`` over 21 evenly spaced blends ``l`` in [0, 1];
    convexity means the result is <= 0 up to rounding.  It is a ``float``
    for one segment and ``(k,)`` for the segments between rows ``theta1``
    and ``theta2`` (k, n), whose 23k endpoints and blends take Phi from
    one :func:`dual_points` call.
    """
    (theta1s, theta2s), single = _points(model, theta1, theta2)
    k, n = theta1s.shape
    lam = _BLENDS[:, None]
    mixes = lam * theta1s[:, None, :] + (1.0 - lam) * theta2s[:, None, :]
    phi, _, _ = _dual_rows(model, np.concatenate([theta1s, theta2s,
                                                  mixes.reshape(-1, n)]))
    gaps = (phi[2 * k:].reshape(k, _BLENDS.size) - _BLENDS * phi[:k, None]
            - (1.0 - _BLENDS) * phi[k:2 * k, None])
    worst = gaps.max(axis=1)
    _require_finite(np.isfinite(worst), "convexity gap", theta1s, theta2s)
    return worst[0].item() if single else worst
