"""Model-independent engine for entropy/Massieu duality.

A model is handed to the engine as a :class:`ModelDescriptor`: an open
domain of energy coordinates ``U``, the model entropy ``S(U)`` on that
domain, and optional closed forms (Massieu function, dual coordinate
maps) plus an optional data-set layer (per-sample answers and a fiber
sampler).  Every operation below works from the descriptor alone, so the
same code serves all concrete models.

Conventions.  The Massieu function is the Legendre--Fenchel transform

    Phi(theta) = sup_U { S(U) - sum_j theta_j U_j },

so at a dual pair the canonical identity ``Phi - S(U) + theta . U = 0``
holds, together with ``dPhi/dtheta_j = -U_j`` and ``dS/dU_j = theta_j``.
The metric tensor is the Hessian of Phi.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    CanonicalityError,
    ConstraintError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    EvaluationError,
    UnsupportedOperationError,
)
from .numerics import Domain, grad_fd, hess_fd, maximize_concave

#: Relative closeness to the bounding box at which an argmax on an
#: unbounded domain is treated as escaping to infinity.
_BOX_EDGE_RTOL = 1e-6

#: Default gradient tolerance of the numeric Legendre transform.
_LEGENDRE_TOL = 1e-9

#: Most negative metric eigenvalue still read as rounding, not degeneracy.
_DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class ModelDescriptor:
    """Everything the engine needs to know about one model.

    Parameters
    ----------
    name : str
        Human-readable instance name (used in reports).
    n : int
        Number of energy coordinates / natural parameters.
    energy_domain : Domain
        Open domain of valid energy coordinates ``U``.
    entropy_u : callable
        Model entropy ``S(U)`` on the energy domain.
    closed_massieu, closed_theta_to_u, closed_u_to_theta : callable or None
        Closed forms, when the model has them.  Operations fall back to
        numeric Legendre transforms / finite differences otherwise.
    closed_dual_points : callable or None
        Batched closed form: parameter rows ``(k, n)`` to ``(Phi (k,),
        U (k, n), S(U) (k,))``, used by :func:`dual_points`.
    dataset_answers : callable or None
        Data-set layer: maps a sample handle ``x`` to ``(answers, S(x))``
        where ``answers[j]`` is x's answer to the j-th question.
    fiber_sampler : callable or None
        ``(u, count, rng) -> list`` of sample handles whose answers equal
        ``u`` exactly (the fiber of the model point).
    """

    name: str
    n: int
    energy_domain: Domain
    entropy_u: Callable[[np.ndarray], float]
    closed_massieu: Callable[[np.ndarray], float] | None = None
    closed_theta_to_u: Callable[[np.ndarray], np.ndarray] | None = None
    closed_u_to_theta: Callable[[np.ndarray], np.ndarray] | None = None
    closed_dual_points: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]] | None = None
    dataset_answers: Callable[[object], tuple[np.ndarray, float]] | None = None
    fiber_sampler: Callable[[np.ndarray, int, object], list] | None = None

    def __post_init__(self):
        if self.energy_domain.dimension != self.n:
            raise ValueError("energy domain dimension must equal n")


@dataclass(frozen=True)
class DualPair:
    """A parameter point with its dual energy point and both potentials.

    ``roundtrip_error`` is None when the chart has saturated: ``u`` is so
    close to the domain boundary that ``u_to_theta`` refuses it.
    """

    theta: np.ndarray
    u: np.ndarray
    massieu: float
    entropy: float
    residual: float
    roundtrip_error: float | None


@dataclass(frozen=True)
class DivergenceReport:
    """Data-to-model divergence with its three-term decomposition."""

    value: float
    massieu_at: float
    entropy_of_x: float
    linear_term: float


@dataclass(frozen=True)
class BregmanReport:
    """Model-to-model divergence with its terms."""

    value: float
    massieu_first: float
    massieu_second: float
    linear_term: float
    u_first: np.ndarray


@dataclass(frozen=True)
class PythagorasReport:
    """The three divergences of a Pythagorean triple and their residual.

    For a data triple ``(x, theta, zeta)`` the divergences are
    ``D(x||m_theta)``, ``D(m_theta||m_zeta)`` and ``D(x||m_zeta)``; for a
    model triple ``(theta, zeta, xi)`` they are ``D(theta||zeta)``,
    ``D(zeta||xi)`` and ``D(theta||xi)``.  ``residual = |first + second -
    third|``.  ``orthogonality`` is set on model triples only.
    """

    first: float
    second: float
    third: float
    residual: float
    orthogonality: float | None = None


def _as_theta(model: ModelDescriptor, theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (model.n,):
        raise ValueError(f"expected a parameter vector of length {model.n}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameter vector must be finite")
    return theta


def _as_energy(model: ModelDescriptor, u) -> np.ndarray:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (model.n,):
        raise ValueError(f"expected an energy vector of length {model.n}")
    if not np.all(np.isfinite(u)):
        raise ValueError("energy vector must be finite")
    return u


def _near_box_edge(domain: Domain, x: np.ndarray) -> bool:
    box = domain.bounding_box
    width = box[:, 1] - box[:, 0]
    return bool(np.any((x - box[:, 0] <= _BOX_EDGE_RTOL * width)
                       | (box[:, 1] - x <= _BOX_EDGE_RTOL * width)))


def _legendre(model: ModelDescriptor, theta: np.ndarray,
              tol: float) -> tuple[float, np.ndarray]:
    """``(Phi(theta), U(theta))``: the value and argmax of a damped-Newton
    Legendre transform.

    Raises :class:`DomainError` when the argmax reaches the bounding box
    of a domain flagged unbounded: the supremum lies beyond the search
    box, so no finite value found inside it is Phi.
    """
    domain = model.energy_domain
    objective = lambda u: model.entropy_u(u) - float(theta @ u)
    result = maximize_concave(objective, domain, tol=tol)
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
            f" gradient norm {result.gradient_norm:.3e})", result=result)
    return result.value, result.argmax


def massieu(model: ModelDescriptor, theta, tol: float = _LEGENDRE_TOL) -> float:
    """Massieu function ``Phi(theta) = sup_U { S(U) - theta . U }``.

    Uses the model's closed form when present, otherwise a damped-Newton
    Legendre transform, which raises :class:`DomainError` when the
    supremum lies beyond the bounding box of a domain flagged unbounded.
    """
    theta = _as_theta(model, theta)
    if model.closed_massieu is not None:
        return float(model.closed_massieu(theta))
    return _legendre(model, theta, tol)[0]


def theta_to_u(model: ModelDescriptor, theta, tol: float = _LEGENDRE_TOL) -> np.ndarray:
    """Energy coordinates dual to ``theta`` (the Legendre argmax)."""
    theta = _as_theta(model, theta)
    if model.closed_theta_to_u is not None:
        return np.asarray(model.closed_theta_to_u(theta), dtype=float)
    return _legendre(model, theta, tol)[1]


def dual_points(model: ModelDescriptor, thetas):
    """``(Phi (k,), U (k, n), S(U) (k,))`` at the parameter rows ``thetas``.

    Uses the model's batched closed form when present.  Otherwise
    evaluates :func:`massieu`, :func:`theta_to_u` and ``entropy_u`` row
    by row, which is the reference route the batched forms are held to.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != model.n:
        raise ValueError(f"expected parameter rows of length {model.n}")
    if not np.all(np.isfinite(thetas)):
        raise ValueError("parameter rows must be finite")
    batched = model.closed_dual_points
    if batched is not None:
        return batched(thetas)
    k = thetas.shape[0]
    phi, u, s = np.empty(k), np.empty((k, model.n)), np.empty(k)
    for i, theta in enumerate(thetas):
        phi[i] = massieu(model, theta)
        u[i] = theta_to_u(model, theta)
        s[i] = model.entropy_u(u[i])
    return phi, u, s


def u_to_theta(model: ModelDescriptor, u) -> np.ndarray:
    """Natural parameters dual to ``u`` via ``theta_j = dS/dU_j``."""
    u = _as_energy(model, u)
    if not model.energy_domain.membership(u):
        raise DomainError(f"energy point {u.tolist()} is outside the model domain")
    if model.closed_u_to_theta is not None:
        theta = np.asarray(model.closed_u_to_theta(u), dtype=float)
    else:
        theta = grad_fd(model.entropy_u, u)
    if not np.all(np.isfinite(theta)):
        raise EvaluationError(f"the parameters dual to {u.tolist()} overflow")
    return theta


def metric_tensor(model: ModelDescriptor, theta) -> np.ndarray:
    """Metric tensor ``g = Hessian(Phi)`` at ``theta``.

    Raises :class:`DegeneracyError` when the smallest eigenvalue is
    nonpositive beyond ``_DEGENERACY_TOL``, which signals a non-canonical
    parametrization (redundant questions).
    """
    theta = _as_theta(model, theta)
    g = hess_fd(lambda t: massieu(model, t), theta)
    g = 0.5 * (g + g.T)
    min_eig = float(np.linalg.eigvalsh(g)[0])
    if min_eig <= -_DEGENERACY_TOL:
        raise DegeneracyError(
            f"metric tensor is not positive definite (min eigenvalue {min_eig:.3e})")
    return g


def canonical_check(model: ModelDescriptor, theta,
                    tol: float | None = None) -> DualPair:
    """Evaluate the canonical identity ``Phi - S(U) + theta . U = 0``.

    ``Phi``, ``U`` and ``S(U)`` come from :func:`dual_points`, the route
    ``sweep`` takes, so a discrete model's ``S`` is its member's own
    entropy rather than a moment re-fit.  Also round-trips
    ``u_to_theta(U)`` against ``theta`` and reports the max-abs error, or
    None when the chart refuses ``U`` (a saturated chart, e.g. the qubit
    at ``|theta| >~ 19``, where ``tanh|theta|`` rounds to 1).  The
    default tolerance is 1e-9.  Raises :class:`CanonicalityError` (with
    the pair attached) when the residual exceeds the tolerance.
    """
    theta = _as_theta(model, theta)
    if tol is None:
        tol = 1e-9
    phis, us, ss = dual_points(model, theta[None])
    phi, u, s = float(phis[0]), us[0], float(ss[0])
    residual = abs(phi - s + float(theta @ u))
    try:
        back = u_to_theta(model, u)
    except DomainError:
        roundtrip = None
    else:
        roundtrip = float(np.max(np.abs(back - theta))) if model.n else 0.0
    pair = DualPair(theta=theta, u=u, massieu=phi, entropy=s,
                    residual=residual, roundtrip_error=roundtrip)
    if residual > tol:
        raise CanonicalityError(
            f"canonical identity residual {residual:.3e} exceeds {tol:.1e}", pair=pair)
    return pair


def bregman_divergence(model: ModelDescriptor, theta, zeta) -> BregmanReport:
    """Divergence between model points,
    ``D(m_theta || m_zeta) = Phi(zeta) - Phi(theta) + (zeta - theta) . U(theta)``.

    This is the Bregman divergence of the (convex) Massieu function; it
    is nonnegative and vanishes exactly at ``theta = zeta``.  The report
    carries both Massieu values, the linear term and ``U(theta)``.
    """
    theta = _as_theta(model, theta)
    zeta = _as_theta(model, zeta)
    u = theta_to_u(model, theta)
    phi_theta = massieu(model, theta)
    phi_zeta = massieu(model, zeta)
    linear = float((zeta - theta) @ u)
    return BregmanReport(value=phi_zeta - phi_theta + linear, massieu_first=phi_theta,
                         massieu_second=phi_zeta, linear_term=linear, u_first=u)


def divergence_from_data(model: ModelDescriptor, x, theta) -> DivergenceReport:
    """Divergence of a data set from a model point,
    ``D(x || m_theta) = Phi(theta) - S(x) + sum_j theta_j <x|q_j>``.

    Nonnegative whenever the projection of ``x`` lies in the model chart.
    Requires the descriptor's data-set layer.
    """
    theta = _as_theta(model, theta)
    if model.dataset_answers is None:
        raise UnsupportedOperationError(
            f"model {model.name!r} has no data-set layer")
    answers, s_x = model.dataset_answers(x)
    answers = np.asarray(answers, dtype=float)
    phi = massieu(model, theta)
    linear = float(theta @ answers)
    return DivergenceReport(value=phi - s_x + linear, massieu_at=phi,
                            entropy_of_x=float(s_x), linear_term=linear)


def divergence_def5(model: ModelDescriptor, x, u_of_m,
                    fiber_samples: int = 200) -> float:
    """Fiber-supremum divergence evaluated through the affine log form.

    Computes ``sup_y { S(y) + <y|L_m> } - ( S(x) + <x|L_m> )`` where the
    supremum runs over sampled data sets on the fiber of the model point
    with energy coordinates ``u_of_m``, and the log weight is evaluated
    through its affine form ``<y|L_m> = -Phi(theta) - sum_j theta_j
    <y|q_j>``.  Requires both the data-set layer and a fiber sampler.
    """
    u = _as_energy(model, u_of_m)
    if model.dataset_answers is None or model.fiber_sampler is None:
        raise UnsupportedOperationError(
            f"model {model.name!r} lacks the data-set layer or a fiber sampler")
    theta = u_to_theta(model, u)
    phi = massieu(model, theta)

    def log_weight(answers):
        return -phi - float(theta @ answers)

    best = -math.inf
    for y in model.fiber_sampler(u, fiber_samples, None):
        ans_y, s_y = model.dataset_answers(y)
        best = max(best, s_y + log_weight(np.asarray(ans_y, dtype=float)))
    ans_x, s_x = model.dataset_answers(x)
    return best - (s_x + log_weight(np.asarray(ans_x, dtype=float)))


def pythagoras_data(model: ModelDescriptor, x, theta, zeta,
                    compliance_tol: float = 1e-9) -> PythagorasReport:
    """The data-model-model Pythagorean identity.

    Preconditions: ``x`` projects onto ``m_theta``, i.e. its answers
    equal ``theta_to_u(theta)`` within ``compliance_tol`` (otherwise a
    :class:`ConstraintError` reports the mismatch).  The report holds
    ``D(x||m_theta)``, ``D(m_theta||m_zeta)``, ``D(x||m_zeta)`` and the
    residual ``|D(x||m_theta) + D(m_theta||m_zeta) - D(x||m_zeta)|``.
    """
    theta = _as_theta(model, theta)
    zeta = _as_theta(model, zeta)
    if model.dataset_answers is None:
        raise UnsupportedOperationError(
            f"model {model.name!r} has no data-set layer")
    answers, _ = model.dataset_answers(x)
    model_step = bregman_divergence(model, theta, zeta)
    mismatch = float(np.max(np.abs(np.asarray(answers, dtype=float)
                                   - model_step.u_first)))
    if mismatch > compliance_tol:
        raise ConstraintError(
            f"data set does not project onto m_theta: max answer mismatch"
            f" {mismatch:.3e} exceeds {compliance_tol:.1e}")
    d_x_theta = divergence_from_data(model, x, theta).value
    d_x_zeta = divergence_from_data(model, x, zeta).value
    return PythagorasReport(d_x_theta, model_step.value, d_x_zeta,
                            abs(d_x_theta + model_step.value - d_x_zeta))


def pythagoras_models(model: ModelDescriptor, theta, zeta, xi) -> PythagorasReport:
    """Orthogonality and residual for a triple of model points.

    The report holds ``D(theta||zeta)``, ``D(zeta||xi)``, ``D(theta||xi)``,
    the residual ``|D(theta||zeta) + D(zeta||xi) - D(theta||xi)|`` and
    ``orthogonality = sum_j (zeta_j - xi_j)(U_j - V_j)`` with ``U =
    theta_to_u(theta)``, ``V = theta_to_u(zeta)``.  The residual vanishes
    exactly when the triple is orthogonal.
    """
    theta = _as_theta(model, theta)
    zeta = _as_theta(model, zeta)
    xi = _as_theta(model, xi)
    first = bregman_divergence(model, theta, zeta)
    second = bregman_divergence(model, zeta, xi)
    d_theta_xi = bregman_divergence(model, theta, xi).value
    orthogonality = float((zeta - xi) @ (first.u_first - second.u_first))
    return PythagorasReport(first.value, second.value, d_theta_xi,
                            abs(first.value + second.value - d_theta_xi),
                            orthogonality=orthogonality)


def convexity_probe(model: ModelDescriptor, theta1, theta2) -> float:
    """Worst violation of Massieu convexity along a parameter segment.

    Returns ``max_l Phi(l theta1 + (1-l) theta2) - l Phi(theta1) -
    (1-l) Phi(theta2)`` over 21 evenly spaced blends ``l`` in [0, 1];
    convexity means the result is <= 0 up to rounding.  Phi at both
    endpoints and every blend comes from one :func:`dual_points` call.
    """
    theta1 = _as_theta(model, theta1)
    theta2 = _as_theta(model, theta2)
    lam = np.linspace(0.0, 1.0, 21)
    mixes = lam[:, None] * theta1 + (1.0 - lam[:, None]) * theta2
    phi, _, _ = dual_points(model, np.vstack([theta1, theta2, mixes]))
    gaps = phi[2:] - lam * phi[0] - (1.0 - lam) * phi[1]
    return float(np.max(gaps, initial=-math.inf))
