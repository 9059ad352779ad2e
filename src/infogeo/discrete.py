"""Discrete exponential families on a finite alphabet.

A family is a positive prior weight ``c(a)`` over ``m >= 2`` letters
together with ``n`` observables (rows of a Hamiltonian matrix).  The
Boltzmann-Gibbs member at parameters theta has weights proportional to
``c(a) exp(-sum_j theta_j H_j(a))``; its entropy is the prior-relative
Shannon entropy ``S(p) = -sum_a p(a) ln(p(a)/c(a))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelDescriptor
from .errors import (
    ConvergenceError,
    DegeneracyError,
    InfeasibleError,
    SupportError,
)
from .numerics import Domain

#: Newton iterates whose parameter norm exceeds this are treated as
#: diverging, which signals an infeasible moment target.
_DIVERGENCE_NORM = 1e3
_MAX_NEWTON = 200


@dataclass(frozen=True)
class DiscreteFamily:
    """Prior weights and observables defining one discrete family.

    ``prior`` is a strictly positive length-m vector (any scale);
    ``hamiltonians`` is an (n, m) matrix whose rows are the observables.
    Canonicality requires that no nontrivial linear combination of the
    rows and the constant vector vanishes, i.e. ``[H; 1]`` has rank
    ``n + 1``.
    """

    prior: np.ndarray
    hamiltonians: np.ndarray

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        if prior.ndim != 1 or prior.size < 2:
            raise ValueError("prior must be a vector over at least two letters")
        if not np.all(prior > 0.0):
            raise ValueError("prior weights must be strictly positive")
        h = np.asarray(self.hamiltonians, dtype=float)
        if h.size == 0:
            h = h.reshape(0, prior.size)
        if h.ndim != 2 or h.shape[1] != prior.size:
            raise ValueError("hamiltonians must be an (n, alphabet) matrix")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "hamiltonians", h)
        stacked = np.vstack([h, np.ones(prior.size)])
        if np.linalg.matrix_rank(stacked) != h.shape[0] + 1:
            raise DegeneracyError(
                "observables plus the constant vector are linearly dependent")

    @property
    def n(self) -> int:
        return self.hamiltonians.shape[0]

    @property
    def alphabet_size(self) -> int:
        return self.prior.size


def check_probability(p, tol: float = 1e-12) -> np.ndarray:
    """Validate and return a probability vector (sum 1, entries >= 0)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("probability vector must be one-dimensional")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability vector has a non-finite entry")
    if np.any(p < -tol):
        raise ValueError("probability vector has a negative entry")
    if abs(float(p.sum()) - 1.0) > max(tol, 1e-12 * p.size):
        raise ValueError("probability vector does not sum to one")
    return np.maximum(p, 0.0)


def log_partition(family: DiscreteFamily, theta) -> float:
    """``ln sum_a c(a) exp(-theta . H(a))``, evaluated with a max shift."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    e = np.log(family.prior) - theta @ family.hamiltonians
    shift = float(np.max(e))
    return shift + math.log(float(np.sum(np.exp(e - shift))))


def boltzmann_gibbs(family: DiscreteFamily, theta) -> np.ndarray:
    """Member distribution ``p(a) = c(a) exp(-theta . H(a)) / Z``."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    e = np.log(family.prior) - theta @ family.hamiltonians
    e -= np.max(e)
    w = np.exp(e)
    return w / float(w.sum())


def dual_points(family: DiscreteFamily, thetas: np.ndarray):
    """``(Phi, U, S)`` of the members at the rows of ``thetas`` (k, n).

    One max-shifted log-sum-exp over the (k, m) exponents gives ``Phi``
    and the members ``p``; ``U = p H^T`` and the prior-relative entropy
    ``S = -sum_a p(a) ln(p(a)/c(a))`` come from the same ``p``, with
    ``ln(p/c)`` taken in the log domain (0 ln 0 = 0).  No moment fit.
    """
    log_prior = np.log(family.prior)
    e = log_prior - thetas @ family.hamiltonians
    shift = np.max(e, axis=1, keepdims=True)
    w = np.exp(e - shift)
    z = np.sum(w, axis=1, keepdims=True)
    log_z = np.log(z)
    p = w / z
    # ln p = (e - shift) - ln z; adding the shift back first would round
    # ln p of the likeliest letter to the last bit of the shift
    terms = np.where(p > 0.0, p * (e - shift - log_z - log_prior), 0.0)
    return (shift + log_z)[:, 0], p @ family.hamiltonians.T, -np.sum(terms, axis=1)


def bgs_entropy(family: DiscreteFamily, p) -> float:
    """Prior-relative Shannon entropy ``-sum_a p(a) ln(p(a)/c(a))``.

    Zero-probability letters contribute nothing (0 ln 0 = 0).
    """
    p = check_probability(p)
    mask = p > 0.0
    return -float(np.sum(p[mask] * (np.log(p[mask]) - np.log(family.prior[mask]))))


def fisher_covariance(family: DiscreteFamily, p) -> np.ndarray:
    """Covariance matrix of the observables under ``p``.

    Equals the metric tensor at the member with moments ``H p``.
    """
    p = check_probability(p)
    h = family.hamiltonians
    mean = h @ p
    centered = h - mean[:, None]
    return (centered * p) @ centered.T


def kl_divergence(p, q) -> float:
    """Relative entropy ``sum_a p(a) ln(p(a)/q(a))`` (nonnegative).

    Note that the opposite-sign convention ``sum p ln(q/p)`` also appears
    in some references; this function uses the nonnegative orientation.
    Raises :class:`SupportError` when ``q`` vanishes on the support of
    ``p``.
    """
    p = check_probability(p)
    q = check_probability(q)
    if p.shape != q.shape:
        raise ValueError("distribution lengths differ")
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        raise SupportError("q vanishes on the support of p")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def maxent_fit_report(family: DiscreteFamily, u_target,
                      tol: float = 1e-12) -> tuple[np.ndarray, int]:
    """Moment fit returning ``(theta, newton_iterations)``.

    Damped Newton on the convex dual objective ``Phi(theta) + theta . U``;
    converged when ``max_j |E_theta H_j - U_j| <= tol``.  A target
    outside the range ``[min_a H_j(a), max_a H_j(a)]`` of some observable,
    or divergence of the iterates (norm above 1e3), signals a target
    outside the feasible moment region and raises :class:`InfeasibleError`.
    """
    u_target = np.atleast_1d(np.asarray(u_target, dtype=float))
    if u_target.shape != (family.n,):
        raise ValueError(f"expected {family.n} moment targets")
    theta = np.zeros(family.n)
    if family.n == 0:
        return theta, 0
    h = family.hamiltonians
    if np.any(u_target < h.min(axis=1)) or np.any(u_target > h.max(axis=1)):
        raise InfeasibleError(
            f"moment target {u_target.tolist()} is outside the feasible region")

    def dual(th):
        return log_partition(family, th) + float(th @ u_target)

    f = dual(theta)
    for it in range(_MAX_NEWTON):
        p = boltzmann_gibbs(family, theta)
        moments = family.hamiltonians @ p
        residual = moments - u_target
        if float(np.max(np.abs(residual))) <= tol:
            return theta, it
        cov = fisher_covariance(family, p)
        try:
            step = np.linalg.solve(cov, residual)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError("singular covariance in moment fit") from exc
        # Near the optimum the dual is flat to machine precision and the
        # sufficient-decrease test would reject on rounding jitter, so
        # allow an absolute slack of a few ulps.
        slack = 1e-15 * (1.0 + abs(f))
        t = 1.0
        for _ in range(60):
            cand = theta + t * step
            fc = dual(cand)
            if fc <= f + 1e-4 * t * float(-residual @ step) + slack:
                theta, f = cand, fc
                break
            t *= 0.5
        else:
            theta = theta + t * step
            f = dual(theta)
        if float(np.linalg.norm(theta)) > _DIVERGENCE_NORM:
            raise InfeasibleError(
                f"moment target {u_target.tolist()} is outside the feasible region")
    raise ConvergenceError("moment fit did not converge")


def maxent_fit(family: DiscreteFamily, u_target, tol: float = 1e-12) -> np.ndarray:
    """Parameters theta whose member matches the moment targets."""
    return maxent_fit_report(family, u_target, tol)[0]


def _fiber_direction(family: DiscreteFamily) -> np.ndarray:
    """Basis of the null space of [H; 1] (directions along a fiber)."""
    stacked = np.vstack([family.hamiltonians, np.ones(family.alphabet_size)])
    _, s, vt = np.linalg.svd(stacked)
    rank = int(np.sum(s > s[0] * max(stacked.shape) * np.finfo(float).eps))
    return vt[rank:]


def as_descriptor(family: DiscreteFamily) -> ModelDescriptor:
    """Engine descriptor for the family.

    The energy domain is the open moment region (exact interval test for
    one observable, a feasibility probe via :func:`maxent_fit` row by row
    otherwise);
    ``entropy_u`` is the entropy of the moment-matched member.  The
    data-set layer treats probability vectors as data sets; the fiber
    sampler supports fibers of dimension zero or one.
    """
    h = family.hamiltonians
    n = family.n
    p0 = family.prior / float(family.prior.sum())
    interior = h @ p0
    lo = h.min(axis=1) if n else np.zeros(0)
    hi = h.max(axis=1) if n else np.zeros(0)
    box = np.stack([lo, hi], axis=-1) if n else np.zeros((0, 2))

    clamp = None
    if n == 1:
        span = float(hi[0] - lo[0])
        margin = 1e-12 * span
        clamp = (lo[0] + margin, hi[0] - margin)

        def membership(u):
            x = np.asarray(u, dtype=float)[..., 0]
            return (lo[0] + margin < x) & (x < hi[0] - margin)
    else:
        def feasible(u):
            try:
                maxent_fit(family, u, tol=1e-8)
                return True
            except (InfeasibleError, ConvergenceError, DegeneracyError):
                return False

        def membership(u):
            u = np.asarray(u, dtype=float)
            out = np.empty(u.shape[:-1], dtype=bool)
            for idx in np.ndindex(out.shape):
                out[idx] = feasible(u[idx])
            return out

    domain = Domain(dimension=n, bounding_box=box, membership=membership,
                    interior_point=interior)

    def entropy_u(u):
        u = np.asarray(u, dtype=float)
        if clamp is not None:
            # Finite-difference stencils centered on an iterate that hugs
            # an edge of the moment interval can poke past it; clamp such
            # points back to the membership margin so the evaluation stays
            # finite.  Member points are never moved.
            u = np.clip(u, clamp[0], clamp[1])
        theta = maxent_fit(family, u, tol=1e-13)
        return bgs_entropy(family, boltzmann_gibbs(family, theta))

    def answers(p):
        p = check_probability(p)
        return h @ p, bgs_entropy(family, p)

    directions = _fiber_direction(family)

    def fiber_sampler(u, count, rng=None):
        from .errors import UnsupportedOperationError

        theta = maxent_fit(family, u)
        base = boltzmann_gibbs(family, theta)
        if directions.shape[0] == 0:
            return [base]
        if directions.shape[0] > 1:
            raise UnsupportedOperationError(
                "fiber sampling implemented only for fibers of dimension <= 1")
        w = directions[0]
        # p(t) = base + t w stays a distribution for t in [t_lo, t_hi].
        with np.errstate(divide="ignore"):
            ratios = -base / np.where(w != 0.0, w, np.nan)
        t_hi = float(np.min(ratios[w < 0.0])) if np.any(w < 0.0) else 0.0
        t_lo = float(np.max(ratios[w > 0.0])) if np.any(w > 0.0) else 0.0
        if rng is None:
            ts = np.linspace(t_lo, t_hi, count)
        else:
            ts = rng.uniform(t_lo, t_hi, size=count)
        out = []
        for t in ts:
            p = np.maximum(base + t * w, 0.0)
            out.append(p / float(p.sum()))
        return out

    return ModelDescriptor(
        name=f"discrete-{family.alphabet_size}letter",
        n=n,
        energy_domain=domain,
        entropy_u=entropy_u,
        closed_massieu=lambda th: log_partition(family, th),
        closed_theta_to_u=lambda th: h @ boltzmann_gibbs(family, th),
        closed_u_to_theta=lambda u: maxent_fit(family, u),
        closed_dual_points=lambda th: dual_points(family, th),
        dataset_answers=answers,
        fiber_sampler=fiber_sampler,
    )


def two_level(h1: float = 0.0, h2: float = 1.0) -> DiscreteFamily:
    """Unit-prior two-letter family with a single observable."""
    return DiscreteFamily(prior=np.ones(2), hamiltonians=np.array([[h1, h2]]))


def three_level() -> DiscreteFamily:
    """Unit-prior three-letter family with observable (0, 1, 2)."""
    return DiscreteFamily(prior=np.ones(3), hamiltonians=np.array([[0.0, 1.0, 2.0]]))
