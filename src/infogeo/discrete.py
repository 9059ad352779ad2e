"""Discrete exponential families on a finite alphabet.

A family is a positive prior weight ``c(a)`` over ``m >= 2`` letters
together with ``n`` observables (rows of a Hamiltonian matrix).  The
Boltzmann-Gibbs member at parameters theta has weights proportional to
``c(a) exp(-sum_j theta_j H_j(a))``; its entropy is the prior-relative
Shannon entropy ``S(p) = -sum_a p(a) ln(p(a)/c(a))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ModelDescriptor
from .errors import (
    ConvergenceError,
    DegeneracyError,
    InfeasibleError,
    SupportError,
)
from .numerics import Domain, on_points, row_dot

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
    if not np.isfinite(p).all():
        raise ValueError("probability vector has a non-finite entry")
    if np.any(p < -tol):
        raise ValueError("probability vector has a negative entry")
    if abs(float(p.sum()) - 1.0) > max(tol, 1e-12 * p.size):
        raise ValueError("probability vector does not sum to one")
    return np.maximum(p, 0.0)


def _log_sum_exp(family: DiscreteFamily, thetas: np.ndarray):
    """The family's max-shifted log-sum-exp at parameter points ``thetas``
    (..., n): ``(Phi (...), p (..., m), ln p (..., m))`` of the members.

    Each point's values do not depend on the other points it is stacked
    with: the products ``theta . H`` are stacked vector products, and
    every other step works along the last axis.
    """
    e = (np.log(family.prior)
         - np.matmul(thetas[..., None, :], family.hamiltonians)[..., 0, :])
    shift = e.max(axis=-1, keepdims=True)
    e -= shift
    w = np.exp(e)
    z = w.sum(axis=-1, keepdims=True)
    log_z = np.log(z)
    # ln p = (e - shift) - ln z; adding the shift back first would round
    # ln p of the likeliest letter to the last bit of the shift
    return (shift + log_z)[..., 0], w / z, e - log_z


def _mean_energy(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Moments ``U = H p`` of the members ``p`` (..., m), one stacked
    matrix-vector product per point."""
    return np.matmul(h, p[..., :, None])[..., 0]


def log_partition(family: DiscreteFamily, theta) -> float:
    """``ln sum_a c(a) exp(-theta . H(a))``, evaluated with a max shift."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return float(_log_sum_exp(family, theta)[0])


def boltzmann_gibbs(family: DiscreteFamily, theta) -> np.ndarray:
    """Member distribution ``p(a) = c(a) exp(-theta . H(a)) / Z``."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return _log_sum_exp(family, theta)[1]


def dual_points(family: DiscreteFamily, thetas: np.ndarray):
    """``(Phi, U, S)`` of the members at the rows of ``thetas`` (k, n).

    ``Phi`` and the members ``p`` come from the log-sum-exp behind
    :func:`log_partition` and :func:`boltzmann_gibbs`; ``U = H p`` and
    the prior-relative entropy ``S = -sum_a p(a) ln(p(a)/c(a))`` come
    from the same ``p``, with ``ln p`` taken in the log domain (0 ln 0 =
    0).  No moment fit.
    """
    phi, p, log_p = _log_sum_exp(family, thetas)
    terms = np.where(p > 0.0, p * (log_p - np.log(family.prior)), 0.0)
    return phi, _mean_energy(family.hamiltonians, p), -np.sum(terms, axis=-1)


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


#: Row outcomes of :func:`fit_moments`.
FIT_OK, FIT_INFEASIBLE, FIT_SINGULAR, FIT_STALLED = range(4)


def _fit_error(status: int, target: np.ndarray) -> Exception:
    """The error that a one-row fit with outcome ``status`` raises."""
    if status == FIT_INFEASIBLE:
        return InfeasibleError(
            f"moment target {target.tolist()} is outside the feasible region")
    if status == FIT_SINGULAR:
        return DegeneracyError("singular covariance in moment fit")
    return ConvergenceError("moment fit did not converge")


def _dual_rows(family: DiscreteFamily, thetas, targets):
    """Dual objective ``Phi(theta) + theta . U`` of the fit at each row,
    with the member at that row, from the log-sum-exp behind
    :func:`log_partition`."""
    phi, p, _ = _log_sum_exp(family, thetas)
    return phi + row_dot(thetas, targets), p


def _newton_steps(cov, residual):
    """``cov^-1 residual`` row by row, and the mask of the rows whose
    covariance is singular (their step is zero)."""
    if cov.shape[1] == 1:
        # LAPACK solves a 1x1 system by this division, and skipping
        # np.linalg.solve saves most of the cost of a one-row iteration
        var = cov[:, :, 0]
        singular = var[:, 0] == 0.0
        return np.divide(residual, var, out=np.zeros_like(residual),
                         where=var != 0.0), singular
    singular = np.zeros(len(cov), dtype=bool)
    try:
        return np.linalg.solve(cov, residual[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    step = np.zeros_like(residual)
    for i, (c, r) in enumerate(zip(cov, residual)):
        try:
            step[i] = np.linalg.solve(c, r)
        except np.linalg.LinAlgError:
            singular[i] = True
    return step, singular


def fit_moments(family: DiscreteFamily, targets,
                tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moment fits of the rows of ``targets`` (k, n), all at once.

    Damped Newton on the convex dual objective ``Phi(theta) + theta . U``
    of each row, in one shared loop: a row leaves it when
    ``max_j |E_theta H_j - U_j| <= tol``, and each row backtracks on its
    own Armijo test, which allows a slack of ``1e-15 * (1 + |f|)`` for
    rounding.  A row whose target lies outside ``[min_a H_j(a), max_a
    H_j(a)]`` for some observable, or whose iterates diverge (norm above
    1e3), is infeasible; one whose covariance is singular, or that has
    not converged after 200 iterations, fails too.  A failing row never
    stops the others.

    Returns ``(theta (k, n), iterations (k,), status (k,))`` with status
    :data:`FIT_OK`, :data:`FIT_INFEASIBLE`, :data:`FIT_SINGULAR` or
    :data:`FIT_STALLED`; a failed row keeps theta 0 and 0 iterations.
    Each row gets the bits it gets when fitted alone.
    """
    targets = np.asarray(targets, dtype=float)
    k, n = targets.shape
    theta = np.zeros((k, n))
    iterations = np.zeros(k, dtype=int)
    status = np.full(k, FIT_OK)
    if n == 0:
        return theta, iterations, status
    h = family.hamiltonians
    inside = np.all((targets >= h.min(axis=1)) & (targets <= h.max(axis=1)), axis=1)
    status[~inside] = FIT_INFEASIBLE
    rows = np.flatnonzero(inside)        # the rows still iterating
    u = targets[rows]
    th = theta[rows]
    f, p = _dual_rows(family, th, u)
    for it in range(_MAX_NEWTON):
        moments = _mean_energy(h, p)
        residual = moments - u
        done = np.abs(residual).max(axis=1) <= tol
        if done.any():
            theta[rows[done]] = th[done]
            iterations[rows[done]] = it
            keep = ~done
            rows, u, th, f, p, moments, residual = (
                a[keep] for a in (rows, u, th, f, p, moments, residual))
        if not rows.size:
            break
        centered = h - moments[:, :, None]
        cov = np.matmul(centered * p[:, None, :], centered.transpose(0, 2, 1))
        step, singular = _newton_steps(cov, residual)
        slope = row_dot(-residual, step)
        # Near the optimum the dual is flat to machine precision and the
        # sufficient-decrease test would reject on rounding jitter, so
        # allow an absolute slack of a few ulps.
        slack = 1e-15 * (1.0 + np.abs(f))
        cand = th + step
        fc, pc = _dual_rows(family, cand, u)
        # Rows still rejected have failed every halving so far, so they
        # share the step length t.
        todo = np.flatnonzero(~(fc <= f + 1e-4 * slope + slack))
        t = 1.0
        for _ in range(59):
            if not todo.size:
                break
            t *= 0.5
            c = th[todo] + t * step[todo]
            fc_t, p_t = _dual_rows(family, c, u[todo])
            ok = fc_t <= f[todo] + 1e-4 * t * slope[todo] + slack[todo]
            accepted = todo[ok]
            cand[accepted], fc[accepted], pc[accepted] = c[ok], fc_t[ok], p_t[ok]
            todo = todo[~ok]
        if todo.size:
            # no admissible step: take the last, shortest one anyway
            t *= 0.5
            cand[todo] = th[todo] + t * step[todo]
            fc[todo], pc[todo] = _dual_rows(family, cand[todo], u[todo])
        th, f, p = cand, fc, pc
        # NaN iterates count as diverging too
        failed = singular | ~(np.sqrt(row_dot(th, th)) <= _DIVERGENCE_NORM)
        if failed.any():
            status[rows[failed]] = np.where(singular[failed], FIT_SINGULAR,
                                            FIT_INFEASIBLE)
            keep = ~failed
            rows, u, th, f, p = (a[keep] for a in (rows, u, th, f, p))
    else:
        status[rows] = FIT_STALLED
    return theta, iterations, status


def maxent_fit_report(family: DiscreteFamily, u_target,
                      tol: float = 1e-12) -> tuple[np.ndarray, int]:
    """Moment fit returning ``(theta, newton_iterations)``.

    The one-row view of :func:`fit_moments`: converged when ``max_j
    |E_theta H_j - U_j| <= tol``.  A target outside the range ``[min_a
    H_j(a), max_a H_j(a)]`` of some observable, or divergence of the
    iterates (norm above 1e3), signals a target outside the feasible
    moment region and raises :class:`InfeasibleError`; a singular
    covariance raises :class:`DegeneracyError` and no convergence within
    200 iterations :class:`ConvergenceError`.
    """
    u_target = np.atleast_1d(np.asarray(u_target, dtype=float))
    if u_target.shape != (family.n,):
        raise ValueError(f"expected {family.n} moment targets")
    theta, iterations, status = fit_moments(family, u_target[None], tol)
    if status[0] != FIT_OK:
        raise _fit_error(int(status[0]), u_target)
    return theta[0], int(iterations[0])


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
    one observable, otherwise the row status of one :func:`fit_moments`
    call over all the points); ``entropy_u`` is the entropy of the
    moment-matched members, from one :func:`fit_moments` call and
    :func:`dual_points` at the fitted rows.  The
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
        membership = on_points(
            lambda us: fit_moments(family, us, tol=1e-8)[2] == FIT_OK)

    domain = Domain(dimension=n, bounding_box=box, membership=membership,
                    interior_point=interior)

    def entropy_rows(us):
        if clamp is not None:
            # Finite-difference stencils centered on an iterate that hugs
            # an edge of the moment interval can poke past it; clamp such
            # points back to the membership margin so the evaluation stays
            # finite.  Member points are never moved.
            us = np.clip(us, clamp[0], clamp[1])
        theta, _, status = fit_moments(family, us, tol=1e-13)
        failed = np.flatnonzero(status)
        if failed.size:
            raise _fit_error(int(status[failed[0]]), us[failed[0]])
        return dual_points(family, theta)[2]

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
        entropy_u=on_points(entropy_rows),
        closed_massieu=lambda th: log_partition(family, th),
        closed_theta_to_u=lambda th: _mean_energy(h, boltzmann_gibbs(family, th)),
        closed_u_to_theta=lambda u: maxent_fit(family, u),
        closed_dual_points=lambda th: dual_points(family, th),
        dataset_answers=answers,
        fiber_sampler=fiber_sampler,
    )

