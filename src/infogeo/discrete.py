"""Discrete exponential families on a finite alphabet.

A family is a positive prior weight ``c(a)`` over ``m >= 2`` letters
together with ``n`` observables (rows of a Hamiltonian matrix).  The
Boltzmann-Gibbs member at parameters theta has weights proportional to
``c(a) exp(-sum_j theta_j H_j(a))``; its entropy is the prior-relative
Shannon entropy ``S(p) = -sum_a p(a) ln(p(a)/c(a))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import ModelDescriptor
from .errors import (
    ConvergenceError,
    DegeneracyError,
    DomainError,
    InfeasibleError,
    SupportError,
)
from .numerics import Domain, _damped_newton, raise_first, row_dot

#: The start table of a one-observable family holds the moment at
#: ``_START_ROWS`` parameters evenly spaced over ``|theta| * width <=
#: _START_SPAN``, ``width`` being the range of the observable.
_START_ROWS = 513
_START_SPAN = 40.0


@dataclass(frozen=True)
class DiscreteFamily:
    """Prior weights and observables defining one discrete family.

    ``prior`` is a strictly positive length-m vector (any scale);
    ``hamiltonians`` is an (n, m) matrix whose rows are the observables.
    Both must be finite (ValueError naming the field otherwise).  The
    family keeps read-only copies of both.  Canonicality requires
    that no nontrivial linear combination of the rows and the constant
    vector vanishes, i.e. ``[H; 1]`` has rank ``n + 1``.

    The constants that every evaluation or moment fit would otherwise
    recompute are built once, here: ``log_prior`` (``ln c``), ``box``
    (n, 2), the range of each observable, ``facets``, the open moment
    region as the rows ``[A_i, c_i]`` of halfspaces ``A_i . U < c_i``
    that :meth:`outside` tests, and ``start_table``, the moment map of one
    observable as the rows ``(U, theta)`` in increasing U (None for other ``n``).
    """

    prior: np.ndarray
    hamiltonians: np.ndarray
    log_prior: np.ndarray = field(init=False, repr=False, compare=False)
    box: np.ndarray = field(init=False, repr=False, compare=False)
    facets: np.ndarray = field(init=False, repr=False, compare=False)
    start_table: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        prior = np.array(self.prior, dtype=float)
        if prior.ndim != 1 or prior.size < 2:
            raise ValueError("prior must be a vector over at least two letters")
        if not np.all(prior > 0.0):
            raise ValueError("prior weights must be strictly positive")
        h = np.array(self.hamiltonians, dtype=float)
        if h.ndim != 2 or h.shape[1] != prior.size or not len(h):
            raise ValueError("hamiltonians must be an (n, alphabet) matrix, n >= 1")
        for name, value in (("prior", prior), ("hamiltonians", h)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must have finite entries")
        stacked = np.vstack([h, np.ones(prior.size)])
        if np.linalg.matrix_rank(stacked) != h.shape[0] + 1:
            raise DegeneracyError(
                "observables plus the constant vector are linearly dependent")
        constants = {"prior": prior, "hamiltonians": h, "log_prior": np.log(prior),
                     "box": np.stack([h.min(axis=1), h.max(axis=1)], axis=-1),
                     "facets": _hull_facets(h, h @ (prior / prior.sum()))}
        for name, value in constants.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        table = None
        if h.shape[0] == 1:
            # U falls as theta rises, so a falling grid gives rising moments;
            # the running maximum keeps them monotone where U saturates
            grid = np.linspace(_START_SPAN, -_START_SPAN, _START_ROWS) / np.ptp(h)
            moments = _mean_energy(h, _log_sum_exp(self, grid[:, None])[1])[:, 0]
            table = np.stack([np.maximum.accumulate(moments), grid])
            table.flags.writeable = False
        object.__setattr__(self, "start_table", table)

    @property
    def n(self) -> int:
        return self.hamiltonians.shape[0]

    @property
    def alphabet_size(self) -> int:
        return self.prior.size

    def outside(self, u: np.ndarray) -> np.ndarray:
        """Whether each point of ``u`` (..., n) fails ``A_i . U < c_i`` on a row of
        ``facets``: the family's one region test (a NaN point is outside)."""
        return ~(u @ self.facets[:, :-1].T < self.facets[:, -1]).all(axis=-1)


def _hull_facets(h: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """Rows ``[A_i, c_i]`` (f, n + 1) of halfspaces ``A_i . U < c_i`` whose
    intersection is the open hull of the letters' moments ``H(a)``, each
    facet inset by 1e-12 of its width: ``A_i`` solves ``A_i . (H(a) -
    interior) = 1`` on the i-th n-subset of letters (one batched
    pseudo-inverse), scaled to a largest entry of 1, and ``c_i = b_i - 1e-12
    w_i``, where ``b_i = max_a A_i . H(a)`` makes a plane that is no facet
    a valid bound too and ``w_i`` is the range of ``A_i . H(a)``.  One
    observable gives ``U < max H - 1e-12 w`` and ``-U < -(min H + 1e-12 w)``."""
    subsets = np.array(list(combinations(range(h.shape[1]), len(h))), dtype=int)
    normals = np.linalg.pinv(h.T[subsets] - interior).sum(axis=-1)
    # a zero normal (one letter at the interior) bounds nothing
    scale = np.abs(normals).max(axis=1, initial=0.0)
    normals = normals[scale > 0.0] / scale[scale > 0.0, None]
    # the inset keeps a target off the edge, where the fit loses its digits
    heights = normals @ h
    return np.column_stack([normals, heights.max(axis=1) - 1e-12 * np.ptp(heights, axis=1)])


def check_probability(p) -> np.ndarray:
    """Validate and return a probability vector ``p`` (m,) (sum 1 to within
    ``1e-12 m``, entries >= -1e-12), or the probability vectors in the rows
    of ``p`` (k, m), with negative rounding clipped to 0.

    A stack raises the ValueError of its first bad row; a point is row 0
    of the one-row call.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2):
        raise ValueError("expected a probability vector or rows of them")
    ps = np.atleast_2d(p)
    raise_first((~np.isfinite(ps).all(axis=1),
                 ValueError("probability vector has a non-finite entry")),
                ((ps < -1e-12).any(axis=1),
                 ValueError("probability vector has a negative entry")),
                (np.abs(ps.sum(axis=1) - 1.0) > 1e-12 * ps.shape[1],
                 ValueError("probability vector does not sum to one")))
    return np.maximum(p, 0.0)


def _log_sum_exp(family: DiscreteFamily, thetas: np.ndarray):
    """The family's max-shifted log-sum-exp at parameter points ``thetas``
    (..., n): ``(Phi (...), p (..., m), ln p (..., m))`` of the members.

    Each point's values do not depend on the other points it is stacked
    with: the products ``theta . H`` are stacked vector products, and
    every other step works along the last axis.
    """
    e = (family.log_prior
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
    """Member distribution ``p(a) = c(a) exp(-theta . H(a)) / Z`` at
    ``theta`` (n,), or one per row of ``theta`` (k, n); each row has the
    bits of its point call."""
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
    terms = np.where(p > 0.0, p * (log_p - family.log_prior), 0.0)
    return phi, _mean_energy(family.hamiltonians, p), -np.sum(terms, axis=-1)


def bgs_entropy(family: DiscreteFamily, p):
    """Prior-relative Shannon entropy ``-sum_a p(a) ln(p(a)/c(a))`` of the
    probability vector ``p`` (m,), or ``(k,)`` of the rows of ``p`` (k, m),
    with row i the bits of the point call on row i.

    Zero-probability letters contribute nothing (0 ln 0 = 0): their terms
    are masked to zero, as in :func:`dual_points`.
    """
    ps = np.atleast_2d(check_probability(p))
    if ps.shape[1] != family.alphabet_size:
        raise ValueError(f"expected probability vectors over"
                         f" {family.alphabet_size} letters")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(ps > 0.0, ps * (np.log(ps) - family.log_prior), 0.0)
    values = -np.sum(terms, axis=1)
    return float(values[0]) if np.ndim(p) == 1 else values


def _covariance(h: np.ndarray, p: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Covariances ``(k, n, n)`` of the observables ``h`` under the members
    ``p`` (k, m) with the moments ``H p`` (k, n)."""
    centered = h - moments[:, :, None]
    return np.matmul(centered * p[:, None, :], centered.transpose(0, 2, 1))


def kl_divergence(p, q):
    """Relative entropy ``sum_a p(a) ln(p(a)/q(a))`` (nonnegative) of one
    pair of distributions ``(m,)``, or of each pair of rows of ``p`` and
    ``q`` (k, m).

    Note that the opposite-sign convention ``sum p ln(q/p)`` also appears
    in some references; this function uses the nonnegative orientation.
    Returns a float, or one value per row ``(k,)`` with the bits of the
    one-pair call.  Raises :class:`SupportError` when ``q`` vanishes on
    the support of ``p`` (of the first such pair of a stack).
    """
    single = np.ndim(p) == 1
    ps, qs = (np.atleast_2d(check_probability(v)) for v in (p, q))
    if ps.shape != qs.shape:
        raise ValueError("distribution lengths differ")
    if np.any((ps > 0.0) & (qs == 0.0)):
        raise SupportError("q vanishes on the support of p")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(ps > 0.0, ps * np.log(ps / qs), 0.0)
    values = np.sum(terms, axis=1)
    return float(values[0]) if single else values


#: Row outcomes of :func:`fit_moments`.
FIT_OK, FIT_INFEASIBLE, FIT_SINGULAR, FIT_STALLED = range(4)


def _newton_steps(cov, residual):
    """``cov^-1 residual`` row by row, and the mask of the rows whose
    covariance is singular (their step is zero)."""
    if cov.shape[1] == 1:
        # LAPACK solves a 1x1 system by this division, and skipping
        # np.linalg.solve saves most of the cost of a one-row iteration
        var = cov[:, :, 0]
        singular = var[:, 0] == 0.0
        return residual / np.where(singular[:, None], np.inf, var), singular
    try:
        return np.linalg.solve(cov, residual[..., None])[..., 0], np.zeros(len(cov), bool)
    except np.linalg.LinAlgError:
        if len(cov) == 1:
            return np.zeros_like(residual), np.ones(1, dtype=bool)
    # some covariance is singular: solve each row on its own, as when it is fitted alone
    steps = [_newton_steps(cov[i:i + 1], residual[i:i + 1]) for i in range(len(cov))]
    return np.concatenate([s for s, _ in steps]), np.concatenate([m for _, m in steps])


def fit_moments(family: DiscreteFamily, targets,
                tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moment fits of the rows of ``targets`` (k, n), all at once.

    One :func:`numerics._damped_newton` loop maximizes the negated convex
    dual ``-(Phi + theta . U)`` of each row, ``Phi`` from ``family.log_prior``,
    by Newton steps ``Cov_theta(H)^-1 (E_theta H - U)`` from
    ``family.start_table`` at the target (one observable) or theta = 0, all
    constants the family builds once.  A row converges when ``|E_theta H -
    U| <= tol``; its Armijo slack is ``1e-15 (1 + |f| + |Phi| + |theta.U|)``,
    ``f`` the dual.  A target that :meth:`DiscreteFamily.outside` refuses
    or a Newton step that is not finite makes a row infeasible; a singular
    covariance, no admissible step or 200 iterations fail it too.

    Returns ``(theta (k, n), iterations (k,), status (k,))`` with status
    :data:`FIT_OK`, :data:`FIT_INFEASIBLE`, :data:`FIT_SINGULAR` or
    :data:`FIT_STALLED`; a failed row keeps theta 0 and 0 iterations and
    never stops the others.  Each row gets the bits of its fit alone.
    """
    targets = np.asarray(targets, dtype=float)
    k, n = targets.shape
    # a row inside counts as stalled until it converges or fails otherwise
    status = np.where(family.outside(targets), FIT_INFEASIBLE, FIT_STALLED)
    inside = np.flatnonzero(status == FIT_STALLED)
    h, u = family.hamiltonians, targets[inside]
    start = np.zeros((inside.size, n))
    if family.start_table is not None:
        start[:, 0] = np.interp(u[:, 0], *family.start_table)
    # the targets of the rows still iterating, which are all of them until one ends
    at = lambda rows: u if len(rows) == len(u) else u[rows]

    def value(rows, thetas):
        phi, p, _ = _log_sum_exp(family, thetas)
        # a dual that overflows to NaN is no value (-inf) to the core, not an error
        return np.fmax(-(phi + row_dot(thetas, at(rows))), -np.inf), p, _mean_energy(h, p)

    def direction(rows, residual, thetas, g, p, moments):
        step, singular = _newton_steps(_covariance(h, p, moments), residual)
        # a step that is not finite runs off an infeasible target
        bad = singular | ~np.isfinite(step).all(axis=1)
        if np.count_nonzero(bad):
            status[inside[rows[bad]]] = np.where(singular[bad], FIT_SINGULAR, FIT_INFEASIBLE)
            step[bad] = np.nan
        return step

    def slack(rows, thetas, g):
        # the dual -g = Phi + theta.U can cancel far below its terms, whose
        # size sets the rounding of g, so the slack scales with them too
        tu = row_dot(thetas, at(rows))
        return 1e-15 * (1.0 + np.abs(g) + np.abs(g + tu) + np.abs(tu))

    theta, iterations = np.zeros((k, n)), np.zeros(k, dtype=int)

    def finish(rows, thetas, g, its, gnorm):    # a row that did not converge keeps zeros
        ok = gnorm <= tol
        at_ok = inside[rows[ok]]
        theta[at_ok], iterations[at_ok], status[at_ok] = thetas[ok], its, FIT_OK

    gradient = lambda rows, thetas, g, p, moments: moments - at(rows)
    _damped_newton(start, tol, value, gradient, direction, slack, finish)
    return theta, iterations, status


def maxent_fit_rows(family: DiscreteFamily, targets,
                    tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Moment fits ``(theta (k, n), newton_iterations (k,))`` of the rows
    of ``targets`` (k, n), from one :func:`fit_moments` call, converged when
    ``|E_theta H - U| <= tol``.

    Raises the error of the lowest failing row: :class:`InfeasibleError`
    for an infeasible one, :class:`DegeneracyError` for a singular
    covariance and :class:`ConvergenceError` for a fit that stalled.
    """
    targets = np.asarray(targets, dtype=float)
    theta, iterations, status = fit_moments(family, targets, tol)
    raise_first((status == FIT_INFEASIBLE, lambda i: InfeasibleError(
                    f"moment target {targets[i].tolist()} is outside the feasible region")),
                (status == FIT_SINGULAR, DegeneracyError("singular covariance in moment fit")),
                (status == FIT_STALLED, ConvergenceError("moment fit did not converge")))
    return theta, iterations


def maxent_fit_report(family: DiscreteFamily, u_target,
                      tol: float = 1e-12) -> tuple[np.ndarray, int]:
    """Moment fit returning ``(theta, newton_iterations)``: the one-row
    view of :func:`maxent_fit_rows`."""
    u_target = np.atleast_1d(np.asarray(u_target, dtype=float))
    if u_target.shape != (family.n,):
        raise ValueError(f"expected {family.n} moment targets")
    theta, iterations = maxent_fit_rows(family, u_target[None], tol)
    return theta[0], int(iterations[0])


def _fiber_direction(family: DiscreteFamily) -> np.ndarray:
    """Basis of the null space of [H; 1], of rank n + 1 (the fiber directions)."""
    stacked = np.vstack([family.hamiltonians, np.ones(family.alphabet_size)])
    return np.linalg.svd(stacked)[2][family.n + 1:]


def _chords(bases: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ends ``(t_lo, t_hi)`` of the chords ``base + t w`` that stay
    distributions, one per direction ``w`` (..., count, m) through the
    member ``base`` (..., m) of its row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = -bases[..., None, :] / w
    return (np.max(np.where(w > 0.0, ratios, -np.inf), axis=-1),
            np.min(np.where(w < 0.0, ratios, np.inf), axis=-1))


def as_descriptor(family: DiscreteFamily) -> ModelDescriptor:
    """Engine descriptor for the family.

    The energy domain is the open moment region of
    :meth:`DiscreteFamily.outside`, the test :func:`fit_moments` applies
    too; ``entropy_u`` is the entropy of the moment-matched members, from
    one :func:`fit_moments` call and :func:`dual_points` at the fitted
    rows.  Phi, U and S at parameter rows come from the one kernel
    :func:`dual_points`, the metric is the covariance of the observables
    under the members, and the chart inversion is one
    :func:`maxent_fit_rows` call.  The data-set layer treats probability
    vectors as data sets (a bad one raises :class:`DomainError`), and a
    stack of them is an array of rows (k, m).  The fiber sampler returns
    the stack (k, c, m) over moment rows (k, n), with c = 1 where fibers
    are single points and ``count`` (at least 1) otherwise; with an rng,
    fibers of dimension 2 or more take their directions from one
    ``rng.normal`` call, and all fibers their chord offsets from one
    ``rng.uniform`` call.
    """
    h = family.hamiltonians
    p0 = family.prior / float(family.prior.sum())

    # Finite-difference stencils of S centered near an edge of the moment
    # interval (the verify oracles take fixed steps) can poke past it; with
    # one observable, such points are clamped one ulp inside the region's
    # ends, where they still fit, so the evaluation stays finite.  Member
    # points are never moved.
    lo, hi = family.box.T
    margin = 1e-12 * (hi - lo)
    clamp = ((np.nextafter(lo + margin, hi), np.nextafter(hi - margin, lo))
             if family.n == 1 else (-np.inf, np.inf))

    def entropy_u(us):
        us = np.asarray(us, dtype=float)
        rows = np.clip(us.reshape(math.prod(us.shape[:-1]), us.shape[-1]), *clamp)
        fitted = maxent_fit_rows(family, rows, tol=1e-13)[0]
        return dual_points(family, fitted)[2].reshape(us.shape[:-1])[()]

    def metric(thetas):
        p = boltzmann_gibbs(family, thetas)
        return _covariance(h, p, _mean_energy(h, p))

    def answers(ps):
        try:
            entropies = bgs_entropy(family, ps)     # the one check of the rows
        except ValueError as exc:
            raise DomainError(str(exc)) from None
        return _mean_energy(h, np.maximum(ps, 0.0)), entropies

    directions = _fiber_direction(family)

    def fiber_sampler(us, count, rng=None):
        if len(directions) and count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        bases = boltzmann_gibbs(family, maxent_fit_rows(family, us)[0])
        if not len(directions):
            return bases[:, None]
        # Samples lie on chords of the fiber through the member: base + t w
        # stays a distribution for t in [t_lo, t_hi].  Without rng they are
        # evenly spaced on the chord along the first fiber direction; with
        # rng each takes a uniform t on its own chord, along a random
        # direction when the fiber has more than one.
        k, m = bases.shape
        if rng is None or len(directions) == 1:
            w = np.broadcast_to(directions[0], (k, count, m))
        else:
            w = rng.normal(size=(k, count, len(directions))) @ directions
        t_lo, t_hi = _chords(bases, w)
        t = (np.linspace(t_lo[:, 0], t_hi[:, 0], count, axis=1) if rng is None
             else rng.uniform(t_lo, t_hi))
        p = np.maximum(bases[:, None, :] + t[..., None] * w, 0.0)
        return p / p.sum(axis=-1, keepdims=True)

    return ModelDescriptor(
        energy_domain=Domain(dimension=family.n, bounding_box=family.box,
                             membership=lambda u: ~family.outside(u), interior_point=h @ p0),
        entropy_u=entropy_u,
        closed_dual_points=lambda th: dual_points(family, th),
        closed_metric=metric,
        closed_u_to_theta=lambda us: maxent_fit_rows(family, us)[0],
        dataset_answers=answers,
        fiber_sampler=fiber_sampler,
    )

