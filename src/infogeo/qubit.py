"""Two-level quantum systems (qubits).

States are 2x2 density matrices, coordinatized by the Bloch vector
``U = (tr(rho X), tr(rho Y), tr(rho Z))``.  The spin observables are the
three Pauli matrices; the canonical family consists of the Gibbs states
``rho_theta = exp(-theta . sigma) / (2 cosh |theta|)``, whose entropy is
the von Neumann entropy.  Their Bloch vectors fill the open unit ball, the
energy domain: a pure state, on its boundary, has no finite parameters.
Every quantity here has a closed form, which makes the model the primary
oracle for the generic engine.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ModelDescriptor
from .errors import DomainError, EvaluationError
from .numerics import Domain, Matrix2H, eig_h2, func_h2, raise_first, row_dot, row_norm


def _vectors(v, what: str) -> np.ndarray:
    """``v`` as a float point (3,) or rows (k, 3); ValueError otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,) or v.ndim > 2:
        raise ValueError(f"{what} must have three components")
    return v


def ball_radius(u):
    """``|u|`` of the Bloch vectors ``u`` (..., 3) by :func:`row_norm`, which
    does not overflow: the module's one unit-ball test, raising
    :class:`DomainError` where ``|u| > 1 + 1e-12``."""
    r = row_norm(np.asarray(u, dtype=float))
    if (r > 1.0 + 1e-12).any():
        raise DomainError("polarization vector is longer than 1")
    return r


def bloch_to_rho(u) -> Matrix2H:
    """State ``(I + U . sigma) / 2`` for a Bloch vector ``u`` (3,) with |U|
    <= 1, or the stack of states of the Bloch vectors ``u`` (k, 3).

    Raises :class:`DomainError` when a vector lies outside the unit ball.
    """
    u = _vectors(u, "Bloch vector")
    ball_radius(u)
    return Matrix2H(a=0.5 * (1.0 + u[..., 2]), d=0.5 * (1.0 - u[..., 2]),
                    x=0.5 * u[..., 0], y=0.5 * u[..., 1])


def entropy_bloch(u):
    """Entropy of the state with Bloch vector ``u`` (3,), via |u| only, or
    the entropies ``(k,)`` of the states with the Bloch vectors ``u``
    (k, 3); row i has the bits of the point call on row i.

    Raises :class:`DomainError` when a vector lies outside the unit ball.
    """
    values = _binary_entropy(np.minimum(ball_radius(u), 1.0))
    return float(values) if np.ndim(values) == 0 else values


def _massieu(t: np.ndarray) -> np.ndarray:
    """``Phi = ln(2 cosh t)`` at the norms ``t``, overflow-safe."""
    return np.logaddexp(t, -t)


def _bloch(thetas: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``U = -(theta/t) tanh t`` at the points ``thetas`` (..., 3) with
    norms ``t``; ``U = 0`` where ``t = 0``."""
    # Where t = 0 the divisor is 1 and 0 - tanh t is +0, so U is +0 there
    # (-tanh t would make it -0).
    return thetas * ((0.0 - np.tanh(t)) / (t + (t == 0.0)))[..., None]


def theta_to_bloch(theta) -> np.ndarray:
    """Bloch vector of the Gibbs state: ``-(theta/|theta|) tanh |theta|``,
    at ``theta`` (3,) or at each of the rows ``theta`` (k, 3)."""
    theta = _vectors(theta, "spin parameters")
    return _bloch(theta, row_norm(theta))


def bloch_to_theta(u) -> np.ndarray:
    """Inverse of :func:`theta_to_bloch` on the open unit ball, at ``u``
    (3,) or at each of the rows ``u`` (k, 3); a point is row 0 of the
    one-row call.

    Pure states (|u| = 1) have no finite parameters: a row of norm 1 or
    more is refused with :class:`DomainError`.  The norm is :func:`row_norm`,
    rescaled below ``|u| ~ 1.5e-154``, so other rows have the bits of the
    1-D ``np.linalg.norm``; the length of the parameters is ``np.arctanh``
    of it, right to the map's conditioning ``|u| / ((1 - |u|^2) artanh|u|)``
    up to the largest double below 1.
    """
    u = _vectors(u, "Bloch vector")
    us = u.reshape(-1, 3)
    r = row_norm(us)
    if (r >= 1.0).any():
        raise DomainError("Bloch vector on or outside the pure-state boundary")
    # u / r at r = 0 would be NaN; the parameters there are +0
    zero = r == 0.0
    theta = -(us / (r + zero)[:, None]) * np.arctanh(r)[:, None]
    theta[zero] = 0.0
    return theta if u.ndim == 2 else theta[0]


def massieu_qubit(theta) -> float:
    """``ln(2 cosh |theta|)``, computed overflow-safe."""
    return float(_massieu(row_norm(np.asarray(theta, dtype=float))))


def dual_points_qubit(thetas: np.ndarray):
    """``(Phi, U, S(U))`` of the Gibbs states at the rows of ``thetas`` (k, 3).

    ``Phi = ln(2 cosh t)`` and ``U = -(theta/t) tanh t`` with ``t =
    |theta|``, from the kernels behind :func:`massieu_qubit` and
    :func:`theta_to_bloch`, and ``S`` the binary entropy of ``|U| <= 1``.
    """
    t = row_norm(thetas)
    u = _bloch(thetas, t)
    return _massieu(t), u, _binary_entropy(np.minimum(np.sqrt(row_dot(u, u)), 1.0))


def metric_qubit(thetas: np.ndarray) -> np.ndarray:
    """Metric ``(tanh t/t)(I - n n^T) + sech^2 t n n^T`` (k, 3, 3) at the rows
    of ``thetas`` (k, 3), ``t = |theta|``, ``n = theta/t`` (``g = I`` at t = 0).
    ``sech^2 t = 4e/(1 + e)^2``, ``e = exp(-2t)``, keeps its digits where tanh t
    rounds to 1, where ``lateral I + (radial - lateral) n n^T`` would cancel."""
    t = row_norm(thetas)
    zero = t == 0.0
    n = thetas / (t + zero)[:, None]
    e = np.exp(-2.0 * t)
    lateral = np.tanh(t) / (t + zero) + zero
    radial = 4.0 * e / ((1.0 + e) * (1.0 + e))
    nn = n[:, :, None] * n[:, None, :]
    return lateral[:, None, None] * (np.eye(3) - nn) + radial[:, None, None] * nn


def _binary_entropy(r: np.ndarray) -> np.ndarray:
    """Entropy of the states whose Bloch vectors have the lengths ``r`` <= 1."""
    lam_plus, lam_minus = 0.5 * (1.0 + r), 0.5 * (1.0 - r)
    return (-lam_plus * np.log(lam_plus)
            - lam_minus * np.log(np.where(lam_minus > 0.0, lam_minus, 1.0)))


def gibbs_state(theta) -> Matrix2H:
    """Normalized Gibbs state ``exp(-theta . sigma) / (2 cosh |theta|)``
    at ``theta`` (3,), or the stack of them at the rows ``theta`` (k, 3)."""
    theta = _vectors(theta, "spin parameters")
    h = Matrix2H(a=-theta[..., 2], d=theta[..., 2], x=-theta[..., 0], y=-theta[..., 1])
    expm = func_h2(h, math.exp)
    z = 2.0 * np.cosh(row_norm(theta))
    if theta.ndim == 1:
        return expm.scaled(1.0 / float(z))
    return expm.scaled(1.0 / z)


def quantum_relative_entropy(rho: Matrix2H, sigma: Matrix2H):
    """``tr rho (ln rho - ln sigma)`` via the spectral decompositions, of
    one pair of states or of each pair of two stacks of k states.

    Requires ``sigma`` strictly positive where ``rho`` has weight: the
    value diverges otherwise and :class:`EvaluationError` is raised.
    Inputs that are not positive semidefinite raise :class:`DomainError`.
    Returns a float, or one value per pair ``(k,)``; each pair gets the
    bits, and a stack raises the error of its first failing pair, that
    the pair gets alone.
    """
    rvals, rvecs = eig_h2(rho)
    svals, svecs = eig_h2(sigma)
    single = rvals.ndim == 1
    if single:
        rvals, rvecs, svals, svecs = rvals[None], rvecs[None], svals[None], svecs[None]
    if rvals.shape != svals.shape:
        raise ValueError("relative entropy needs stacks of the same length")
    nonpsd = (rvals[:, 0] < -1e-12) | (svals[:, 0] < -1e-12)
    lam = np.maximum(rvals, 0.0)
    # |<s_j|r_i>|^2 as abs(np.vdot(s_j, r_i)) ** 2 computes it: a stack of
    # vector products has the bits of vdot, a stack of 2x2 products not
    dots = np.array([[np.matmul(svecs[:, None, :, j].conj(), rvecs[:, :, i, None])[:, 0, 0]
                      for i in range(2)] for j in range(2)])          # (j, i, k)
    overlap = np.float_power(np.hypot(dots.real, dots.imag), 2).transpose(2, 0, 1)
    # ln of the weights and eigenvalues that contribute (0 where skipped)
    log_lam = np.log(np.where(lam == 0.0, 1.0, lam))
    log_mu = np.log(np.where(svals <= 0.0, 1.0, svals))
    total = np.zeros(len(lam))
    singular = np.zeros(len(lam), dtype=bool)
    for i in range(2):
        weighted = lam[:, i] != 0.0
        total = np.where(weighted, total + lam[:, i] * log_lam[:, i], total)
        for j in range(2):
            seen = weighted & ~(overlap[:, j, i] < 1e-15)
            singular |= seen & (svals[:, j] <= 0.0)
            total = np.where(seen, total - lam[:, i] * overlap[:, j, i] * log_mu[:, j],
                             total)
    raise_first((nonpsd, DomainError("relative entropy needs positive semidefinite inputs")),
                (singular, EvaluationError(
                    "second argument is singular on the support of the first")))
    return float(total[0]) if single else total


def as_descriptor() -> ModelDescriptor:
    """Engine descriptor for the qubit.

    Mean coordinates range over the open unit ball ``|U| < 1``, by the
    norm :func:`bloch_to_theta` takes, so the chart inverts every point of
    the domain and refuses every other.  Phi, U and S come from the one kernel
    :func:`dual_points_qubit` and the metric from
    :func:`metric_qubit`.  Data sets are Bloch vectors of arbitrary
    states, and a stack of them is an array of rows (k, 3); the model
    fiber over an interior point is a singleton, so the fiber sampler
    gives energy rows (k, 3) their own copy as the stack (k, 1, 3).
    """
    box = np.array([[-1.0, 1.0]] * 3)

    def membership(u):
        return row_norm(np.asarray(u, dtype=float)) < 1.0

    domain = Domain(dimension=3, bounding_box=box, membership=membership,
                    interior_point=np.zeros(3))

    def answers(xs):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 3:
            raise ValueError("expected Bloch vectors as rows of three components")
        return xs.copy(), entropy_bloch(xs)

    return ModelDescriptor(
        energy_domain=domain,
        entropy_u=entropy_bloch,
        closed_dual_points=dual_points_qubit,
        closed_metric=metric_qubit,
        # looked up at each call, so a wrapper put on the module name sees it
        closed_u_to_theta=lambda us: bloch_to_theta(us),
        dataset_answers=answers,
        fiber_sampler=lambda us, count, rng=None: np.array(us, dtype=float)[:, None],
    )
