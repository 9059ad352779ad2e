"""Two-level quantum systems (qubits).

States are 2x2 density matrices, coordinatized by the Bloch vector
``U = (tr(rho X), tr(rho Y), tr(rho Z))``.  The spin observables are the
three Pauli matrices; the canonical family consists of the Gibbs states
``rho_theta = exp(-theta . sigma) / (2 cosh |theta|)``, whose entropy is
the von Neumann entropy.  Every quantity here has a closed form, which
makes the model the primary oracle for the generic engine.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ModelDescriptor
from .errors import DomainError, EvaluationError
from .numerics import Domain, Matrix2H, eig_h2, func_h2, row_dot, row_norm


def bloch_to_rho(u) -> Matrix2H:
    """State ``(I + U . sigma) / 2`` for a Bloch vector with |U| <= 1."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    if float(np.linalg.norm(u)) > 1.0 + 1e-12:
        raise DomainError("Bloch vector lies outside the unit ball")
    return Matrix2H(a=0.5 * (1.0 + u[2]), d=0.5 * (1.0 - u[2]),
                    x=0.5 * u[0], y=0.5 * u[1])


def entropy_bloch(u) -> float:
    """Entropy of the state with Bloch vector ``u``, via |u| only."""
    u = np.asarray(u, dtype=float)
    if float(np.linalg.norm(u)) > 1.0 + 1e-12:
        raise DomainError("Bloch vector lies outside the unit ball")
    return float(entropy_bloch_rows(u))


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
    """Bloch vector of the Gibbs state: ``-(theta/|theta|) tanh |theta|``."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (3,):
        raise ValueError("spin parameters must have three components")
    return _bloch(theta, row_norm(theta))


def bloch_to_theta_rows(us: np.ndarray, chart_margin: float = 1e-9) -> np.ndarray:
    """:func:`bloch_to_theta` at the Bloch vectors ``us`` (k, 3), raising
    its :class:`DomainError` when any row is too close to the boundary.

    The norm comes from :func:`row_dot` and ``atanh`` from ``math``, so
    each row has the bits of the 1-D ``np.linalg.norm`` and ``math.atanh``
    (numpy's ``arctanh`` rounds differently).
    """
    r = np.sqrt(row_dot(us, us))
    if (r >= 1.0 - chart_margin).any():
        raise DomainError("Bloch vector too close to the pure-state boundary")
    atanh = np.array([math.atanh(v) for v in r.tolist()])
    if r.all():
        return -(us / r[:, None]) * atanh[:, None]
    # u / r at r = 0 would be NaN; the parameters there are 0
    zero = (r == 0.0)[:, None]
    return np.where(zero, 0.0, -(us / np.where(zero, 1.0, r[:, None])) * atanh[:, None])


def bloch_to_theta(u, chart_margin: float = 1e-9) -> np.ndarray:
    """Inverse of :func:`theta_to_bloch` on the open unit ball.

    Pure states (|u| = 1) have no finite parameters; vectors closer than
    ``chart_margin`` to the boundary are rejected.  The one-row view of
    :func:`bloch_to_theta_rows`.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    return bloch_to_theta_rows(u[None], chart_margin)[0]


def massieu_qubit(theta) -> float:
    """``ln(2 cosh |theta|)``, computed overflow-safe."""
    return float(_massieu(row_norm(np.asarray(theta, dtype=float))))


def dual_points_qubit(thetas: np.ndarray):
    """``(Phi, U, S(U))`` of the Gibbs states at the rows of ``thetas`` (k, 3).

    ``Phi = ln(2 cosh t)`` and ``U = -(theta/t) tanh t`` with ``t =
    |theta|``, from the kernels behind :func:`massieu_qubit` and
    :func:`theta_to_bloch`, and ``S`` is :func:`entropy_bloch_rows` of
    ``U``.
    """
    t = row_norm(thetas)
    u = _bloch(thetas, t)
    return _massieu(t), u, entropy_bloch_rows(u)


def entropy_bloch_rows(us: np.ndarray) -> np.ndarray:
    """Entropy of the states with the Bloch vectors ``us`` (..., 3).

    The binary entropy of ``min(|u|, 1)`` (0 ln 0 = 0), without the
    domain check of :func:`entropy_bloch`.
    """
    return _binary_entropy(np.minimum(np.sqrt(row_dot(us, us)), 1.0))


def _binary_entropy(r: np.ndarray) -> np.ndarray:
    """Entropy of the states whose Bloch vectors have the lengths ``r`` <= 1."""
    lam_plus, lam_minus = 0.5 * (1.0 + r), 0.5 * (1.0 - r)
    return (-lam_plus * np.log(lam_plus)
            - lam_minus * np.log(np.where(lam_minus > 0.0, lam_minus, 1.0)))


def gibbs_state(theta) -> Matrix2H:
    """Normalized Gibbs state ``exp(-theta . sigma) / (2 cosh |theta|)``."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (3,):
        raise ValueError("spin parameters must have three components")
    h = Matrix2H(a=-theta[2], d=theta[2], x=-theta[0], y=-theta[1])
    expm = func_h2(h, math.exp)
    z = 2.0 * math.cosh(float(np.linalg.norm(theta)))
    return expm.scaled(1.0 / z)


def quantum_relative_entropy(rho: Matrix2H, sigma: Matrix2H) -> float:
    """``tr rho (ln rho - ln sigma)`` via the spectral decompositions.

    Requires ``sigma`` strictly positive where ``rho`` has weight: the
    value diverges otherwise and :class:`EvaluationError` is raised.
    """
    rvals, rvecs = eig_h2(rho)
    svals, svecs = eig_h2(sigma)
    if rvals[0] < -1e-12 or svals[0] < -1e-12:
        raise DomainError("relative entropy needs positive semidefinite inputs")
    total = 0.0
    for i in range(2):
        lam = max(float(rvals[i]), 0.0)
        if lam == 0.0:
            continue
        total += lam * math.log(lam)
        vi = rvecs[:, i]
        for j in range(2):
            mu = float(svals[j])
            overlap = abs(np.vdot(svecs[:, j], vi)) ** 2
            if overlap < 1e-15:
                continue
            if mu <= 0.0:
                raise EvaluationError(
                    "second argument is singular on the support of the first")
            total -= lam * overlap * math.log(mu)
    return total


def as_descriptor(membership_margin: float = 1e-12,
                  chart_margin: float = 1e-9) -> ModelDescriptor:
    """Engine descriptor for the qubit.

    Mean coordinates range over the open unit ball (membership uses
    ``membership_margin`` at the boundary); the closed parameter map is
    restricted by ``chart_margin`` as in :func:`bloch_to_theta`.  Data
    sets are Bloch vectors of arbitrary states, and a stack of them is an
    array of rows (k, 3); the model fiber over an interior point is a
    singleton, the stack of one row.
    """
    box = np.array([[-1.0, 1.0]] * 3)

    def membership(u):
        # row_dot gives the bits of the x @ x inside np.linalg.norm(x)
        u = np.asarray(u, dtype=float)
        return np.sqrt(row_dot(u, u)) < 1.0 - membership_margin

    domain = Domain(dimension=3, bounding_box=box, membership=membership,
                    interior_point=np.zeros(3))

    def answers(xs):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 3:
            raise ValueError("expected Bloch vectors as rows of three components")
        # the norm with the bits of the 1-D np.linalg.norm of entropy_bloch
        r = np.sqrt(row_dot(xs, xs))
        if np.any(r > 1.0 + 1e-12):
            raise DomainError("Bloch vector lies outside the unit ball")
        return xs.copy(), _binary_entropy(np.minimum(r, 1.0))

    def fiber_sampler(u, count, rng=None):
        return np.array(u, dtype=float).reshape(1, 3)

    return ModelDescriptor(
        energy_domain=domain,
        # Finite-difference stencils centered on an iterate that hugs the
        # pure-state shell can poke a stencil width past it; the row form
        # extends the entropy radially (constant 0 outside the ball), so
        # those evaluations stay finite.  Member points are unaffected.
        entropy_u=entropy_bloch_rows,
        # Looked up at call time, like the other closed forms, so a
        # replaced module function reaches descriptors already built.
        closed_massieu=lambda theta: massieu_qubit(theta),
        closed_theta_to_u=lambda theta: theta_to_bloch(theta),
        closed_u_to_theta=lambda us: bloch_to_theta_rows(us, chart_margin),
        closed_dual_points=dual_points_qubit,
        dataset_answers=answers,
        fiber_sampler=fiber_sampler,
    )
