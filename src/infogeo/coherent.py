"""Single oscillator mode in a truncated Fock basis.

Pure states are unit vectors with components on the number states
``|0>, ..., |nmax>``.  The model family consists of the coherent states
``|z>``; mean coordinates are the scaled quadrature expectations

    U1 = r Re<a>,   U2 = (hbar / r) Im<a>,

equivalently ``(<Q>, <P>) / sqrt(2)`` for the physical quadratures
``Q = r (a + a') / sqrt(2)`` and ``P = -i hbar (a - a') / (sqrt(2) r)``,
so ``z = U1/r + i (r/hbar) U2``.  The entropy of a pure state is
``|<a>|^2 / 2 - <a' a>``; it equals ``-|z|^2 / 2`` on the coherent state
``|z>`` and is strictly smaller for any other state with the same mean
coordinates.  All canonical quantities are quadratic, so the family is
Gaussian: constant metric ``diag(r^2, hbar^2/r^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelDescriptor
from .errors import ConvergenceError, TruncationError
from .numerics import Domain


@dataclass(frozen=True)
class PhaseConstants:
    """Length scale ``r`` and action scale ``hbar`` of the mode."""

    r: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError("length scale r must be positive")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise ValueError("action scale hbar must be positive")


@dataclass(frozen=True)
class FockVector:
    """Normalized state vector in the truncated number basis."""

    coeff: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=complex)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("state needs at least two basis coefficients")
        norm = float(np.linalg.norm(c))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError("state vector must be normalized")
        object.__setattr__(self, "coeff", c)

    @property
    def nmax(self) -> int:
        return self.coeff.size - 1


def annihilation_matrix(nmax: int) -> np.ndarray:
    """Matrix of ``a`` on the truncated basis: ``a|n> = sqrt(n)|n-1>``."""
    n = np.arange(1, nmax + 1, dtype=float)
    return np.diag(np.sqrt(n), k=1).astype(complex)


def coherent_state(z: complex, nmax: int = 64) -> FockVector:
    """Coherent state ``|z>`` truncated at ``nmax`` and renormalized.

    The amplitude profile peaks near ``n = |z|^2``; truncation is refused
    when ``|z|^2 > nmax / 4`` since the discarded tail would no longer be
    negligible.
    """
    z = complex(z)
    mean = abs(z) * abs(z)  # inf rather than OverflowError when |z| is huge
    if mean > nmax / 4.0:
        raise TruncationError(
            f"|z|^2 = {mean:.3g} too large for a basis of size {nmax + 1}")
    c = np.empty(nmax + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, nmax + 1):
        c[n] = c[n - 1] * z / math.sqrt(n)
    c /= np.linalg.norm(c)
    return FockVector(c)


def a_expectation(psi: FockVector) -> complex:
    """``<a> = sum_n conj(c_n) sqrt(n+1) c_{n+1}``."""
    c = psi.coeff
    n = np.arange(1, c.size, dtype=float)
    return complex(np.sum(np.conj(c[:-1]) * np.sqrt(n) * c[1:]))


def number_expectation(psi: FockVector) -> float:
    """``<a' a> = sum_n n |c_n|^2``."""
    c = psi.coeff
    return float(np.sum(np.arange(c.size) * np.abs(c) ** 2))


def expectation_quadratic(psi: FockVector, m: np.ndarray) -> float:
    """Real expectation ``<psi| m |psi>`` of a Hermitian matrix."""
    m = np.asarray(m)
    if m.shape != (psi.coeff.size, psi.coeff.size):
        raise ValueError("operator shape does not match the basis size")
    val = complex(np.vdot(psi.coeff, m @ psi.coeff))
    return float(val.real)


def mu_map(psi: FockVector, constants: PhaseConstants) -> np.ndarray:
    """Mean coordinates ``(r Re<a>, (hbar/r) Im<a>)`` of a state."""
    za = a_expectation(psi)
    return np.array([constants.r * za.real, (constants.hbar / constants.r) * za.imag])


def z_of_u(u, constants: PhaseConstants) -> complex:
    """Coherent amplitude with the mean coordinates ``u``."""
    u = np.asarray(u, dtype=float)
    return complex(u[0] / constants.r, (constants.r / constants.hbar) * u[1])


def entropy_coherent(psi: FockVector) -> float:
    """Pure-state entropy ``|<a>|^2 / 2 - <a' a>``.

    Nonpositive, with equality to ``-|z|^2/2`` exactly on coherent
    states; strictly below the model value for any other state with the
    same ``<a>``.
    """
    za = a_expectation(psi)
    return 0.5 * abs(za) ** 2 - number_expectation(psi)


# The closed forms below square with exact products: ``**`` on numpy
# scalars calls libm ``pow``, which need not round like the product.  They
# read the two coordinates of points (..., 2) from the transpose, which for
# one point gives numpy scalars (fast arithmetic), and transpose back.

def _metric(constants: PhaseConstants) -> tuple[float, float]:
    """Diagonal ``(r^2, hbar^2/r^2)`` of the constant metric."""
    r2 = constants.r * constants.r
    return r2, constants.hbar * constants.hbar / r2


@np.errstate(over="ignore", invalid="ignore")
def _quadratic(form, points):
    """``form(x1, x2)`` for a quadratic form at the points ``(..., 2)``.

    Where the plain form overflows, as a square does at ``|x| >~
    1.3e154`` although the value need not, the point is scaled by ``m =
    max|x_j|`` and the value taken as ``m (m form(x / m))``; every other
    point keeps the bits of the plain form.  A value that still
    overflows is returned as an infinity, without a numpy warning.
    """
    x1, x2 = np.asarray(points, dtype=float).T
    value = form(x1, x2)
    big = np.isinf(value)
    if big.any():
        m = np.where(big, np.maximum(np.abs(x1), np.abs(x2)), 1.0)
        value = np.where(big, m * (m * form(x1 / m, x2 / m)), value)
    return value.T


def model_entropy_u(u, constants: PhaseConstants):
    """Model entropy ``-U1^2/(2 r^2) - r^2 U2^2 / (2 hbar^2)`` at points
    ``(..., 2)``."""
    d1, d2 = _metric(constants)
    return _quadratic(lambda u1, u2: -0.5 * (u1 * u1 / d1 + u2 * u2 / d2), u)


def massieu_coherent(theta, constants: PhaseConstants):
    """``r^2 theta1^2 / 2 + hbar^2 theta2^2 / (2 r^2)`` at points ``(..., 2)``."""
    d1, d2 = _metric(constants)
    return _quadratic(lambda t1, t2: 0.5 * (d1 * (t1 * t1) + d2 * (t2 * t2)), theta)


def theta_to_u_coherent(theta, constants: PhaseConstants) -> np.ndarray:
    """``U = -(r^2 theta1, hbar^2 theta2 / r^2)`` at points ``(..., 2)``."""
    return -np.asarray(theta, dtype=float) * _metric(constants)


def u_to_theta_coherent(u, constants: PhaseConstants) -> np.ndarray:
    """``theta = -(U1 / r^2, r^2 U2 / hbar^2)`` at points ``(..., 2)``."""
    return -np.asarray(u, dtype=float) / _metric(constants)


def dual_points_coherent(thetas: np.ndarray, constants: PhaseConstants):
    """``(Phi, U, S(U))`` of the members at the rows of ``thetas`` (k, 2):
    :func:`massieu_coherent`, :func:`theta_to_u_coherent` and
    :func:`model_entropy_u` evaluated on all the rows at once."""
    u = theta_to_u_coherent(thetas, constants)
    return massieu_coherent(thetas, constants), u, model_entropy_u(u, constants)


def divergence_coherent(psi: FockVector, u, constants: PhaseConstants) -> float:
    """Divergence of a pure state from the member with coordinates ``u``.

    Closed form ``|<a> - z|^2 / 2 + <a' a> - |<a>|^2``: a displacement
    term plus the (phase-insensitive) excess fluctuation of the state.
    """
    z = z_of_u(u, constants)
    za = a_expectation(psi)
    return 0.5 * abs(za - z) ** 2 + number_expectation(psi) - abs(za) ** 2


def log_map_coherent(u, constants: PhaseConstants, nmax: int = 64) -> np.ndarray:
    """Affine logarithm of the member: ``-|z|^2/2 I + (z a' + conj(z) a)/2``.

    Its expectation in any state equals ``-Phi(theta) - theta . mu``.
    """
    z = z_of_u(u, constants)
    a = annihilation_matrix(nmax)
    eye = np.eye(nmax + 1, dtype=complex)
    return -0.5 * abs(z) ** 2 * eye + 0.5 * (z * a.conj().T + np.conj(z) * a)


def save_state(path: str, psi: FockVector) -> None:
    """Write a state as a basis-size header plus one "re im" line per
    coefficient."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{psi.nmax}\n")
        for c in psi.coeff:
            fh.write(f"{c.real:.17g} {c.imag:.17g}\n")


def load_state(path: str) -> FockVector:
    """Read a state written by :func:`save_state`."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty state file")
    try:
        nmax = int(lines[0])
    except ValueError as exc:
        raise ValueError("state file must start with the basis cutoff") from exc
    if len(lines) != nmax + 2:
        raise ValueError(f"expected {nmax + 1} coefficient lines")
    coeff = np.empty(nmax + 1, dtype=complex)
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"coefficient line {i} is not 're im'")
        coeff[i] = complex(float(parts[0]), float(parts[1]))
    return FockVector(coeff)


#: Smallest noise scale the fiber sampler tries (50 halvings of 0.1);
#: noise below it is lost in the rounding of the coefficients.
_MIN_NOISE = 1e-16


def _pin_mean(coeff: np.ndarray, z: complex) -> np.ndarray | None:
    """Adjust the ground-mode coefficient so the normalized vector has
    ``<a>`` exactly ``z``; None when the Newton iteration fails."""
    c = coeff.copy()
    rest_a = complex(np.sum(np.conj(c[1:-1]) *
                            np.sqrt(np.arange(2, c.size, dtype=float)) * c[2:]))
    rest_n = float(np.sum(np.abs(c[1:]) ** 2))
    c1 = c[1]
    x, y = c[0].real, c[0].imag
    for _ in range(80):
        c0 = complex(x, y)
        g = np.conj(c0) * c1 + rest_a - z * (abs(c0) ** 2 + rest_n)
        if abs(g) <= 1e-14 * (1.0 + abs(z)):
            c[0] = c0
            norm = float(np.linalg.norm(c))
            if norm == 0.0:
                return None
            return c / norm
        gx = c1 - 2.0 * x * z
        gy = -1j * c1 - 2.0 * y * z
        jac = np.array([[gx.real, gy.real], [gx.imag, gy.imag]])
        try:
            dx, dy = np.linalg.solve(jac, [-g.real, -g.imag])
        except np.linalg.LinAlgError:
            return None
        if not (math.isfinite(dx) and math.isfinite(dy)):
            return None
        x += dx
        y += dy
    return None


def as_descriptor(constants: PhaseConstants, nmax: int = 64,
                  box_halfwidth: float | None = None) -> ModelDescriptor:
    """Engine descriptor for the coherent family.

    The mean coordinates range over the whole plane; the bounding box
    only limits where numeric searches look, so pick it larger than
    ``max(r^2, hbar^2/r^2)`` times the largest parameter magnitude of
    interest.  The default half-width, ``16 max(r^2, hbar^2/r^2, 1)``,
    keeps ``|U|`` interior for ``|theta|`` up to 16.  Data sets are
    :class:`FockVector` states on the same truncated basis; the fiber
    sampler returns the coherent state, then noisy states, each with
    ``<a>`` pinned to the coherent state's amplitude z.
    """
    r, hbar = constants.r, constants.hbar
    b = (16.0 * max(r ** 2, hbar ** 2 / r ** 2, 1.0) if box_halfwidth is None
         else float(box_halfwidth))
    if not b > 0.0:
        raise ValueError("box half-width must be positive")
    box = np.array([[-b, b], [-b, b]])

    def membership(u):
        return np.all(np.isfinite(np.asarray(u, dtype=float)), axis=-1)

    domain = Domain(dimension=2, bounding_box=box, membership=membership,
                    interior_point=np.zeros(2), unbounded=True)

    def answers(psi):
        return mu_map(psi, constants), entropy_coherent(psi)

    def fiber_sampler(u, count, rng=None):
        z = z_of_u(np.asarray(u, dtype=float), constants)
        base = coherent_state(z, nmax).coeff
        # The first sample is the coherent state, whose <a> the truncation
        # moves off z, so it is pinned like the noisy samples after it.
        # Every failed pin halves the noise scale.
        first = _pin_mean(base, z)
        samples = [] if first is None else [FockVector(first)]
        scale = 0.1 if samples else 0.05
        if rng is None:
            rng = np.random.default_rng(0)
        while len(samples) < max(count, 1):
            c = base.copy()
            noise = rng.normal(size=c.size - 2) + 1j * rng.normal(size=c.size - 2)
            c[2:] += scale * noise / math.sqrt(2.0 * c.size)
            if abs(c[1]) < 0.05:
                # a kick keeps the pin's Jacobian regular; it shrinks with
                # the noise, so a small scale stays near the coherent state
                c[1] += scale
            pinned = _pin_mean(c, z)
            if pinned is None:
                scale *= 0.5
                if scale < _MIN_NOISE:
                    raise ConvergenceError(
                        f"no fiber sample has its mean pinned to z = {z:.6g} at"
                        f" any noise scale down to {_MIN_NOISE:g}")
                continue
            samples.append(FockVector(pinned))
        return samples

    return ModelDescriptor(
        energy_domain=domain,
        entropy_u=lambda us: model_entropy_u(us, constants),
        closed_massieu=lambda th: massieu_coherent(th, constants),
        closed_theta_to_u=lambda th: theta_to_u_coherent(th, constants),
        closed_u_to_theta=lambda u: u_to_theta_coherent(u, constants),
        closed_dual_points=lambda th: dual_points_coherent(th, constants),
        dataset_answers=answers,
        fiber_sampler=fiber_sampler,
    )
