"""Single oscillator mode in a truncated Fock basis.

Pure states are unit vectors with components on the number states
``|0>, ..., |nmax>``: a state is the complex array of its coefficients
(nmax + 1,), and a stack of k states the array of their coefficient rows
(k, nmax + 1), both checked by :func:`check_state`; the expectation
functions below take either.  The model family consists of the coherent
states ``|z>``; mean coordinates are the scaled quadrature expectations

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
from .numerics import Domain, complex_row_norm, raise_first


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


def check_state(psi) -> np.ndarray:
    """Validate and return the complex coefficients of a state ``psi``
    (N,), or of the states in the rows of ``psi`` (k, N).

    Raises ValueError when there are fewer than two coefficients, or when
    a state's norm is off 1 by more than 1e-10 (any row of a stack).
    """
    c = np.asarray(psi, dtype=complex)
    if c.ndim not in (1, 2) or c.shape[-1] < 2:
        raise ValueError("state needs at least two basis coefficients")
    if (np.abs(complex_row_norm(c) - 1.0) > 1e-10).any():
        raise ValueError("state vector must be normalized")
    return c


def annihilate(psi) -> np.ndarray:
    """``a psi`` for states (..., N): ``(a psi)_n = sqrt(n+1) c_{n+1}`` and
    the top entry 0, as the truncated matrix of ``a|n> = sqrt(n)|n-1>`` gives."""
    c = np.asarray(psi, dtype=complex)
    out = np.zeros_like(c)
    out[..., :-1] = np.sqrt(np.arange(1, c.shape[-1], dtype=float)) * c[..., 1:]
    return out


def coherent_state(z, nmax: int):
    """Coherent state ``|z>`` truncated at ``nmax`` and renormalized, or
    the coefficient rows (k, nmax + 1) of the states at the amplitudes
    ``z`` (k,); row i has the bits of the one-state call at ``z[i]``.

    The amplitude profile peaks near ``n = |z|^2``; truncation is refused
    when ``|z|^2 > nmax / 4`` since the discarded tail would no longer be
    negligible (for the first such amplitude of a stack).  One state is
    built by the recurrence ``c_n = c_{n-1} z / sqrt(n)`` in Python complex
    numbers, and a stack of more by the same recurrence on arrays: an array
    step costs about seven complex steps, so more than a few states are
    cheaper on arrays, and one state in Python.
    """
    single = np.ndim(z) == 0
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    zr, zi = zs.real, zs.imag
    with np.errstate(over="ignore"):
        modulus = np.hypot(zr, zi)      # abs(complex)
        mean = modulus * modulus        # inf when |z| is huge
    raise_first((mean > nmax / 4.0, lambda i: TruncationError(
        f"|z|^2 = {mean[i]:.3g} too large for a basis of size {nmax + 1}")))
    c = np.empty((zs.size, nmax + 1), dtype=complex)
    c[:, 0] = 1.0
    if zs.size == 1:
        z, row = complex(zs[0]), c[0]
        for n in range(1, nmax + 1):
            row[n] = row[n - 1] * z / math.sqrt(n)
        row /= np.linalg.norm(row)
    else:
        product = np.empty(zs.size, dtype=complex)
        for n in range(1, nmax + 1):
            # c_{n-1} z as Python multiplies complex numbers; numpy's
            # complex array multiply may fuse it into other bits
            re, im = c[:, n - 1].real, c[:, n - 1].imag
            product.real = re * zr - im * zi
            product.imag = re * zi + im * zr
            c[:, n] = product / math.sqrt(n)
        c /= complex_row_norm(c)[:, None]
    return c[0] if single else c


# The expectations below work on states (..., N), one coefficient row or
# a stack of them, and give one value per state.  Their squares of moduli
# are libm hypot and pow, which round like Python's abs(complex) ** 2;
# numpy's complex abs and array squares need not.

def _modulus_squared(re, im) -> np.ndarray:
    return np.float_power(np.hypot(re, im), 2)


def a_expectation(psi):
    """``<a> = sum_n conj(c_n) sqrt(n+1) c_{n+1}``."""
    c = np.asarray(psi, dtype=complex)
    n = np.arange(1, c.shape[-1], dtype=float)
    return np.sum(np.conj(c[..., :-1]) * np.sqrt(n) * c[..., 1:], axis=-1)[()]


def number_expectation(psi):
    """``<a' a> = sum_n n |c_n|^2``."""
    c = np.asarray(psi, dtype=complex)
    return np.sum(np.arange(c.shape[-1]) * np.abs(c) ** 2, axis=-1)[()]


def _mean_coordinates(za, constants: PhaseConstants) -> np.ndarray:
    return np.stack([constants.r * za.real, (constants.hbar / constants.r) * za.imag],
                    axis=-1)


def mu_map(psi, constants: PhaseConstants) -> np.ndarray:
    """Mean coordinates ``(r Re<a>, (hbar/r) Im<a>)`` of the states, ``(..., 2)``."""
    return _mean_coordinates(a_expectation(psi), constants)


def z_of_u(u, constants: PhaseConstants):
    """Coherent amplitudes ``u1/r + i (r/hbar) u2`` with the mean
    coordinates at the points ``u`` (..., 2)."""
    u = np.asarray(u, dtype=float)
    z = np.empty(u.shape[:-1], dtype=complex)
    z.real, z.imag = u[..., 0] / constants.r, (constants.r / constants.hbar) * u[..., 1]
    return z[()]


def entropy_coherent(psi):
    """Pure-state entropy ``|<a>|^2 / 2 - <a' a>``.

    Nonpositive, with equality to ``-|z|^2/2`` exactly on coherent
    states; strictly below the model value for any other state with the
    same ``<a>``.
    """
    return _entropy(np.asarray(a_expectation(psi)), psi)


def _entropy(za, psi):
    return (0.5 * _modulus_squared(za.real, za.imag) - number_expectation(psi))[()]


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


def divergence_coherent(psi, u, constants: PhaseConstants):
    """Divergence of pure states from the members with coordinates ``u``
    (one per state, ``(..., 2)``).

    Closed form ``|<a> - z|^2 / 2 + <a' a> - |<a>|^2``: a displacement
    term plus the (phase-insensitive) excess fluctuation of the state.
    """
    z = z_of_u(u, constants)
    za = np.asarray(a_expectation(psi))
    displacement = _modulus_squared(za.real - z.real, za.imag - z.imag)
    return (0.5 * displacement + number_expectation(psi)
            - _modulus_squared(za.real, za.imag))[()]


def log_weight_coherent(psi, u, constants: PhaseConstants):
    """``<psi| L |psi>`` of the member's affine logarithm ``L = -|z|^2/2 +
    (z a' + conj(z) a)/2``, with one point ``u`` (..., 2) per state.

    L is applied to the coefficient rows by the ladder shifts, then the
    inner product is taken.  It equals ``-Phi(theta) - theta . mu`` in any state.
    """
    c = np.asarray(psi, dtype=complex)
    z = np.asarray(z_of_u(u, constants))[..., None]
    ell = 0.5 * (np.conj(z) * annihilate(c) - _modulus_squared(z.real, z.imag) * c)
    # a' is the opposite shift, (a' c)_n = sqrt(n) c_{n-1}: the image of
    # the top mode is cut off, as in the truncated matrix
    ell[..., 1:] += 0.5 * z * np.sqrt(np.arange(1, c.shape[-1], dtype=float)) * c[..., :-1]
    return np.sum(np.conj(c) * ell, axis=-1).real[()]


def load_state(path: str) -> np.ndarray:
    """Read a state file: the basis cutoff ``nmax`` on the first line,
    then ``nmax + 1`` lines of "re im", one per coefficient."""
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
    return check_state(coeff)


#: Smallest noise scale the fiber sampler tries (50 halvings of 0.1);
#: noise below it is lost in the rounding of the coefficients.
_MIN_NOISE = 1e-16


def _pin_rows(coeffs: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
    """Adjust the ground-mode coefficient of each row of ``coeffs`` (k, N)
    so the normalized row has ``<a>`` exactly ``z``: one amplitude for all
    rows, or one per row (k,).

    Returns ``(rows, pinned)``.  With ``v = conj(c_0)``, ``t = |v|^2`` and
    ``A``, ``N`` the parts of ``<a>`` and of the norm that ``c_0`` and
    ``c_1`` leave out, the pin ``g = v c_1 + A - z (t + N) = 0`` reads
    ``c_1 v = z t + B``, ``B = z N - A``, so t solves the real quadratic
    ``|z|^2 t^2 + (2 Re(conj(z) B) - |c_1|^2) t + |B|^2 = 0``.  Its root
    ``t >= 0`` nearest ``|c_0|^2`` gives ``v = (z t + B) / c_1``.  A row is
    pinned when ``|g| <= 1e-14 (1 + |z|)``; one that passes already keeps
    its ``c_0``, and one without such a root, with ``c_1 = 0`` or of norm 0
    fails.  The arithmetic is elementwise on real arrays, so every row
    keeps the bits it has when pinned alone.
    """
    c = np.array(coeffs, dtype=complex)
    rest_a = np.sum(np.conj(c[:, 1:-1]) * np.sqrt(np.arange(2, c.shape[1], dtype=float))
                    * c[:, 2:], axis=1)
    rest_n = np.sum(np.abs(c[:, 1:]) ** 2, axis=1)
    z = np.broadcast_to(np.asarray(z, dtype=complex), rest_n.shape)
    zr, zi = z.real, z.imag
    p, q = c[:, 1].real, c[:, 1].imag
    tol = 1e-14 * (1.0 + np.hypot(zr, zi))     # abs(complex) is hypot

    def passes(x, y):
        s = np.float_power(np.hypot(x, y), 2) + rest_n
        return np.hypot(x * p + y * q + rest_a.real - zr * s,
                        x * q - y * p + rest_a.imag - zi * s) <= tol

    x, y = c[:, 0].real, c[:, 0].imag
    keep = passes(x, y)
    br, bi = zr * rest_n - rest_a.real, zi * rest_n - rest_a.imag
    a = zr * zr + zi * zi
    b = 2.0 * (zr * br + zi * bi) - (p * p + q * q)
    b2 = br * br + bi * bi
    disc = b * b - 4.0 * a * b2
    m = np.hypot(p, q)                  # |c_1|
    # the roots are h / a and |B|^2 / h, both >= 0 where h > 0
    h = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    rooted = (disc >= 0.0) & (h > 0.0) & (m > 0.0)
    # rows without a root divide by 1 below, so no division warns
    h = np.where(rooted, h, 1.0)
    m = np.where(rooted, m, 1.0)
    # the larger root is nearer |c_0|^2 past the roots' midpoint -b / (2a)
    far = rooted & (2.0 * a * (x * x + y * y) + b > 0.0)
    t = np.divide(h, a, out=b2 / h, where=far)
    wr, wi = zr * t + br, zi * t + bi   # z t + B
    ur, ui = p / m, q / m               # c_1 / |c_1|
    # c_0 = conj(v) = conj(z t + B) c_1 / |c_1|^2
    x, y = (wr * ur + wi * ui) / m, (wr * ui - wi * ur) / m
    fresh = ~keep & rooted & passes(x, y)
    c.real[fresh, 0], c.imag[fresh, 0] = x[fresh], y[fresh]
    norms = complex_row_norm(c)
    pinned = (keep | fresh) & (norms != 0.0)
    c[pinned] /= norms[pinned, None]
    return c, pinned


def as_descriptor(constants: PhaseConstants, nmax: int) -> ModelDescriptor:
    """Engine descriptor for the coherent family on the basis ``|0>, ...,
    |nmax>``.

    The mean coordinates range over the whole plane; the bounding box
    only limits where numeric searches look.  Its half-width, ``16
    max(r^2, hbar^2/r^2, 1)``, keeps ``|U|`` interior for ``|theta|`` up
    to 16.  Phi, U and S come from the one kernel
    :func:`dual_points_coherent`, the metric is the constant ``diag(r^2,
    hbar^2/r^2)`` of :func:`_metric` on every row, and the chart
    inversion is :func:`u_to_theta_coherent`.  Data sets are states on
    the same truncated basis, stacked as coefficient rows (k, nmax + 1)
    and checked by :func:`check_state`.  The fiber sampler returns the
    stack (k, max(count, 1), nmax + 1) over energy rows (k, 2): fiber i is
    the coherent state at its amplitude z, then noisy states, each with
    ``<a>`` pinned to z by :func:`_pin_rows`.  Round 0 pins all coherent
    states; in each later round every fiber still short draws its missing
    attempts (from its own ``default_rng(0)`` when ``rng`` is None, else
    from ``rng`` in row order), and one pin call takes them all.  A
    fiber's noise scale starts at 0.1, or 0.05 where its coherent state
    fails, and halves in each round in which it fails a pin; below
    ``_MIN_NOISE`` the fiber fails with :class:`ConvergenceError`.
    """
    r, hbar = constants.r, constants.hbar
    b = 16.0 * max(r ** 2, hbar ** 2 / r ** 2, 1.0)
    box = np.array([[-b, b], [-b, b]])

    def membership(u):
        return np.all(np.isfinite(np.asarray(u, dtype=float)), axis=-1)

    domain = Domain(dimension=2, bounding_box=box, membership=membership,
                    interior_point=np.zeros(2), unbounded=True)

    def answers(states):
        c = check_state(states)
        za = a_expectation(c)
        return _mean_coordinates(za, constants), _entropy(za, c)

    def fiber_sampler(us, count, rng=None):
        k, size, want = len(us), nmax + 1, max(count, 1)
        zs = z_of_u(us, constants)
        bases = coherent_state(zs, nmax)
        stack = np.empty((k, want, size), dtype=complex)
        stack[:, 0], ok = _pin_rows(bases, zs)
        have = ok.astype(int)
        scale = np.where(ok, 0.1, 0.05)
        rngs = [np.random.default_rng(0) if rng is None else rng for _ in range(k)]
        short = np.flatnonzero(have < want)
        while short.size:
            missing = want - have[short]
            owner = np.repeat(short, missing)
            noise = np.concatenate([rngs[i].normal(size=(m, 2, size - 2))
                                    for i, m in zip(short, missing)])
            c = bases[owner]
            c[:, 2:] += (scale[owner, None] * (noise[:, 0] + 1j * noise[:, 1])
                         / math.sqrt(2.0 * size))
            # a kick keeps c_1, which the pin divides by, away from 0; it
            # shrinks with the noise, so a small scale stays near the
            # coherent state
            small = np.hypot(c[:, 1].real, c[:, 1].imag) < 0.05
            c[small, 1] += scale[owner[small]]
            pinned, ok = _pin_rows(c, zs[owner])
            for i in short:
                kept = pinned[(owner == i) & ok]
                stack[i, have[i]:have[i] + len(kept)] = kept
                have[i] += len(kept)
            short = short[have[short] < want]       # the fibers that failed a pin
            scale[short] *= 0.5
            short = short[scale[short] >= _MIN_NOISE]
        raise_first((scale < _MIN_NOISE, lambda i: ConvergenceError(
            f"no fiber sample has its mean pinned to z = {zs[i]:.6g} at"
            f" any noise scale down to {_MIN_NOISE:g}")))
        return stack

    return ModelDescriptor(
        energy_domain=domain,
        entropy_u=lambda us: model_entropy_u(us, constants),
        closed_dual_points=lambda th: dual_points_coherent(th, constants),
        closed_metric=lambda th: np.tile(np.diag(_metric(constants)), (len(th), 1, 1)),
        closed_u_to_theta=lambda u: u_to_theta_coherent(u, constants),
        dataset_answers=answers,
        fiber_sampler=fiber_sampler,
    )
