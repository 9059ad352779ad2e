"""Single-mode coherent states on a truncated number basis: amplitudes,
entropies, quadratic-form duality, divergences, and state files."""

import math
import warnings

import numpy as np
import pytest

from conftest import write_state

from infogeo import (
    ConvergenceError,
    EvaluationError,
    TruncationError,
    coherent,
    get_model,
    massieu,
    theta_to_u,
)
from infogeo.coherent import (
    PhaseConstants,
    a_expectation,
    annihilate,
    as_descriptor,
    check_state,
    coherent_state,
    divergence_coherent,
    entropy_coherent,
    load_state,
    log_weight_coherent,
    massieu_coherent,
    model_entropy_u,
    mu_map,
    number_expectation,
    theta_to_u_coherent,
    u_to_theta_coherent,
    z_of_u,
)

UNIT = PhaseConstants()


def fock(n, nmax=64):
    c = np.zeros(nmax + 1, dtype=complex)
    c[n] = 1.0
    return check_state(c)


def dense_annihilation(nmax):
    """Test-only reference: the (N, N) matrix of ``a|n> = sqrt(n)|n-1>``."""
    return np.diag(np.sqrt(np.arange(1.0, nmax + 1)), k=1).astype(complex)


def dense_expectation(psi, m):
    """Test-only reference: ``<psi| m |psi>`` by a dense product."""
    return np.vdot(psi, m @ psi).real


# ------------------------------------------------------------ validation


def test_phase_constants_validation():
    with pytest.raises(ValueError):
        PhaseConstants(r=0.0)
    with pytest.raises(ValueError):
        PhaseConstants(hbar=-1.0)
    with pytest.raises(ValueError):
        PhaseConstants(r=math.nan)


def test_fock_vector_validation():
    with pytest.raises(ValueError, match="normalized"):
        check_state(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="two basis coefficients"):
        check_state(np.array([1.0 + 0.0j]))  # too short
    with pytest.raises(ValueError, match="two basis coefficients"):
        check_state(np.zeros((2, 2, 2), dtype=complex))
    psi = check_state(np.array([1.0, 0.0, 0.0]))
    assert psi.dtype == complex and psi.shape == (3,)
    # a stack of states raises the error of its bad row
    with pytest.raises(ValueError, match="normalized"):
        check_state(np.array([[1.0, 0.0], [1.0, 1.0]]))


# -------------------------------------------------------------- operators


def test_annihilate_lowers_number_states():
    assert np.allclose(annihilate(fock(1, nmax=3)), [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(annihilate(fock(2, nmax=3)), [0.0, math.sqrt(2.0), 0.0, 0.0])
    assert np.allclose(annihilate(fock(0, nmax=3)), np.zeros(4))


def test_ladder_bands_match_dense_matrices():
    # a psi and <psi|L|psi> against (N, N) matrices built here, on points
    # and on a stack, with the top mode occupied in every row
    consts, nmax = PhaseConstants(r=2.0, hbar=0.5), 12
    rng = np.random.default_rng(41)
    g = rng.normal(size=(6, 2, nmax + 1))
    states = g[:, 0] + 1j * g[:, 1]
    states = check_state(np.concatenate([
        states / np.linalg.norm(states, axis=1, keepdims=True),
        [fock(nmax, nmax), coherent_state(0.5 - 0.4j, nmax)]]))
    us = rng.uniform(-1.5, 1.5, size=(len(states), 2))
    a = dense_annihilation(nmax)
    lowered = annihilate(states)
    weights = log_weight_coherent(states, us, consts)
    assert lowered.shape == states.shape and weights.shape == (len(states),)
    for i, (psi, u) in enumerate(zip(states, us)):
        z = complex(z_of_u(u, consts))
        ell = (-0.5 * abs(z) ** 2 * np.identity(nmax + 1)
               + 0.5 * (z * a.conj().T + z.conjugate() * a))
        for row, weight in ((lowered[i], weights[i]),
                            (annihilate(psi), log_weight_coherent(psi, u, consts))):
            assert np.allclose(row, a @ psi, rtol=0.0, atol=1e-14)
            assert weight == pytest.approx(dense_expectation(psi, ell), abs=1e-12)
    # the top mode: a |nmax> = sqrt(nmax) |nmax - 1> with a top entry 0, and
    # <nmax| L |nmax> is the diagonal of L alone
    top = fock(nmax, nmax)
    assert log_weight_coherent(top, us[0], consts) == pytest.approx(
        -0.5 * abs(complex(z_of_u(us[0], consts))) ** 2, abs=1e-14)
    assert lowered[-2, nmax - 1] == math.sqrt(nmax) and lowered[-2, nmax] == 0.0
    # a point call gives the bits of row 0 of the one-row call
    for got, want in ((annihilate(states[0]), annihilate(states[:1])[0]),
                      (log_weight_coherent(states[0], us[0], consts),
                       log_weight_coherent(states[:1], us[:1], consts)[0])):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_quadratures_are_hermitian_with_coherent_means():
    # Q = r (a + a') / sqrt(2) and P = -i hbar (a - a') / (sqrt(2) r), the
    # quadratures whose means the module docstring ties to mu_map.
    consts = PhaseConstants(r=2.0, hbar=0.5)
    a = dense_annihilation(16)
    q = consts.r * (a + a.conj().T) / math.sqrt(2.0)
    p = -1j * consts.hbar * (a - a.conj().T) / (math.sqrt(2.0) * consts.r)
    assert np.allclose(q, q.conj().T)
    assert np.allclose(p, p.conj().T)
    z = 0.4 - 0.3j
    psi = coherent_state(z, 16)
    assert dense_expectation(psi, q) == pytest.approx(
        math.sqrt(2.0) * consts.r * z.real, abs=1e-10)
    assert dense_expectation(psi, p) == pytest.approx(
        math.sqrt(2.0) * consts.hbar * z.imag / consts.r, abs=1e-10)
    means = [dense_expectation(psi, q), dense_expectation(psi, p)]
    assert np.allclose(np.array(means) / math.sqrt(2.0), mu_map(psi, consts),
                       atol=1e-10)


# -------------------------------------------------------- coherent states


def test_coherent_state_is_annihilation_eigenstate():
    psi = coherent_state(1.0, 64)
    assert abs(a_expectation(psi) - 1.0) <= 1e-10
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    psi2 = coherent_state(0.7 + 1.1j, 64)
    assert abs(a_expectation(psi2) - (0.7 + 1.1j)) <= 1e-10


def test_coherent_state_truncation_guard():
    with pytest.raises(TruncationError):
        coherent_state(5.0, 64)  # |z|^2 = 25 > 64/4
    with pytest.raises(TruncationError):
        coherent_state(3.0, 16)


def test_vacuum_state_expectations():
    vac = coherent_state(0.0, 8)
    assert abs(a_expectation(vac)) == 0.0
    assert number_expectation(vac) == 0.0
    assert entropy_coherent(vac) == 0.0


def test_number_expectation_fock_states():
    assert number_expectation(fock(1)) == 1.0
    assert number_expectation(fock(2)) == 2.0


# --------------------------------------------------------------- entropy


def test_entropy_coherent_gaussian_law():
    for z in (1.0, 0.5 + 0.5j, -1.2j, 1.8):
        psi = coherent_state(z, 64)
        assert entropy_coherent(psi) == pytest.approx(
            -0.5 * abs(z) ** 2, abs=1e-10)


def test_entropy_fock_one_is_minus_one():
    assert entropy_coherent(fock(1)) == pytest.approx(-1.0, abs=1e-15)


def test_model_entropy_u_values():
    assert model_entropy_u(np.array([math.sqrt(2.0), 0.0]), UNIT) == (
        pytest.approx(-1.0, abs=1e-15))
    assert model_entropy_u(np.array([2.0, 0.0]), UNIT) == pytest.approx(
        -2.0, abs=1e-15)


# ----------------------------------------------------------- dual charts


def test_mu_map_unit_examples():
    assert np.allclose(mu_map(coherent_state(1.0, 64), UNIT), [1.0, 0.0],
                       atol=1e-10)
    assert np.allclose(mu_map(coherent_state(1.0j, 64), UNIT), [0.0, 1.0],
                       atol=1e-10)


def test_mu_map_z_of_u_round_trip():
    consts = PhaseConstants(r=2.0, hbar=0.5)
    for z in (0.3 - 0.8j, 1.1 + 0.2j):
        psi = coherent_state(z, 64)
        u = mu_map(psi, consts)
        assert abs(z_of_u(u, consts) - z) <= 1e-10


def test_massieu_coherent_values():
    assert massieu_coherent(np.array([1.0, 1.0]), UNIT) == pytest.approx(
        1.0, abs=1e-15)
    assert massieu_coherent(np.array([1.0, 0.0]),
                            PhaseConstants(r=2.0, hbar=1.0)) == pytest.approx(
        2.0, abs=1e-15)


def test_linear_dual_charts():
    assert np.allclose(theta_to_u_coherent(np.array([1.0, 1.0]), UNIT),
                       [-1.0, -1.0], atol=1e-15)
    assert np.allclose(u_to_theta_coherent(np.array([2.0, 0.0]), UNIT),
                       [-2.0, 0.0], atol=1e-15)
    consts = PhaseConstants(r=2.0, hbar=0.5)
    rng = np.random.default_rng(21)
    for _ in range(20):
        theta = rng.uniform(-1.5, 1.5, size=2)
        back = u_to_theta_coherent(theta_to_u_coherent(theta, consts), consts)
        assert np.allclose(back, theta, atol=1e-12)


# ------------------------------------------------------------ divergence


def test_divergence_coherent_worked_values():
    psi = coherent_state(1.0, 64)
    assert divergence_coherent(psi, np.array([0.0, 0.0]), UNIT) == (
        pytest.approx(0.5, abs=1e-9))
    assert divergence_coherent(psi, mu_map(psi, UNIT), UNIT) == (
        pytest.approx(0.0, abs=1e-10))
    assert divergence_coherent(fock(1), np.array([0.0, 0.0]), UNIT) == (
        pytest.approx(1.0, abs=1e-15))


def test_divergence_coherent_phase_invariance():
    rng = np.random.default_rng(8)
    u = np.array([0.4, -0.2])
    psi = coherent_state(0.9 - 0.4j, 64)
    base = divergence_coherent(psi, u, UNIT)
    for _ in range(10):
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rotated = check_state(psi * phase)
        assert divergence_coherent(rotated, u, UNIT) == pytest.approx(
            base, abs=1e-12)


# --------------------------------------------------------- affine log map


def test_log_map_expectation_is_affine():
    consts = PhaseConstants(r=2.0, hbar=0.5)
    rng = np.random.default_rng(31)
    for _ in range(5):
        u = rng.uniform(-1.0, 1.0, size=2)
        theta = u_to_theta_coherent(u, consts)
        psi = coherent_state(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 64)
        got = log_weight_coherent(psi, u, consts)
        want = -massieu_coherent(theta, consts) - float(
            theta @ mu_map(psi, consts))
        assert got == pytest.approx(want, abs=1e-9)


def test_log_map_self_expectation_value():
    psi = coherent_state(1.0, 64)
    assert log_weight_coherent(psi, np.array([1.0, 0.0]), UNIT) == pytest.approx(
        0.5, abs=1e-9)


# ------------------------------------------------------------ state files


def test_save_load_round_trip(tmp_path):
    psi = coherent_state(0.8 + 0.3j, 32)
    path = tmp_path / "state.txt"
    write_state(path, psi)
    back = load_state(str(path))
    assert back.shape == (33,)
    assert np.allclose(back, psi, atol=1e-15)


def test_load_state_malformed_inputs(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_state(str(empty))
    bad_header = tmp_path / "header.txt"
    bad_header.write_text("not-a-number\n1 0\n0 0\n")
    with pytest.raises(ValueError):
        load_state(str(bad_header))
    wrong_count = tmp_path / "count.txt"
    wrong_count.write_text("2\n1 0\n0 0\n")
    with pytest.raises(ValueError):
        load_state(str(wrong_count))
    bad_line = tmp_path / "line.txt"
    bad_line.write_text("1\n1 0\n0\n")
    with pytest.raises(ValueError):
        load_state(str(bad_line))


# -------------------------------------------------------- model wiring


def test_coherent_descriptor_fiber_pins_the_mean():
    model = get_model("coherent").descriptor
    u = np.array([0.5, 0.3])
    samples = model.fiber_sampler(u[None], 8, np.random.default_rng(4))[0]
    assert len(samples) == 8
    top = model_entropy_u(u, UNIT)
    for psi in samples:
        assert np.allclose(mu_map(psi, UNIT), u, atol=1e-8)
        assert entropy_coherent(psi) <= top + 1e-9
    # The first sample is the coherent state itself and attains the bound.
    assert entropy_coherent(samples[0]) == pytest.approx(top, abs=1e-10)


def test_fiber_sampler_pins_every_accepted_amplitude():
    # r = 3, hbar = 0.2: at |z| >~ 2.9 the coherent state's c1 is below
    # 0.05, where a noise-independent kick to c1 defeated every pin and
    # the sampler never returned.  |z| = 4 is the largest amplitude the
    # 64-level basis accepts.
    constants = PhaseConstants(r=3.0, hbar=0.2)
    model = as_descriptor(constants, nmax=64)
    for radius in np.linspace(0.0, 4.0, 9):
        for angle in (0.0, 1.0, 2.5):
            z = radius * complex(math.cos(angle), math.sin(angle))
            u = np.array([constants.r * z.real, constants.hbar / constants.r * z.imag])
            samples = model.fiber_sampler(u[None], 4, np.random.default_rng(2))[0]
            assert len(samples) == 4
            for psi in samples:
                assert np.max(np.abs(mu_map(psi, constants) - u)) <= 1e-9


def test_fiber_sampler_pins_the_coherent_state_too():
    # At nmax = 4 the truncated coherent state at z = 1 has <a> = 0.9846,
    # off the fiber of u = 1; the first sample is that state, pinned.
    model = as_descriptor(UNIT, nmax=4)
    for z in (1.0, 0.7 - 0.6j, 1e-8, 0.0):
        u = np.array([z.real, z.imag]) if isinstance(z, complex) else np.array([z, 0.0])
        for count in (1, 6):
            samples = model.fiber_sampler(u[None], count, np.random.default_rng(3))[0]
            assert len(samples) == count
            for psi in samples:
                assert np.max(np.abs(mu_map(psi, UNIT) - u)) <= 1e-9


def test_fiber_sampler_gives_up_with_a_typed_error(monkeypatch):
    # A pin that never succeeds ends after 50 halvings of the noise: the
    # coherent state's failure in round 0 sets the scale to 0.05, and each
    # of the 49 rounds after it pins the fiber's three missing attempts,
    # fails them all and halves the scale, to below 1e-16 at the last.
    calls = []

    def never(rows, z):
        calls.append(rows.copy())
        return rows, np.zeros(len(rows), dtype=bool)

    monkeypatch.setattr(coherent, "_pin_rows", never)
    model = get_model("coherent").descriptor
    u = np.array([0.5, 0.3])
    rng = np.random.default_rng(0)
    with pytest.raises(ConvergenceError, match="noise scale"):
        model.fiber_sampler(u[None], 3, rng)
    assert len(calls) == 50
    assert calls[0].tolist() == [coherent_state(0.5 + 0.3j, 64).tolist()]
    assert [len(rows) for rows in calls[1:]] == [3] * 49
    # the search drew the noise of exactly the 147 failed attempts
    drawn = np.random.default_rng(0)
    drawn.normal(size=(49 * 3, 2, 63))
    assert rng.random() == drawn.random()


def pin_one(coeff, z):
    """The one-row pin by Newton's method in Python complex numbers, the
    independent reference of ``_pin_rows``: the pinned row, or None."""
    return pin_one_counted(coeff, z)[0]


def pin_one_counted(coeff, z):
    """:func:`pin_one` and the number of residual tests it made: 80 for a
    row that it runs for all its steps."""
    c = coeff.copy()
    rest_a = complex(np.sum(np.conj(c[1:-1]) *
                            np.sqrt(np.arange(2, c.size, dtype=float)) * c[2:]))
    rest_n = float(np.sum(np.abs(c[1:]) ** 2))
    c1 = c[1]
    x, y = c[0].real, c[0].imag
    for step in range(1, 81):
        c0 = complex(x, y)
        g = np.conj(c0) * c1 + rest_a - z * (abs(c0) ** 2 + rest_n)
        if abs(g) <= 1e-14 * (1.0 + abs(z)):
            c[0] = c0
            norm = float(np.linalg.norm(c))
            return (None if norm == 0.0 else c / norm), step
        gx = c1 - 2.0 * x * z
        gy = -1j * c1 - 2.0 * y * z
        jac = np.array([[gx.real, gy.real], [gx.imag, gy.imag]])
        try:
            dx, dy = np.linalg.solve(jac, [-g.real, -g.imag])
        except np.linalg.LinAlgError:
            return None, step
        if not (math.isfinite(dx) and math.isfinite(dy)):
            return None, step
        x += dx
        y += dy
    return None, 80


def pin_residual(rows, z):
    """``|g| = |<a> - z |c|^2|`` of the pin equation at the rows."""
    return np.abs(a_expectation(rows) - z * np.sum(np.abs(rows) ** 2, axis=-1))


def pinned_like_the_reference(c, z):
    """Pin the rows ``c`` and check each against :func:`pin_one_counted`:
    the same decision, and a pinned row within 1e-11 of the reference's
    and within the pin's test.  Returns the decisions and the
    reference's step counts."""
    rows, pinned = coherent._pin_rows(c, z)
    steps = []
    for i, row in enumerate(c):
        reference, count = pin_one_counted(row, z)
        assert pinned[i] == (reference is not None)
        if pinned[i]:
            assert np.max(np.abs(rows[i] - reference)) <= 1e-11
            assert pin_residual(rows[i], z) <= 1e-14 * (1.0 + abs(z))
        steps.append(count)
    return pinned, np.array(steps)


def test_batched_pin_equals_the_one_row_iteration():
    # Rows that the reference fails and rows that it pins, at amplitudes
    # down to 0
    rng = np.random.default_rng(8)
    outcomes = {"pinned": 0, "failed": 0}
    for z, scale in ((0.7 + 0.4j, 0.1), (1.25 + 2.0j, 0.1), (1.25 + 2.0j, 0.006),
                     (3.0 + 0.0j, 0.3), (3.0 + 0.0j, 0.005), (1e-8 + 0.0j, 0.1),
                     (0.0j, 0.2)):
        c = np.repeat(coherent_state(z, 64)[None], 40, axis=0)
        c[:, 2:] += scale * (rng.normal(size=(40, 63))
                             + 1j * rng.normal(size=(40, 63))) / math.sqrt(130.0)
        c[np.abs(c[:, 1]) < 0.05, 1] += scale      # the sampler's kick
        pinned, _ = pinned_like_the_reference(c, z)
        outcomes["pinned"] += int(pinned.sum())
        outcomes["failed"] += int((~pinned).sum())
    assert min(outcomes.values()) > 0, outcomes

    # A larger batch in the coherent2 sampler's range: amplitudes z = -2
    # theta_1 - 0.25i theta_2 with |theta_j| <= 1.2, the sampler's noise
    # at its halving scales 0.1, 0.05, ... and its kick.  Every row that
    # the reference fails, it runs for all 80 steps.
    rng = np.random.default_rng(43)
    full = pinned_rows = 0
    for _ in range(12):
        theta = rng.uniform(-1.2, 1.2, size=2)
        z = complex(-2.0 * theta[0], -0.25 * theta[1])
        base = coherent_state(z, 64)
        for scale in 0.1 * 0.5 ** np.arange(5):
            noise = rng.normal(size=(24, 2, 63))
            c = np.repeat(base[None], 24, axis=0)
            c[:, 2:] += scale * (noise[:, 0] + 1j * noise[:, 1]) / math.sqrt(130.0)
            c[np.hypot(c[:, 1].real, c[:, 1].imag) < 0.05, 1] += scale
            pinned, steps = pinned_like_the_reference(c, z)
            full += int((~pinned & (steps == 80)).sum())
            pinned_rows += int(pinned.sum())
    assert (full, pinned_rows) == (120, 1320)

    # Rows at the edge of having a root, built by bisection on the phase of
    # c_10 c_11 so the smallest |z t + B|^2 - |c_1|^2 t is just above 0
    # (no root) or at most 0 (a root).  Without a root the reference's
    # residual stays above the pin's test for all 80 steps, and the batch
    # must fail those rows while it pins the rows beside them.
    z = 0.5 + 0.2j

    def edge_row(phase):
        c = np.zeros(65, dtype=complex)
        c[0], c[1], c[10], c[11] = 0.3, 1.0, 0.5, 0.5 * complex(math.cos(phase),
                                                               math.sin(phase))
        return c

    def margin(c):
        b = z * np.sum(np.abs(c[1:]) ** 2) - np.sum(
            np.conj(c[1:-1]) * np.sqrt(np.arange(2, 65)) * c[2:])
        t = max(0.0, (0.5 - (z.conjugate() * b).real) / abs(z) ** 2)
        return abs(z * t + b) ** 2 - t

    phases = np.linspace(0.0, 2.0 * math.pi, 361)
    edge = np.flatnonzero([margin(edge_row(a)) > 0.0 >= margin(edge_row(b))
                           for a, b in zip(phases[:-1], phases[1:])])[0]
    lo, hi = phases[edge], phases[edge + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if margin(edge_row(mid)) > 0.0 else (lo, mid)
    offsets = (1e-9, 1e-7, 1e-5)
    c = np.array([edge_row(lo - off) for off in offsets]
                 + [edge_row(hi + off) for off in offsets])
    pinned, steps = pinned_like_the_reference(c, z)
    assert pinned.tolist() == [False] * 3 + [True] * 3
    assert steps[:3].tolist() == [80] * 3


def quadratic_of(c, z):
    """``(|z|^2, 2 Re(conj(z) B) - |c_1|^2, |B|^2)``: the coefficients of
    the pin's quadratic in ``t = |c_0|^2`` for the row ``c``."""
    n = np.arange(2, c.size, dtype=float)
    b = z * np.sum(np.abs(c[1:]) ** 2) - np.sum(np.conj(c[1:-1]) * np.sqrt(n) * c[2:])
    return abs(z) ** 2, 2.0 * (z.conjugate() * b).real - abs(c[1]) ** 2, abs(b) ** 2


def test_closed_form_pin_edge_cases():
    rng = np.random.default_rng(5)
    noisy = coherent_state(0.6 - 0.3j, 16) + 0.05 * (
        rng.normal(size=(4, 17)) + 1j * rng.normal(size=(4, 17)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # z = 0: the quadratic is linear, t = |B|^2 / |c_1|^2
        assert pinned_like_the_reference(noisy, 0j)[0].all()
        # a row already pinned keeps its c_0 bits and is only normalized
        z = 0.6 - 0.3j
        once, pinned = coherent._pin_rows(noisy, z)
        once = once[pinned]
        assert len(once) == 2
        twice, pinned = coherent._pin_rows(once, z)
        assert pinned.all()
        norms = np.array([np.linalg.norm(row) for row in once])
        assert twice[:, 0].tobytes() == (once[:, 0] / norms).tobytes()
        # c_1 = 0 with B != 0: here B is parallel to z, so the quadratic
        # |z t + B|^2 = 0 has a root, but c_1 v = z t + B has none
        c = np.zeros(17, dtype=complex)
        c[0], c[2], c[3] = 0.3, 0.5, 0.5
        z = 0.5 + 0j
        a, b, b2 = quadratic_of(c, z)
        assert b2 > 0.0 and b < 0.0
        assert pin_one(c, z) is None
        assert not coherent._pin_rows(c[None], z)[1][0]
        # a negative discriminant: no root at all
        c = np.zeros(17, dtype=complex)
        c[0], c[1], c[2], c[3] = 0.3, 0.01, 0.5, 0.5j
        a, b, b2 = quadratic_of(c, z)
        assert b * b - 4.0 * a * b2 < 0.0
        assert pin_one(c, z) is None
        assert not coherent._pin_rows(c[None], z)[1][0]


def test_fiber_sampler_draws_of_a_fiber_with_failed_pins_are_frozen():
    # On coherent2 at u = (2.5, 0.5) pins fail in four rounds.  The
    # samples and the rng's next draw were recorded with the sampler that
    # searches in plain rounds.
    model = get_model("coherent2").descriptor
    u = np.array([2.5, 0.5])
    rng = np.random.default_rng(19)
    samples = model.fiber_sampler(u[None], 50, rng)[0]
    assert rng.random() == 0.8626368961339347
    assert samples.shape == (50, 65)
    frozen = {(0, 0): 0.061961007690531984 + 0j,
              (1, 0): 0.07781095185335317 + 0.017580905167532784j,
              (17, 3): -0.3312763797891302 + 0.035849892407133425j,
              (30, 1): 0.07757591580482309 + 0.12412146528771695j,
              (49, 5): 0.14143570199081307 - 0.3877562130666149j}
    for (i, j), value in frozen.items():
        assert abs(samples[i, j] - value) <= 1e-12
    assert abs(samples.sum() - (-3.8496752970228907 + 0.2947178284983233j)) <= 1e-11
    constants = PhaseConstants(r=2.0, hbar=0.5)
    assert np.max(np.abs(mu_map(samples, constants) - u)) <= 1e-9


def test_a_fiber_that_fails_pins_still_gives_every_sample(monkeypatch):
    # Pins fail on coherent2 at u = (2.5, 0.5): the fiber redraws its
    # missing attempts at a smaller scale until it has all 50, each
    # pinned, and the coherent state stays the first sample.
    failed = []
    pin = coherent._pin_rows

    def counted(rows, z):
        pinned, ok = pin(rows, z)
        failed.append(int(np.count_nonzero(~ok)))
        return pinned, ok

    monkeypatch.setattr(coherent, "_pin_rows", counted)
    constants = PhaseConstants(r=2.0, hbar=0.5)
    model = get_model("coherent2").descriptor
    u = np.array([2.5, 0.5])
    samples = model.fiber_sampler(u[None], 50, np.random.default_rng(19))[0]
    assert sum(failed) > 0 and failed[0] == 0 and failed[-1] == 0
    assert samples.shape == (50, 65)
    assert np.max(np.abs(mu_map(samples, constants) - u)) <= 1e-9
    top = model_entropy_u(u, constants)
    assert entropy_coherent(samples[0]) == pytest.approx(top, abs=1e-10)
    assert np.max(entropy_coherent(samples)) <= top + 1e-9


@pytest.mark.parametrize("name", ["coherent", "coherent2"])
def test_entropy_rows_equal_single_point_calls(name):
    handle = get_model(name)
    model = handle.descriptor
    # enough points for squares of numpy scalars (libm pow) and of arrays
    # to part in the last bit somewhere
    us = np.random.default_rng(9).uniform(-3.0, 3.0, size=(50, 80, 2))
    values = model.entropy_u(us)
    assert values.shape == (50, 80)
    single = [model.entropy_u(u) for u in us.reshape(-1, 2)]
    assert all(np.ndim(v) == 0 for v in single)
    assert values.ravel().tolist() == [float(v) for v in single]
    for u, v in zip(us.reshape(-1, 2), single):
        assert v == pytest.approx(model_entropy_u(u, handle.constants), rel=1e-15)


def test_squares_that_overflow_are_rescaled():
    # theta_1^2 overflows at 1.5e154, Phi = theta_1^2 / 2 does not; the
    # other rows keep the bits of the plain formula
    rows = np.array([[1.5e154, 0.0], [0.3, -1.7], [-1e154, 1e154], [2e154, 0.0]])
    phi = massieu_coherent(rows, UNIT)
    assert phi[0] == pytest.approx(1.125e308, rel=1e-15)
    assert phi[1] == 0.5 * (0.3 * 0.3 + 1.7 * 1.7)
    assert phi[2] == 1e308
    assert phi[3] == math.inf
    assert model_entropy_u(-rows[:3], UNIT).tolist() == (-phi[:3]).tolist()
    assert massieu(get_model("coherent").descriptor, rows[0]) == phi[0]


def test_overflowing_closed_forms_are_an_evaluation_error():
    model = get_model("coherent").descriptor
    with pytest.raises(EvaluationError, match=r"overflows at \[1e\+200, 0\.0\]"):
        massieu(model, np.array([1e200, 0.0]))
    # U = -r^2 theta_1 with r = 2
    with pytest.raises(EvaluationError, match="overflows"):
        theta_to_u(get_model("coherent2").descriptor, np.array([1e308, 0.0]))
