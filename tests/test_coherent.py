"""Single-mode coherent states on a truncated number basis: amplitudes,
entropies, quadratic-form duality, divergences, and state files."""

import math

import numpy as np
import pytest

from infogeo import EvaluationError, TruncationError, get_model, massieu, theta_to_u
from infogeo.coherent import (
    FockVector,
    PhaseConstants,
    a_expectation,
    annihilation_matrix,
    coherent_state,
    divergence_coherent,
    entropy_coherent,
    expectation_quadratic,
    load_state,
    log_map_coherent,
    massieu_coherent,
    model_entropy_u,
    mu_map,
    number_expectation,
    save_state,
    theta_to_u_coherent,
    u_to_theta_coherent,
    z_of_u,
)

UNIT = PhaseConstants()


def fock(n, nmax=64):
    c = np.zeros(nmax + 1, dtype=complex)
    c[n] = 1.0
    return FockVector(c)


# ------------------------------------------------------------ validation


def test_phase_constants_validation():
    with pytest.raises(ValueError):
        PhaseConstants(r=0.0)
    with pytest.raises(ValueError):
        PhaseConstants(hbar=-1.0)
    with pytest.raises(ValueError):
        PhaseConstants(r=math.nan)


def test_fock_vector_validation():
    with pytest.raises(ValueError):
        FockVector(np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        FockVector(np.array([1.0 + 0.0j]))  # too short
    psi = FockVector(np.array([1.0, 0.0, 0.0], dtype=complex))
    assert psi.nmax == 2


# -------------------------------------------------------------- operators


def test_annihilation_matrix_lowers_number_states():
    a = annihilation_matrix(3)
    e1 = np.zeros(4, dtype=complex)
    e1[1] = 1.0
    assert np.allclose(a @ e1, [1.0, 0.0, 0.0, 0.0])
    e2 = np.zeros(4, dtype=complex)
    e2[2] = 1.0
    assert np.allclose(a @ e2, [0.0, math.sqrt(2.0), 0.0, 0.0])
    assert np.allclose(a @ np.eye(4, dtype=complex)[0], np.zeros(4))


def test_quadratures_are_hermitian_with_coherent_means():
    # Q = r (a + a') / sqrt(2) and P = -i hbar (a - a') / (sqrt(2) r), the
    # quadratures whose means the module docstring ties to mu_map.
    consts = PhaseConstants(r=2.0, hbar=0.5)
    a = annihilation_matrix(16)
    q = consts.r * (a + a.conj().T) / math.sqrt(2.0)
    p = -1j * consts.hbar * (a - a.conj().T) / (math.sqrt(2.0) * consts.r)
    assert np.allclose(q, q.conj().T)
    assert np.allclose(p, p.conj().T)
    z = 0.4 - 0.3j
    psi = coherent_state(z, 16)
    assert expectation_quadratic(psi, q) == pytest.approx(
        math.sqrt(2.0) * consts.r * z.real, abs=1e-10)
    assert expectation_quadratic(psi, p) == pytest.approx(
        math.sqrt(2.0) * consts.hbar * z.imag / consts.r, abs=1e-10)
    means = [expectation_quadratic(psi, q), expectation_quadratic(psi, p)]
    assert np.allclose(np.array(means) / math.sqrt(2.0), mu_map(psi, consts),
                       atol=1e-10)


def test_expectation_quadratic_shape_error():
    with pytest.raises(ValueError):
        expectation_quadratic(fock(0, nmax=4), np.eye(3))


# -------------------------------------------------------- coherent states


def test_coherent_state_is_annihilation_eigenstate():
    psi = coherent_state(1.0)
    assert abs(a_expectation(psi) - 1.0) <= 1e-10
    assert abs(np.linalg.norm(psi.coeff) - 1.0) <= 1e-12
    psi2 = coherent_state(0.7 + 1.1j)
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
        psi = coherent_state(z)
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
    assert np.allclose(mu_map(coherent_state(1.0), UNIT), [1.0, 0.0],
                       atol=1e-10)
    assert np.allclose(mu_map(coherent_state(1.0j), UNIT), [0.0, 1.0],
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
    psi = coherent_state(1.0)
    assert divergence_coherent(psi, np.array([0.0, 0.0]), UNIT) == (
        pytest.approx(0.5, abs=1e-9))
    assert divergence_coherent(psi, mu_map(psi, UNIT), UNIT) == (
        pytest.approx(0.0, abs=1e-10))
    assert divergence_coherent(fock(1), np.array([0.0, 0.0]), UNIT) == (
        pytest.approx(1.0, abs=1e-15))


def test_divergence_coherent_phase_invariance():
    rng = np.random.default_rng(8)
    u = np.array([0.4, -0.2])
    psi = coherent_state(0.9 - 0.4j)
    base = divergence_coherent(psi, u, UNIT)
    for _ in range(10):
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rotated = FockVector(psi.coeff * phase)
        assert divergence_coherent(rotated, u, UNIT) == pytest.approx(
            base, abs=1e-12)


# --------------------------------------------------------- affine log map


def test_log_map_expectation_is_affine():
    consts = PhaseConstants(r=2.0, hbar=0.5)
    rng = np.random.default_rng(31)
    for _ in range(5):
        u = rng.uniform(-1.0, 1.0, size=2)
        ell = log_map_coherent(u, consts, nmax=64)
        theta = u_to_theta_coherent(u, consts)
        psi = coherent_state(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        got = expectation_quadratic(psi, ell)
        want = -massieu_coherent(theta, consts) - float(
            theta @ mu_map(psi, consts))
        assert got == pytest.approx(want, abs=1e-9)


def test_log_map_self_expectation_value():
    ell = log_map_coherent(np.array([1.0, 0.0]), UNIT, nmax=64)
    psi = coherent_state(1.0)
    assert expectation_quadratic(psi, ell) == pytest.approx(0.5, abs=1e-9)


# ------------------------------------------------------------ state files


def test_save_load_round_trip(tmp_path):
    psi = coherent_state(0.8 + 0.3j, 32)
    path = str(tmp_path / "state.txt")
    save_state(path, psi)
    back = load_state(path)
    assert back.nmax == 32
    assert np.allclose(back.coeff, psi.coeff, atol=1e-15)


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
    samples = model.fiber_sampler(u, 8, np.random.default_rng(4))
    assert len(samples) == 8
    top = model_entropy_u(u, UNIT)
    for psi in samples:
        assert np.allclose(mu_map(psi, UNIT), u, atol=1e-8)
        assert entropy_coherent(psi) <= top + 1e-9
    # The first sample is the coherent state itself and attains the bound.
    assert entropy_coherent(samples[0]) == pytest.approx(top, abs=1e-10)


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


def test_overflowing_closed_forms_are_an_evaluation_error():
    model = get_model("coherent").descriptor
    with pytest.raises(EvaluationError, match=r"overflows at \[1e\+200, 0\.0\]"):
        massieu(model, np.array([1e200, 0.0]))
    # U = -r^2 theta_1 with r = 2
    with pytest.raises(EvaluationError, match="overflows"):
        theta_to_u(get_model("coherent2").descriptor, np.array([1e308, 0.0]))
