"""Qubit states: Bloch parametrization, entropies, Gibbs states, and
quantum relative entropy."""

import json
import math

import numpy as np
import pytest

from infogeo import DomainError, EvaluationError, get_model
from infogeo.numerics import Matrix2H, eig_h2
from infogeo.qubit import (
    bloch_to_rho,
    bloch_to_theta,
    dual_points_qubit,
    entropy_bloch,
    gibbs_state,
    massieu_qubit,
    quantum_relative_entropy,
    theta_to_bloch,
)

TANH1 = math.tanh(1.0)


def bloch_of(m):
    """Bloch vector (tr(m X), tr(m Y), tr(m Z)) read from the matrix fields."""
    return np.array([2.0 * m.x, 2.0 * m.y, m.a - m.d])


def random_bloch(rng, rmax=1.0):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, rmax)


# -------------------------------------------------------------- states


def test_bloch_rho_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = random_bloch(rng)
        assert np.allclose(bloch_of(bloch_to_rho(u)), u, atol=1e-14)


def test_bloch_to_rho_basis_states():
    up = bloch_to_rho(np.array([0.0, 0.0, 1.0]))
    assert (up.a, up.d, up.x, up.y) == (1.0, 0.0, 0.0, 0.0)
    maximally_mixed = bloch_to_rho(np.zeros(3))
    assert (maximally_mixed.a, maximally_mixed.d) == (0.5, 0.5)


def test_bloch_to_rho_rejects_outside_ball():
    with pytest.raises(DomainError):
        bloch_to_rho(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        bloch_to_rho(np.array([0.5, 0.5]))


# ------------------------------------------------------------ entropies


def test_entropy_bloch_frozen_values():
    assert entropy_bloch(np.array([0.5, 0.0, 0.0])) == pytest.approx(
        0.5623351446188083, abs=1e-15)
    assert entropy_bloch(np.array([TANH1, 0.0, 0.0])) == pytest.approx(
        0.3653338550872076, abs=1e-15)
    assert entropy_bloch(np.array([0.0, 0.0, 1.0])) == 0.0
    with pytest.raises(DomainError):
        entropy_bloch(np.array([1.1, 0.0, 0.0]))


def test_entropy_bloch_agrees_with_spectral_form():
    rng = np.random.default_rng(6)
    for _ in range(100):
        u = random_bloch(rng)
        vals, _ = eig_h2(bloch_to_rho(u))
        spectral = -sum(lam * math.log(lam) for lam in vals if lam > 0.0)
        assert entropy_bloch(u) == pytest.approx(spectral, abs=1e-12)


# ---------------------------------------------------------- dual charts


def test_theta_to_bloch_tanh_law():
    assert np.allclose(theta_to_bloch(np.array([1.0, 0.0, 0.0])),
                       [-TANH1, 0.0, 0.0], atol=1e-15)
    assert np.allclose(theta_to_bloch(np.zeros(3)), np.zeros(3))
    with pytest.raises(ValueError):
        theta_to_bloch(np.array([1.0, 0.0]))


def test_bloch_to_theta_inverts_theta_to_bloch():
    assert np.allclose(bloch_to_theta(np.array([0.5, 0.0, 0.0])),
                       [-0.5493061443340548, 0.0, 0.0], atol=1e-15)
    assert np.allclose(bloch_to_theta(np.zeros(3)), np.zeros(3))
    # the parameters of the mixed state are +0, in a stack too, while a
    # zero component of another row keeps its sign
    rows = bloch_to_theta(np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
    assert np.signbit(rows).tolist() == [[False] * 3, [True] * 3]
    rng = np.random.default_rng(9)
    for _ in range(50):
        theta = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        back = bloch_to_theta(theta_to_bloch(theta))
        assert np.allclose(back, theta, atol=1e-10)


def test_bloch_to_theta_rejects_near_pure_states():
    # no shell at the boundary: a vector just inside it has finite
    # parameters, and one of norm 1 or more has none
    for r in (1.0, 1.0 + 1e-12):
        with pytest.raises(DomainError):
            bloch_to_theta(np.array([r, 0.0, 0.0]))
    for r in (1.0 - 1e-12, np.nextafter(1.0, 0.0)):
        theta = bloch_to_theta(np.array([0.0, r, 0.0]))
        assert theta[1] == -np.arctanh(r) and np.isfinite(theta).all()


def test_tiny_bloch_vectors_keep_their_parameters(capsys):
    # |u|^2 underflows below |u| ~ 1.5e-154; theta = -atanh|u| u/|u| does not
    from infogeo import cli
    for u in ([1e-170, 0.0, 0.0], [3e-200, -4e-200, 0.0]):
        theta = bloch_to_theta(np.array(u))
        assert theta.tolist() == pytest.approx([-v for v in u], rel=1e-15)
    # rows of normal length keep the bits of the 1-D norm
    rows = np.random.default_rng(4).uniform(-0.5, 0.5, size=(20, 3))
    for row in rows:
        r = np.linalg.norm(row)
        assert bloch_to_theta(row).tolist() == (-(row / r) * np.arctanh(r)).tolist()
    assert cli.main(["maxent", "--model", "qubit", "--u", "1e-170,0,0"]) == 0
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert [repr(v) for v in out["theta"]] == ["-1e-170", "-0.0", "-0.0"]
    assert out["achieved"] == [1e-170, 0.0, 0.0]
    assert cli.main(["massieu", "--model", "qubit", "--theta", "1e-170,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"]["roundtrip_error"] == 0.0


# ---------------------------------------------------------- Gibbs layer


def test_massieu_qubit_values():
    assert massieu_qubit(np.zeros(3)) == pytest.approx(math.log(2.0), abs=1e-15)
    assert massieu_qubit(np.array([1.0, 0.0, 0.0])) == pytest.approx(
        1.1269280110429725, abs=1e-15)
    # Overflow-safe at large parameters.
    assert massieu_qubit(np.array([1000.0, 0.0, 0.0])) == pytest.approx(
        1000.0, abs=1e-12)


def test_dual_points_qubit_matches_scalar_forms():
    rng = np.random.default_rng(3)
    thetas = np.vstack([np.zeros(3), [30.0, 0.0, 0.0], [0.0, -1e3, 0.0],
                        rng.uniform(-3.0, 3.0, size=(50, 3))])
    phi, u, s = dual_points_qubit(thetas)
    # one kernel behind the batched and the scalar forms: the same bits
    assert phi.tolist() == [massieu_qubit(th) for th in thetas]
    assert np.array_equal(u, np.array([theta_to_bloch(th) for th in thetas]))
    assert s.tolist() == [entropy_bloch(v) for v in u]


def test_gibbs_state_is_maximally_mixed_at_origin():
    g = gibbs_state(np.zeros(3))
    assert g.a == pytest.approx(0.5, abs=1e-15)
    assert g.d == pytest.approx(0.5, abs=1e-15)
    assert abs(g.x) <= 1e-15 and abs(g.y) <= 1e-15


def test_gibbs_state_bloch_vector_matches_tanh_law():
    rng = np.random.default_rng(12)
    for _ in range(50):
        theta = rng.normal(size=3) * rng.uniform(0.1, 2.5)
        assert np.allclose(bloch_of(gibbs_state(theta)),
                           theta_to_bloch(theta), atol=1e-12)


# ----------------------------------------------------- relative entropy


def test_relative_entropy_frozen_values():
    pure = bloch_to_rho(np.array([0.0, 0.0, 1.0]))
    assert quantum_relative_entropy(pure, gibbs_state(np.zeros(3))) == (
        pytest.approx(math.log(2.0), abs=1e-12))
    rho = bloch_to_rho(np.array([-0.5, 0.0, 0.0]))
    sigma = gibbs_state(np.array([1.0, 0.0, 0.0]))
    assert quantum_relative_entropy(rho, sigma) == pytest.approx(
        0.06459286642416417, abs=1e-12)


def test_relative_entropy_vanishes_on_diagonal_and_is_nonnegative():
    rng = np.random.default_rng(15)
    for _ in range(200):
        rho = bloch_to_rho(random_bloch(rng, rmax=0.98))
        sigma = bloch_to_rho(random_bloch(rng, rmax=0.98))
        assert quantum_relative_entropy(rho, sigma) >= -1e-12
    rho = bloch_to_rho(np.array([0.2, 0.3, -0.1]))
    assert abs(quantum_relative_entropy(rho, rho)) <= 1e-12


def test_relative_entropy_support_violation():
    up = bloch_to_rho(np.array([0.0, 0.0, 1.0]))
    down = bloch_to_rho(np.array([0.0, 0.0, -1.0]))
    with pytest.raises(EvaluationError):
        quantum_relative_entropy(up, down)


def test_relative_entropy_rejects_non_psd():
    with pytest.raises(DomainError):
        quantum_relative_entropy(Matrix2H(a=1.5, d=-0.5, x=0.0),
                                 gibbs_state(np.zeros(3)))


# -------------------------------------------------------- model wiring


def test_qubit_descriptor_answers_and_fiber():
    model = get_model("qubit").descriptor
    x = np.array([0.3, -0.2, 0.1])
    # the data-set layer maps a stack of Bloch vectors, here one row
    answers, entropy = model.dataset_answers(x[None])
    assert answers.shape == (1, 3) and entropy.shape == (1,)
    assert np.allclose(answers[0], x, atol=1e-14)
    assert entropy[0] == pytest.approx(entropy_bloch(x), abs=1e-15)
    fiber = model.fiber_sampler(x[None], 25, np.random.default_rng(0))[0]
    assert fiber.shape == (1, 3)
    assert np.allclose(fiber[0], x, atol=1e-14)


def test_qubit_descriptor_membership_boundary():
    domain = get_model("qubit").descriptor.energy_domain
    assert domain.membership(np.array([0.99, 0.0, 0.0]))
    assert not domain.membership(np.array([1.0, 0.0, 0.0]))


def test_huge_parameters_keep_a_finite_norm():
    model = get_model("qubit").descriptor
    theta = np.array([1e300, 0.0, 0.0])
    assert theta_to_bloch(theta).tolist() == [-1.0, 0.0, 0.0]
    assert massieu_qubit(theta) == 1e300
    assert massieu_qubit(np.array([3e200, -4e200, 0.0])) == pytest.approx(5e200,
                                                                          rel=1e-15)
    rows = np.array([[1e300, 0.0, 0.0], [3e200, -4e200, 1e150], [0.3, -1.2, 2.0],
                     [7e153, 7e153, 7e153], [0.0, 0.0, 0.0]])
    phi, u, _ = dual_points_qubit(rows)
    assert phi.tolist() == [massieu_qubit(t) for t in rows]
    assert u.tolist() == [theta_to_bloch(t).tolist() for t in rows]
    # below overflow the norm is numpy's, bit for bit
    assert phi[2] == float(np.logaddexp(np.linalg.norm(rows[2]), -np.linalg.norm(rows[2])))
    from infogeo import bregman_divergence, canonical_check
    assert bregman_divergence(model, theta, -theta).value == 2e300
    pair = canonical_check(model, np.array([1e160, 0.0, 0.0]))
    assert pair.massieu == 1e160 and pair.residual == 0.0
    assert pair.roundtrip_error is None  # the chart has saturated


def test_entropy_rows_equal_single_point_calls():
    model = get_model("qubit").descriptor
    rng = np.random.default_rng(12)
    us = rng.normal(size=(40, 90, 3)) * rng.uniform(0.0, 1.3, size=(40, 90, 1))
    us[0, 0] = 0.0
    r = np.linalg.norm(us, axis=-1)
    outside = r > 1.0 + 1e-12
    inner = np.where(outside[..., None], 0.0, us)
    values = model.entropy_u(inner)
    assert values.shape == (40, 90)
    single = [model.entropy_u(u) for u in inner.reshape(-1, 3)]
    assert all(np.ndim(v) == 0 for v in single)
    assert values.ravel().tolist() == [float(v) for v in single]
    # inside the ball it is the von Neumann entropy
    for u, v in zip(inner.reshape(-1, 3), single):
        lam = 0.5 * (1.0 + min(float(np.linalg.norm(u)), 1.0))
        expected = -lam * math.log(lam) - ((1.0 - lam) * math.log(1.0 - lam)
                                           if lam < 1.0 else 0.0)
        assert v == pytest.approx(expected, abs=1e-15)
    # past 1 + 1e-12 it is a DomainError, alone and in a stack
    assert outside.sum() > 100
    for u in us[outside]:
        with pytest.raises(DomainError):
            model.entropy_u(u)
    with pytest.raises(DomainError):
        model.entropy_u(us)
    assert model.entropy_u(np.array([1.0 + 1e-13, 0.0, 0.0])) == 0.0
    with pytest.raises(DomainError):
        model.entropy_u(np.array([0.0, 1.0 + 1e-11, 0.0]))
