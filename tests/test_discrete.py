"""Discrete exponential families: partition functions, member
distributions, entropy, relative entropy, and moment fitting."""

import math

import numpy as np
import pytest

from infogeo import (
    DegeneracyError,
    InfeasibleError,
    SupportError,
    metric_tensor,
)
from infogeo.discrete import (
    DiscreteFamily,
    as_descriptor,
    bgs_entropy,
    boltzmann_gibbs,
    check_probability,
    fisher_covariance,
    kl_divergence,
    log_partition,
    maxent_fit,
    maxent_fit_report,
    three_level,
    two_level,
)

LN2 = math.log(2.0)


# ------------------------------------------------------------ validation


def test_family_requires_independent_observables():
    with pytest.raises(DegeneracyError):
        DiscreteFamily(prior=np.ones(2), hamiltonians=np.array([[1.0, 1.0]]))
    with pytest.raises(DegeneracyError):
        DiscreteFamily(prior=np.ones(3),
                       hamiltonians=np.array([[0.0, 1.0, 2.0],
                                              [1.0, 2.0, 3.0]]))


def test_family_requires_positive_prior():
    with pytest.raises(ValueError):
        DiscreteFamily(prior=np.array([1.0, 0.0]),
                       hamiltonians=np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        DiscreteFamily(prior=np.array([1.0]), hamiltonians=np.zeros((1, 1)))


def test_check_probability_errors():
    with pytest.raises(ValueError):
        check_probability(np.array([0.7, -0.1, 0.4]))
    with pytest.raises(ValueError):
        check_probability(np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        check_probability(np.eye(2))
    with pytest.raises(ValueError, match="non-finite"):
        check_probability(np.array([np.nan, 0.5]))
    out = check_probability(np.array([0.25, 0.75]))
    assert np.allclose(out, [0.25, 0.75])


# -------------------------------------------------- partition and member


def test_log_partition_two_level_frozen():
    assert log_partition(two_level(), np.array([LN2])) == pytest.approx(
        0.4054651081081644, abs=1e-15)


def test_log_partition_max_shift_is_overflow_safe():
    value = log_partition(two_level(), np.array([-1000.0]))
    assert value == pytest.approx(1000.0, abs=1e-9)


def test_boltzmann_gibbs_two_level():
    p = boltzmann_gibbs(two_level(), np.array([LN2]))
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert boltzmann_gibbs(three_level(), np.zeros(1)) == pytest.approx(
        np.full(3, 1.0 / 3.0), abs=1e-15)


# --------------------------------------------------------------- entropy


def test_bgs_entropy_frozen_and_zero_limit():
    assert bgs_entropy(two_level(), np.array([2.0 / 3.0, 1.0 / 3.0])) == (
        pytest.approx(0.6365141682948128, abs=1e-15))
    # A zero-probability letter contributes nothing.
    assert bgs_entropy(two_level(), np.array([1.0, 0.0])) == 0.0


def test_bgs_entropy_respects_prior_weights():
    family = DiscreteFamily(prior=np.array([2.0, 1.0]),
                            hamiltonians=np.array([[0.0, 1.0]]))
    p = np.array([0.5, 0.5])
    expected = -(0.5 * math.log(0.5 / 2.0) + 0.5 * math.log(0.5 / 1.0))
    assert bgs_entropy(family, p) == pytest.approx(expected, abs=1e-15)


# ------------------------------------------------------ relative entropy


def test_kl_divergence_frozen():
    d = kl_divergence(np.array([0.5, 0.5]), np.array([2.0 / 3.0, 1.0 / 3.0]))
    assert d == pytest.approx(0.05889151782819174, abs=1e-15)
    assert kl_divergence(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0


def test_kl_divergence_support_violation():
    with pytest.raises(SupportError):
        kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_kl_divergence_nonnegative_seeded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert kl_divergence(p, q) >= 0.0


# ------------------------------------------------------------ moment fit


def test_maxent_two_level_frozen():
    theta = maxent_fit(two_level(), np.array([1.0 / 3.0]))
    assert theta[0] == pytest.approx(LN2, abs=1e-9)


def test_maxent_report_iteration_counts():
    theta, iterations = maxent_fit_report(two_level(), np.array([1.0 / 3.0]))
    assert iterations > 0
    assert theta[0] == pytest.approx(LN2, abs=1e-9)
    theta0, it0 = maxent_fit_report(three_level(), np.array([1.0]))
    assert it0 == 0
    assert theta0[0] == 0.0


def test_maxent_infeasible_target():
    with pytest.raises(InfeasibleError):
        maxent_fit(two_level(), np.array([1.5]))
    for target in (-0.2, -0.5, 2.2, 2.5, 3.0):
        with pytest.raises(InfeasibleError):
            maxent_fit(three_level(), np.array([target]))


def test_maxent_rejects_wrong_shape():
    with pytest.raises(ValueError):
        maxent_fit(two_level(), np.array([0.1, 0.2]))


def test_maxent_roundtrip_random_moments():
    family = three_level()
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.dirichlet(np.ones(3))
        u = family.hamiltonians @ p
        theta = maxent_fit(family, u)
        achieved = family.hamiltonians @ boltzmann_gibbs(family, theta)
        assert np.max(np.abs(achieved - u)) <= 1e-10


# ---------------------------------------------------------------- metric


def test_fisher_covariance_matches_metric_tensor():
    family = two_level()
    model = as_descriptor(family)
    for theta in (np.zeros(1), np.array([LN2]), np.array([-0.7])):
        p = boltzmann_gibbs(family, theta)
        fisher = fisher_covariance(family, p)
        g = metric_tensor(model, theta)
        assert np.max(np.abs(g - fisher)) <= 1e-6


def test_fisher_covariance_bernoulli_values():
    family = two_level()
    assert fisher_covariance(family, np.array([0.5, 0.5]))[0, 0] == (
        pytest.approx(0.25, abs=1e-15))
    assert fisher_covariance(family, np.array([2.0 / 3.0, 1.0 / 3.0]))[0, 0] == (
        pytest.approx(2.0 / 9.0, abs=1e-15))


# ------------------------------------------------------------- descriptor


def test_descriptor_membership_is_open_interval():
    model = as_descriptor(two_level())
    assert model.energy_domain.membership(np.array([0.5]))
    assert not model.energy_domain.membership(np.array([0.0]))
    assert not model.energy_domain.membership(np.array([1.0]))
    assert not model.energy_domain.membership(np.array([1e-14]))


def test_descriptor_entropy_matches_member_entropy():
    family = two_level()
    model = as_descriptor(family)
    value = model.entropy_u(np.array([1.0 / 3.0]))
    assert value == pytest.approx(0.6365141682948128, abs=1e-12)


def test_fiber_sampler_preserves_moments_and_entropy_bound():
    family = three_level()
    model = as_descriptor(family)
    u = np.array([0.8])
    theta = maxent_fit(family, u)
    top = bgs_entropy(family, boltzmann_gibbs(family, theta))
    rng = np.random.default_rng(23)
    samples = model.fiber_sampler(u, 60, rng)
    assert len(samples) == 60
    for p in samples:
        assert float((family.hamiltonians @ p)[0]) == pytest.approx(0.8, abs=1e-12)
        assert bgs_entropy(family, p) <= top + 1e-12


def test_fiber_sampler_zero_dimensional_fiber():
    family = two_level()
    model = as_descriptor(family)
    samples = model.fiber_sampler(np.array([0.25]), 17, None)
    assert len(samples) == 1
    assert np.allclose(samples[0], boltzmann_gibbs(family, maxent_fit(
        family, np.array([0.25]))), atol=1e-12)
