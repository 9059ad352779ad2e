"""Discrete exponential families: partition functions, member
distributions, entropy, relative entropy, and moment fitting."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from infogeo import (
    ConvergenceError,
    DegeneracyError,
    InfeasibleError,
    SupportError,
    get_model,
    metric_tensor,
)
from infogeo.discrete import (
    FIT_INFEASIBLE,
    FIT_OK,
    FIT_SINGULAR,
    FIT_STALLED,
    DiscreteFamily,
    as_descriptor,
    bgs_entropy,
    boltzmann_gibbs,
    check_probability,
    fisher_covariance,
    fit_moments,
    kl_divergence,
    log_partition,
    maxent_fit,
    maxent_fit_report,
)

LN2 = math.log(2.0)
#: Unit priors; the observable takes the values 0, 1 (two letters) or
#: 0, 1, 2 (three letters).
TWO_LEVEL = DiscreteFamily(prior=np.ones(2), hamiltonians=np.array([[0.0, 1.0]]))
THREE_LEVEL = DiscreteFamily(prior=np.ones(3), hamiltonians=np.array([[0.0, 1.0, 2.0]]))
#: The family of the INI file ``prior = 1, 2, 1`` / ``hamiltonians = 0, 1, 2;
#: 0, 1, 0``: two observables whose moment region is the triangle with
#: corners (0, 0), (1, 1) and (2, 0).
TRIANGLE = DiscreteFamily(prior=np.array([1.0, 2.0, 1.0]),
                          hamiltonians=np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 0.0]]))


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
    assert log_partition(TWO_LEVEL, np.array([LN2])) == pytest.approx(
        0.4054651081081644, abs=1e-15)


def test_log_partition_max_shift_is_overflow_safe():
    value = log_partition(TWO_LEVEL, np.array([-1000.0]))
    assert value == pytest.approx(1000.0, abs=1e-9)


def test_boltzmann_gibbs_two_level():
    p = boltzmann_gibbs(TWO_LEVEL, np.array([LN2]))
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert boltzmann_gibbs(THREE_LEVEL, np.zeros(1)) == pytest.approx(
        np.full(3, 1.0 / 3.0), abs=1e-15)


# --------------------------------------------------------------- entropy


def test_bgs_entropy_frozen_and_zero_limit():
    assert bgs_entropy(TWO_LEVEL, np.array([2.0 / 3.0, 1.0 / 3.0])) == (
        pytest.approx(0.6365141682948128, abs=1e-15))
    # A zero-probability letter contributes nothing.
    assert bgs_entropy(TWO_LEVEL, np.array([1.0, 0.0])) == 0.0


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
    theta = maxent_fit(TWO_LEVEL, np.array([1.0 / 3.0]))
    assert theta[0] == pytest.approx(LN2, abs=1e-9)


def test_maxent_report_iteration_counts():
    theta, iterations = maxent_fit_report(TWO_LEVEL, np.array([1.0 / 3.0]))
    assert iterations > 0
    assert theta[0] == pytest.approx(LN2, abs=1e-9)
    theta0, it0 = maxent_fit_report(THREE_LEVEL, np.array([1.0]))
    assert it0 == 0
    assert theta0[0] == 0.0


def test_maxent_infeasible_target():
    with pytest.raises(InfeasibleError):
        maxent_fit(TWO_LEVEL, np.array([1.5]))
    for target in (-0.2, -0.5, 2.2, 2.5, 3.0):
        with pytest.raises(InfeasibleError):
            maxent_fit(THREE_LEVEL, np.array([target]))


def test_maxent_rejects_wrong_shape():
    with pytest.raises(ValueError):
        maxent_fit(TWO_LEVEL, np.array([0.1, 0.2]))


def test_maxent_roundtrip_random_moments():
    family = THREE_LEVEL
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.dirichlet(np.ones(3))
        u = family.hamiltonians @ p
        theta = maxent_fit(family, u)
        achieved = family.hamiltonians @ boltzmann_gibbs(family, theta)
        assert np.max(np.abs(achieved - u)) <= 1e-10


# ---------------------------------------------------------------- metric


def test_fisher_covariance_matches_metric_tensor():
    family = TWO_LEVEL
    model = as_descriptor(family)
    for theta in (np.zeros(1), np.array([LN2]), np.array([-0.7])):
        p = boltzmann_gibbs(family, theta)
        fisher = fisher_covariance(family, p)
        g = metric_tensor(model, theta)
        assert np.max(np.abs(g - fisher)) <= 1e-6


def test_fisher_covariance_bernoulli_values():
    family = TWO_LEVEL
    assert fisher_covariance(family, np.array([0.5, 0.5]))[0, 0] == (
        pytest.approx(0.25, abs=1e-15))
    assert fisher_covariance(family, np.array([2.0 / 3.0, 1.0 / 3.0]))[0, 0] == (
        pytest.approx(2.0 / 9.0, abs=1e-15))


# ------------------------------------------------------------- descriptor


def test_descriptor_membership_is_open_interval():
    model = as_descriptor(TWO_LEVEL)
    assert model.energy_domain.membership(np.array([0.5]))
    assert not model.energy_domain.membership(np.array([0.0]))
    assert not model.energy_domain.membership(np.array([1.0]))
    assert not model.energy_domain.membership(np.array([1e-14]))


def test_descriptor_entropy_matches_member_entropy():
    family = TWO_LEVEL
    model = as_descriptor(family)
    value = model.entropy_u(np.array([1.0 / 3.0]))
    assert value == pytest.approx(0.6365141682948128, abs=1e-12)


def test_fiber_sampler_preserves_moments_and_entropy_bound():
    family = THREE_LEVEL
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
    family = TWO_LEVEL
    model = as_descriptor(family)
    samples = model.fiber_sampler(np.array([0.25]), 17, None)
    assert len(samples) == 1
    assert np.allclose(samples[0], boltzmann_gibbs(family, maxent_fit(
        family, np.array([0.25]))), atol=1e-12)


# ------------------------------------------------------- k-row moment fit

FIT_ERRORS = {FIT_INFEASIBLE: InfeasibleError, FIT_SINGULAR: DegeneracyError,
              FIT_STALLED: ConvergenceError}
FIT_FAMILIES = {"discrete2": get_model("discrete2").family,
                "discrete3": get_model("discrete3").family, "triangle": TRIANGLE}


@st.composite
def fit_targets(draw, family):
    """A moment target: a blend of two letters (the region's edge for
    t = 0 or 1), moved at most 1e-12 of the span towards or past the
    interior, or a point anywhere in the box around the region."""
    h = family.hamiltonians
    lo, hi = h.min(axis=1), h.max(axis=1)
    if draw(st.booleans()):
        return lo + draw(st.lists(st.floats(-0.2, 1.2), min_size=family.n,
                                  max_size=family.n)) * (hi - lo)
    a, b = draw(st.lists(st.integers(0, family.alphabet_size - 1), min_size=2,
                         max_size=2))
    t = draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))
    edge = t * h[:, a] + (1.0 - t) * h[:, b]
    inward = h @ (family.prior / family.prior.sum()) - edge
    return edge + draw(st.floats(-1e-12, 1e-12)) * inward


@st.composite
def fit_cases(draw):
    name = draw(st.sampled_from(["discrete2", "discrete3", "triangle", "triangle"]))
    family = FIT_FAMILIES[name]
    rows = draw(st.lists(fit_targets(family), min_size=1, max_size=12))
    return family, np.array(rows), draw(st.sampled_from([1e-12, 1e-13, 1e-8]))


def one_row_fit(family, target, tol):
    """``(theta, iterations, status)`` of a one-row maxent_fit_report."""
    try:
        theta, iterations = maxent_fit_report(family, target, tol)
    except (InfeasibleError, DegeneracyError, ConvergenceError) as exc:
        return None, None, {v: k for k, v in FIT_ERRORS.items()}[type(exc)]
    return theta, iterations, FIT_OK


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fit_cases())
def test_k_row_fit_equals_one_row_fits_bitwise(case):
    family, targets, tol = case
    thetas, iterations, status = fit_moments(family, targets, tol)
    for i, target in enumerate(targets):
        theta, its, stat = one_row_fit(family, target, tol)
        assert status[i] == stat
        if stat == FIT_OK:
            assert thetas[i].tobytes() == theta.tobytes()
            assert iterations[i] == its


@pytest.mark.parametrize("name", sorted(FIT_FAMILIES))
def test_k_row_fit_of_many_rows_equals_one_row_fits_bitwise(name):
    # rows at many distances from the edges backtrack by different
    # amounts in the same iterations
    family = FIT_FAMILIES[name]
    h = family.hamiltonians
    rng = np.random.default_rng(17)
    edges = h[:, rng.integers(0, family.alphabet_size, size=80)]
    centre = h @ (family.prior / family.prior.sum())
    depth = 10.0 ** -rng.uniform(0.0, 13.0, size=(80, 1))
    targets = np.vstack([edges.T + depth * (centre - edges.T),
                         rng.dirichlet(np.ones(family.alphabet_size), size=20) @ h.T])
    for tol in (1e-12, 1e-13):
        thetas, iterations, status = fit_moments(family, targets, tol)
        for i, target in enumerate(targets):
            theta, its, stat = one_row_fit(family, target, tol)
            assert status[i] == stat
            if stat == FIT_OK:
                assert thetas[i].tobytes() == theta.tobytes()
                assert iterations[i] == its


def test_failing_rows_do_not_stop_the_others():
    targets = np.array([[0.5, 0.3],     # feasible
                        [3.0, 0.5],     # outside the box
                        [0.2, 0.9],     # in the box, outside the triangle
                        [np.nan, 0.1],
                        [1.2, 0.4]])    # feasible
    thetas, iterations, status = fit_moments(TRIANGLE, targets)
    assert status.tolist() == [FIT_OK, FIT_INFEASIBLE, FIT_INFEASIBLE,
                               FIT_INFEASIBLE, FIT_OK]
    for i in (0, 4):
        theta, its = maxent_fit_report(TRIANGLE, targets[i])
        assert thetas[i].tobytes() == theta.tobytes() and iterations[i] == its
    with pytest.raises(InfeasibleError, match=r"target \[0\.2, 0\.9\]"):
        maxent_fit_report(TRIANGLE, targets[2])


def test_n2_membership_reads_the_fit_status():
    model = as_descriptor(TRIANGLE)
    points = np.array([[[0.5, 0.3], [0.2, 0.9]], [[1.0, 0.999], [1.9, 0.01]]])
    inside = model.energy_domain.membership(points)
    assert inside.tolist() == [[True, False], [True, True]]
    assert [bool(model.energy_domain.membership(p)) for p in points.reshape(-1, 2)] == (
        inside.ravel().tolist())


@pytest.mark.parametrize("family", [THREE_LEVEL, TRIANGLE], ids=["three", "triangle"])
def test_entropy_rows_equal_single_point_calls(family):
    model = as_descriptor(family)
    rng = np.random.default_rng(4)
    us = rng.dirichlet(np.ones(family.alphabet_size), size=(3, 7)) @ family.hamiltonians.T
    values = model.entropy_u(us)
    assert values.shape == (3, 7)
    single = [model.entropy_u(u) for u in us.reshape(-1, family.n)]
    assert all(np.ndim(v) == 0 for v in single)
    assert values.ravel().tolist() == [float(v) for v in single]
    # the moment-matched member's own entropy, to rounding
    for u, v in zip(us.reshape(-1, family.n), single):
        member = boltzmann_gibbs(family, maxent_fit(family, u, tol=1e-13))
        assert v == pytest.approx(bgs_entropy(family, member), abs=1e-12)
