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
    discrete,
    get_model,
    massieu,
    metric_tensor,
)
from infogeo.core import legendre_rows
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
    fit_moments,
    kl_divergence,
    log_partition,
    maxent_fit_report,
    maxent_fit_rows,
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


def test_family_requires_an_observable():
    # an empty spectrum, as the loader reads "hamiltonians =", or n = 0 rows
    for hamiltonians in (np.array([]), np.zeros((0, 3))):
        with pytest.raises(ValueError, match=r"\(n, alphabet\) matrix, n >= 1"):
            DiscreteFamily(prior=np.ones(3), hamiltonians=hamiltonians)


def test_family_requires_positive_prior():
    with pytest.raises(ValueError):
        DiscreteFamily(prior=np.array([1.0, 0.0]),
                       hamiltonians=np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        DiscreteFamily(prior=np.array([1.0]), hamiltonians=np.zeros((1, 1)))


@pytest.mark.parametrize("prior, row, field", [
    ([1.0, 1.0, 1.0], [0.0, math.inf, 2.0], "hamiltonians"),
    ([1.0, 1.0, 1.0], [0.0, math.nan, 2.0], "hamiltonians"),
    ([1.0, math.inf, 1.0], [0.0, 1.0, 2.0], "prior")])
def test_a_family_with_a_non_finite_entry_names_the_field(prior, row, field):
    with pytest.raises(ValueError, match=f"^{field} must have finite entries$"):
        DiscreteFamily(prior=np.array(prior), hamiltonians=np.array([row]))


def test_check_probability_errors():
    with pytest.raises(ValueError):
        check_probability(np.array([0.7, -0.1, 0.4]))
    with pytest.raises(ValueError):
        check_probability(np.array([0.3, 0.3]))
    with pytest.raises(ValueError, match="rows"):
        check_probability(np.full((2, 2, 2), 0.5))     # rows of rows
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


def test_stacked_sums_over_the_support_keep_the_bits_of_point_calls():
    # ten letters, more than the eight below which numpy's pairwise sum
    # adds in order, with zero letters in every row but the first
    rng = np.random.default_rng(5)
    family = DiscreteFamily(prior=rng.integers(1, 5, 10).astype(float),
                            hamiltonians=np.arange(10.0)[None])
    ps = rng.dirichlet(np.ones(10), size=50)
    ps[1:][rng.uniform(size=(49, 10)) < 0.3] = 0.0
    ps /= ps.sum(axis=1, keepdims=True)
    qs = rng.dirichlet(np.ones(10), size=50)
    entropies, divergences = bgs_entropy(family, ps), kl_divergence(ps, qs)
    for i, (p, q) in enumerate(zip(ps, qs)):
        assert entropies[i].tobytes() == np.float64(bgs_entropy(family, p)).tobytes()
        assert divergences[i].tobytes() == np.float64(kl_divergence(p, q)).tobytes()
        support = np.flatnonzero(p)
        assert entropies[i] == pytest.approx(
            -math.fsum(p[a] * math.log(p[a] / family.prior[a]) for a in support), rel=1e-15)
        assert divergences[i] == pytest.approx(
            math.fsum(p[a] * math.log(p[a] / q[a]) for a in support), rel=1e-15)
    assert (ps[1:] == 0.0).any(axis=1).all()


def test_kl_divergence_nonnegative_seeded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert kl_divergence(p, q) >= 0.0


# ------------------------------------------------------------ moment fit


def test_maxent_two_level_frozen():
    theta = maxent_fit_report(TWO_LEVEL, np.array([1.0 / 3.0]))[0]
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
        maxent_fit_report(TWO_LEVEL, np.array([1.5]))
    for target in (-0.2, -0.5, 2.2, 2.5, 3.0):
        with pytest.raises(InfeasibleError):
            maxent_fit_report(THREE_LEVEL, np.array([target]))


def test_maxent_rejects_wrong_shape():
    with pytest.raises(ValueError):
        maxent_fit_report(TWO_LEVEL, np.array([0.1, 0.2]))


def test_maxent_roundtrip_random_moments():
    family = THREE_LEVEL
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.dirichlet(np.ones(3))
        u = family.hamiltonians @ p
        theta = maxent_fit_report(family, u)[0]
        achieved = family.hamiltonians @ boltzmann_gibbs(family, theta)
        assert np.max(np.abs(achieved - u)) <= 1e-10


# ---------------------------------------------------------------- metric


def test_fisher_covariance_matches_metric_tensor():
    # the metric is the closed covariance of the observable under the
    # member, not an FD Hessian of Phi
    family = TWO_LEVEL
    model = as_descriptor(family)
    h = family.hamiltonians[0]
    for theta in (np.zeros(1), np.array([LN2]), np.array([-0.7])):
        p = boltzmann_gibbs(family, theta)
        variance = float(np.sum(p * (h - np.sum(p * h)) ** 2))
        g = metric_tensor(model, theta)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(variance, rel=0.0, abs=1e-15)


def test_fisher_covariance_bernoulli_values():
    model = as_descriptor(TWO_LEVEL)
    assert metric_tensor(model, np.zeros(1))[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert metric_tensor(model, np.array([LN2]))[0, 0] == (
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
    theta = maxent_fit_report(family, u)[0]
    top = bgs_entropy(family, boltzmann_gibbs(family, theta))
    rng = np.random.default_rng(23)
    samples = model.fiber_sampler(u[None], 60, rng)[0]
    assert len(samples) == 60
    for p in samples:
        assert float((family.hamiltonians @ p)[0]) == pytest.approx(0.8, abs=1e-12)
        assert bgs_entropy(family, p) <= top + 1e-12


def test_fiber_sampler_zero_dimensional_fiber():
    family = TWO_LEVEL
    model = as_descriptor(family)
    samples = model.fiber_sampler(np.array([[0.25]]), 17, None)[0]
    assert len(samples) == 1
    assert np.allclose(samples[0], boltzmann_gibbs(family, maxent_fit_report(
        family, np.array([0.25]))[0]), atol=1e-12)


def test_fiber_sampler_walks_a_two_dimensional_fiber():
    # Four letters and one observable: the fiber of a moment point is a
    # polygon, which the sampler used to refuse.
    family = DiscreteFamily(prior=np.ones(4), hamiltonians=[[0.0, 1.0, 2.0, 3.0]])
    model = as_descriptor(family)
    u = np.array([1.2])
    top = bgs_entropy(family, boltzmann_gibbs(family, maxent_fit_report(family, u)[0]))
    for rng in (np.random.default_rng(5), None):
        samples = model.fiber_sampler(u[None], 40, rng)[0]
        assert len(samples) == 40
        for p in samples:
            assert check_probability(p).tolist() == p.tolist()
            assert abs(float((family.hamiltonians @ p)[0]) - 1.2) <= 1e-12
            assert bgs_entropy(family, p) <= top + 1e-12
    # the random chords spread over both directions of the fiber
    spread = model.fiber_sampler(u[None], 40, np.random.default_rng(5))[0]
    assert np.linalg.matrix_rank(spread - spread.mean(axis=0), tol=1e-6) == 2


def test_fiber_sampler_draws_of_a_two_dimensional_fiber_are_frozen():
    # The random chords of a 2-D fiber draw their directions and offsets
    # from the rng; samples and the rng's next draw as recorded before the
    # sampler returned a stack.
    family = DiscreteFamily(prior=np.ones(4), hamiltonians=[[0.0, 1.0, 2.0, 3.0]])
    rng = np.random.default_rng(19)
    samples = as_descriptor(family).fiber_sampler(np.array([[1.2]]), 50, rng)[0]
    assert rng.random() == 0.19819530420441633
    assert samples.shape == (50, 4)
    frozen = {0: [0.3478484553965024, 0.27100321735471916, 0.21444819910105456,
                  0.16670012814772392],
              17: [0.4389022522516576, 0.11523961140563613, 0.2528140204337553,
                   0.19304411590895112],
              49: [0.20334375188518042, 0.4345719025034026, 0.3208249393376535,
                   0.041259406273763545]}
    for i, row in frozen.items():
        assert np.max(np.abs(samples[i] - row)) <= 1e-14


def test_numeric_massieu_where_the_member_hugs_the_moment_edge():
    # At this theta the member gives letter 0 a weight of 5.8e-5, closer
    # to the edge of the moment region than a Hessian stencil step
    # (1.2e-4).  The numeric Legendre route used to evaluate the entropy
    # past the edge there and raise InfeasibleError.
    family = DiscreteFamily(prior=np.array([1.0, 2.0, 3.0]),
                            hamiltonians=[[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]])
    model = as_descriptor(family)
    theta = np.array([-2.9146290358176437, 2.799134982298783])
    assert legendre_rows(model, theta[None], tol=1e-7)[0][0] == pytest.approx(
        massieu(model, theta), abs=1e-6)


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


def test_fit_of_targets_all_outside_the_box_takes_no_newton_step(monkeypatch):
    # With no row left inside the box the fit must return at once, not run
    # its 200 iterations on an empty stack.
    def no_step(cov, residual):
        raise AssertionError("Newton step taken for a stack with no feasible row")

    monkeypatch.setattr(discrete, "_newton_steps", no_step)
    for family, targets in ((get_model("discrete3").family, [[2.5], [-1.0], [np.nan]]),
                            (TRIANGLE, [[3.0, 0.5], [1.0, -0.1]])):
        thetas, iterations, status = fit_moments(family, np.array(targets))
        assert status.tolist() == [FIT_INFEASIBLE] * len(targets)
        assert not thetas.any() and not iterations.any()
    with pytest.raises(InfeasibleError):
        maxent_fit_report(get_model("discrete3").family, [2.5])


#: Stacks whose rows, at tol 1e-12 and at tol 0, cover the fit outcomes
#: that a target reaches: converged, infeasible (on an edge, outside the
#: box, NaN) and stalled (tol 0 near an edge).  No target reaches a
#: singular covariance inside the region; a forced one is tested below.
MIXED_STACKS = {
    "discrete2": (get_model("discrete2").family,
                  [[0.3], [0.5], [0.999], [1e-9], [1.2], [-0.5], [np.nan], [0.0], [1.0]]),
    "discrete3": (get_model("discrete3").family,
                  [[1.2], [0.3], [1.9], [1e-9], [2.5], [-1.0], [np.nan], [2.0]]),
    "1,2,3/0,1,2;1,0,0": (
        DiscreteFamily(prior=np.array([1.0, 2.0, 3.0]),
                       hamiltonians=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]])),
        [[1.2, 0.4], [1.0, 0.1], [1.2, 0.399], [1.5, 1e-9], [0.3, 0.2], [1.5, 0.0],
         [3.0, 0.5], [0.5, 0.5], [0.25, 0.75], [np.nan, 0.1]]),
    "0,1,10": (DiscreteFamily(prior=np.ones(3), hamiltonians=np.array([[0.0, 1.0, 10.0]])),
               [[2.0], [9.9], [0.01], [11.0], [np.nan], [5.0], [1e-6]]),
}


@pytest.mark.parametrize("name", sorted(MIXED_STACKS))
def test_each_row_of_a_mixed_stack_is_its_one_row_fit(name):
    family, targets = MIXED_STACKS[name]
    targets = np.array(targets)
    seen = set()
    for tol in (1e-12, 0.0):
        thetas, iterations, status = fit_moments(family, targets, tol)
        for i, target in enumerate(targets):
            theta, its, stat = fit_moments(family, target[None], tol)
            assert thetas[i].tobytes() == theta[0].tobytes()
            assert (iterations[i], status[i]) == (its[0], stat[0])
        seen.update(status.tolist())
    assert seen == {FIT_OK, FIT_INFEASIBLE, FIT_STALLED}


def test_a_singular_covariance_fails_its_row_alone(monkeypatch):
    # the fit is handed zero covariances, which no target inside the region
    # reaches: the row inside is singular, the one outside still infeasible
    monkeypatch.setattr(discrete, "_covariance",
                        lambda h, p, moments: np.zeros((len(p), len(h), len(h))))
    for family, targets in ((get_model("discrete3").family, [[1.2], [2.5]]),
                            (MIXED_STACKS["1,2,3/0,1,2;1,0,0"][0], [[1.0, 0.1], [3.0, 0.5]])):
        thetas, iterations, status = fit_moments(family, np.array(targets))
        assert status.tolist() == [FIT_SINGULAR, FIT_INFEASIBLE]
        assert not thetas.any() and not iterations.any()
        with pytest.raises(DegeneracyError, match="singular covariance"):
            maxent_fit_rows(family, np.array(targets))


def test_fit_converges_where_the_dual_objective_cancels():
    # On the spectrum 0, 1, 10 at theta near -2.6 the dual objective
    # Phi + theta.U is about 1e-9 while Phi and theta.U are each about 26,
    # so its rounding is set by the terms, not by the sum; a slack scaled
    # by |f| alone rejected every halving there and the fit stalled.
    family = DiscreteFamily(prior=np.ones(3), hamiltonians=np.array([[0.0, 1.0, 10.0]]))
    thetas = np.concatenate([[-2.61494226, -1.845],
                             np.random.default_rng(0).uniform(-3.0, 3.0, 500)])
    targets = np.array([family.hamiltonians @ boltzmann_gibbs(family, [t])
                        for t in thetas])
    fitted, iterations, status = fit_moments(family, targets, tol=1e-12)
    assert status.tolist() == [FIT_OK] * thetas.size
    moments = np.array([family.hamiltonians @ boltzmann_gibbs(family, t) for t in fitted])
    assert np.max(np.abs(moments - targets)) <= 1e-12


def test_n2_membership_is_the_open_triangle():
    model = as_descriptor(TRIANGLE)
    points = np.array([[[0.5, 0.3], [0.2, 0.9]], [[1.0, 0.999], [1.9, 0.01]],
                       [[1.0, 0.0], [1.5, 0.5]], [[1.0, 1e-6], [1.5, 0.5 - 1e-6]]])
    inside = model.energy_domain.membership(points)
    # the two edges' midpoints are on the boundary, so outside
    assert inside.tolist() == [[True, False], [True, True], [False, False], [True, True]]
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
        member = boltzmann_gibbs(family, maxent_fit_report(family, u, tol=1e-13)[0])
        assert v == pytest.approx(bgs_entropy(family, member), abs=1e-12)
