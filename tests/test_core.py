"""Model-agnostic dual-structure routines: Massieu values, dual charts,
divergences, Pythagorean identities, and convexity probes."""

import dataclasses
import math
import re

import numpy as np
import pytest

from infogeo import (
    CanonicalityError,
    ConstraintError,
    DomainError,
    EvaluationError,
    InfoGeoError,
    ModelDescriptor,
    bregman_divergence,
    canonical_check,
    convexity_probe,
    divergence_def5,
    divergence_from_data,
    dual_points,
    get_model,
    massieu,
    metric_tensor,
    pythagoras_data,
    pythagoras_models,
    theta_to_u,
    u_to_theta,
)
from infogeo.core import legendre_rows
from infogeo.numerics import Domain
from infogeo.registry import discrete_instance, load_config

TANH1 = math.tanh(1.0)
LN_2COSH1 = math.log(2.0 * math.cosh(1.0))


@pytest.fixture(scope="module")
def qubit():
    return get_model("qubit").descriptor


@pytest.fixture(scope="module")
def coherent():
    return get_model("coherent").descriptor


@pytest.fixture(scope="module")
def discrete2():
    return get_model("discrete2").descriptor


def linear_toy():
    """Entropy linear in the energy: the Legendre supremum escapes to
    infinity for every slope except the one matching the gradient."""
    domain = Domain(
        dimension=1,
        bounding_box=np.array([[-5.0, 5.0]]),
        membership=lambda u: np.abs(u[..., 0]) < 5.0,
        interior_point=np.array([0.0]),
        unbounded=True,
    )

    def no_closed_form(rows):
        raise NotImplementedError("the linear toy has no closed form")

    # data sets are energy points, each the only point of its fiber; a
    # stack of them is an array of rows
    return ModelDescriptor(
        energy_domain=domain,
        entropy_u=lambda u: u[..., 0],
        closed_dual_points=no_closed_form,
        closed_metric=no_closed_form,
        closed_u_to_theta=no_closed_form,
        dataset_answers=lambda xs: (np.asarray(xs, dtype=float),
                                    np.asarray(xs, dtype=float)[:, 0]),
        fiber_sampler=lambda us, count, rng: np.asarray(us, dtype=float)[:, None],
    )


def test_descriptor_requires_the_data_layer_and_derives_n(qubit):
    fields = dataclasses.fields(ModelDescriptor)
    # seven required fields, and no switch that selects a second route
    assert [f.name for f in fields] == [
        "energy_domain", "entropy_u", "closed_dual_points", "closed_metric",
        "closed_u_to_theta", "dataset_answers", "fiber_sampler"]
    assert all(f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING for f in fields)
    assert qubit.n == qubit.energy_domain.dimension == 3


# ---------------------------------------------------------------- massieu


def test_massieu_qubit_closed_values(qubit):
    assert massieu(qubit, np.zeros(3)) == pytest.approx(math.log(2.0), abs=1e-15)
    assert massieu(qubit, np.array([1.0, 0.0, 0.0])) == pytest.approx(
        1.1269280110429725, abs=1e-15)


def test_massieu_rejects_bad_parameter_vectors(qubit):
    with pytest.raises(ValueError):
        massieu(qubit, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        massieu(qubit, np.array([math.nan, 0.0, 0.0]))


def test_massieu_unbounded_supremum_raises():
    model = linear_toy()
    with pytest.raises(DomainError, match="half-width 5"):
        legendre_rows(model, np.array([[0.0]]))
    # dual_points and its point views have one route, the family kernel
    for route, theta in ((dual_points, [[0.0]]), (massieu, [0.0]), (theta_to_u, [0.0])):
        with pytest.raises(NotImplementedError):
            route(model, np.array(theta))


def test_numeric_legendre_beyond_coherent_box_raises(coherent):
    # The closed Phi at theta = (20, 0) is 200, but the argmax lies beyond
    # the search box (half-width 16), so the numeric route has no
    # finite answer to give.
    theta = np.array([20.0, 0.0])
    assert massieu(coherent, theta) == pytest.approx(200.0, rel=1e-12)
    with pytest.raises(DomainError, match="half-width 16"):
        legendre_rows(coherent, theta[None])
    # Inside the box the numeric route agrees with the closed form.
    inside = np.array([1.0, -0.5])
    assert legendre_rows(coherent, inside[None])[0][0] == pytest.approx(
        massieu(coherent, inside), abs=1e-6)


def test_numeric_massieu_converges_where_the_objective_is_flat(discrete2):
    # Near the optimum the Legendre objective is flat to rounding; without
    # an ulp-scale slack the Armijo test rejected every step there and 3 of
    # these 300 points raised ConvergenceError.  Row i of the one solve
    # has the bits of the one-row transform at theta i.
    thetas = np.random.default_rng(0).uniform(-1.0, 1.0, size=(300, 1))
    phi, _ = legendre_rows(discrete2, thetas)
    for value, theta in zip(phi, thetas):
        assert value == pytest.approx(massieu(discrete2, theta), abs=1e-9)


# ---------------------------------------------------------- dual charts


def test_theta_to_u_qubit_tanh(qubit):
    u = theta_to_u(qubit, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(u, [-TANH1, 0.0, 0.0], atol=1e-12)


def test_u_to_theta_qubit_atanh(qubit):
    theta = u_to_theta(qubit, np.array([0.5, 0.0, 0.0]))
    assert np.allclose(theta, [-0.5493061443340548, 0.0, 0.0], atol=1e-12)


def test_u_to_theta_outside_chart_raises(qubit):
    with pytest.raises(DomainError, match=r"point \[1\.5, 0\.0, 0\.0\] is"):
        u_to_theta(qubit, np.array([1.5, 0.0, 0.0]))
    with pytest.raises(DomainError):
        u_to_theta(qubit, np.array([1.0, 0.0, 0.0]))  # boundary is excluded


# ---------------------------------------------------------- dual points


def _two_observable_family(tmp_path):
    path = tmp_path / "family.ini"
    path.write_text("[model]\ntype = discrete\n\n[discrete]\n"
                    "prior = 1, 2, 3, 0.5\nhamiltonians = 0, 1, 2, 3; 1, 0, 0, 1\n")
    return load_config(str(path)).descriptor


@pytest.mark.parametrize("name", ["qubit", "coherent", "coherent2", "discrete2",
                                  "discrete3", "config-discrete"])
def test_dual_points_batched_matches_per_point_route(name, tmp_path):
    model = (_two_observable_family(tmp_path) if name == "config-discrete"
             else get_model(name).descriptor)
    thetas = np.random.default_rng(17).uniform(-3.0, 3.0, size=(40, model.n))
    thetas[7] = 0.0
    phi, u, s = dual_points(model, thetas)
    assert phi.shape == s.shape == (40,) and u.shape == (40, model.n)
    assert phi.tolist() == [massieu(model, theta) for theta in thetas]
    assert u.tolist() == [theta_to_u(model, theta).tolist() for theta in thetas]
    assert np.max(np.abs(s - model.entropy_u(u))) <= 1e-10
    assert np.max(np.abs(phi - s + np.sum(thetas * u, axis=1))) <= 1e-12


@pytest.mark.parametrize("name", ["qubit", "coherent", "coherent2", "discrete2",
                                  "discrete3", "config-discrete"])
def test_scalar_closed_forms_are_rows_of_dual_points(name, tmp_path):
    # One kernel per family: a point call gives the bits of its row in a
    # batched call, and of row 0 of the one-row call.
    model = (_two_observable_family(tmp_path) if name == "config-discrete"
             else get_model(name).descriptor)
    thetas = np.vstack([np.zeros(model.n), np.random.default_rng(23).uniform(
        -3.0, 3.0, size=(2000, model.n))])
    phi, u, _ = dual_points(model, thetas)
    assert phi.tolist() == [massieu(model, theta) for theta in thetas]
    assert u.tolist() == [theta_to_u(model, theta).tolist() for theta in thetas]
    for theta in thetas[:20]:
        phi, u, _ = dual_points(model, theta[None])
        assert phi[0].tobytes() == np.float64(massieu(model, theta)).tobytes()
        assert u[0].tobytes() == theta_to_u(model, theta).tobytes()


def test_overflowing_dual_points_are_an_evaluation_error(coherent):
    # Phi = theta_1^2 / 2 overflows on the second row only
    rows = np.array([[1.0, 0.0], [1e200, 0.0], [2e200, 0.0]])
    with pytest.raises(EvaluationError, match=r"at \[1e\+200, 0\.0\] overflows"):
        dual_points(coherent, rows)
    with pytest.raises(EvaluationError, match="overflows"):
        canonical_check(coherent, np.array([1e200, 0.0]))


def test_dual_points_rejects_bad_rows(qubit):
    with pytest.raises(ValueError):
        dual_points(qubit, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        dual_points(qubit, np.array([[math.inf, 0.0, 0.0]]))


# ------------------------------------------------------ domain membership


def _membership_rows(name, domain, rng):
    """Random rows around the box, points near the edges on every axis, and
    rows the model must refuse."""
    lo, hi = domain.bounding_box.T
    span = hi - lo
    n = domain.dimension
    rows = [rng.uniform(lo - 0.1 * span, hi + 0.1 * span, size=(24, n))]
    for j in range(n):
        for v in (1.0 - 1e-13, 0.99, 1e-14, lo[j], hi[j],
                  lo[j] + 1e-12 * span[j], hi[j] - 1e-12 * span[j]):
            row = domain.interior_point.copy()
            row[j] = v
            rows.append(row[None])
    if name == "qubit":
        # radii within a few ulps of the unit sphere, the domain's boundary,
        # enough of them that a radius rounded differently from the 1-D norm
        # shows
        d = rng.normal(size=(400, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        radii = 1.0 + np.arange(-4, 4) * np.finfo(float).eps
        rows.append((d[:, None, :] * radii[None, :, None]).reshape(-1, 3))
    if name == "coherent":
        rows.append(np.array([[math.inf, 0.0], [0.0, math.nan], [-math.inf, 1.0]]))
    return np.vstack(rows)


@pytest.mark.parametrize("name", ["qubit", "coherent", "discrete2", "discrete3",
                                  "config-discrete"])
def test_batched_membership_matches_per_point(name, tmp_path):
    model = (_two_observable_family(tmp_path) if name == "config-discrete"
             else get_model(name).descriptor)
    domain = model.energy_domain
    rows = _membership_rows(name, domain, np.random.default_rng(3))
    batched = domain.membership(rows)
    assert batched.shape == (len(rows),) and batched.dtype == bool
    assert batched.any() and not batched.all()
    assert batched.tolist() == [bool(domain.membership(row)) for row in rows]
    even = rows[: len(rows) // 2 * 2]
    stacked = domain.membership(even.reshape(2, -1, model.n))
    assert np.array_equal(stacked, batched[: len(even)].reshape(2, -1))
    if name == "qubit":  # the decision the 1-D norm gives
        assert batched.tolist() == [float(np.linalg.norm(row)) < 1.0 for row in rows]


# the families of CI's verify --config step with two observables
_CHART_FAMILIES = {"discrete3x2": ([1, 2, 3], [[0, 1, 2], [1, 0, 0]]),
                   "discrete5x2": ([1, 2, 1, 3, 1], [[0, 1, 2, 3, 4], [1, 0, 0, 1, 0]])}


@pytest.mark.parametrize("name", ["qubit", "coherent", "coherent2", "discrete2",
                                  "discrete3", *_CHART_FAMILIES])
def test_the_chart_inverts_every_row_of_the_energy_domain(name):
    model = (discrete_instance(*_CHART_FAMILIES[name]).descriptor
             if name in _CHART_FAMILIES else get_model(name).descriptor)
    rows = _membership_rows(name, model.energy_domain, np.random.default_rng(3))
    rows = rows[np.isfinite(rows).all(axis=1)]
    if name == "qubit":  # radii next to the boundary, down to the largest double below 1
        d = np.random.default_rng(4).normal(size=(50, 3))
        rows = np.vstack([rows, (1.0 - 1e-10) * d / np.linalg.norm(d, axis=1, keepdims=True),
                          np.nextafter(1.0, 0.0) * np.eye(3)])
    inside = model.energy_domain.membership(rows)
    assert inside.any() and (name.startswith("coherent") or not inside.all())
    assert name != "qubit" or inside[-53:].all()
    # every row of the domain in one chart call, none refused, with the
    # chart's bits
    thetas = model.closed_u_to_theta(rows[inside])
    assert np.isfinite(thetas).all()
    assert u_to_theta(model, rows[inside]).tobytes() == thetas.tobytes()
    # a stack with rows outside raises the domain error of the lowest one
    if not inside.all():
        first = rows[np.argmin(inside)].tolist()
        with pytest.raises(DomainError, match=re.escape(f"energy point {first} is outside")):
            u_to_theta(model, rows)


# ------------------------------------------------------ canonical check


def test_canonical_check_qubit_frozen_pair(qubit):
    pair = canonical_check(qubit, np.array([1.0, 0.0, 0.0]))
    assert pair.massieu == pytest.approx(1.1269280110429725, abs=1e-15)
    assert np.allclose(pair.u, [-TANH1, 0.0, 0.0], atol=1e-12)
    assert pair.entropy == pytest.approx(0.3653338550872076, abs=1e-12)
    assert pair.residual <= 1e-12
    assert pair.roundtrip_error <= 1e-9


def test_canonical_check_reports_saturated_chart(qubit):
    pair = canonical_check(qubit, np.array([30.0, 0.0, 0.0]))
    assert pair.massieu == 30.0
    assert pair.residual <= 1e-12
    assert pair.roundtrip_error is None


def test_canonical_check_flags_inconsistent_closed_forms(qubit):
    def shifted_points(thetas):  # the kernel with Phi shifted by 0.01
        phi, u, s = qubit.closed_dual_points(thetas)
        return phi + 0.01, u, s

    broken = dataclasses.replace(qubit, closed_dual_points=shifted_points)
    with pytest.raises(CanonicalityError) as exc:
        canonical_check(broken, np.array([1.0, 0.0, 0.0]))
    assert exc.value.pair is not None
    assert exc.value.pair.residual == pytest.approx(0.01, abs=1e-9)


# -------------------------------------------------------------- metric


def test_metric_qubit_identity_at_origin(qubit):
    g = metric_tensor(qubit, np.zeros(3))
    assert np.allclose(g, np.eye(3), atol=1e-5)


def test_metric_discrete2_bernoulli_variance(discrete2):
    g = metric_tensor(discrete2, np.zeros(1))
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(0.25, abs=1e-6)


# ------------------------------------------------------------ convexity


def _convexity_by_points(model, theta1, theta2):
    """The convexity probe as a per-blend loop of scalar Massieu calls."""
    phi1, phi2 = massieu(model, theta1), massieu(model, theta2)
    return max(massieu(model, lam * theta1 + (1.0 - lam) * theta2)
               - lam * phi1 - (1.0 - lam) * phi2
               for lam in np.linspace(0.0, 1.0, 21))


@pytest.mark.parametrize("name", ["qubit", "coherent", "coherent2", "discrete2",
                                  "discrete3"])
def test_convexity_probe_matches_per_point_loop(name):
    handle = get_model(name)
    model = handle.descriptor
    rng = np.random.default_rng(29)
    for _ in range(40):
        t1, t2 = handle.sample_thetas(rng, 2)
        assert convexity_probe(model, t1, t2) == _convexity_by_points(model, t1, t2)
    # The numeric Legendre transform at the endpoints and blends is the
    # oracle of the closed probe; it may end in a typed error instead.
    for _ in range(2):
        t1, t2 = handle.sample_thetas(rng, 2, radius=1.0)
        lam = np.linspace(0.0, 1.0, 21)[:, None]
        try:
            phi = legendre_rows(model, np.vstack([t1, t2, lam * t1 + (1.0 - lam) * t2]))[0]
        except InfoGeoError:
            continue
        worst = np.max(phi[2:] - lam[:, 0] * phi[0] - (1.0 - lam[:, 0]) * phi[1])
        assert abs(worst - convexity_probe(model, t1, t2)) <= 1e-6


def test_convexity_probe_and_jensen_gap(qubit):
    e1 = np.array([1.0, 0.0, 0.0])
    assert convexity_probe(qubit, e1, -e1) <= 1e-12
    gap = massieu(qubit, np.zeros(3)) - 0.5 * (
        massieu(qubit, e1) + massieu(qubit, -e1))
    assert gap == pytest.approx(-0.4337808304830272, abs=1e-15)


# ----------------------------------------------------------- divergence


def test_bregman_divergence_qubit_frozen(qubit):
    d = bregman_divergence(qubit, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert d.value == pytest.approx(0.4337808304830272, abs=1e-15)
    assert d.value == pytest.approx(
        d.massieu_second - d.massieu_first + d.linear_term, abs=1e-15)
    assert np.array_equal(d.u_first, np.zeros(3))


def test_bregman_divergence_coherent_quadratic(coherent):
    d = bregman_divergence(coherent, np.zeros(2), np.array([1.0, 0.0]))
    assert d.value == pytest.approx(0.5, abs=1e-12)


def test_bregman_divergence_vanishes_on_diagonal(qubit):
    theta = np.array([0.3, -0.7, 0.2])
    assert abs(bregman_divergence(qubit, theta, theta).value) <= 1e-15


def test_divergence_from_data_decomposition(qubit):
    x = np.array([-0.5, 0.0, 0.0])
    theta = np.array([1.0, 0.0, 0.0])
    report = divergence_from_data(qubit, x, theta)
    assert report.value == pytest.approx(0.06459286642416417, abs=1e-12)
    assert report.massieu_at == pytest.approx(LN_2COSH1, abs=1e-15)
    assert report.entropy_of_x == pytest.approx(0.5623351446188083, abs=1e-12)
    assert report.linear_term == pytest.approx(-0.5, abs=1e-15)
    assert report.value == pytest.approx(
        report.massieu_at - report.entropy_of_x + report.linear_term, abs=1e-15)
    assert report.answers.tolist() == x.tolist()


def test_divergence_from_data_overflow_is_an_evaluation_error(qubit):
    # Phi = 1.41e308 and the linear term 1.4e308 are finite; their sum is not
    with pytest.raises(EvaluationError, match=r"divergence at \[0\.7, 0\.7, 0\.0\] and"
                                              r" \[1e\+308, 1e\+308, 0\.0\] overflows"):
        divergence_from_data(qubit, np.array([0.7, 0.7, 0.0]),
                             np.array([1e308, 1e308, 0.0]))


def test_fiber_sup_divergence_matches_affine_form_on_singleton(qubit):
    x = np.array([0.3, -0.2, 0.1])
    u_of_m = theta_to_u(qubit, np.array([0.4, 0.1, -0.3]))
    direct = divergence_from_data(qubit, x, u_to_theta(qubit, u_of_m)).value
    via_sup = divergence_def5(qubit, x, u_of_m, fiber_samples=10)
    assert via_sup == pytest.approx(direct, abs=1e-12)


# ----------------------------------------------------------- pythagoras


def test_pythagoras_data_compliant_triple(qubit):
    theta = np.array([0.7, -0.2, 0.4])
    zeta = np.array([-0.3, 0.5, 0.1])
    x = theta_to_u(qubit, theta)  # its answers equal the model energies
    report = pythagoras_data(qubit, x, theta, zeta)
    assert report.residual <= 1e-12
    assert report.first == pytest.approx(
        divergence_from_data(qubit, x, theta).value, abs=1e-15)
    assert report.second == pytest.approx(
        bregman_divergence(qubit, theta, zeta).value, abs=1e-15)
    assert report.third == pytest.approx(
        divergence_from_data(qubit, x, zeta).value, abs=1e-15)


def test_pythagoras_data_rejects_noncompliant_data(qubit):
    with pytest.raises(ConstraintError):
        pythagoras_data(qubit, np.array([0.5, 0.0, 0.0]),
                        np.array([1.0, 0.0, 0.0]), np.zeros(3))


def test_pythagoras_models_residual_equals_orthogonality(qubit):
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta, zeta, xi = rng.uniform(-1.5, 1.5, size=(3, 3))
        report = pythagoras_models(qubit, theta, zeta, xi)
        assert report.residual == pytest.approx(abs(report.orthogonality), abs=1e-12)
        assert report.residual == pytest.approx(
            abs(report.first + report.second - report.third), abs=1e-15)


def test_pythagoras_models_orthogonal_construction(qubit):
    theta = np.array([0.8, 0.1, -0.5])
    zeta = np.array([-0.2, 0.6, 0.3])
    diff = theta_to_u(qubit, theta) - theta_to_u(qubit, zeta)
    w = np.array([diff[1], -diff[0], 0.0])  # orthogonal to diff
    xi = zeta - w
    report = pythagoras_models(qubit, theta, zeta, xi)
    assert abs(report.orthogonality) <= 1e-12
    assert report.residual <= 1e-12

