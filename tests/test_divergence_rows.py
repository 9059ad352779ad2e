"""Bregman, Pythagoras and convexity calls on rows against their point calls.

Row i of a row call of ``bregman_divergence``, ``pythagoras_models`` and
``convexity_probe`` must carry the bits of the point call on row i, and
the scalar views the bits of the per-point formulas built from
``massieu`` and ``theta_to_u``.  The property test draws parameters up
to |theta| = 1e3 and holds every form to the contract: a finite value,
or a typed ``InfoGeoError``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from infogeo import (
    EvaluationError,
    InfoGeoError,
    bregman_divergence,
    convexity_probe,
    discrete,
    discrete_instance,
    divergence_from_data,
    get_model,
    massieu,
    pythagoras_data,
    pythagoras_models,
    theta_to_u,
)

CANONICAL = ("qubit", "coherent", "coherent2", "discrete2", "discrete3")
#: the five built-ins and a family with two observables
HANDLES = {name: get_model(name) for name in CANONICAL}
HANDLES["triangle"] = discrete_instance([1.0, 2.0, 1.0], [[0.0, 1.0, 2.0],
                                                          [0.0, 1.0, 0.0]])


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def compliant_data(name, theta):
    """A data set of the model whose answers are ``U(theta)``."""
    handle = HANDLES[name]
    model = handle.descriptor
    if name == "qubit":
        return theta_to_u(model, theta)
    if name.startswith("coherent"):
        return model.fiber_sampler(theta_to_u(model, theta)[None], 1, None)[0, 0]
    return discrete.boltzmann_gibbs(handle.family, theta)


def bregman_by_points(model, theta, zeta):
    """The divergence from the scalar Massieu function and dual chart."""
    return (massieu(model, zeta) - massieu(model, theta)
            + float((zeta - theta) @ theta_to_u(model, theta)))


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_row_forms_equal_their_scalar_views_bitwise(name):
    handle = HANDLES[name]
    model = handle.descriptor
    rng = np.random.default_rng(43)
    th, ze, xi = handle.sample_thetas(rng, (3, 30))

    rows = bregman_divergence(model, th, ze)
    values, u_first = rows.value, rows.u_first
    triples = pythagoras_models(model, th, ze, xi)
    worst = convexity_probe(model, th, ze)
    for i in range(len(th)):
        report = bregman_divergence(model, th[i], ze[i])
        assert bits(values[i]) == bits(report.value)
        assert bits(u_first[i]) == bits(report.u_first)
        assert report.value == bregman_by_points(model, th[i], ze[i])
        assert report.massieu_first == massieu(model, th[i])
        assert bits(report.u_first) == bits(theta_to_u(model, th[i]))

        triple = pythagoras_models(model, th[i], ze[i], xi[i])
        assert bits([v[i] for v in triples]) == bits(
            [triple.first, triple.second, triple.third, triple.residual,
             triple.orthogonality])
        assert triple.third == bregman_by_points(model, th[i], xi[i])

        assert bits(worst[i]) == bits(convexity_probe(model, th[i], ze[i]))


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_pythagoras_data_equals_its_divergences_bitwise(name):
    handle = HANDLES[name]
    model = handle.descriptor
    rng = np.random.default_rng(44)
    for th, ze in (handle.sample_thetas(rng, 2, radius=1.2) for _ in range(10)):
        x = compliant_data(name, th)
        report = pythagoras_data(model, x, th, ze)
        assert report.first == divergence_from_data(model, x, th).value
        assert report.second == bregman_divergence(model, th, ze).value
        assert report.third == divergence_from_data(model, x, ze).value
        assert report.residual == abs(report.first + report.second - report.third)
        assert report.residual <= 1e-9


def test_row_forms_reject_mismatched_rows():
    model = HANDLES["qubit"].descriptor
    with pytest.raises(ValueError, match="same number"):
        bregman_divergence(model, np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="length 3"):
        convexity_probe(model, np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        pythagoras_models(model, np.zeros((1, 3)), np.zeros((1, 3)),
                          np.full((1, 3), np.nan))


def test_point_calls_give_floats_and_vectors_and_refuse_mixed_rows():
    model = HANDLES["qubit"].descriptor
    theta, zeta = np.array([0.3, -0.2, 0.1]), np.array([0.0, 1.5, -0.5])
    x = theta_to_u(model, theta)
    bregman = bregman_divergence(model, theta, zeta)
    data = divergence_from_data(model, x, zeta)
    for report in (bregman, data, pythagoras_data(model, x, theta, zeta),
                   pythagoras_models(model, theta, zeta, -zeta)):
        assert all(type(v) is float for v in report[:4])
    assert bregman.u_first.shape == data.answers.shape == (3,)
    assert type(convexity_probe(model, theta, zeta)) is float

    with pytest.raises(ValueError):
        bregman_divergence(model, theta, zeta[None])
    with pytest.raises(ValueError):
        pythagoras_models(model, theta[None], zeta, zeta)
    with pytest.raises(ValueError):
        pythagoras_data(model, x, theta, zeta[None])

    # a 0-d theta on a one-parameter model is one point
    one = HANDLES["discrete2"].descriptor
    report = bregman_divergence(one, 0.4, np.array([-0.3]))
    assert type(report.value) is float and report.u_first.shape == (1,)
    assert type(convexity_probe(one, 0.4, -0.3)) is float
    assert bits(report.value) == bits(bregman_divergence(one, [[0.4]], [[-0.3]]).value)


def test_overflowing_divergence_is_a_typed_error():
    # (zeta - theta) overflows although both Massieu values are finite;
    # the scalar form used to return an infinite divergence.
    model = HANDLES["qubit"].descriptor
    theta = np.array([1e308, 0.0, 0.0])
    with pytest.raises(EvaluationError, match="divergence"):
        bregman_divergence(model, theta, -theta)
    with pytest.raises(EvaluationError, match="divergence"):
        bregman_divergence(model, np.array([[0.0, 0.0, 0.0], theta]),
                           np.array([[1.0, 0.0, 0.0], -theta]))
    with pytest.raises(EvaluationError, match="model triple"):
        pythagoras_models(model, theta, -theta, theta)
    with pytest.raises(EvaluationError, match="data triple"):
        pythagoras_data(model, np.array([-1.0, 0.0, 0.0]), theta, -theta)


# ------------------------------------------------------------ contract

COORD = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e3, 1e3),
                  st.sampled_from([0.0, 1e3, -1e3, 5e-324]))


@st.composite
def row_cases(draw):
    name = draw(st.sampled_from(sorted(HANDLES)))
    n = HANDLES[name].descriptor.n
    k = draw(st.integers(1, 3))
    coords = draw(st.lists(COORD, min_size=3 * k * n, max_size=3 * k * n))
    return name, np.array(coords).reshape(3, k, n)


def outcome(form, *args):
    """The value of ``form(*args)``, or the type of the typed error it raised."""
    try:
        return form(*args)
    except InfoGeoError as exc:
        return type(exc)


def assert_rows_match(rows, scalars, row_fields, scalar_fields):
    """``rows`` is a typed error exactly when some scalar row is; otherwise
    every field is finite and row i has the bits of scalar i."""
    failed = [s for s in scalars if isinstance(s, type)]
    if isinstance(rows, type):
        assert failed, f"row form raised {rows.__name__}, no scalar view did"
        return
    assert not failed
    for i, scalar in enumerate(scalars):
        for row_values, value in zip(row_fields(rows), scalar_fields(scalar)):
            assert np.isfinite(value).all()
            assert bits(row_values[i]) == bits(value)


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(row_cases())
def test_divergence_forms_give_finite_values_or_typed_errors(case):
    name, (th, ze, xi) = case
    model = HANDLES[name].descriptor
    k = len(th)

    assert_rows_match(
        outcome(bregman_divergence, model, th, ze),
        [outcome(bregman_divergence, model, th[i], ze[i]) for i in range(k)],
        lambda rows: (rows.value, rows.u_first), lambda r: (r.value, r.u_first))
    assert_rows_match(
        outcome(pythagoras_models, model, th, ze, xi),
        [outcome(pythagoras_models, model, th[i], ze[i], xi[i]) for i in range(k)],
        lambda rows: rows,
        lambda r: (r.first, r.second, r.third, r.residual, r.orthogonality))
    assert_rows_match(
        outcome(convexity_probe, model, th, ze),
        [outcome(convexity_probe, model, th[i], ze[i]) for i in range(k)],
        lambda rows: (rows,), lambda r: (r,))

    data = outcome(compliant_data, name, th[0])
    if not isinstance(data, type):
        report = outcome(pythagoras_data, model, data, th[0], ze[0])
        if not isinstance(report, type):
            assert np.isfinite([report.first, report.second, report.third,
                                report.residual]).all()
