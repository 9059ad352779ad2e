"""Row forms of the data-set layer against their one-set views.

Row i of the stacked ``dataset_answers``, of ``divergence_from_data``
and ``pythagoras_data`` on a stack, of ``u_to_theta_rows`` and of the
family functions of data sets (``bloch_to_theta``, ``entropy_bloch``,
``check_probability``, ``bgs_entropy``, ``check_state``) must carry the
bits of the one-set call on row i, and a bad row in a stack must raise
the error it raises alone.
"""

import dataclasses
import functools

import numpy as np
import pytest

from infogeo import (
    ConstraintError,
    DomainError,
    canonical_check,
    coherent,
    core,
    discrete,
    discrete_instance,
    divergence_def5,
    divergence_from_data,
    get_model,
    numerics,
    pythagoras_data,
    qubit,
    theta_to_u,
    u_to_theta,
)

CANONICAL = ("qubit", "coherent", "coherent2", "discrete2", "discrete3")
#: the five built-ins, a family with two observables and one with 2-D fibers
HANDLES = {name: get_model(name) for name in CANONICAL}
HANDLES["triangle"] = discrete_instance([1.0, 2.0, 1.0], [[0.0, 1.0, 2.0],
                                                          [0.0, 1.0, 0.0]])
HANDLES["four-letter"] = discrete_instance([1.0, 1.0, 1.0, 1.0], [[0.0, 1.0, 2.0, 3.0]])


def bits(values):
    return np.asarray(values).tobytes()


def row_forms(handle):
    """The family's functions of one data set (n,) or a stack (k, n)."""
    if handle.name == "qubit":
        return [qubit.bloch_to_theta, qubit.entropy_bloch]
    if hasattr(handle, "family"):
        return [discrete.check_probability,
                functools.partial(discrete.bgs_entropy, handle.family)]
    return [coherent.check_state]


def data_sets(handle, rng, count):
    """``count`` random data sets of the family, as a list."""
    return list(handle.sample_datasets(rng, count))


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_stacked_answers_and_divergences_equal_one_set_calls(name):
    handle = HANDLES[name]
    model = handle.descriptor
    rng = np.random.default_rng(61)
    xs = data_sets(handle, rng, 12)
    thetas = handle.sample_thetas(rng, 12)

    answers, entropies = model.dataset_answers(xs)
    assert answers.shape == (12, model.n) and entropies.shape == (12,)
    rows = divergence_from_data(model, xs, thetas)
    for i, x in enumerate(xs):
        one_answers, one_entropy = model.dataset_answers([x])
        assert bits(answers[i]) == bits(one_answers[0])
        assert bits(entropies[i]) == bits(one_entropy[0])
        report = divergence_from_data(model, x, thetas[i])
        assert bits([rows.value[i], rows.massieu_at[i], rows.entropy_of_x[i],
                     rows.linear_term[i]]) == bits(
            [report.value, report.massieu_at, report.entropy_of_x, report.linear_term])
        assert bits(rows.answers[i]) == bits(report.answers)
    for form in row_forms(handle):
        rows = form(np.array(xs))
        assert len(rows) == len(xs)
        for i, x in enumerate(xs):
            assert bits(rows[i]) == bits(form(x))


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_stacked_data_triples_equal_one_set_calls(name):
    handle = HANDLES[name]
    model = handle.descriptor
    rng = np.random.default_rng(62)
    fibers, th, ze = [], [], []
    for _ in range(6):
        t, z = handle.sample_thetas(rng, 2, radius=handle.fiber_radius)
        fibers.append(model.fiber_sampler(theta_to_u(model, t)[None], 3, rng)[0])
        th += [t] * len(fibers[-1])
        ze += [z] * len(fibers[-1])
    xs = np.concatenate(fibers)
    rows = pythagoras_data(model, xs, th, ze)
    assert rows.orthogonality is None
    for i, x in enumerate(xs):
        report = pythagoras_data(model, x, th[i], ze[i])
        assert bits([v[i] for v in rows[:4]]) == bits(
            [report.first, report.second, report.third, report.residual])
        assert report.residual <= 1e-9


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_row_wise_chart_equals_one_point_calls(name):
    handle = HANDLES[name]
    model = handle.descriptor
    thetas = handle.sample_thetas(np.random.default_rng(63), 20)
    us = core.dual_points(model, thetas)[1]
    back, refused = core.u_to_theta_rows(model, us)
    assert not refused.any()
    for i, u in enumerate(us):
        assert bits(back[i]) == bits(u_to_theta(model, u))
    # the numeric oracle: one grad_fd call on all the centres
    back = numerics.grad_fd(model.entropy_u, us[:5])
    for i, u in enumerate(us[:5]):
        assert bits(back[i]) == bits(numerics.grad_fd(model.entropy_u, u))


def test_def5_reads_each_fiber_with_one_call():
    handle = HANDLES["four-letter"]
    calls = []

    def answers(xs):
        calls.append(len(xs))
        return handle.descriptor.dataset_answers(xs)

    model = dataclasses.replace(handle.descriptor, dataset_answers=answers)
    u = theta_to_u(model, np.array([0.4]))
    x = np.array([0.1, 0.2, 0.3, 0.4])
    assert divergence_def5(model, x, u, fiber_samples=50) == divergence_def5(
        handle.descriptor, x, u, fiber_samples=50)
    assert calls == [50, 1]


# ------------------------------------------------------------ bad rows


def raised(form, *args):
    """``(type, message)`` of the error ``form(*args)`` raises."""
    with pytest.raises(Exception) as info:
        form(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name, bad", [
    ("discrete3", np.array([0.5, 0.3, 0.3])),                # does not sum to one
    ("four-letter", np.array([0.5, -0.1, 0.3, 0.3])),        # a negative entry
    ("qubit", np.array([0.8, 0.7, 0.0])),                    # longer than 1
    ("coherent", np.r_[1.0, 1.0, np.zeros(63)].astype(complex)),   # not normalized
])
def test_a_bad_row_raises_its_own_error(name, bad):
    handle = HANDLES[name]
    model = handle.descriptor
    rng = np.random.default_rng(64)
    xs = [np.asarray(x) for x in data_sets(handle, rng, 4)]
    stack = xs[:2] + [bad] + xs[2:]
    thetas = handle.sample_thetas(rng, 5)
    alone = raised(model.dataset_answers, [bad])
    assert alone[0] in (ValueError, DomainError)
    assert raised(model.dataset_answers, stack) == alone
    assert raised(divergence_from_data, model, stack, thetas) == alone
    assert raised(divergence_from_data, model, bad, thetas[2]) == alone


def test_a_noncompliant_row_raises_the_constraint_error_it_raises_alone():
    model = HANDLES["discrete3"].descriptor
    th = np.array([[0.3], [-0.2], [0.5]])
    ze = -th
    xs = [model.fiber_sampler(theta_to_u(model, t)[None], 1, None)[0, 0] for t in th]
    xs[1] = np.array([0.2, 0.2, 0.6])
    alone = raised(pythagoras_data, model, xs[1], th[1], ze[1])
    assert alone[0] is ConstraintError
    assert raised(pythagoras_data, model, xs, th, ze) == alone


def test_a_chart_refused_row_is_flagged_and_the_others_keep_their_bits():
    model = HANDLES["qubit"].descriptor
    thetas = np.array([[0.3, -0.2, 0.1], [30.0, 0.0, 0.0], [0.0, 1.5, -0.5]])
    us = core.dual_points(model, thetas)[1]
    us = np.vstack([us, [[1.5, 0.0, 0.0]]])        # outside the domain
    back, refused = core.u_to_theta_rows(model, us)
    assert refused.tolist() == [False, True, False, True]
    assert np.isnan(back[refused]).all()
    for i in (0, 2):
        assert bits(back[i]) == bits(u_to_theta(model, us[i]))
    for i in (1, 3):
        with pytest.raises(DomainError):
            u_to_theta(model, us[i])
    # |theta| = 30 saturates the chart: tanh 30 rounds to 1
    assert canonical_check(model, thetas[1]).roundtrip_error is None
