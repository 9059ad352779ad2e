"""Finite differences, concave maximization, grids, and 2x2 spectra."""

import math

import numpy as np
import pytest

from infogeo import dual_points, get_model, numerics, qubit, theta_to_u
from infogeo.errors import DomainError, EvaluationError


def ball_domain(margin=1e-12):
    return numerics.Domain(
        3, np.array([[-1.0, 1.0]] * 3),
        lambda u: np.linalg.norm(u, axis=-1) < 1.0 - margin, np.zeros(3))


def everywhere(u):
    return np.ones(np.shape(u)[:-1], dtype=bool)


def test_gradient_of_square_at_three():
    g = numerics.grad_fd(lambda v: v[:, 0] ** 2, np.array([3.0]), 1e-4)
    assert abs(g[0] - 6.0) < 1e-7


def test_gradient_of_product():
    g = numerics.grad_fd(lambda v: v[:, 0] * v[:, 1], np.array([2.0, 5.0]), 1e-5)
    assert np.max(np.abs(g - [5.0, 2.0])) < 1e-7


def test_gradient_of_qubit_massieu_is_minus_energy():
    g = numerics.grad_fd(lambda ts: qubit.dual_points_qubit(ts)[0],
                         np.array([1.0, 0.0, 0.0]))
    assert abs(g[0] - 0.7615942) < 1e-7
    assert abs(g[1]) < 1e-9 and abs(g[2]) < 1e-9


def test_gradient_rejects_nonfinite_stencil():
    f = lambda v: np.where(v[:, 0] > 0.0, v[:, 0], -math.inf)
    # the message prints the stencil point as a list, not a numpy repr
    with pytest.raises(EvaluationError, match=r"at \[-"):
        numerics.grad_fd(f, np.array([1e-9]), 1e-4)


def _grad_reference(f, x, hs):
    """The point-by-point central-difference gradient: one call per point."""
    g = np.empty(x.size)
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = hs[j]
        g[j] = (float(f((x + e)[None])[0]) - float(f((x - e)[None])[0])) / (2.0 * hs[j])
    return g


def _hess_reference(f, x, hs):
    """The point-by-point central-difference Hessian: one call per point."""
    at = lambda p: float(f(p[None])[0])
    n = x.size
    hess = np.empty((n, n))
    f0 = at(x)
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = hs[j]
        hess[j, j] = (at(x + ej) - 2.0 * f0 + at(x - ej)) / hs[j] ** 2
        for k in range(j + 1, n):
            ek = np.zeros(n)
            ek[k] = hs[k]
            v = at(x + ej + ek) - at(x + ej - ek) - at(x - ej + ek) + at(x - ej - ek)
            hess[j, k] = hess[k, j] = v / (4.0 * hs[j] * hs[k])
    return 0.5 * (hess + hess.T)


@pytest.mark.parametrize("name", ["qubit", "coherent2", "discrete3"])
def test_fd_stencils_equal_per_point_loops_bitwise(name):
    model = get_model(name).descriptor
    rng = np.random.default_rng(6)
    objectives = {
        "massieu": (lambda ts: dual_points(model, ts)[0], lambda: rng.uniform(
            -1.5, 1.5, size=model.n)),
        "entropy": (model.entropy_u, lambda: theta_to_u(model, rng.uniform(
            -1.5, 1.5, size=model.n))),
    }
    calls = []
    for f, draw in objectives.values():
        counted = lambda rows, f=f: calls.append(len(rows)) or f(rows)
        for _ in range(5):
            x = draw()
            n = x.size
            default_g = numerics.GRAD_STEP * np.maximum(1.0, np.abs(x))
            default_h = numerics.HESS_STEP * np.maximum(1.0, np.abs(x))
            for h, hs_g, hs_h in ((None, default_g, default_h),
                                  (1e-4, np.full(n, 1e-4), np.full(n, 1e-4))):
                calls.clear()
                g = numerics.grad_fd(counted, x, h)
                hess = numerics.hess_fd(counted, x, h)
                assert calls == [2 * n, 2 * n * n + 1]
                assert g.tobytes() == _grad_reference(f, x, hs_g).tobytes()
                assert hess.tobytes() == _hess_reference(f, x, hs_h).tobytes()


def test_hessian_of_quadratic():
    h = numerics.hess_fd(lambda v: v[:, 0] ** 2 + 3.0 * v[:, 0] * v[:, 1],
                         np.array([0.3, -0.2]))
    assert np.max(np.abs(h - np.array([[2.0, 3.0], [3.0, 0.0]]))) < 1e-5


def test_hessian_of_qubit_massieu_at_origin_is_identity():
    h = numerics.hess_fd(lambda ts: qubit.dual_points_qubit(ts)[0], np.zeros(3))
    assert np.max(np.abs(h - np.eye(3))) < 1e-5


def test_maximize_entropy_minus_linear_on_bloch_ball():
    theta = np.array([1.0, 0.0, 0.0])
    f = lambda us: qubit.entropy_bloch_rows(us) - us @ theta
    res = numerics.maximize_concave(f, ball_domain())
    assert res.converged
    assert abs(res.value - 1.1269280110429725) < 1e-9
    assert np.max(np.abs(res.argmax - [-math.tanh(1.0), 0.0, 0.0])) < 1e-6


def test_maximize_quadratic_converges_in_three_newton_steps():
    a = np.array([[2.0, 0.4], [0.4, 1.5]])
    target = np.array([0.3, -0.4])
    dom = numerics.Domain(2, np.array([[-2.0, 2.0]] * 2),
                          lambda u: np.all(np.abs(u) < 2.0, axis=-1), np.zeros(2))
    res = numerics.maximize_concave(
        lambda us: -np.einsum("ki,ij,kj->k", us - target, a, us - target), dom,
        tol=1e-12)
    assert res.converged
    assert res.iterations <= 3
    assert res.gradient_norm <= 1e-12
    assert np.max(np.abs(res.argmax - target)) < 1e-9


def test_maximize_rejects_outside_start():
    with pytest.raises(DomainError):
        numerics.maximize_concave(lambda us: -np.sum(us * us, axis=1), ball_domain(),
                                  x0=np.array([2.0, 0.0, 0.0]))


def test_grid_sup_finds_interior_peak():
    dom = numerics.Domain(2, np.array([[-1.0, 1.0]] * 2), everywhere, np.zeros(2))
    x, v = numerics.grid_sup(lambda u: -((u[:, 0] - 0.5) ** 2 + u[:, 1] ** 2),
                             dom, 41)
    assert abs(v) < 1e-12  # 0.5 lies on the 41-point grid
    assert np.allclose(x, [0.5, 0.0])


def test_grid_sup_breaks_ties_at_lowest_index():
    dom = numerics.Domain(1, np.array([[0.0, 1.0]]), everywhere, np.array([0.5]))
    x, _ = numerics.grid_sup(lambda u: np.zeros(len(u)), dom, 5)
    assert x[0] == 0.0


def test_grid_sup_rejects_high_dimensions_and_empty_domains():
    dom4 = numerics.Domain(4, np.array([[-1.0, 1.0]] * 4), everywhere, np.zeros(4))
    with pytest.raises(ValueError):
        numerics.grid_sup(lambda u: np.zeros(len(u)), dom4, 3)
    # Membership accepts only a sliver that every grid node misses.
    sliver = numerics.Domain(1, np.array([[0.0, 1.0]]),
                             lambda u: np.abs(u[..., 0] - 0.41) < 0.01,
                             np.array([0.41]))
    with pytest.raises(DomainError):
        numerics.grid_sup(lambda u: np.zeros(len(u)), sliver, 5)


def test_grid_sup_rejects_nonfinite_values():
    dom = numerics.Domain(1, np.array([[0.0, 1.0]]), everywhere, np.array([0.5]))
    with pytest.raises(EvaluationError, match=r"at \[0\.0\]"):
        numerics.grid_sup(lambda u: np.full(len(u), math.inf), dom, 5)


def _grid_sup_reference(f, domain, points_per_axis):
    """The point-by-point grid supremum: one scalar call per grid point."""
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in domain.bounding_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    best_x, best_v = None, -math.inf
    for row in np.stack([m.ravel() for m in mesh], axis=-1):
        if domain.membership(row):
            v = float(f(row[None])[0])
            if v > best_v:
                best_x, best_v = row, v
    return best_x, best_v


@pytest.mark.parametrize("n, per_axis", [(1, 23), (2, 17), (3, 11)])
def test_grid_sup_matches_point_by_point_reference(n, per_axis):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    a = a @ a.T + np.eye(n)
    center = rng.uniform(-0.5, 0.5, size=n)
    box = np.stack([-1.0 - rng.uniform(size=n), 1.0 + rng.uniform(size=n)], axis=-1)
    dom = numerics.Domain(n, box, lambda u: np.linalg.norm(u - 0.2, axis=-1) < 1.1,
                          np.full(n, 0.2))
    f = lambda u: -np.einsum("ki,ij,kj->k", u - center, a, u - center)
    x, v = numerics.grid_sup(f, dom, per_axis)
    ref_x, ref_v = _grid_sup_reference(f, dom, per_axis)
    assert v == ref_v
    assert np.array_equal(x, ref_x)


def test_grid_sup_ties_within_and_across_slabs():
    box = np.array([[-1.0, 1.0]] * 2)  # 5 points per axis: -1, -0.5, 0, 0.5, 1
    dom = numerics.Domain(2, box, everywhere, np.zeros(2))
    # every point of the slab u1 = 0 ties: the lowest u2 wins
    x, v = numerics.grid_sup(lambda u: -u[:, 0] ** 2, dom, 5)
    assert v == 0.0 and np.array_equal(x, [0.0, -1.0])
    # u2 = 0 ties in every slab: the first slab wins
    x, _ = numerics.grid_sup(lambda u: -u[:, 1] ** 2, dom, 5)
    assert np.array_equal(x, [-1.0, 0.0])
    # ...and when the first slab holds no member, the next one does
    later = numerics.Domain(2, box, lambda u: u[..., 0] > -0.9, np.zeros(2))
    x, _ = numerics.grid_sup(lambda u: -u[:, 1] ** 2, later, 5)
    assert np.array_equal(x, [-0.5, 0.0])
    # a tie across slabs never displaces the earlier one
    x, _ = numerics.grid_sup(lambda u: np.where(u[:, 1] > 0.7, 1.0, 0.0), dom, 5)
    assert np.array_equal(x, [-1.0, 1.0])


def test_grid_sup_evaluates_members_only():
    dom = numerics.Domain(2, np.array([[-1.0, 1.0]] * 2),
                          lambda u: u[..., 0] < 0.7, np.zeros(2))
    nan_outside = lambda u: np.where(u[:, 0] < 0.7, -u[:, 1] ** 2, math.nan)
    x, v = numerics.grid_sup(nan_outside, dom, 5)
    assert v == 0.0 and np.array_equal(x, [-1.0, 0.0])
    # a non-finite value at a member is an error, not a skipped point
    nan_inside = lambda u: np.where(u[:, 0] == 0.5, math.nan, 0.0)
    with pytest.raises(EvaluationError):
        numerics.grid_sup(nan_inside, dom, 5)
    with pytest.raises(DomainError):
        numerics.grid_sup(nan_inside, numerics.Domain(
            2, np.array([[-1.0, 1.0]] * 2), lambda u: np.linalg.norm(u, axis=-1) < 0.1,
            np.zeros(2)), 2)


def test_domain_validation():
    with pytest.raises(ValueError):
        numerics.Domain(2, np.array([[0.0, 1.0]]), lambda u: True, np.zeros(2))
    with pytest.raises(ValueError):
        numerics.Domain(1, np.array([[1.0, 0.0]]), lambda u: True,
                        np.array([0.5]))
    with pytest.raises(ValueError):
        numerics.Domain(1, np.array([[0.0, 1.0]]), lambda u: False,
                        np.array([0.5]))


def test_row_dot_matches_per_row_dot_bitwise():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 5):
        a, b = rng.normal(size=(2, 200, n))
        assert numerics.row_dot(a, b).tolist() == [float(x @ y) for x, y in zip(a, b)]


def test_matrix2h_round_trip():
    m = numerics.Matrix2H(a=0.3, d=-0.7, x=0.2, y=0.4)
    arr = m.to_array()
    back = numerics.Matrix2H(arr[0, 0].real, arr[1, 1].real, arr[1, 0].real,
                             arr[1, 0].imag)
    assert back == m
    assert arr[0, 1] == arr[1, 0].conjugate()


def test_eigenvalues_of_mixed_state():
    m = numerics.Matrix2H(a=0.5, d=0.5, x=0.25)
    vals, vecs = numerics.eig_h2(m)
    assert np.allclose(vals, [0.25, 0.75])
    assert np.max(np.abs((vecs * vals) @ vecs.conj().T - m.to_array())) < 1e-14


def test_eigendecomposition_random_hermitian():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = numerics.Matrix2H(*rng.normal(size=4))
        vals, vecs = numerics.eig_h2(m)
        assert vals[0] <= vals[1]
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(2))) < 1e-13
        rec = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(rec - m.to_array())) < 1e-13


def test_spectral_exponential_and_logarithm_invert():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = numerics.Matrix2H(*(0.5 * rng.normal(size=4)))
        em = numerics.func_h2(m, math.exp)
        back = numerics.func_h2(em, math.log)
        assert np.max(np.abs(back.to_array() - m.to_array())) < 1e-12


def test_spectral_function_rejects_domain_violations():
    m = numerics.Matrix2H(a=-1.0, d=0.5, x=0.0)
    with pytest.raises(EvaluationError, match=r"spectrum \[-1\.0, 0\.5\]"):
        numerics.func_h2(m, math.log)
    with pytest.raises(EvaluationError):
        numerics.func_h2(m, math.sqrt)
