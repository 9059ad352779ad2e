"""The 2x2 spectral helpers on stacks: each row of a stacked call has the
bits of the point call, a point call keeps its float and array types, and
a stack raises the error of its first failing row."""

import math

import numpy as np
import pytest

from infogeo import DomainError, EvaluationError
from infogeo.numerics import Matrix2H, eig_h2, func_h2
from infogeo.qubit import bloch_to_rho, gibbs_state, quantum_relative_entropy

ROWS = 240


def fields(m):
    return m.a, m.d, m.x, m.y


def row(m, i):
    return Matrix2H(*(float(f[i]) for f in fields(m)))


def same_bits(a, b):
    return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()


def bloch_rows(rng, count, rmax=1.0):
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(0.0, rmax, size=(count, 1))


@pytest.fixture(scope="module")
def matrices():
    """Random Hermitian matrices, with diagonal ones, multiples of the
    identity and zero off-diagonal parts mixed in."""
    rng = np.random.default_rng(31)
    m = rng.normal(size=(ROWS, 4)) * 10.0 ** rng.integers(-2, 3, size=(ROWS, 1))
    m[::7, 2:] = 0.0
    m[::11, 1] = m[::11, 0]
    m[::13, 3] = 0.0
    m[5] = 0.0
    return Matrix2H(*m.T)


def test_eig_h2_rows_equal_point_calls(matrices):
    vals, vecs = eig_h2(matrices)
    assert vals.shape == (ROWS, 2) and vecs.shape == (ROWS, 2, 2)
    for i in range(ROWS):
        v, w = eig_h2(row(matrices, i))
        assert v.shape == (2,) and w.shape == (2, 2) and w.dtype == complex
        assert v.tobytes() == vals[i].tobytes() and w.tobytes() == vecs[i].tobytes()


@pytest.mark.parametrize("g", [math.exp, math.atan, lambda v: v])
def test_func_h2_rows_equal_point_calls(matrices, g):
    m = matrices.scaled(0.1) if g is math.exp else matrices
    out = func_h2(m, g)
    assert all(f.shape == (ROWS,) for f in fields(out))
    for i in range(ROWS):
        point = func_h2(row(m, i), g)
        assert all(type(f) is float for f in fields(point))
        assert np.array(fields(point)).tobytes() == np.array(
            [f[i] for f in fields(out)]).tobytes()
    assert same_bits(out.to_array()[3], func_h2(row(m, 3), g).to_array())


def test_func_h2_stack_raises_the_first_failing_row():
    m = Matrix2H(a=np.array([1.0, 2.0, -1.0, 3.0, -4.0]), d=np.full(5, 0.5),
                 x=np.zeros(5), y=np.zeros(5))
    # log is undefined on row 2 and row 4; row 2's spectrum is named
    with pytest.raises(EvaluationError, match=r"undefined on spectrum \[-1\.0, 0\.5\]"):
        func_h2(m, math.log)
    # exp overflows (non-finite) on row 1 only
    big = Matrix2H(a=np.array([1.0, 800.0, 2.0]), d=np.zeros(3), x=np.zeros(3))
    with pytest.raises(EvaluationError, match=r"spectrum \[0\.0, 800\.0\]"):
        func_h2(big, lambda v: math.exp(v) if v < 700 else math.inf)
    # a non-finite row before an undefined one is the one reported
    mixed = Matrix2H(a=np.array([800.0, -1.0]), d=np.zeros(2), x=np.zeros(2))
    with pytest.raises(EvaluationError, match=r"non-finite on spectrum \[0\.0, 800\.0\]"):
        func_h2(mixed, lambda v: math.inf if v > 700 else math.sqrt(v + 0.5))


def test_bloch_to_rho_rows_equal_point_calls():
    us = bloch_rows(np.random.default_rng(32), ROWS)
    rho = bloch_to_rho(us)
    for i, u in enumerate(us):
        point = bloch_to_rho(u)
        assert all(isinstance(f, float) and np.ndim(f) == 0 for f in fields(point))
        assert np.array(fields(point)).tobytes() == np.array(
            [f[i] for f in fields(rho)]).tobytes()
    us[[17, 40]] *= 1.5                   # two rows outside the ball
    with pytest.raises(DomainError):
        bloch_to_rho(us)
    with pytest.raises(ValueError):
        bloch_to_rho(np.zeros((3, 2)))


def test_gibbs_state_rows_equal_point_calls():
    rng = np.random.default_rng(33)
    thetas = bloch_rows(rng, ROWS) * rng.uniform(0.0, 15.0, size=(ROWS, 1))
    thetas[0] = 0.0
    states = gibbs_state(thetas)
    for i, th in enumerate(thetas):
        point = gibbs_state(th)
        assert all(type(f) is float for f in fields(point))
        assert np.array(fields(point)).tobytes() == np.array(
            [f[i] for f in fields(states)]).tobytes()
    # exp overflows past |theta| ~ 709.8: the first such row raises
    thetas[[30, 9]] = [[800.0, 0.0, 0.0], [0.0, 0.0, -750.0]]
    with pytest.raises(EvaluationError, match=r"spectrum \[-750\.0, 750\.0\]"):
        gibbs_state(thetas)


def test_relative_entropy_rows_equal_point_calls():
    rng = np.random.default_rng(34)
    us = bloch_rows(rng, ROWS)
    us[:4] /= np.linalg.norm(us[:4], axis=1, keepdims=True)     # pure states
    thetas = bloch_rows(rng, ROWS) * rng.uniform(0.0, 15.0, size=(ROWS, 1))
    sigmas = bloch_rows(rng, ROWS, rmax=0.999)
    for rho, sigma in ((bloch_to_rho(us), gibbs_state(thetas)),
                       (bloch_to_rho(us), bloch_to_rho(sigmas))):
        values = quantum_relative_entropy(rho, sigma)
        assert values.shape == (ROWS,)
        for i in range(ROWS):
            point = quantum_relative_entropy(row(rho, i), row(sigma, i))
            assert type(point) is float
            assert np.float64(point).tobytes() == values[i].tobytes()


def test_relative_entropy_stack_raises_the_first_failing_row():
    us = bloch_rows(np.random.default_rng(35), 10, rmax=0.9)
    rho, sigma = bloch_to_rho(us), gibbs_state(np.zeros((10, 3)))
    singular = bloch_to_rho(np.array([0.0, 0.0, -1.0]))      # sigma = |down><down|
    up = bloch_to_rho(np.array([0.0, 0.0, 1.0]))

    def with_rows(m, rows):
        out = [f.copy() for f in fields(m)]
        for i, r in rows.items():
            for f, v in zip(out, fields(r)):
                f[i] = v
        return Matrix2H(*out)

    nonpsd = Matrix2H(a=1.5, d=-0.5, x=0.0)
    # one bad row raises the error it raises alone
    with pytest.raises(EvaluationError):
        quantum_relative_entropy(with_rows(rho, {6: up}), with_rows(sigma, {6: singular}))
    with pytest.raises(DomainError):
        quantum_relative_entropy(with_rows(rho, {6: nonpsd}), sigma)
    # with several, the lowest row's error
    with pytest.raises(EvaluationError):
        quantum_relative_entropy(with_rows(rho, {3: up, 8: nonpsd}),
                                 with_rows(sigma, {3: singular}))
    with pytest.raises(DomainError):
        quantum_relative_entropy(with_rows(rho, {3: nonpsd, 8: up}),
                                 with_rows(sigma, {8: singular}))
    # the rows without a bad row still evaluate
    assert np.all(quantum_relative_entropy(rho, sigma) >= -1e-12)
