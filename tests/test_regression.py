"""Linear-regression data sets: least-squares answers from accumulated
moments, the spread entropy, pairwise oracles, and point-file parsing."""

import numpy as np
import pytest

from infogeo import DegeneracyError, EvaluationError
from infogeo.regression import (
    load_pairs,
    regression_embed,
    regression_entropy,
    regression_entropy_pairwise,
    regression_is_perfect,
    regression_questions,
    regression_questions_pairwise,
)


def test_collinear_points_recover_the_line():
    pts = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]])
    assert np.allclose(regression_questions(pts), [2.0, 1.0], atol=1e-12)
    assert regression_entropy(pts) == pytest.approx(-5.0, abs=1e-12)
    assert regression_is_perfect(pts)


def test_two_points_define_a_line():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert np.allclose(regression_questions(pts), [1.0, 0.0], atol=1e-14)
    assert regression_entropy(pts) == pytest.approx(-1.0, abs=1e-14)
    assert regression_is_perfect(pts)


def test_scattered_points_worked_example():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    assert np.allclose(regression_questions(pts), [0.0, 1.0 / 3.0], atol=1e-12)
    assert regression_entropy(pts) == pytest.approx(-1.0, abs=1e-12)
    assert not regression_is_perfect(pts)


def test_least_squares_agreement_random():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = rng.integers(2, 40)
        x = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        if np.ptp(x) < 1e-6:
            continue
        y = rng.normal(size=n)
        pts = np.stack([x, y], axis=-1)
        design = np.stack([x, np.ones(n)], axis=-1)
        expect, *_ = np.linalg.lstsq(design, y, rcond=None)
        got = regression_questions(pts)
        assert np.max(np.abs(got - expect)) <= 1e-8 * max(
            1.0, float(np.max(np.abs(expect))))


def test_pairwise_oracles_match_moment_forms():
    rng = np.random.default_rng(16)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        pts = np.stack([rng.normal(size=n) * 2.0, rng.normal(size=n)], axis=-1)
        if np.ptp(pts[:, 0]) < 1e-6:
            continue
        assert np.allclose(regression_questions_pairwise(pts),
                           regression_questions(pts), atol=1e-9)
        assert regression_entropy_pairwise(pts) == pytest.approx(
            regression_entropy(pts), abs=1e-9)


def test_perfect_data_entropy_law():
    rng = np.random.default_rng(20)
    for _ in range(50):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        xs = np.sort(rng.uniform(-3.0, 3.0, size=int(rng.integers(2, 20))))
        if np.ptp(xs) < 1e-6:
            continue
        pts = regression_embed(a, b, xs)
        assert regression_entropy(pts) == pytest.approx(
            -a * a - b * b, abs=1e-9)
        assert regression_is_perfect(pts, tol=1e-8)


def test_translation_shifts_only_the_intercept():
    pts = np.array([[0.0, 0.5], [1.0, 1.0], [2.0, 2.5], [3.0, 2.0]])
    shifted = pts + np.array([0.0, 1.5])
    qa, qb = regression_questions(pts)
    qa2, qb2 = regression_questions(shifted)
    assert qa2 == pytest.approx(qa, abs=1e-12)
    assert qb2 == pytest.approx(qb + 1.5, abs=1e-12)


def test_degenerate_abscissas_rejected():
    with pytest.raises(DegeneracyError):
        regression_questions(np.array([[1.0, 0.0], [1.0, 2.0]]))
    with pytest.raises(DegeneracyError):
        regression_entropy_pairwise(np.array([[2.0, 1.0], [2.0, -1.0]]))


def test_point_validation():
    with pytest.raises(ValueError):
        regression_questions(np.array([[1.0, 2.0]]))  # one point
    with pytest.raises(ValueError):
        regression_questions(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        regression_embed(1.0, 0.0, np.array([5.0]))


def test_load_pairs_variants(tmp_path):
    body = "x,y\n0,1\n1,3\n2,5\n"
    assert np.allclose(load_pairs(body, from_string=True),
                       [[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]])
    no_header = "0,1\n1,3\n"
    assert np.allclose(load_pairs(no_header, from_string=True),
                       [[0.0, 1.0], [1.0, 3.0]])
    path = tmp_path / "points.csv"
    path.write_text(body)
    assert np.allclose(load_pairs(str(path)), [[0, 1], [1, 3], [2, 5]])
    with pytest.raises(ValueError):
        load_pairs("", from_string=True)
    with pytest.raises(ValueError):
        load_pairs("x,y\n1\n", from_string=True)


def test_overflowing_moments_are_an_evaluation_error():
    # n Sxx - Sx^2 is inf - inf here: the x values are not all equal, the
    # moments overflow
    pts = load_pairs("x,y\n0,1\n1e200,2\n2,3\n", from_string=True)
    for answer in (regression_questions, regression_entropy, regression_is_perfect):
        with pytest.raises(EvaluationError, match="overflow"):
            answer(pts)
