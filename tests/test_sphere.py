"""Unit-sphere toy model: directions, radial entropy profile, and the
upper-hemisphere chart."""

import json
import math

import numpy as np
import pytest

from infogeo import DomainError, EvaluationError
from infogeo.sphere import (
    ray_maximizer,
    sphere_entropy,
    sphere_from_questions,
    sphere_mu,
    sphere_questions,
)


def test_sphere_mu_normalizes():
    assert np.allclose(sphere_mu(np.array([0.0, 0.0, 2.0])), [0.0, 0.0, 1.0])
    assert np.allclose(sphere_mu(np.array([3.0, 4.0, 0.0])), [0.6, 0.8, 0.0])
    with pytest.raises(DomainError):
        sphere_mu(np.zeros(3))
    with pytest.raises(ValueError):
        sphere_mu(np.array([1.0, 2.0]))


def test_sphere_entropy_profile():
    # Maximal (zero) exactly on the unit sphere.
    assert sphere_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    assert sphere_entropy(np.array([0.0, 0.0, 2.0])) == pytest.approx(
        -0.3862943611198906, abs=1e-15)
    assert sphere_entropy(np.array([0.0, 0.5, 0.0])) == pytest.approx(
        -1.0 - 0.5 * (math.log(0.5) - 1.0), abs=1e-15)
    with pytest.raises(DomainError):
        sphere_entropy(np.zeros(3))


def test_sphere_entropy_is_nonpositive_on_rays():
    rng = np.random.default_rng(14)
    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = rng.uniform(0.05, 3.0)
        value = sphere_entropy(direction * r)
        assert value <= 1e-15
        if abs(r - 1.0) > 1e-6:
            assert value < 0.0


def test_ray_maximizer_is_the_direction():
    x = np.array([0.3, -1.2, 0.4])
    assert np.allclose(ray_maximizer(x), x / np.linalg.norm(x), atol=1e-15)


def test_sphere_questions_chart():
    assert np.allclose(sphere_questions(np.array([1.0, 0.0, 1.0])), [1.0, 0.0])
    assert np.allclose(sphere_questions(np.array([2.0, 4.0, 2.0])), [1.0, 2.0])
    with pytest.raises(DomainError):
        sphere_questions(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        sphere_questions(np.array([1.0, 0.0, -0.5]))


def test_sphere_from_questions_inverts_chart():
    v = sphere_from_questions(np.array([1.0, 0.0]))
    assert np.allclose(v, [1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)],
                       atol=1e-15)
    rng = np.random.default_rng(18)
    for _ in range(50):
        q = rng.uniform(-4.0, 4.0, size=2)
        v = sphere_from_questions(q)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.allclose(sphere_questions(v), q, atol=1e-12)
    with pytest.raises(ValueError):
        sphere_from_questions(np.array([1.0, 2.0, 3.0]))


def test_ray_scan_on_arrays_matches_the_scalar_scan():
    # the verify check "ray-entropy-peak": the rays (500, 60, 3) in one
    # call, each point with the bits of its own call
    rng = np.random.default_rng(23)
    radii = np.linspace(0.05, 3.0, 60)
    dirs = rng.normal(size=(500, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = radii[:, None] * dirs[:, None, :]
    values = sphere_entropy(points)
    scalar = np.array([[sphere_entropy(p) for p in ray] for ray in points])
    assert values.shape == (500, 60)
    assert values.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e154, 1e-155, 1e-320])
def test_extreme_lengths_give_finite_values(scale):
    # the sum of squares overflows or underflows at these lengths, and the
    # length itself is subnormal at 1e-320; the direction, entropy and
    # chart stay finite and accurate
    x = np.array([1.0, 0.0, 1.0]) * scale
    r = math.sqrt(2.0) * scale
    assert sphere_mu(x).tolist() == pytest.approx([2 ** -0.5, 0.0, 2 ** -0.5],
                                                  rel=1e-15)
    assert sphere_entropy(x) == pytest.approx(-1.0 - r * (math.log(r) - 1.0),
                                              rel=1e-15)
    assert sphere_questions(x).tolist() == [1.0, 0.0]
    # a chart coordinate past 1e154, or a subnormal one (1 / 1e-320
    # overflows), still gives the unit vector
    q = 1.0 / scale if 1e-300 < scale < 1.0 else scale
    assert sphere_from_questions(np.array([q, 0.0])).tolist() == pytest.approx(
        [q / math.hypot(q, 1.0), 0.0, 1.0 / math.hypot(q, 1.0)], rel=1e-15)


def test_overflowing_values_are_evaluation_errors():
    # the entropy overflows from |x| ~ 2.6e305 on, a chart coordinate
    # where x3 is small against x1 or x2; a finite vector longer than the
    # largest double still has a direction
    assert sphere_entropy(np.array([2.5e305, 0.0, 0.0])) == pytest.approx(
        -1.7555118602376454e308, rel=1e-15)
    with pytest.raises(EvaluationError, match="entropy overflows"):
        sphere_entropy(np.array([2.6e305, 0.0, 0.0]))
    with pytest.raises(EvaluationError, match="entropy overflows"):
        sphere_entropy(np.full(3, 1.7e308))
    assert sphere_mu(np.full(3, 1.7e308)).tolist() == pytest.approx([3 ** -0.5] * 3,
                                                                    rel=1e-15)
    with pytest.raises(EvaluationError, match="x1/x3 or x2/x3 overflows"):
        sphere_questions(np.array([1e300, 0.0, 1e-10]))
    assert sphere_questions(np.array([1e300, 0.0, 1e-8])).tolist() == [1e308, 0.0]


def test_extreme_lengths_on_the_command_line(capsys):
    from infogeo import cli
    for text, entropy in (("1e200,0,1e200", -6.503453289154199e202),
                          ("1e-200,0,1e-200", -1.0), ("1e-320,0,1e-320", -1.0)):
        assert cli.main(["maxent", "--model", "sphere", "--x", text]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "ok"
        assert out["outputs"]["entropy"] == pytest.approx(entropy, rel=1e-15)
        assert out["outputs"]["direction"] == pytest.approx([2 ** -0.5, 0.0, 2 ** -0.5],
                                                            rel=1e-15)
        assert out["outputs"]["reconstruction"] == pytest.approx(out["outputs"]["direction"],
                                                                 rel=1e-15)
    for text in ("3e305,0,1", "1e300,0,1e-10"):
        assert cli.main(["maxent", "--model", "sphere", "--x", text]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "error:evaluation"
