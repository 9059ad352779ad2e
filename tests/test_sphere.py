"""Unit-sphere toy model: directions, radial entropy profile, and the
upper-hemisphere chart."""

import math

import numpy as np
import pytest

from infogeo import DomainError
from infogeo.sphere import (
    ray_maximizer,
    sphere_entropy,
    sphere_entropy_rows,
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
    # the verify check "ray-entropy-peak": the row form has the scalar
    # form's lengths, and its log may differ from math.log in the last bit
    rng = np.random.default_rng(23)
    radii = np.linspace(0.05, 3.0, 60)
    dirs = rng.normal(size=(500, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = radii[:, None] * dirs[:, None, :]
    values = sphere_entropy_rows(points)
    scalar = np.array([[sphere_entropy(p) for p in ray] for ray in points])
    r = np.linalg.norm(points, axis=-1)
    eps = np.finfo(float).eps
    assert np.all(np.abs(values - scalar) <= 4 * eps * (1.0 + r * (np.abs(np.log(r)) + 1.0)))
    assert np.argmax(values, axis=1).tolist() == np.argmax(scalar, axis=1).tolist()
