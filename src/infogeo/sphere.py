"""Unit-sphere model: directions as data-set summaries of vectors.

Data sets are nonzero vectors in R^3; the summary map sends a vector to
its direction ``x / |x|``.  The entropy ``S(x) = -1 - |x| (ln|x| - 1)``
depends on the length only and peaks at length 1, so the maximizer over
a ray is the unit vector: models are points of the sphere.  The question
functions ``(x1/x3, x2/x3)`` chart the upper hemisphere.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .numerics import row_dot


def _as_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("expected a vector in R^3")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector has non-finite entries")
    return x


def sphere_mu(x) -> np.ndarray:
    """Direction ``x / |x|``; the zero vector has none."""
    x = _as_vector(x)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise DomainError("the zero vector has no direction")
    return x / r


def sphere_entropy(x) -> float:
    """``-1 - |x| (ln|x| - 1)``: maximal (value 0) exactly at |x| = 1."""
    x = _as_vector(x)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise DomainError("the zero vector is not an admissible data set")
    return -1.0 - r * (math.log(r) - 1.0)


def sphere_entropy_rows(xs: np.ndarray) -> np.ndarray:
    """:func:`sphere_entropy` of the nonzero vectors ``xs`` (..., 3).

    The row-wise form, without the checks: the lengths have the bits of
    the one-vector form, and numpy's log may differ from ``math.log`` in
    the last bit.
    """
    r = np.sqrt(row_dot(xs, xs))
    return -1.0 - r * (np.log(r) - 1.0)


def sphere_questions(x) -> np.ndarray:
    """Chart coordinates ``(x1/x3, x2/x3)`` on the upper hemisphere."""
    x = _as_vector(x)
    if x[2] <= 0.0:
        raise DomainError("chart covers only vectors with positive third component")
    return np.array([x[0] / x[2], x[1] / x[2]])


def sphere_from_questions(q) -> np.ndarray:
    """Unit vector of the upper hemisphere with the given chart values."""
    q = np.asarray(q, dtype=float)
    if q.shape != (2,):
        raise ValueError("expected two chart coordinates")
    v = np.array([q[0], q[1], 1.0])
    return v / float(np.linalg.norm(v))


def ray_maximizer(x) -> np.ndarray:
    """The entropy maximizer on the ray through ``x``: its direction."""
    return sphere_mu(x)
