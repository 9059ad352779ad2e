"""Unit-sphere model: directions as data-set summaries of vectors.

Data sets are nonzero vectors in R^3, summarized by their direction
``x / |x|``; the entropy ``-1 - |x| (ln|x| - 1)`` peaks at |x| = 1, so the
models are points of the sphere, and ``(x1/x3, x2/x3)`` chart its upper
half.  Each function takes one vector or a stack ``(..., n)``, gives each
the bits of its own call, and raises the error of the first bad one (an
EvaluationError where a value overflows, without a numpy warning).
"""

import numpy as np

from .errors import DomainError, EvaluationError
from .numerics import raise_first, row_norm


def _rows(x, size: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (size,):
        raise ValueError(f"expected a vector of {size} entries, or a stack of them")
    return x


def _nonfinite(x: np.ndarray):
    """The check, for :func:`raise_first`, that comes first on every vector."""
    return ~np.isfinite(x).all(axis=-1), ValueError("non-finite entries")


def _directions(x: np.ndarray) -> np.ndarray:
    """``x / |x|``, from ``x / max|x_j|`` where ``|x|`` is subnormal or inf."""
    r = row_norm(x)
    normal = (r >= 2.2250738585072014e-308) & (r < np.inf)    # the smallest normal double
    if np.count_nonzero(normal) < normal.size:
        raise_first(_nonfinite(x),
                    (r == 0.0, DomainError("the zero vector has no direction")))
        scaled = x / np.abs(x).max(axis=-1, keepdims=True)
        x, r = np.where(normal[..., None], x, scaled), np.where(normal, r, row_norm(scaled))
    return (x.T / r.T).T


def sphere_mu(x) -> np.ndarray:
    """Direction ``x / |x|``; the zero vector has none."""
    return _directions(_rows(x, 3))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def sphere_entropy(x):
    """``-1 - |x| (ln|x| - 1)``: maximal (value 0) exactly at |x| = 1."""
    x = _rows(x, 3)
    r = row_norm(x)
    s = -1.0 - r * (np.log(r) - 1.0)
    if np.count_nonzero(~(s > -np.inf)):     # NaN where |x| is 0 or not finite
        raise_first(_nonfinite(x), (r == 0.0, DomainError("the zero vector has no entropy")),
                    (np.isinf(s), EvaluationError("the entropy overflows: |x| >~ 2.6e305")))
    return s


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def sphere_questions(x) -> np.ndarray:
    """Chart coordinates ``(x1/x3, x2/x3)`` on the upper hemisphere."""
    x = _rows(x, 3)
    q = (x.T[:2] / x.T[2]).T
    # q1 + q2 + x3 is not finite where an entry or a coordinate is not; a
    # sum that overflows by itself only makes the checks run
    if np.count_nonzero(~((x.T[2] > 0.0) & np.isfinite(q.T[0] + q.T[1] + x.T[2]))):
        raise_first(_nonfinite(x),
                    (x[..., 2] <= 0.0, DomainError("chart covers only x3 > 0")),
                    (np.isinf(q).any(axis=-1), EvaluationError("x1/x3 or x2/x3 overflows")))
    return q


def sphere_from_questions(q) -> np.ndarray:
    """Unit vector of the upper hemisphere with the given chart values."""
    q = _rows(q, 2)
    return _directions(np.concatenate([q, np.ones(q.shape[:-1] + (1,))], axis=-1))


#: The entropy maximizer on the ray through ``x``: its direction.
ray_maximizer = sphere_mu
