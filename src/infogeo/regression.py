"""Least-squares lines as data-set summaries of scatter plots.

A data set is a list of points ``(x_i, y_i)``.  The two question
functions are moment ratios whose answers are exactly the ordinary
least-squares slope and intercept, and the entropy is a negative
quadratic in the residuals plus the spread of the y values.  Both are
averages of pairwise functions of two points; the O(n) implementations
below use accumulated moments, with the literal O(n^2) pairwise sums
kept as oracles.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import DegeneracyError, EvaluationError


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of points")
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    return pts


def _moments(pts: np.ndarray):
    """Accumulated moments ``(n, Sx, Sy, Sxx, Sxy, Syy)`` and the
    denominator ``n Sxx - Sx^2``, summed without numpy overflow warnings.

    Raises :class:`EvaluationError` when the denominator overflows and
    :class:`DegeneracyError` when it is not positive.
    """
    n = pts.shape[0]
    x, y = pts[:, 0], pts[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        sx, sy = float(x.sum()), float(y.sum())
        sxx, sxy, syy = float(x @ x), float(x @ y), float(y @ y)
    # Python floats: products overflow to inf where ** 2 would raise
    z = n * sxx - sx * sx
    if not np.isfinite(z):
        raise EvaluationError("the x moments overflow; rescale the x values")
    if z <= 0.0:
        raise DegeneracyError("x values are all equal; the line is not determined")
    return n, sx, sy, sxx, sxy, syy, z


def _finite(value, what: str):
    if not np.isfinite(value).all():
        raise EvaluationError(f"the {what} overflows; rescale the points")
    return value


def regression_questions(points) -> np.ndarray:
    """Slope and intercept answers ``(q_a, q_b)`` from moment sums.

    q_a = [n Sxy - Sx Sy] / [n Sxx - Sx^2], q_b = [Sxx Sy - Sx Sxy] / same;
    these coincide with the least-squares line through the points.
    """
    n, sx, sy, sxx, sxy, _, z = _moments(_as_points(points))
    return _finite(np.array([(n * sxy - sx * sy) / z, (sxx * sy - sx * sxy) / z]),
                   "line")


def regression_entropy(points) -> float:
    """Negative spread functional, maximal (over y patterns with fixed
    answers) when the points are collinear.

    Equals ``-[2 (Sxx Syy - Sxy^2) + 2 (n Syy - Sy^2)] / (2 [n Sxx - Sx^2])``
    in accumulated moments; for points exactly on ``y = a x + b`` the
    value is ``-a^2 - b^2``.
    """
    n, sx, sy, sxx, sxy, syy, z = _moments(_as_points(points))
    return _finite(-(2.0 * (sxx * syy - sxy * sxy) + 2.0 * (n * syy - sy * sy))
                   / (2.0 * z), "entropy")


def regression_questions_pairwise(points) -> np.ndarray:
    """O(n^2) oracle for :func:`regression_questions`: averages of
    two-point slope and intercept formulas weighted by (x_i - x_j)^2."""
    pts = _as_points(points)
    num_a = num_b = den = 0.0
    for xi, yi in pts:
        for xj, yj in pts:
            w = (xi - xj) ** 2
            den += w
            if w > 0.0:
                # two-point slope (yi-yj)/(xi-xj) and intercept
                # (yj xi - yi xj)/(xi-xj), weighted by (xi-xj)^2
                num_a += w * (yi - yj) / (xi - xj)
                num_b += w * (yj * xi - yi * xj) / (xi - xj)
    if den == 0.0:
        raise DegeneracyError("x values are all equal; the line is not determined")
    return np.array([num_a / den, num_b / den])


def regression_entropy_pairwise(points) -> float:
    """O(n^2) oracle for :func:`regression_entropy` via double sums."""
    pts = _as_points(points)
    cross = spread = den = 0.0
    for xi, yi in pts:
        for xj, yj in pts:
            den += (xi - xj) ** 2
            cross += (xi * yj - xj * yi) ** 2
            spread += (yi - yj) ** 2
    if den == 0.0:
        raise DegeneracyError("x values are all equal; the line is not determined")
    return -(cross + spread) / den


def regression_is_perfect(points, tol: float = 1e-10) -> bool:
    """True when every point lies on the fitted line within ``tol``."""
    pts = _as_points(points)
    a, b = regression_questions(pts)
    residual = pts[:, 1] - (a * pts[:, 0] + b)
    return bool(np.max(np.abs(residual)) <= tol)


def regression_embed(a: float, b: float, xs) -> np.ndarray:
    """Points of the line ``y = a x + b`` over the abscissas ``xs``."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("need at least two abscissas")
    return np.stack([xs, a * xs + b], axis=-1)


def load_pairs(text_or_path: str, from_string: bool = False) -> np.ndarray:
    """Read an (n, 2) point list from two-column CSV.

    A non-numeric first row is treated as a header and skipped.
    """
    if from_string:
        fh = io.StringIO(text_or_path)
    else:
        fh = open(text_or_path, "r", encoding="utf-8", newline="")
    try:
        rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    finally:
        fh.close()
    if not rows:
        raise ValueError("empty point file")
    start = 0
    try:
        float(rows[0][0])
    except (ValueError, IndexError):
        start = 1
    pts = []
    for i, row in enumerate(rows[start:], start=start):
        if len(row) < 2:
            raise ValueError(f"row {i} does not have two columns")
        pts.append((float(row[0]), float(row[1])))
    return _as_points(pts)
