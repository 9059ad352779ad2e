"""Least-squares lines as data-set summaries of scatter plots.

A data set is a list of points ``(x_i, y_i)``.  The two question
functions are moment ratios whose answers are exactly the ordinary
least-squares slope and intercept, and the entropy is a negative
quadratic in the residuals plus the spread of the y values.  Both are
averages of pairwise functions of two points; the O(n) implementations
below use accumulated moments, with the literal O(n^2) pairwise sums
kept as oracles.

Each function takes one point set ``(n, 2)`` and gives its value, or a
stack of sets and gives one value per set: an array ``(k, n, 2)``, or a
list of sets ``(n_i, 2)`` of any sizes (a ragged stack).  The sets are
evaluated in groups of one size, each group in one pass, and every set
keeps the bits of its one-set call.  A bad set raises the error it
raises alone; in a stack, that of the lowest bad set.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DegeneracyError, EvaluationError
from .numerics import raise_first, row_dot


def _shape_error(shape) -> ValueError | None:
    """The error of a point set of the array shape ``shape``, if any."""
    if len(shape) != 2 or shape[1] != 2:
        return ValueError("expected an (n, 2) array of points")
    if shape[0] < 2:
        return ValueError("need at least two points")
    return None


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    error = _shape_error(pts.shape)
    if error is not None:
        raise error
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    return pts


def size_groups(sets) -> list[tuple[np.ndarray, np.ndarray]]:
    """The point sets ``sets`` (a list of ``(n_i, 2)`` arrays) grouped by
    size: ``(indices, stack (g, n, 2))`` for each size, in the order of
    first appearance, where ``stack[j]`` is ``sets[indices[j]]``."""
    by_size = {}
    for i, pts in enumerate(sets):
        by_size.setdefault(len(pts), []).append(i)
    return [(np.array(idx), np.stack([sets[i] for i in idx]))
            for idx in by_size.values()]


def _on_sets(kernel, points):
    """``kernel`` on the sets of ``points``: the value of one set, or the
    values of a stack, one per set in order.

    One set, an array stack and a ragged list all take one path: the
    sets are grouped by size, and each group is one kernel call.
    ``kernel`` maps a stack ``(g, n, 2)`` of sets of one size to
    ``(values (g, ...), checks)``, where ``checks`` lists ``(failed (g,),
    error)`` in the order a one-set call meets them; it runs without
    numpy warnings.  Each check becomes one mask over all sets, after the
    shape and non-finite checks, and :func:`raise_first` raises the first
    error of the lowest failing set.
    """
    if isinstance(points, (list, tuple)) and points and np.ndim(points[0]) == 2:
        single, sets = False, [np.asarray(s, dtype=float) for s in points]
    else:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim != 3
        sets = [pts] if single else list(pts)
    if not sets:
        raise ValueError("expected at least one point set")
    errors = [_shape_error(pts.shape) for pts in sets]
    good = np.array([i for i, error in enumerate(errors) if error is None], dtype=int)
    nonfinite = np.zeros(len(sets), dtype=bool)
    checks, results = {}, []    # kernel check index -> (mask over all sets, error)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for idx, stack in size_groups([sets[i] for i in good]):
            idx = good[idx]
            values, group_checks = kernel(stack)
            nonfinite[idx] = ~np.isfinite(stack).all(axis=(1, 2))
            for j, (failed, error) in enumerate(group_checks):
                checks.setdefault(j, (np.zeros(len(sets), dtype=bool), error))[0][idx] = failed
            results.append((idx, values))
    raise_first((np.array([error is not None for error in errors]), lambda i: errors[i]),
                (nonfinite, ValueError("points contain non-finite values")), *checks.values())
    if single:
        value = results[0][1][0]
        return value if value.ndim else value.item()
    shape, dtype = results[0][1].shape[1:], results[0][1].dtype
    out = np.empty((len(sets),) + shape, dtype=dtype)
    for idx, values in results:
        out[idx] = values
    return out


def _moments(pts: np.ndarray):
    """Accumulated moments ``(n, Sx, Sy, Sxx, Sxy, Syy)`` of each set of
    the stack ``pts`` (g, n, 2), the denominators ``n Sxx - Sx^2``, and
    the checks on them: :class:`EvaluationError` where a denominator
    overflows, :class:`DegeneracyError` where it is not positive.
    """
    n = pts.shape[1]
    x, y = pts[..., 0], pts[..., 1]
    sx, sy = x.sum(axis=1), y.sum(axis=1)
    sxx, sxy, syy = row_dot(x, x), row_dot(x, y), row_dot(y, y)
    z = n * sxx - sx * sx
    checks = [(~np.isfinite(z),
               EvaluationError("the x moments overflow; rescale the x values")),
              (z <= 0.0,
               DegeneracyError("x values are all equal; the line is not determined"))]
    return (n, sx, sy, sxx, sxy, syy, z), checks


def _overflow(values: np.ndarray, what: str):
    """The check that each set's ``values`` are finite."""
    finite = np.isfinite(values)
    if finite.ndim > 1:
        finite = finite.all(axis=-1)
    return ~finite, EvaluationError(f"the {what} overflows; rescale the points")


def _lines(pts: np.ndarray):
    (n, sx, sy, sxx, sxy, _, z), checks = _moments(pts)
    lines = np.empty((len(pts), 2))
    lines[:, 0] = (n * sxy - sx * sy) / z
    lines[:, 1] = (sxx * sy - sx * sxy) / z
    return lines, checks + [_overflow(lines, "line")]


def regression_questions(points) -> np.ndarray:
    """Slope and intercept answers ``(q_a, q_b)`` from moment sums, ``(2,)``
    for one set or ``(k, 2)`` for a stack.

    q_a = [n Sxy - Sx Sy] / [n Sxx - Sx^2], q_b = [Sxx Sy - Sx Sxy] / same;
    these coincide with the least-squares line through the points.
    Raises :class:`DegeneracyError` when the x values are all equal and
    :class:`EvaluationError` when the moments or the line overflow.
    """
    return _on_sets(_lines, points)


def _entropies(pts: np.ndarray):
    (n, sx, sy, sxx, sxy, syy, z), checks = _moments(pts)
    values = (-(2.0 * (sxx * syy - sxy * sxy) + 2.0 * (n * syy - sy * sy))
              / (2.0 * z))
    return values, checks + [_overflow(values, "entropy")]


def regression_entropy(points):
    """Negative spread functional, maximal (over y patterns with fixed
    answers) when the points are collinear: a float for one set, ``(k,)``
    for a stack.

    Equals ``-[2 (Sxx Syy - Sxy^2) + 2 (n Syy - Sy^2)] / (2 [n Sxx - Sx^2])``
    in accumulated moments; for points exactly on ``y = a x + b`` the
    value is ``-a^2 - b^2``.
    """
    return _on_sets(_entropies, points)


def _pairwise(pts: np.ndarray):
    """The coordinates of the stack ``pts`` (g, n, 2) and the ``(g, n, n)``
    differences ``x_i - x_j``, ``y_i - y_j`` of all ordered pairs, and
    each set's ``sum (x_i - x_j)^2`` with its degeneracy check."""
    x, y = pts[..., 0], pts[..., 1]
    dx, dy = x[:, :, None] - x[:, None, :], y[:, :, None] - y[:, None, :]
    den = _pair_sums(dx * dx)
    check = (den == 0.0,
             DegeneracyError("x values are all equal; the line is not determined"))
    return x, y, dx, dy, den, check


def _pair_sums(terms: np.ndarray) -> np.ndarray:
    """The sum of each set's ``(n, n)`` pair terms, with the bits of the
    one-set ``terms.sum()``."""
    g, n, _ = terms.shape
    return terms.reshape(g, n * n).sum(axis=1)


def _pairwise_lines(pts: np.ndarray):
    x, y, dx, dy, den, check = _pairwise(pts)
    w = dx * dx
    # two-point slope (yi-yj)/(xi-xj) and intercept (yj xi - yi xj)/(xi-xj),
    # weighted by (xi-xj)^2, over the pairs with distinct x
    slopes = w * dy / dx
    intercepts = w * (y[:, None, :] * x[:, :, None] - y[:, :, None] * x[:, None, :]) / dx
    apart = w > 0.0
    g, n, _ = pts.shape
    offdiag = ~np.eye(n, dtype=bool)
    # Sum each set's terms off the diagonal in one pass: compress keeps
    # them in a C-ordered row, so each row sum has the bits of the one-set
    # masked sum.  A set with two equal x takes its own mask after.
    sums = np.empty((g, 2))
    for j, terms in enumerate((slopes, intercepts)):
        sums[:, j] = np.compress(offdiag.ravel(), terms.reshape(g, n * n),
                                 axis=1).sum(axis=1)
    for i in np.flatnonzero((apart != offdiag).any(axis=(1, 2))):
        sums[i] = slopes[i][apart[i]].sum(), intercepts[i][apart[i]].sum()
    lines = sums / den[:, None]
    return lines, [check, _overflow(lines, "line")]


def regression_questions_pairwise(points) -> np.ndarray:
    """O(n^2) oracle for :func:`regression_questions`: averages of
    two-point slope and intercept formulas weighted by (x_i - x_j)^2,
    summed over all ordered pairs at once.

    Raises :class:`DegeneracyError` when the x values are all equal and
    :class:`EvaluationError` when a sum overflows.
    """
    return _on_sets(_pairwise_lines, points)


def _pairwise_entropies(pts: np.ndarray):
    x, y, dx, dy, den, check = _pairwise(pts)
    cross = x[:, :, None] * y[:, None, :] - x[:, None, :] * y[:, :, None]
    values = -(_pair_sums(cross * cross) + _pair_sums(dy * dy)) / den
    return values, [check, _overflow(values, "entropy")]


def regression_entropy_pairwise(points):
    """O(n^2) oracle for :func:`regression_entropy` via sums over all
    ordered pairs of points.

    Raises :class:`DegeneracyError` when the x values are all equal and
    :class:`EvaluationError` when a sum overflows.
    """
    return _on_sets(_pairwise_entropies, points)


def _perfect(pts: np.ndarray):
    lines, checks = _lines(pts)
    x, y = pts[..., 0], pts[..., 1]
    residual = y - (lines[:, :1] * x + lines[:, 1:])
    return np.max(np.abs(residual), axis=1) <= 1e-10, checks


def regression_is_perfect(points):
    """True when every point lies on the fitted line within 1e-10: a bool
    for one set, ``(k,)`` for a stack."""
    return _on_sets(_perfect, points)


def load_pairs(path: str) -> np.ndarray:
    """Read an (n, 2) point list from a two-column CSV file.

    A non-numeric first row is treated as a header and skipped.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
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
