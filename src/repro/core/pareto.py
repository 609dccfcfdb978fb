"""Pareto dominance, front extraction, and front-quality metrics.

All objectives are minimized, matching the paper (execution time, energy,
P-cores, E-cores in Fig. 1; negated utility and power during runtime
exploration).  Includes the two front-comparison metrics used in Fig. 5:
Inverted Generational Distance (IGD) and the ratio of common operating
points between predicted and reference fronts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if ``a`` Pareto-dominates ``b`` (all objectives minimized)."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have equal length")
    at_least_one_better = False
    for ai, bi in zip(a, b):
        if ai > bi:
            return False
        if ai < bi:
            at_least_one_better = True
    return at_least_one_better


def dominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of the dominated rows of an (n, m) objective matrix.

    Row ``i`` is marked when some row ``j`` is no worse in every objective
    and strictly better in at least one.  Duplicated rows never dominate
    each other, so all copies of a non-dominated point stay unmarked.  The
    pairwise comparison is fully vectorized: O(n² · m) numpy work instead
    of Python loops, which is what makes per-solve candidate pruning in the
    allocator affordable.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if len(pts) == 0:
        return np.zeros(0, dtype=bool)
    # le[j, i]: row j is <= row i in every objective;
    # lt[j, i]: row j is <  row i in at least one objective.
    diff = pts[:, None, :] - pts[None, :, :]
    le = (diff <= 0).all(axis=2)
    lt = (diff < 0).any(axis=2)
    return (le & lt).any(axis=0)


def dominated_cells(cost: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """``dominated_mask(np.column_stack([cost, cells]))`` over an integer grid.

    ``cells`` is an (n, m) matrix of small non-negative integers (core
    counts per type), so every row sits on one cell of a grid of
    ``prod(cells.max(axis=0) + 1)`` cells.  Row ``i`` at cell ``r`` is
    dominated iff a row at ``r`` costs strictly less, or a row at a cell
    ``r' <= r, r' != r`` costs no more.  ``cmin`` holds the least cost per
    cell, ``prefix`` is ``cmin`` prefix-minimised along every axis (least
    cost over ``r' <= r``), and ``strict[r] = min_k prefix[r - e_k]`` is
    the least cost over the strict predecessors of ``r``.  That is
    O(n + cells · m) work instead of the O(n² · m) pairwise tensor.

    Non-finite costs follow the pairwise form's float arithmetic exactly:
    a NaN or +inf row dominates nothing (so only finite and -inf costs
    enter ``cmin``), a NaN or -inf row is never dominated (``-inf -
    -inf`` is NaN), and a +inf row is dominated iff any finite or -inf
    row sits at a cell ``<= r``.
    """
    c = np.asarray(cost, dtype=float)
    grid = np.asarray(cells)
    if (
        c.ndim != 1 or grid.ndim != 2 or len(c) != len(grid)
        or grid.shape[1] == 0
    ):
        raise ValueError("cost must be (n,) and cells (n, m) with m >= 1")
    if len(c) == 0:
        return np.zeros(0, dtype=bool)
    idx = grid.astype(np.intp)
    if (idx != grid).any():
        raise ValueError("cells must be integer-valued")
    if (idx < 0).any():
        raise ValueError("cells must be non-negative")
    shape = tuple(idx.max(axis=0) + 1)
    flat = np.ravel_multi_index(tuple(idx.T), shape)
    enters = c < np.inf
    cmin = np.full(shape, np.inf)
    np.minimum.at(cmin.reshape(-1), flat[enters], c[enters])
    prefix = cmin
    for axis in range(len(shape)):
        prefix = np.minimum.accumulate(prefix, axis=axis)
    strict = np.full(shape, np.inf)
    for axis in range(len(shape)):
        upper = (slice(None),) * axis + (slice(1, None),)
        lower = (slice(None),) * axis + (slice(None, -1),)
        np.minimum(strict[upper], prefix[lower], out=strict[upper])
    at_cell = cmin.reshape(-1)[flat]
    below = strict.reshape(-1)[flat]
    dominated = np.where(
        c == np.inf,
        prefix.reshape(-1)[flat] < np.inf,
        (at_cell < c) | (below <= c),
    )
    dominated &= c != -np.inf
    return dominated


def pareto_front_indices(points: np.ndarray) -> list[int]:
    """Indices of the non-dominated rows of an (n, m) objective matrix.

    Duplicated non-dominated points are all kept.
    """
    mask = dominated_mask(points)
    return [int(i) for i in np.flatnonzero(~mask)]


def pareto_front(points: np.ndarray) -> np.ndarray:
    """The non-dominated subset of an objective matrix."""
    pts = np.asarray(points, dtype=float)
    return pts[pareto_front_indices(pts)]


def igd(reference_front: np.ndarray, approx_front: np.ndarray) -> float:
    """Inverted Generational Distance (lower is better).

    Average distance from each reference-front point to its nearest
    neighbour in the approximated front; objectives are normalized by the
    reference front's per-objective range so that differently scaled
    objectives contribute comparably.
    """
    ref = np.asarray(reference_front, dtype=float)
    approx = np.asarray(approx_front, dtype=float)
    if ref.size == 0:
        raise ValueError("reference front must be non-empty")
    if approx.size == 0:
        return float("inf")
    if ref.ndim != 2 or approx.ndim != 2 or ref.shape[1] != approx.shape[1]:
        raise ValueError("fronts must be 2-D with matching objective count")
    span = ref.max(axis=0) - ref.min(axis=0)
    span[span == 0] = 1.0
    ref_n = (ref - ref.min(axis=0)) / span
    approx_n = (approx - ref.min(axis=0)) / span
    dists = np.linalg.norm(
        ref_n[:, None, :] - approx_n[None, :, :], axis=2
    ).min(axis=1)
    return float(dists.mean())


def common_point_ratio(
    reference_keys: Sequence, approx_keys: Sequence
) -> float:
    """Fraction of reference-front configurations present in the approximated front.

    The Fig. 5 metric: operating points are identified by their
    configuration (ERV), not by their objective values.
    """
    ref = set(reference_keys)
    if not ref:
        raise ValueError("reference front must be non-empty")
    return len(ref & set(approx_keys)) / len(ref)
