"""Dyadic-scale helpers shared by the lattice-based modules.

All scale arithmetic in the library runs on exact powers of two, so scans
can work on integer lattice indices and stay free of float round-off.
The level-l ancestor of a level-k cell is `indices >> (k - l)` (a floor, so
negative ball-domain indices need no shift), and every grouping of cells
by equality or by ancestor goes through `group_rows`, which numbers the
groups in lexicographic row order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def dyadic_level(delta: float) -> int:
    """Return k such that delta == 2**-k, or raise if delta is not dyadic."""
    if not (0 < delta <= 1):
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    k = round(math.log2(1.0 / delta))
    if 2.0 ** (-k) != delta:
        raise DomainError(f"delta must be a power of two, got {delta}")
    return k


def max_window_count(indices: np.ndarray, length: float) -> tuple[int, int]:
    """Max number of sorted values in a closed window of `length`.

    Returns (count, window_start_value).  Sliding any real window until its
    left edge hits a point never decreases the count, so anchoring windows
    at the points themselves is an exhaustive scan over lattice positions
    (integer indices) or over all real positions (float values).
    """
    if indices.size == 0:
        return 0, 0
    ends = np.searchsorted(indices, indices + length, side="right")
    counts = ends - np.arange(indices.size)
    best = int(np.argmax(counts))
    return int(counts[best]), int(indices[best])


def spacing_scan(indices: np.ndarray, k: int, exponent: float):
    """Exhaustive (delta, s)-condition scan of a sorted 1-D index set.

    For every dyadic r = 2**-m (0 <= m <= k, i.e. delta <= r <= 1) and every
    window position on the delta-lattice, compares the point count in the
    closed length-r window against (r/delta)**exponent.

    Returns (worst_ratio, witness) with witness = (r, window_start_value).
    """
    worst = 0.0
    witness = (1.0, 0.0)
    delta = 2.0 ** (-k)
    for m in range(k + 1):
        length = 2 ** (k - m)
        count, start = max_window_count(indices, length)
        ratio = count / float(length) ** exponent
        if ratio > worst:
            worst = ratio
            witness = (2.0 ** (-m), start * delta)
    return worst, witness


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of an (n, d) integer array.

    Returns (first, inverse) exactly as np.unique(rows, axis=0,
    return_index=True, return_inverse=True) does: groups are numbered in
    lexicographic row order, rows[first] are the distinct rows with first
    the lowest index of each group, and rows[first][inverse] == rows.
    """
    order = np.lexsort(rows.T[::-1])  # stable, so each group starts at its lowest index
    sorted_rows = rows[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def rows_in(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of `rows` that also occur among the rows of `table`."""
    _, inverse = group_rows(np.concatenate([rows, table]))
    hit = np.zeros(len(inverse) + 1, dtype=bool)
    hit[inverse[len(rows):]] = True
    return hit[inverse[: len(rows)]]
