"""Dyadic-scale helpers shared by the lattice-based modules.

All scale arithmetic in the library runs on exact powers of two, so scans
can work on integer lattice indices and stay free of float round-off.
The level-l ancestor of a level-k cell is `indices >> (k - l)` (a floor, so
negative ball-domain indices need no shift), and every grouping of cells
by equality or by ancestor goes through `group_rows`, which numbers the
groups in lexicographic row order.  Two 1-D counts skip it:
`projection.project_line` finds the occupied cells of a dense index range
with `np.bincount`, and `projection.box_counts` counts the steps between
the ancestors of sorted cells, which are sorted too.
Every (delta, s) spacing check, of point sets, direction nets and cap
subsets alike, is one `spacing_scan` over lattice rows given in any order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def dyadic_level(delta: float) -> int:
    """Return k such that delta == 2**-k, or raise if delta is not dyadic.

    Exact for every double, the subnormal 2^-1074 .. 2^-1023 included:
    delta = mantissa * 2^exponent is a power of two iff its mantissa is 1/2.
    """
    if not (0 < delta <= 1):
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    mantissa, exponent = math.frexp(delta)
    if mantissa != 0.5:
        raise DomainError(f"delta must be a power of two, got {delta}")
    return 1 - exponent


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


def max_cube_count(rows: np.ndarray, length: int) -> tuple[int, tuple]:
    """Max number of lattice rows in a closed axis-aligned cube of side `length`.

    `rows` has shape (n, d), in any order.  Returns (count, corner), corner
    the cube's lower lattice corner.  Sliding an optimal cube until each
    lower face touches a point never decreases the count, so the scan tries
    point coordinates only and still equals the max over all lattice anchors.
    The 1-D base (`max_window_count` of the sorted column) returns the
    smallest anchor among the maxima, and each level visits the distinct x
    in ascending order and replaces its best only on a strict >: the corner
    is the lexicographically smallest point-anchored one among the maxima,
    whatever the row order.
    """
    n, d = rows.shape
    if n == 0:
        return 0, (0,) * d
    if d == 1:
        c, start = max_window_count(np.sort(rows[:, 0]), length)
        return c, (start,)
    rows = rows[np.argsort(rows[:, 0])]
    col0 = rows[:, 0]
    xs = np.unique(col0)
    los, his = np.searchsorted(col0, xs), np.searchsorted(col0, xs + length, side="right")
    best, bwit = 0, (0,) * d
    for x, lo, hi in zip(xs.tolist(), los.tolist(), his.tolist()):
        c, wit = max_cube_count(rows[lo:hi, 1:], length)
        if c > best:
            best, bwit = c, (x,) + wit
    return best, bwit


def spacing_scan(rows: np.ndarray, k: int, exponent: float):
    """Exhaustive (delta, s)-condition scan of lattice rows, shape (n, d).

    For every dyadic r = 2**-m (0 <= m <= k, i.e. delta <= r <= 1) and every
    position on the delta-lattice, compares the point count in the closed
    axis-aligned cube of side r against (r/delta)**exponent.  The result
    does not depend on the row order (see `max_cube_count`).

    Returns (worst_ratio, witness) with witness = (r, corner), corner the
    lower corner's coordinates (index * delta) of the first worst cube.
    """
    worst = 0.0
    delta = 2.0 ** (-k)
    witness = (1.0, (0.0,) * rows.shape[1])
    for m in range(k + 1):
        length = 2 ** (k - m)
        count, corner = max_cube_count(rows, length)
        ratio = count / float(length) ** exponent
        if ratio > worst:
            worst = ratio
            witness = (2.0 ** (-m), tuple(c * delta for c in corner))
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
