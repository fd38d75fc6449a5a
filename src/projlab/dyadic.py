"""Dyadic-scale helpers shared by the lattice-based modules.

All scale arithmetic in the library runs on exact powers of two, so scans
can work on integer lattice indices and stay free of float round-off.
The level-l ancestor of a level-k cell is `indices >> (k - l)` (a floor, so
negative ball-domain indices need no shift), and every grouping of cells
by equality or by ancestor goes through `group_rows`, which numbers the
groups in lexicographic row order.  A point set's cells are grouped by
ancestor once, bottom-up, in `fractal.PointSet.tree`; outside it only
`covering.validate_covering` (a covering's cubes) and `projection.box_counts`
above 1-D group shifted rows.  Two 1-D counts skip `group_rows`:
`projection.project_line` marks the occupied cells of a dense index range
in one bool array, and `projection.box_counts` counts the steps between
the ancestors of sorted cells, which are sorted too.
Every (delta, s) spacing check, of point sets, direction nets and cap
subsets alike, is one `spacing_scan` over lattice rows given in any order.
It counts every window at once on the rows' compressed grid (each axis cut
to its distinct coordinates), from one prefix-sum table built per scan; a
grid above CELL_BUDGET cells is cut into axis-0 slabs first.  The witness
is the lexicographically smallest anchored corner among the maxima, so it
does not depend on the row order or on the branch taken.
Every projection onto a direction, x -> x . v, is the one 3-term dot `dot3`,
and a pass that batches such dots over many points or directions works in
blocks of at most `_BLOCK` entries, never on one whole-batch gather.
Records that hold arrays lock them by `_readonly` and compare by `_Record`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import fields

import numpy as np

from .errors import DomainError


def _readonly(a) -> np.ndarray:
    """`a` if it is read-only and owns its data, else a read-only copy of it."""
    a = np.asarray(a)
    if a.flags.writeable or a.base is not None:
        a = a.copy()
        a.flags.writeable = False
    return a


def _same(a, b) -> bool:
    """Field equality for `_Record`: arrays by dtype, shape and content, mappings key by key."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is b or (type(a) is type(b) and a.dtype == b.dtype and np.array_equal(a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a is b or a == b


class _Record:
    """Base of the eq=False frozen dataclasses that hold arrays: equal by `_same`, unhashable."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        compared = (f.name for f in fields(self) if f.compare)
        return all(_same(getattr(self, n), getattr(other, n)) for n in compared)


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


#: entries per block of a batched pass over points or directions: a block's
#: float64 temporaries take 256 KB each and so stay in a 2 MiB L2 cache
_BLOCK = 32768


def dot3(x, v, out=None, tmp=None) -> np.ndarray:
    """(x[0] v[0] + x[1] v[1]) + x[2] v[2], one broadcasting ufunc per step.

    x and v give their coordinates first: (3, n) rows and a 3-vector, say, or
    a grid's axes as (m, 1, 1), (1, m, 1) and (1, 1, m) views, whose head is
    summed at (m, m, 1).  Each ufunc rounds once, in this order, so no BLAS
    kernel, which may fuse or reorder a matvec's sum, moves a bit.  `out`
    and `tmp`, if given, hold the result and the products.
    """
    head = np.add(np.multiply(x[0], v[0], out=out), np.multiply(x[1], v[1], out=tmp), out=out)
    return np.add(head, np.multiply(x[2], v[2], out=tmp), out=out)


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


#: most cells a dense count's compressed grid may have; a larger grid is cut into axis-0 slabs
CELL_BUDGET = 2**18


def max_cube_count(rows: np.ndarray, length: int) -> tuple[int, tuple]:
    """Max number of lattice rows in a closed axis-aligned cube of side `length`.

    `rows` has shape (n, d), in any order.  Returns (count, corner), corner
    the cube's lower lattice corner.  Sliding an optimal cube until each
    lower face touches a point never decreases the count, so the scan tries
    point coordinates only and still equals the max over all lattice anchors.
    The corner is the lexicographically smallest anchored one among the
    maxima, whatever the row order: on every axis j it is the coordinate of
    a point that lies in the cube on the axes before j (see `_cube_counter`).
    """
    return _cube_counter(rows)(length)


def _cube_counter(rows: np.ndarray):
    """The side-free part of `max_cube_count`: returns count_at(length) -> (count, corner).

    1-D sorts the column once.  For d >= 2 the candidate corners form the
    compressed grid (each axis's distinct coordinates).  Up to CELL_BUDGET
    cells, the rows' histogram on it becomes one zero-padded d-fold
    prefix-sum table; per side, one searchsorted per axis gives each
    corner's end ranks and d take-differences its closed-cube count.  The
    same differences on axis j, with the later axes summed out, count the
    points that anchor corner c on axis j (coordinate c_j, inside the cube
    on the axes before j) and zero the unanchored corners, so `np.argmax`
    of the C-ordered counts is the witness.  A larger grid is sorted by
    axis 0 once, and each distinct x's slab [x, x + length] is counted on
    the remaining axes, recursively.
    """
    n, d = rows.shape
    if n == 0:
        return lambda length: (0, (0,) * d)
    if d == 1:
        col = np.sort(rows[:, 0])

        def count_at(length):
            count, start = max_window_count(col, length)
            return count, (start,)

        return count_at
    coords, ranks = zip(*(np.unique(col, return_inverse=True) for col in rows.T))
    shape = tuple(c.size for c in coords)
    if math.prod(shape) > CELL_BUDGET:
        rows = rows[np.argsort(rows[:, 0])]
        col0, xs = rows[:, 0], coords[0]
        los = np.searchsorted(col0, xs).tolist()

        def count_at(length):
            his = np.searchsorted(col0, xs + length, side="right").tolist()
            best, bwit = 0, (0,) * d
            for x, lo, hi, prev in zip(xs.tolist(), los, his, [-1] + his):
                if hi == prev:
                    continue  # a subset of the previous slab, which wins every tie
                c, wit = max_cube_count(rows[lo:hi, 1:], length)
                if c > best:
                    best, bwit = c, (x,) + wit
            return best, bwit

        return count_at
    table = np.zeros(tuple(m + 1 for m in shape), dtype=np.intp)
    inner = table[(slice(1, None),) * d]
    cells = np.ravel_multi_index(ranks, shape)
    inner[...] = np.bincount(cells, minlength=inner.size).reshape(shape)
    for ax in range(d):
        np.cumsum(inner, axis=ax, out=inner)
    # for 0 < j < d - 1: points per axis-j rank, prefix-summed on the axes before j;
    # axis d - 1's come from the count table's own differences in count_at
    anchors = [
        np.diff(table[(slice(None),) * (j + 1) + (-1,) * (d - 1 - j)], axis=j)
        for j in range(1, d - 1)
    ]

    def count_at(length):
        ends = [np.searchsorted(c, c + length, side="right") for c in coords]
        head = _window(table, ends[:-1])
        counts = np.take(head, ends[-1], axis=-1)
        counts -= head[..., :-1]
        counts *= np.diff(head, axis=-1) > 0
        for j, anchor in enumerate(anchors, 1):
            counts *= _window(anchor, ends[:j])[(...,) + (None,) * (d - 1 - j)] > 0
        best = np.unravel_index(int(np.argmax(counts)), shape)
        return int(counts[best]), tuple(int(c[i]) for c, i in zip(coords, best))

    return count_at


def _window(table: np.ndarray, ends: list) -> np.ndarray:
    """Difference a padded prefix table on its first len(ends) axes, from rank i to ends[ax][i]."""
    for ax, end in enumerate(ends):
        out = np.take(table, end, axis=ax)
        out -= table[(slice(None),) * ax + (slice(None, -1),)]
        table = out
    return table


def spacing_scan(rows: np.ndarray, k: int, exponent: float):
    """Exhaustive (delta, s)-condition scan of lattice rows, shape (n, d).

    For every dyadic r = 2**-m (0 <= m <= k, i.e. delta <= r <= 1) and every
    position on the delta-lattice, compares the point count in the closed
    axis-aligned cube of side r against (r/delta)**exponent.  The sort or
    prefix-sum table behind the counts is built once for all k + 1 sides
    (see `_cube_counter`), and the result does not depend on the row order.

    Returns (worst_ratio, witness) with witness = (r, corner), corner the
    lower corner's coordinates (index * delta) of the first worst cube
    (largest r, then `max_cube_count`'s corner).  Raises DomainError unless
    the exponent is finite and >= 0: 1.0 ** nan == 1.0 would pass any set.
    """
    if not (math.isfinite(exponent) and exponent >= 0):
        raise DomainError(f"spacing exponent must be finite and >= 0, got {exponent}")
    count_at = _cube_counter(rows)
    worst = 0.0
    delta = 2.0 ** (-k)
    witness = (1.0, (0.0,) * rows.shape[1])
    for m in range(k + 1):
        length = 2 ** (k - m)
        count, corner = count_at(length)
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
