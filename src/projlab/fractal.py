"""Delta-discretized fractal point sets with optional mass weights.

Sets are stored as integer indices on the delta-lattice (coordinates are
index * delta), not as abstract subsets of R^d: everything downstream
operates after discretization anyway.  Generators are deterministic;
the Frostman-type constant of a weighted set is computed on request by
`frostman_constant`, never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .dyadic import (
    _BLOCK, _integer_level, _Record, ancestor_tree, dyadic_level, sort_rows, spacing_scan
)
from .errors import (
    CapacityError,
    ConfigurationError,
    DomainError,
    InfeasibleError,
)

#: hard cap on cells per PointSet (desk-scale budget)
CELL_CAP = 2**24


@dataclass(frozen=True, eq=False)
class PointSet(_Record):
    """A finite subset of the delta-lattice in [0,1]^d or the unit ball.

    `indices` has shape (n, ambient_dim) and is kept lexicographically
    sorted; coordinates are `indices * delta`.  `indices` and `weights` are
    read-only copies, so results memoised per set cannot go stale; one such
    result is `float_indices`, the float64 copy of the indices that every
    projection of the set reads, built on first use and laid out as one
    C-contiguous (ambient_dim, n) array, so each axis is one contiguous row;
    another is `tree`, the set's dyadic tree.  Sets compare by content.
    `nominal_dim` is declared dimension metadata (similarity dimension for
    the shipped generators).

    Building a set holds the given rows and weights, their sort order and
    the sorted copies; the grouping and the ball check work `_BLOCK` rows
    at a time, so no other (n, d) temporary is made.
    """

    ambient_dim: int
    delta: float
    indices: np.ndarray
    weights: Optional[np.ndarray] = None
    nominal_dim: float = float("nan")
    domain: str = "cube"  # "cube" = [0,1]^d, "ball" = closed unit ball

    def __post_init__(self):
        k = dyadic_level(self.delta)
        idx = np.asarray(self.indices, dtype=np.int64)
        if self.ambient_dim < 1:
            raise ConfigurationError(f"ambient_dim must be at least 1, got {self.ambient_dim}")
        if idx.ndim != 2 or idx.shape[1] != self.ambient_dim:
            raise ConfigurationError("indices must have shape (n, ambient_dim)")
        if idx.shape[0] > CELL_CAP:
            raise CapacityError(f"{idx.shape[0]} cells exceed the cap {CELL_CAP}")
        order, starts = sort_rows(idx)  # distinct rows come out in lexicographic order
        if not starts.all():
            raise ConfigurationError("cells must be pairwise distinct on the lattice")
        if self.domain == "cube":
            if idx.shape[0] and (idx.min() < 0 or idx.max() > 2**k):
                raise DomainError("cube-domain cells must lie in [0,1]^d")
        elif self.domain == "ball":
            blocks = range(0, idx.shape[0], _BLOCK)
            norms = (np.linalg.norm(idx[lo : lo + _BLOCK] * self.delta, axis=1).max() for lo in blocks)
            if max(norms, default=0.0) > 1.0 + 1e-12:
                raise DomainError("ball-domain cells must lie in the unit ball")
        else:
            raise ConfigurationError(f"unknown domain {self.domain!r}")
        w = self.weights
        if w is not None:
            w = np.asarray(w, dtype=float)
            if w.shape != (idx.shape[0],):
                raise ConfigurationError("need one weight per cell")
            if not np.all(w >= 0):  # also catches NaN
                raise ConfigurationError("weights must be nonnegative")
            if abs(w.sum() - 1.0) > 1e-10:
                raise ConfigurationError("weights must sum to 1")
        for name, a in (("indices", idx), ("weights", w)):
            if a is not None:
                a = a[order]
                a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    @property
    def level(self) -> int:
        return dyadic_level(self.delta)

    @property
    def values(self) -> np.ndarray:
        return self.indices * self.delta

    @cached_property
    def float_indices(self) -> np.ndarray:
        """Read-only float64 copy of `indices.T`, made once per set (not a field)."""
        out = np.ascontiguousarray(self.indices.T, dtype=np.float64)
        out.flags.writeable = False
        return out

    @cached_property
    def tree(self) -> tuple:
        """The set's dyadic tree, `ancestor_tree(indices, level)`, made once per set."""
        return ancestor_tree(self.indices, self.level)


def frostman_constant(p: PointSet) -> float:
    """Mass-concentration constant of the aligned dyadic-cube scan.

    Returns max over levels l and aligned cubes D of weight(D) / side(D)^a
    with a = nominal_dim; the lattice surrogate for the Frostman condition
    nu(B_r) <= C r^a (cube/ball discrepancy is absorbed in the constant).
    """
    if p.weights is None:
        raise ConfigurationError("frostman_constant needs a weighted set")
    a = p.nominal_dim
    if not np.isfinite(a):
        raise ConfigurationError("frostman_constant needs nominal_dim metadata")
    worst = 0.0
    for l, level in enumerate(p.tree):
        mass = np.bincount(level.inverse, weights=p.weights)
        worst = max(worst, float(mass.max()) / (2.0 ** (-l)) ** a)
    return worst


def full_grid(k: int) -> PointSet:
    """The full delta-grid of [0,1) at delta = 2^-k; RangeError unless k is an integer."""
    k = _integer_level("k", k)
    if k >= CELL_CAP.bit_length():  # 2^k > CELL_CAP
        raise CapacityError("full grid would exceed the cell cap")
    return PointSet(1, 2.0**-k, np.arange(2**k, dtype=np.int64)[:, None], nominal_dim=1.0)


def cantor_1d(ratio: float, depth: int) -> PointSet:
    """Left endpoints of the depth-stage Cantor construction with the given ratio.

    delta = 2^-k is the power of two nearest (in log scale) to
    ratio**depth; nominal_dim = log 2 / log(1/ratio).  A level k >= 63,
    whose cell indices overflow int64, raises CapacityError; a depth that
    is not an integer, RangeError.
    """
    if not (0.0 < ratio <= 0.5):
        raise DomainError(f"ratio must lie in (0, 1/2], got {ratio}")
    depth = _integer_level("depth", depth)
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if depth >= CELL_CAP.bit_length():  # 2^depth > CELL_CAP, without forming 2^depth
        raise CapacityError(f"2^{depth} cells exceed the cap {CELL_CAP}")
    level = depth * math.log2(1.0 / ratio)  # inf once 1/ratio overflows
    if level > 62.5:  # k >= 63: the cell indices 0..2^k - 1 overflow int64
        raise CapacityError(f"cantor_1d needs level k={level:.0f}, but 2^k cells overflow int64")
    k = max(0, round(level))
    delta = 2.0**-k
    endpoints = np.zeros(1)
    length = 1.0
    for _ in range(depth):
        endpoints = np.concatenate([endpoints, endpoints + (1.0 - ratio) * length])
        length *= ratio
    # every endpoint is < 1 exactly, but from k = 54 on the last one rounds
    # to 1.0 and would floor to the cell 2^k outside [0, 1)
    cells = np.minimum(np.floor(endpoints / delta).astype(np.int64), 2**k - 1)
    idx = np.unique(cells)[:, None]
    dim = math.log(2.0) / math.log(1.0 / ratio)
    return PointSet(1, delta, idx, nominal_dim=dim)


def product_set(sx: PointSet, sy: PointSet, sz: PointSet) -> PointSet:
    """Cartesian product of three 1-D sets, recentred into the unit ball.

    The translation by -1/2 per axis is an exact lattice shift, so cells
    stay on the delta-lattice; nominal dimensions add and weights are
    uniform.  The shifted factor indices are written column by column into
    one (n, 3) int64 array, through its (nx, ny, nz, 3) view; the factors'
    indices are sorted, so the rows come out in lexicographic order.  An
    empty factor raises ConfigurationError.
    """
    for p in (sx, sy, sz):
        if p.ambient_dim != 1:
            raise ConfigurationError("product_set needs three 1-D factors")
    if not (sx.delta == sy.delta == sz.delta):
        raise ConfigurationError(
            f"mismatched deltas: {sx.delta}, {sy.delta}, {sz.delta}"
        )
    k = sx.level
    if k < 1:
        raise ConfigurationError("product_set needs delta <= 1/2")
    shape = (len(sx), len(sy), len(sz))
    n = math.prod(shape)
    if n == 0:
        raise ConfigurationError(f"product_set needs nonempty factors, got {shape} cells")
    if n > CELL_CAP:
        raise CapacityError(f"{n} product cells exceed the cap {CELL_CAP}")
    half = 2 ** (k - 1)
    idx = np.empty((n, 3), dtype=np.int64)
    grid = idx.reshape(shape + (3,))  # a view: row (i, j, l) is cell (x_i, y_j, z_l)
    ax, ay, az = (p.indices[:, 0] - half for p in (sx, sy, sz))
    grid[..., 0] = ax[:, None, None]
    grid[..., 1] = ay[:, None]
    grid[..., 2] = az
    dim = sx.nominal_dim + sy.nominal_dim + sz.nominal_dim
    return PointSet(
        3, sx.delta, idx, weights=np.full(n, 1.0 / n), nominal_dim=dim, domain="ball"
    )


# ----------------------------------------------------------------------------
# (delta, s)-set machinery


@dataclass(frozen=True)
class DeltaSetReport:
    valid: bool
    worst_constant: float
    witness_r: float
    witness_corner: tuple
    threshold: float


def validate_delta_s_set(p: PointSet, s: float) -> DeltaSetReport:
    """Exhaustive Definition-style scan of the (delta, s) spacing condition.

    Windows are closed axis-aligned cubes of side r anchored on the
    delta-lattice, for every dyadic r with delta <= r <= 1 (the lattice
    surrogate for balls B_r).  worst_constant is the max of
    count / (r/delta)^s; the verdict threshold is 4^ambient_dim, i.e. 64
    for sets in R^3.  Raises DomainError unless s is finite and >= 0.
    """
    threshold = 4.0**p.ambient_dim
    worst, (r, corner) = spacing_scan(p.indices, p.level, s)
    return DeltaSetReport(
        valid=bool(worst <= threshold),
        worst_constant=worst,
        witness_r=r,
        witness_corner=corner,
        threshold=threshold,
    )


def extract_delta_s_set(p: PointSet, s: float, content_estimate: float) -> PointSet:
    """Greedy dyadic-tree pruning into a (delta, s)-subset.

    Every node of the dyadic tree at level l may keep at most
    ceil((2^-l / delta)^s) cells below it; budgets flow top-down and each
    node prefers its heaviest children (cell weights, or counts when the
    set is unweighted; ties broken by lattice order, so the selection is
    deterministic given the input).  Raises InfeasibleError when the
    achievable cardinality falls below content_estimate * delta^-s / 64.
    """
    if not (0.0 <= s <= p.ambient_dim):
        raise DomainError(f"need 0 <= s <= ambient_dim, got s={s}")
    if not (math.isfinite(content_estimate) and content_estimate > 0):
        raise DomainError(f"content_estimate must be finite and positive, got {content_estimate}")
    k = p.level
    n = len(p)
    target = content_estimate * p.delta ** (-s) / 64.0
    if n == 0:
        raise InfeasibleError("cannot extract from an empty set")

    w = p.weights if p.weights is not None else np.full(n, 1.0)

    # Bottom-up over the set's tree; level k's nodes are the cells.
    caps = [math.ceil((2 ** (k - l)) ** s) for l in range(k + 1)]
    parent = [level.up for level in p.tree]
    weight = [np.bincount(level.inverse, weights=w) for level in p.tree]
    rank = [None] * k + [np.ones(n, dtype=np.int64)]
    for l in range(k - 1, -1, -1):
        child_rank_sum = np.bincount(parent[l + 1], weights=rank[l + 1]).astype(np.int64)
        rank[l] = np.minimum(caps[l], child_rank_sum)

    total_rank = int(rank[0].sum())  # roots are unit cubes, no super-cap
    if total_rank < max(1.0, target):
        raise InfeasibleError(
            f"achievable (delta,{s})-cardinality {total_rank} is below the "
            f"target {target:.3g}; the content estimate was too optimistic"
        )

    # Top-down allocation preferring heaviest subtrees: within each parent,
    # children in (-weight, id) order take min(rank, what is left), i.e. a
    # clamped cumulative sum of their ranks.
    budgets = rank[0]
    for l in range(1, k + 1):
        order = np.lexsort((-weight[l], parent[l]))  # stable: ties keep id order
        n_children = np.bincount(parent[l])
        first = np.cumsum(n_children) - n_children
        r = rank[l][order]
        cum = np.cumsum(r)
        cum -= np.repeat(cum[first] - r[first], n_children)
        budget = np.repeat(budgets, n_children)
        budgets = np.empty_like(r)
        budgets[order] = np.minimum(cum, budget) - np.minimum(cum - r, budget)
    keep = budgets >= 1
    out_idx = p.indices[keep]
    out_w = None
    if p.weights is not None:
        out_w = p.weights[keep]
        out_w = out_w / out_w.sum()
    return PointSet(
        p.ambient_dim,
        p.delta,
        out_idx,
        weights=out_w,
        nominal_dim=s,
        domain=p.domain,
    )


# ----------------------------------------------------------------------------
# serialization

CSV_HEADER = "dim,delta,domain,nominal_dim"


def write_csv(path, header: str, rows) -> None:
    """The header line(s), then one line per row: bools as true/false, other values by repr."""
    lines = [header]
    for row in rows:  # a list and identity tests, as this runs once per value
        lines.append(",".join([str(v).lower() if v is True or v is False else repr(v) for v in row]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def save_csv(p: PointSet, path) -> None:
    """Write the `dim,delta,domain,nominal_dim` header block then one cell per row.

    Rows are coordinates (and a trailing weight when present) in
    lexicographic lattice order, so output bytes are deterministic.
    """
    meta = f"{p.ambient_dim},{p.delta!r},{p.domain},{float(p.nominal_dim)!r}"
    rows = p.values if p.weights is None else np.column_stack([p.values, p.weights])
    write_csv(path, f"{CSV_HEADER}\n{meta}", rows.tolist())


def load_csv(path) -> PointSet:
    """Read a `save_csv` file; any other header raises ConfigurationError."""
    with open(path, newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2 or lines[0] != CSV_HEADER:
        raise ConfigurationError(f"missing {CSV_HEADER} header")
    values = lines[1].split(",")
    if len(values) != 4:
        raise ConfigurationError(f"header line {lines[1]!r} does not match {lines[0]!r}")
    try:
        dim, delta, nominal_dim = int(values[0]), float(values[1]), float(values[3])
        rows = [[float(v) for v in ln.split(",")] for ln in lines[2:]]
    except ValueError as exc:
        raise ConfigurationError(f"non-numeric field: {exc}") from None
    if dim < 1:
        raise ConfigurationError(f"dim must be at least 1, got {dim}")
    dyadic_level(delta)
    widths = {len(r) for r in rows}
    if len(widths) > 1 or not widths <= {dim, dim + 1}:
        raise ConfigurationError(f"every data row needs the same {dim} or {dim + 1} fields")
    has_w = widths == {dim + 1}
    fields = np.array(rows, dtype=float).reshape(len(rows), dim + has_w)
    coords = fields[:, :dim]
    # int64 holds every index below 2^62; NaN fails the comparison too
    if not np.all(np.abs(coords) < 2.0**62 * delta):
        raise ConfigurationError("coordinates must be finite and at most 2^62 cells from 0")
    idx = np.round(coords / delta).astype(np.int64)
    weights = fields[:, dim] if has_w else None
    return PointSet(dim, delta, idx, weights=weights, nominal_dim=nominal_dim, domain=values[2])
