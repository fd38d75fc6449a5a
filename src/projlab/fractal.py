"""Delta-discretized fractal point sets with optional mass weights.

Sets are stored as integer indices on the delta-lattice (coordinates are
index * delta), not as abstract subsets of R^d: everything downstream
operates after discretization anyway.  Generators are deterministic;
the Frostman-type constant of a weighted set is computed on request by
`frostman_constant`, never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .dyadic import dyadic_level, group_rows, max_window_count
from .errors import (
    CapacityError,
    ConfigurationError,
    DomainError,
    InfeasibleError,
)

#: hard cap on cells per PointSet (desk-scale budget)
CELL_CAP = 2**24


@dataclass(frozen=True)
class PointSet:
    """A finite subset of the delta-lattice in [0,1]^d or the unit ball.

    `indices` has shape (n, ambient_dim) and is kept lexicographically
    sorted; coordinates are `indices * delta`.  `nominal_dim` is declared
    dimension metadata (similarity dimension for the shipped generators).
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
        if idx.ndim != 2 or idx.shape[1] != self.ambient_dim:
            raise ConfigurationError("indices must have shape (n, ambient_dim)")
        if idx.shape[0] > CELL_CAP:
            raise CapacityError(f"{idx.shape[0]} cells exceed the cap {CELL_CAP}")
        order, _ = group_rows(idx)  # distinct rows come out in lexicographic order
        if len(order) != idx.shape[0]:
            raise ConfigurationError("cells must be pairwise distinct on the lattice")
        vals = idx * self.delta
        if self.domain == "cube":
            if idx.shape[0] and (idx.min() < 0 or idx.max() > 2**k):
                raise DomainError("cube-domain cells must lie in [0,1]^d")
        elif self.domain == "ball":
            if idx.shape[0] and np.max(np.linalg.norm(vals, axis=1)) > 1.0 + 1e-12:
                raise DomainError("ball-domain cells must lie in the unit ball")
        else:
            raise ConfigurationError(f"unknown domain {self.domain!r}")
        w = self.weights
        if w is not None:
            w = np.asarray(w, dtype=float)
            if w.shape != (idx.shape[0],):
                raise ConfigurationError("need one weight per cell")
            if np.any(w < 0):
                raise ConfigurationError("weights must be nonnegative")
            if abs(w.sum() - 1.0) > 1e-10:
                raise ConfigurationError("weights must sum to 1")
        object.__setattr__(self, "indices", idx[order])
        object.__setattr__(self, "weights", None if w is None else w[order])

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    @property
    def level(self) -> int:
        return dyadic_level(self.delta)

    @property
    def values(self) -> np.ndarray:
        return self.indices * self.delta

    def with_weights(self, weights: Sequence[float]) -> "PointSet":
        return replace(self, weights=np.asarray(weights, dtype=float))

    def with_uniform_weights(self) -> "PointSet":
        n = len(self)
        return self.with_weights(np.full(n, 1.0 / n))


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
    k = p.level
    worst = 0.0
    for l in range(k + 1):
        _, inv = group_rows(p.indices >> (k - l))
        mass = np.bincount(inv, weights=p.weights)
        side = 2.0 ** (-l)
        if a == 0:
            worst = max(worst, float(mass.max()))
        else:
            worst = max(worst, float(mass.max()) / side**a)
    return worst


def full_grid(k: int, dim: int = 1) -> PointSet:
    """The full delta-grid of [0,1)^dim at delta = 2^-k."""
    if k * dim > 24:
        raise CapacityError("full grid would exceed the cell cap")
    axes = [np.arange(2**k, dtype=np.int64)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    idx = np.stack([m.ravel() for m in mesh], axis=1)
    return PointSet(dim, 2.0**-k, idx, nominal_dim=float(dim))


def cantor_1d(ratio: float, depth: int) -> PointSet:
    """Left endpoints of the depth-stage Cantor construction with the given ratio.

    delta = 2^-k is the power of two nearest (in log scale) to
    ratio**depth; nominal_dim = log 2 / log(1/ratio).  A level k >= 63,
    whose cell indices overflow int64, raises CapacityError.
    """
    if not (0.0 < ratio <= 0.5):
        raise DomainError(f"ratio must lie in (0, 1/2], got {ratio}")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if 2**depth > CELL_CAP:
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
    idx = np.unique(np.floor(endpoints / delta).astype(np.int64))[:, None]
    dim = math.log(2.0) / math.log(1.0 / ratio)
    return PointSet(1, delta, idx, nominal_dim=dim)


def product_set(sx: PointSet, sy: PointSet, sz: PointSet) -> PointSet:
    """Cartesian product of three 1-D sets, recentred into the unit ball.

    The translation by -1/2 per axis is an exact lattice shift, so cells
    stay on the delta-lattice; nominal dimensions add and weights are
    uniform.
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
    n = len(sx) * len(sy) * len(sz)
    if n > CELL_CAP:
        raise CapacityError(f"{n} product cells exceed the cap {CELL_CAP}")
    half = 2 ** (k - 1)
    ax, ay, az = (p.indices[:, 0] for p in (sx, sy, sz))
    mesh = np.meshgrid(ax, ay, az, indexing="ij")
    idx = np.stack([m.ravel() for m in mesh], axis=1) - half
    dim = sx.nominal_dim + sy.nominal_dim + sz.nominal_dim
    out = PointSet(3, sx.delta, idx, nominal_dim=dim, domain="ball")
    return out.with_uniform_weights()


@dataclass(frozen=True)
class SimilarityMap:
    """x -> ratio * (matrix @ x) + offset with orthogonal matrix (default I)."""

    ratio: float
    offset: np.ndarray
    matrix: Optional[np.ndarray] = None

    def apply(self, pts: np.ndarray) -> np.ndarray:
        out = pts if self.matrix is None else pts @ np.asarray(self.matrix).T
        return self.ratio * out + np.asarray(self.offset, dtype=float)


def similarity_dimension(ratios: Sequence[float]) -> float:
    """Solve sum ratio_i^s = 1 for s (equal ratios: log m / log(1/r))."""
    ratios = [float(r) for r in ratios]
    if len(ratios) == 1:
        return 0.0
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(r**mid for r in ratios) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ifs_attractor(maps: Sequence[SimilarityMap], depth: int, delta: float) -> PointSet:
    """Cells hit by depth-fold map compositions applied to the domain center.

    nominal_dim is the similarity dimension of the contraction ratios.
    """
    if not maps:
        raise ConfigurationError("need at least one map")
    dim = len(np.atleast_1d(maps[0].offset))
    if dim not in (1, 2, 3):
        raise ConfigurationError("maps must act on dimension 1, 2 or 3")
    for m in maps:
        if not (0.0 < m.ratio < 1.0):
            raise ConfigurationError(f"map ratio {m.ratio} is not contracting")
    max_ratio = max(m.ratio for m in maps)
    if max_ratio**depth > delta * (1 + 1e-12):
        raise ConfigurationError(
            f"depth {depth} does not resolve below delta={delta} "
            f"(max ratio^depth = {max_ratio**depth:.3g})"
        )
    if len(maps) ** depth > CELL_CAP:
        raise CapacityError("composition count exceeds the cell cap")
    pts = np.full((1, dim), 0.5)
    for _ in range(depth):
        pts = np.concatenate([m.apply(pts) for m in maps], axis=0)
    cells = np.floor(pts / delta).astype(np.int64)
    idx = cells[group_rows(cells)[0]]
    return PointSet(dim, delta, idx, nominal_dim=similarity_dimension([m.ratio for m in maps]))


# ----------------------------------------------------------------------------
# (delta, s)-set machinery


@dataclass(frozen=True)
class DeltaSetReport:
    valid: bool
    worst_constant: float
    witness_r: float
    witness_corner: tuple
    threshold: float


def _window_max(points: np.ndarray, length: int) -> tuple[int, tuple]:
    """Exact max count of points in a closed axis-aligned cube of side length.

    Corner candidates are taken from the point coordinates per axis: sliding
    an optimal window until each lower face touches a point never decreases
    the count, so this equals the max over all lattice anchor positions.
    """
    n, d = points.shape
    if n == 0:
        return 0, (0,) * d
    if d == 1:
        c, start = max_window_count(points[:, 0], length)
        return c, (start,)
    best, bwit = 0, (0,) * d
    xs = np.unique(points[:, 0])
    order = np.argsort(points[:, 0], kind="stable")
    sorted_pts = points[order]
    col0 = sorted_pts[:, 0]
    for x in xs:
        lo = np.searchsorted(col0, x, side="left")
        hi = np.searchsorted(col0, x + length, side="right")
        sub = np.array(sorted(map(tuple, sorted_pts[lo:hi, 1:])), dtype=np.int64)
        c, wit = _window_max(sub, length)
        if c > best:
            best, bwit = c, (int(x),) + wit
    return best, bwit


def validate_delta_s_set(p: PointSet, s: float) -> DeltaSetReport:
    """Exhaustive Definition-style scan of the (delta, s) spacing condition.

    Windows are closed axis-aligned cubes of side r anchored on the
    delta-lattice, for every dyadic r with delta <= r <= 1 (the lattice
    surrogate for balls B_r).  worst_constant is the max of
    count / (r/delta)^s; the verdict threshold is 4^ambient_dim, i.e. 64
    for sets in R^3.
    """
    k = p.level
    threshold = 4.0**p.ambient_dim
    worst, wit_r, wit_corner = 0.0, 1.0, (0,) * p.ambient_dim
    for m in range(k + 1):
        length = 2 ** (k - m)
        count, corner = _window_max(p.indices, length)
        ratio = count / float(length) ** s
        if ratio > worst:
            worst = ratio
            wit_r = 2.0**-m
            wit_corner = corner
    return DeltaSetReport(
        valid=bool(worst <= threshold),
        worst_constant=worst,
        witness_r=wit_r,
        witness_corner=tuple(c * p.delta for c in wit_corner),
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
    if content_estimate <= 0:
        raise DomainError("content_estimate must be positive")
    k = p.level
    n = len(p)
    target = content_estimate * p.delta ** (-s) / 64.0
    if n == 0:
        raise InfeasibleError("cannot extract from an empty set")

    w = p.weights if p.weights is not None else np.full(n, 1.0)

    # Bottom-up: the nodes of level l are the groups of level-l ancestors,
    # numbered in lexicographic order; level k's nodes are the cells.
    caps = [math.ceil((2 ** (k - l)) ** s) for l in range(k + 1)]
    groups = [group_rows(p.indices >> (k - l)) for l in range(k + 1)]
    # parent[l][i] is the level-(l-1) node above level-l node i
    parent = [None] + [groups[l - 1][1][groups[l][0]] for l in range(1, k + 1)]
    weight = [np.bincount(inv, weights=w) for _, inv in groups]
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


def rebase_unit_interval(p: PointSet):
    """Map a 1-D ball-domain set on [-1,1] affinely onto [0,1].

    Returns (rebased cube-domain PointSet at delta/2, (scale, shift)) with
    physical value = scale * rebased value + shift.  The map v -> (v+1)/2
    keeps cells on the (halved) lattice exactly.
    """
    if p.ambient_dim != 1 or p.domain != "ball":
        raise ConfigurationError("rebase_unit_interval expects a 1-D ball-domain set")
    k = p.level
    idx = p.indices + 2**k
    out = PointSet(
        1,
        p.delta / 2,
        idx,
        weights=p.weights,
        nominal_dim=p.nominal_dim,
        domain="cube",
    )
    return out, (2.0, -1.0)


# ----------------------------------------------------------------------------
# serialization

CSV_HEADER = "dim,delta,domain,nominal_dim"


def save_csv(p: PointSet, path) -> None:
    """Write the `dim,delta,domain,nominal_dim` header block then one cell per row.

    Rows are coordinates (and a trailing weight when present) in
    lexicographic lattice order, so output bytes are deterministic.
    """
    lines = [
        CSV_HEADER,
        f"{p.ambient_dim},{p.delta!r},{p.domain},{float(p.nominal_dim)!r}",
    ]
    vals = p.values
    for i in range(len(p)):
        fields = [repr(float(v)) for v in vals[i]]
        if p.weights is not None:
            fields.append(repr(float(p.weights[i])))
        lines.append(",".join(fields))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> PointSet:
    """Read a `save_csv` file.  Files with the older `dim,delta` header load
    with the domain inferred from the index signs and no nominal dimension."""
    with open(path, newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",") if lines else []
    if len(lines) < 2 or header not in (["dim", "delta"], CSV_HEADER.split(",")):
        raise ConfigurationError("missing dim,delta header")
    values = lines[1].split(",")
    if len(values) != len(header):
        raise ConfigurationError(f"header line {lines[1]!r} does not match {lines[0]!r}")
    meta = dict(zip(header, values))
    try:
        dim, delta = int(meta["dim"]), float(meta["delta"])
        nominal_dim = float(meta.get("nominal_dim", "nan"))
        rows = [[float(v) for v in ln.split(",")] for ln in lines[2:]]
    except ValueError as exc:
        raise ConfigurationError(f"non-numeric field: {exc}") from None
    widths = {len(r) for r in rows}
    if len(widths) > 1 or not widths <= {dim, dim + 1}:
        raise ConfigurationError(f"every data row needs the same {dim} or {dim + 1} fields")
    has_w = widths == {dim + 1}
    idx = np.array([[round(v / delta) for v in r[:dim]] for r in rows], dtype=np.int64)
    idx = idx.reshape(len(rows), dim)
    weights = np.array([r[dim] for r in rows]) if has_w else None
    domain = meta.get("domain", "ball" if (len(idx) and idx.min() < 0) else "cube")
    return PointSet(dim, delta, idx, weights=weights, nominal_dim=nominal_dim, domain=domain)
