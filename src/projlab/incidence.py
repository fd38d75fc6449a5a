"""Slab-incidence experiments: exact counting against the discretized bound.

A configuration couples a direction net with one slab family per direction
and a set of lattice balls.  Counting is exhaustive (every ball against
every family via binary search over slab offsets) and yields the
incidence relation as one dense boolean array of #balls x #directions
bytes, whose per-ball and per-direction counts everything on top reads.
Counting and the generator's ball placement batch their dots over
directions in blocks of at most `dyadic._BLOCK` entries; only the slab
lookups, which need each family's own offsets, run per direction.

Everything lives in one picture, the unit one: balls are delta-lattice
cells inside the unit ball and slabs keep their own thickness.  The
paper's rescaling x -> x/delta multiplies every length by a power of two,
which changes no comparison, so it would count the same matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curve import Curve, DirectionNet, _check_seed, direction_net, frame, named_curve
from .dyadic import _BLOCK, _readonly, _Record, dot3, dyadic_level, group_rows
from .errors import (
    CapacityError,
    ConfigurationError,
    DomainError,
    InfeasibleError,
    NumericError,
    PreconditionError,
)
from .fractal import CELL_CAP, PointSet

#: fitted-constant ceiling for bound-violation flags
FITTED_C_CEILING = 2.0**16


@dataclass(frozen=True, eq=False)
class SlabFamily(_Record):
    """All delta-slabs of one direction, cut off by the unit ball.

    A point x lies in the slab at offset c iff |x . gamma(theta) - c| <=
    thickness/2 and |x| <= 1.  Nothing here checks the offsets: `make_family`
    sorts and range-checks offsets from outside, and the generator's offsets
    are sorted, in [-1, 1] and (delta, s)-spaced by construction.
    """

    theta: float
    s: float
    offsets: np.ndarray  # sorted central-plane positions along gamma(theta)
    thickness: float

    def __post_init__(self):
        object.__setattr__(self, "offsets", _readonly(self.offsets))

    def __len__(self) -> int:
        return int(self.offsets.size)


def _in_band(fam: SlabFamily, proj: np.ndarray) -> np.ndarray:
    """Mask of projections within thickness/2 of some offset of the family.

    Binary search over the sorted offsets; the ball condition |x| <= 1 is
    left to the caller.
    """
    lo = np.searchsorted(fam.offsets, proj - fam.thickness / 2, side="left")
    hi = np.searchsorted(fam.offsets, proj + fam.thickness / 2, side="right")
    return hi > lo


def make_family(theta: float, offsets, delta: float, s: float) -> SlabFamily:
    """The family of delta-slabs at the given offsets, sorted.

    Offsets must be 1-D with |offset| <= 1 and delta must be a power of two;
    the family's thickness is delta.  No spacing scan runs here.
    """
    dyadic_level(delta)
    offs = np.asarray(offsets, dtype=float)
    if offs.ndim != 1 or not np.all(np.abs(offs) <= 1.0):  # also catches NaN
        raise ConfigurationError("slab offsets must be a 1-D array with |offset| <= 1")
    return SlabFamily(theta=theta, s=s, offsets=np.sort(offs), thickness=delta)


@dataclass(frozen=True)
class IncidenceConfig:
    """Direction net + slab families + candidate balls, in unit coordinates.

    The scale delta and the net exponent t are the net's, and delta must be
    at most 1/2 (the heavy threshold divides by log2(1/delta)^2); the balls
    must sit on the same delta-lattice, every family must share one s, and
    family j must sit at the net's direction j; `families` is kept as a tuple.
    """

    net: DirectionNet
    families: tuple
    balls: PointSet
    # incidence matrices by curve, filled by incidence_count and by the generator;
    # replace() starts empty
    _counts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        if self.net.delta > 0.5:
            raise DomainError(f"incidence configs need delta <= 1/2, got {self.net.delta}")
        if len(self.families) != len(self.net):
            raise ConfigurationError("need exactly one slab family per direction")
        for j, (fam, theta) in enumerate(zip(self.families, self.net.thetas)):
            if fam.theta != theta:
                raise ConfigurationError(f"family {j} sits at theta={fam.theta}, not {theta}")
        if self.balls.ambient_dim != 3:
            raise ConfigurationError("balls must be a 3-D point set")
        if self.balls.delta != self.net.delta:
            raise ConfigurationError(
                f"balls at delta={self.balls.delta} do not match the net's {self.net.delta}"
            )
        if len({fam.s for fam in self.families}) > 1:
            raise ConfigurationError("slab families disagree on s")

    @property
    def delta(self) -> float:
        return self.net.delta

    @property
    def t(self) -> float:
        return self.net.t

    @property
    def s(self) -> float:
        return self.families[0].s


@dataclass(frozen=True, eq=False)
class IncidenceMatrix(_Record):
    """Ball-direction relation: hits[i, j] is true when ball i meets a slab
    of direction j."""

    hits: np.ndarray  # bool, shape (#balls, #directions)

    def __post_init__(self):
        object.__setattr__(self, "hits", _readonly(self.hits))

    @property
    def total(self) -> int:
        return int(np.count_nonzero(self.hits))

    def row_counts(self) -> np.ndarray:
        """Per ball, the number of directions it meets."""
        return np.count_nonzero(self.hits, axis=1)

    def col_counts(self) -> np.ndarray:
        """Per direction, the number of balls meeting it."""
        return np.count_nonzero(self.hits, axis=0)


def incidence_count(cfg: IncidenceConfig, curve: Curve) -> IncidenceMatrix:
    """Exact membership counting of every (ball, direction) pair.

    Per pair the slab lookup is a binary search over the family's sorted
    offsets, so the full count is O(#H * #Theta * log #S).  The matrix is
    counted once per config and curve: it is kept in the config's memo,
    keyed by the curve object (`named_curve` hands out one shared instance
    per name), and later calls return the kept matrix, whose array is
    read-only.  `dataclasses.replace` gives a config with an empty memo.
    """
    m = cfg._counts.get(curve)
    if m is None:
        pts = cfg.balls.float_indices * cfg.delta  # (3, n): the balls' coordinates as rows
        m = IncidenceMatrix(_hits(pts, cfg.families, curve.points(cfg.net.thetas)))
        cfg._counts[curve] = m
    return m


def _hits(pts: np.ndarray, families: tuple, gammas: np.ndarray) -> np.ndarray:
    """Bool (n, J) hits[i, j]: point i of the (3, n) `pts` lies in the unit
    ball and in a slab of families[j], which sits at direction gammas[j]."""
    n = pts.shape[1]
    in_ball = np.linalg.norm(pts, axis=0) <= 1.0
    hits = np.empty((n, len(families)), dtype=bool)
    step = max(1, _BLOCK // max(n, 1))  # directions per dot: _BLOCK entries, or one direction
    for lo in range(0, len(gammas), step):
        proj = dot3(pts[:, None, :], gammas[lo : lo + step].T[:, :, None])  # (directions, n)
        for j, row in enumerate(proj, lo):
            hits[:, j] = _in_band(families[j], row) & in_ball
    return hits


def heavy_threshold(net: DirectionNet) -> float:
    """The fewest directions a heavy ball meets: (log2 1/delta)^-2 * #Theta."""
    return len(net) / dyadic_level(net.delta) ** 2


def heavy_subset(m: IncidenceMatrix, cfg: IncidenceConfig) -> PointSet:
    """Balls meeting at least (log2 1/delta)^-2 * #Theta slabs."""
    keep = m.row_counts() >= heavy_threshold(cfg.net)
    return replace(cfg.balls, indices=cfg.balls.indices[keep], weights=None)


@dataclass(frozen=True)
class IncidenceReport:
    lhs: float
    rhs: float
    fitted_c: float
    heavy_count: int
    theta_count: int
    ceiling_ok: bool


def verify_incidence_bound(
    cfg: IncidenceConfig, curve: Curve, epsilon: float = 0.1
) -> IncidenceReport:
    """Compare (#Theta)^4 #H against delta^-(2t+s+2+eps).

    Every ball must already satisfy the heavy hypothesis (apply
    heavy_subset first); a violating ball raises PreconditionError naming
    its coordinates.  fitted_c = lhs * delta^(2t+s+2+eps) is flagged
    against the 2^16 ceiling; an epsilon that drives delta^-(2t+s+2+eps)
    to overflow or to zero raises NumericError.
    """
    m = incidence_count(cfg, curve)
    thr = heavy_threshold(cfg.net)
    counts = m.row_counts()
    bad = np.nonzero(counts < thr)[0]
    if bad.size:
        coords = cfg.balls.values[bad[0]]
        raise PreconditionError(
            f"ball at {tuple(round(float(c), 6) for c in coords)} meets only "
            f"{counts[bad[0]]} slabs, below the heavy threshold {thr:.3g}"
        )
    lhs = float(len(cfg.net)) ** 4 * len(cfg.balls)
    exponent = 2 * cfg.t + cfg.s + 2 + epsilon
    try:
        rhs = cfg.delta ** (-exponent)
    except OverflowError:
        rhs = math.inf
    if not (math.isfinite(rhs) and rhs > 0):
        raise NumericError(
            f"delta^-(2t+s+2+eps) = {cfg.delta}^-{exponent} is not a finite positive float"
        )
    fitted = lhs / rhs
    return IncidenceReport(
        lhs=lhs,
        rhs=rhs,
        fitted_c=fitted,
        heavy_count=len(cfg.balls),
        theta_count=len(cfg.net),
        ceiling_ok=bool(fitted <= FITTED_C_CEILING),
    )


# ----------------------------------------------------------------------------
# seeded admissible-config generator


@dataclass(frozen=True)
class IncidenceSpec:
    """Reproducible recipe for a random admissible configuration."""

    delta: float
    s: float
    t: float
    seed: int
    curve: str = "model"


def _offset_delta_s_sets(k: int, s: float, n_sets: int, rng) -> np.ndarray:
    """n_sets (delta, s)-sets of slab offsets on [-1, 1] by greedy dyadic extraction.

    Row j is `extract_delta_s_set` of the full level-K grid of [0, 1]
    (K = k + 1) under the j-th of n_sets consecutive seeded weight draws
    w / w.sum(), mapped by u -> 2u - 1, which lands every offset on the
    delta-lattice exactly; the weights vary the selection across seeds
    without touching the spacing guarantees.  All rows are computed in one
    pass, bit for bit, on the grid's implicit tree:

    - one draw of shape (n_sets, 2^K) takes the same PCG64 stream as n_sets
      draws of 2^K, and each row is normalised by its own sum;
    - leaf i's level-l ancestor is i >> (K - l), and every inner node has
      two children, so all nodes of one level share the rank
      rank_l = min(cap_l, 2 rank_{l+1}), rank_K = 1, cap_l =
      ceil((2^(K-l))^s);
    - node weights are one bincount over (j << l) + (i >> (K - l)), which
      adds each node's leaves in the same order as the general routine's
      bincount over its grouping, so every heavier-child comparison sees
      the same bits;
    - within a parent of budget b the heavier child (ties go to the lower
      index) takes min(r, b) and the other the rest, b - min(r, b): the
      general routine's clamped cumulative sum of the children's ranks,
      min(2r, b) in all, is b, as b <= rank_{l-1} <= 2 rank_l.

    So budgets split without loss, every row selects exactly rank_0 leaves
    and the result has shape (n_sets, rank_0).
    The general routine's InfeasibleError cannot fire here: for
    0 <= s <= 1, cap_l <= 2^s cap_{l+1} rounded up <= 2 cap_{l+1}, so
    rank_l = cap_l, and cap_0 = ceil(2^(Ks)) >= max(1, 2^(Ks)/64).
    """
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"need 0 <= s <= ambient_dim, got s={s}")
    K = k + 1
    if n_sets << K > CELL_CAP:
        raise CapacityError(f"{n_sets} offset draws of 2^{K} weights exceed the cap {CELL_CAP}")
    leaves = np.arange(2**K)
    rows = np.arange(n_sets)[:, None]
    w = rng.random((n_sets, leaves.size))
    w = (w / w.sum(axis=1, keepdims=True)).ravel()
    rank = [1] * (K + 1)
    for l in range(K - 1, -1, -1):
        rank[l] = min(math.ceil((2 ** (K - l)) ** s), 2 * rank[l + 1])
    budgets = np.full((n_sets, 1), rank[0], dtype=np.int64)
    for l in range(1, K + 1):
        node = ((rows << l) + (leaves >> (K - l))).ravel()
        weight = np.bincount(node, weights=w, minlength=n_sets << l).reshape(n_sets, -1)
        left_heavy = weight[:, 0::2] >= weight[:, 1::2]
        heavy = np.minimum(rank[l], budgets)
        left = np.where(left_heavy, heavy, budgets - heavy)
        budgets = np.stack([left, budgets - left], axis=-1).reshape(n_sets, -1)
    chosen = np.nonzero(budgets)[1].reshape(n_sets, rank[0])
    return chosen * 2.0**-K * 2.0 - 1.0


def ball_target(delta: float, s: float, t: float) -> int:
    """Ball count making (#Theta)^4 #H track delta^-(2t+s+2): delta^-(2+s-2t)/16."""
    return max(1, round(2.0**-4 * delta ** -(2 + s - 2 * t)))


def _run_ends(counts: list) -> list:
    """End positions of the runs of consecutive counts whose sums fit in
    _BLOCK; a count above _BLOCK is a run by itself."""
    ends, total = [], 0
    for i, c in enumerate(counts):
        if total and total + c > _BLOCK:
            ends.append(i)
            total = 0
        total += c
    return ends + [len(counts)]


def _place_run(rng, js, cs: list, frames: tuple, offsets, families: tuple, delta: float):
    """Draw, place and band-test the balls of one run of directions.

    Direction js[i] takes cs[i] draws in the generator's stream order (its
    offset picks, then u, then v), and each ball is offset * gamma + u *
    tangent + v * normal snapped to the delta-lattice.  The run is placed in
    slices of at most _BLOCK balls, each with one gather per frame vector,
    summed in the same order and so to the same bits as one direction at a
    time.  Returns the cells within 0.98 of the origin whose snapped
    projection still lies in a slab of their direction, in draw order.
    """
    draws = [
        d
        for c in cs
        for d in (
            rng.integers(0, offsets.shape[1], size=c),
            rng.uniform(-0.7, 0.7, size=c),
            rng.uniform(-0.7, 0.7, size=c),
        )
    ]
    pick, u, v = (np.concatenate(draws[i::3]) for i in range(3))
    del draws  # its pieces would otherwise double the draws' memory through the placement
    rows = np.repeat(js, cs)
    idx = np.empty((rows.size, 3), dtype=np.int64)
    proj, ok = np.empty(rows.size), np.empty(rows.size, dtype=bool)
    gammas, tangents, normals = frames
    for lo in range(0, rows.size, _BLOCK):
        sl = slice(lo, lo + _BLOCK)
        r = rows[sl]
        gamma = gammas[r]
        pts = offsets[r, pick[sl]][:, None] * gamma
        part = tangents[r]
        part *= u[sl, None]
        pts += part
        part = normals[r]
        part *= v[sl, None]
        pts += part
        pts /= delta
        np.copyto(idx[sl], np.rint(pts, out=pts), casting="unsafe")  # exact: integers
        snapped = np.multiply(idx[sl], delta, out=pts)
        proj[sl] = dot3(snapped.T, gamma.T)
        ok[sl] = np.linalg.norm(snapped, axis=1) <= 0.98
    lo = 0
    for j, c in zip(js.tolist(), cs):  # each family's own offsets
        ok[lo : lo + c] &= _in_band(families[j], proj[lo : lo + c])
        lo += c
    return idx[ok]


def _sample_cells(rng, want: int, frames: tuple, offsets, families: tuple, delta: float):
    """Up to `want` distinct ball cells in lexicographic order, from at most 64 attempts."""
    collected = np.zeros((0, 3), dtype=np.int64)
    for _attempt in range(64):
        if len(collected) >= want:
            break
        batch = max(64, 2 * (want - len(collected)))
        counts = np.bincount(rng.integers(0, len(families), size=batch), minlength=len(families))
        dirs = np.flatnonzero(counts)  # the drawn directions, ascending
        counts = counts[dirs].tolist()
        found, start = [collected], 0
        for end in _run_ends(counts):
            js, cs = dirs[start:end], counts[start:end]
            found.append(_place_run(rng, js, cs, frames, offsets, families, delta))
            start = end
        stacked = np.concatenate(found)
        collected = stacked[group_rows(stacked)[0]]
    return collected[:want]


def random_admissible_config(spec: IncidenceSpec) -> IncidenceConfig:
    """Generate a seeded admissible configuration with heavy balls.

    Slab offsets per direction come from a (delta, s)-set on [-1, 1]
    (hypothesis (2) holds by construction); candidate balls are sampled
    directly on slab planes so each meets at least one slab.  Each attempt
    draws a batch of directions and places their balls in runs of
    consecutive directions of at most _BLOCK draws (`_place_run`).  The
    sampled cells, sorted and distinct, are counted once against the
    frame's gammas, and only the rows that reach `heavy_threshold` become
    the config's balls, so the verify precondition holds; the config's memo
    already holds their rows of the count under the spec's named curve.  A
    delta above 1/2 or a seed that is not an integer >= 0 raises
    DomainError.  An offset draw or a first ball
    batch larger than CELL_CAP raises CapacityError before it is allocated.
    """
    curve = named_curve(spec.curve)
    k = dyadic_level(spec.delta)
    if k < 1:
        raise DomainError(f"admissible configs need delta <= 1/2, got {spec.delta}")
    _check_seed(spec.seed)
    rng = np.random.default_rng(spec.seed)
    net = direction_net(spec.delta, spec.t, spec.seed)
    offsets = _offset_delta_s_sets(k, spec.s, len(net), rng)
    families = tuple(
        SlabFamily(float(theta), spec.s, row, spec.delta) for theta, row in zip(net.thetas, offsets)
    )
    want = ball_target(spec.delta, spec.s, spec.t)
    if 2 * want > CELL_CAP:
        raise CapacityError(f"a first batch of {2 * want} ball draws exceeds the cap {CELL_CAP}")
    frames = frame(curve, net.thetas)
    cells = _sample_cells(rng, want, frames, offsets, families, spec.delta)
    if len(cells) == 0:
        raise InfeasibleError("failed to sample any admissible ball")
    hits = _hits(cells.T * spec.delta, families, frames[0])  # the bits of float_indices * delta
    heavy = np.count_nonzero(hits, axis=1) >= heavy_threshold(net)
    if not heavy.any():
        raise InfeasibleError("no sampled ball clears the heavy threshold")
    balls = PointSet(3, spec.delta, cells[heavy], domain="ball", nominal_dim=3.0)
    cfg = IncidenceConfig(net=net, families=families, balls=balls)
    cfg._counts[curve] = IncidenceMatrix(hits[heavy])
    return cfg
