"""Projections onto the line family l_theta, box dimensions, and sweeps.

The projection of a discretized set is snapped back to the same
delta-lattice (round-to-nearest, so symmetric sets stay symmetric), which
makes every downstream count exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import Curve
from .dyadic import _BLOCK, _integer_level, _readonly, _Record, dot3, dyadic_level, group_rows
from .errors import CapacityError, ConfigurationError, DomainError, RangeError
from .fractal import CELL_CAP, PointSet

#: default dimension-decision margin: est_dim < s - margin flags theta
DEFAULT_MARGIN = 0.1


@dataclass(frozen=True, eq=False)
class DimensionFit(_Record):
    """Box-counting fit: slope of log2 N(r) against log2(1/r)."""

    counts: np.ndarray  # N(r) at dyadic r, descending; non-decreasing as r shrinks
    slope: float
    r2: float

    def __post_init__(self):
        object.__setattr__(self, "counts", _readonly(self.counts))


@dataclass(frozen=True)
class SweepRow:
    theta: float
    est_dim: float
    r2: float
    below_s: bool


def project_line(a: PointSet, curve: Curve, theta: float) -> PointSet:
    """Orthogonal projection x -> x . gamma(theta), snapped to a's lattice.

    Returns the projected set, one cell per occupied lattice point in
    lattice order, with no weights: the sweep's box counts read only the
    support.  All projected values of a unit-ball set satisfy |v| <= 1.
    delta is a power of two, so each cell is rint(i . gamma) for the set's
    float indices i, i . gamma summed by `dot3` (so no BLAS kernel moves a
    bit).  Every cell of a valid set of either domain has |i| <= sqrt(3) 2^k,
    so |cell| <= R = isqrt(3 4^k) + 2, the 2 covering
    rint and round-off at every level the dense route reaches (k <= 24, as
    n <= CELL_CAP).  When 2R + 1 is at most 4n, the dense route projects
    _BLOCK cells at a time into cache-sized buffers and marks each cell in
    one occupancy array of 2R + 1 flags; sparser sets (such as products of
    thin Cantor sets at large k) project all cells at once and sort them
    with `group_rows`.  Both routes give the same sorted cells, and the
    route depends on the level and n only.  A non-finite theta raises
    DomainError.
    """
    if a.ambient_dim != 3:
        raise ConfigurationError("project_line expects a 3-D set")
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    gamma = curve.points(np.array([theta]))[0]
    x, n = a.float_indices, len(a)
    bound = math.isqrt(3 * 4**a.level) + 2
    if 2 * bound + 1 <= 4 * n:
        occupied = np.zeros(2 * bound + 1, dtype=bool)
        m = min(n, _BLOCK)
        out, tmp, idx = np.empty(m), np.empty(m), np.empty(m, dtype=np.intp)
        for lo in range(0, n, _BLOCK):
            w = min(n - lo, _BLOCK)
            v = np.rint(dot3(x[:, lo : lo + w], gamma, out[:w], tmp[:w]), out=out[:w])
            v += bound
            np.copyto(idx[:w], v, casting="unsafe")  # exact: v holds integers
            occupied[idx[:w]] = True
        cells = np.flatnonzero(occupied) - bound
    else:
        cells = np.rint(dot3(x, gamma, np.empty(n), np.empty(n))).astype(np.int64)
        cells = cells[group_rows(cells[:, None])[0]]
    return PointSet(
        1, a.delta, cells[:, None], nominal_dim=min(1.0, a.nominal_dim), domain="ball"
    )


def box_counts(p: PointSet, level: int) -> int:
    """Number of aligned dyadic cubes of side 2^-level meeting the set.

    RangeError unless level is an integer in 0..p.level.  In 1-D the
    ancestors of the sorted cells are sorted too, so the count is the number
    of steps between neighbours, plus one for a non-empty set.
    """
    k, level = p.level, _integer_level("box level", level)
    if not 0 <= level <= k:
        raise RangeError(f"box level must lie in [0, {k}], got {level}")
    if p.ambient_dim == 1:
        anc = p.indices[:, 0] >> (k - level)
        return int(np.count_nonzero(np.diff(anc))) + (len(anc) > 0)
    return len(p.tree[level].nodes)


def _line_fit(xs, ys) -> tuple[float, float]:
    """Least-squares line through (xs, ys): (slope, intercept), in closed form.

    slope = sum dx (y - ybar) / sum dx^2 with dx = x - xbar, every sum a
    correctly rounded `math.fsum`: unlike np.polyfit, which solves through
    LAPACK, no BLAS kernel or summation order moves the bits.
    """
    xs, ys = [float(x) for x in xs], [float(y) for y in ys]
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dxs = [x - xbar for x in xs]
    slope = math.fsum(dx * (y - ybar) for dx, y in zip(dxs, ys)) / math.fsum(
        dx * dx for dx in dxs
    )
    return slope, ybar - slope * xbar


def box_dimension(p: PointSet, r_min: float, r_max: float) -> DimensionFit:
    """Least-squares box-counting dimension over dyadic scales in [r_min, r_max].

    RangeError unless both are finite, delta <= r_min, 0 < r_max <= 1."""
    if len(p) == 0:
        raise ConfigurationError("cannot fit an empty set")
    if not (math.isfinite(r_min) and math.isfinite(r_max)):
        raise RangeError(f"r_min and r_max must be finite, got {r_min} and {r_max}")
    if r_min < p.delta:
        raise RangeError(f"r_min {r_min} is below the lattice scale {p.delta}")
    if not 0.0 < r_max <= 1.0:
        raise RangeError(f"r_max must lie in (0, 1], got {r_max}")
    m_lo = int(math.ceil(-math.log2(r_max) - 1e-9))
    m_hi = int(math.floor(-math.log2(r_min) + 1e-9))
    if m_hi - m_lo + 1 < 3:
        raise RangeError(f"need at least 3 dyadic scales in [{r_min}, {r_max}]")
    ms = np.arange(m_lo, m_hi + 1)
    counts = np.array([box_counts(p, int(m)) for m in ms], dtype=float)
    xs = ms.astype(float)  # log2(1/r)
    ys = np.log2(counts)
    slope, intercept = _line_fit(xs, ys)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return DimensionFit(counts=counts, slope=slope, r2=r2)


def theorem_bound(s: float, alpha: float) -> float:
    """Upper bound max{0, 1 + (s - alpha)/2} for the exceptional-set dimension.

    DomainError for a NaN s or alpha, which max() would turn into 0."""
    if math.isnan(s) or math.isnan(alpha):
        raise DomainError(f"s and alpha must be numbers, got {s} and {alpha}")
    return max(0.0, 1.0 + (s - alpha) / 2.0)


def _auto_fit_range(delta: float):
    k = dyadic_level(delta)
    if k >= 6:
        return 4 * delta, 2.0**-2  # drop the two noisiest octaves at each end
    if k >= 3:
        return delta, 2.0**-1
    return delta, 1.0


def exceptional_sweep(
    a: PointSet,
    curve: Curve,
    s: float,
    theta_grid: int = 256,
    margin: float = DEFAULT_MARGIN,
    map_fn=map,
):
    """Estimate dim rho_theta(a) across a uniform theta grid.

    Returns (rows, summary): one SweepRow per theta = i/theta_grid, and a
    summary with the exceptional fraction, a box fit of the flagged theta
    set, and the comparison bound max{0, 1 + (s - alpha)/2}.  The per-theta
    fits run through `map_fn` (any order-preserving `map`, such as a thread
    pool's), so the result does not depend on it; a non-integer theta_grid raises RangeError.
    Before any projection, DomainError unless 0 <= s <= 1 and the margin is
    finite, and ConfigurationError unless a's nominal_dim is finite.
    """
    if not (0.0 <= s <= 1.0 and math.isfinite(margin)):
        raise DomainError(f"need 0 <= s <= 1 and a finite margin, got s={s}, margin={margin}")
    if not math.isfinite(a.nominal_dim):
        raise ConfigurationError("exceptional_sweep needs nominal_dim metadata")
    theta_grid = _integer_level("theta_grid", theta_grid)
    if theta_grid < 2:
        raise ConfigurationError("theta_grid must be at least 2")
    if theta_grid > CELL_CAP:  # map_fn may submit every theta up front
        raise CapacityError(f"theta_grid {theta_grid} exceeds the cap {CELL_CAP}")
    r_min, r_max = _auto_fit_range(a.delta)

    def row(i: int) -> SweepRow:
        theta = i / theta_grid
        fit = box_dimension(project_line(a, curve, theta), r_min, r_max)
        return SweepRow(
            theta=theta,
            est_dim=fit.slope,
            r2=fit.r2,
            below_s=bool(fit.slope < s - margin),
        )

    rows = list(map_fn(row, range(theta_grid)))
    flagged = [r.theta for r in rows if r.below_s]
    frac = len(flagged) / theta_grid
    exc_fit = 0.0
    if flagged:
        k_theta = max(3, math.ceil(math.log2(theta_grid)))
        idx = np.unique(
            np.round(np.array(flagged) * 2**k_theta).astype(np.int64)
        )[:, None]
        exc_set = PointSet(1, 2.0**-k_theta, idx, nominal_dim=1.0)
        try:
            exc_fit = box_dimension(exc_set, 4 * exc_set.delta, 0.25).slope
        except RangeError:
            exc_fit = 0.0
    summary = {
        "s": s,
        "alpha": a.nominal_dim,
        "bound": theorem_bound(s, a.nominal_dim),
        "exceptional_fraction": frac,
        "exceptional_dim_fit": exc_fit,
    }
    return rows, summary
