"""Frequency-side laboratory: cone geometry, tube functions, decoupling.

Grid functions live on the periodic box [0, M)^3 with unit spacing, so the
frequency lattice is (delta Z)^3 in [-1/2, 1/2)^3 with delta = 1/M.  The
nominal cone over the direction curve is embedded at half the Nyquist
radius (frequency scale 1/2) so its full radial range fits the lattice
box; every stated plank dimension is in the nominal units.  Frequency
lattice points are assigned to unique caps, which makes all restriction
and orthogonality identities exact.

A cap's L4 norm needs no transform.  With g_cap(x) = sum_xi c(xi) e(xi.x)
over the cap's lattice points, g_cap^2 has coefficients
h(eta) = sum_{xi1 + xi2 = eta (mod 1)} c(xi1) c(xi2), so by Parseval

    sum_x |g_cap(x)|^4 = M^3 sum_eta |h(eta)|^2,

the additive energy of the cap's coefficients; `decoupling_ratio` sums it
over the caps from the one forward transform of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curve import Curve, _check_seed, direction_net, frame, nondegeneracy_margin
from .dyadic import _BLOCK, _readonly, _Record, dot3, dyadic_level, group_rows, spacing_scan
from .errors import (
    CapacityError,
    ConfigurationError,
    DomainError,
    GeometryError,
    NumericError,
    PreconditionError,
)
from .incidence import SlabFamily

GRID_SIZES = (16, 32, 64, 128)

#: cone embedding scale: nominal radius 1 sits at frequency 1/2
FREQ_SCALE = 0.5

#: the cone is {r gamma(theta) : RADIAL_FLOOR <= r <= 1} in nominal units
RADIAL_FLOOR = 0.5

#: fine direction samples per cap for the nearest-direction assignment
FINE_PER_CAP = 4

#: largest t-spacing constant `decoupling_ratio` accepts
MAX_SPACING_CONSTANT = 64.0


def _runs(keys: np.ndarray) -> tuple:
    """(distinct keys, each key's index among them) of a sorted 1-D integer array."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new], new.cumsum() - 1


def _synthesize(rows: np.ndarray, lines: np.ndarray, out: np.ndarray):
    """Write sum_xi c(xi) exp(2 pi i xi.x), the bytes of ifftn(c) * M^3, into out.

    c is zero but on the (i, j) lines of axis 2 whose flat indices i M + j
    are `lines`, sorted and distinct; `rows[n]` is c on line `lines[n]`.
    ifftn runs axis 2, then 1, then 0, one line at a time, and the
    transform of a zero line is exactly 0, so axis 2 runs on those lines
    only and axis 1 on their i slabs only, held compactly.  Axis 0 runs on
    a zeroed (M, jb, M) stage, jb = min(M, _BLOCK // M^2) j-columns at a
    time (all M up to M = 32, 8 at M = 64, 2 at M = 128), whose slab rows
    are refilled per chunk; each chunk goes straight to out[:, j:j + jb],
    as samples when out is complex and as their squared moduli when it is
    real.  The passes run unscaled (norm="forward"): ifftn's 1/M per axis
    and the factor M^3 are powers of two, so leaving both out keeps the bits.
    """
    M = out.shape[0]
    jb = min(M, _BLOCK // (M * M))
    dtype = np.result_type(rows, 1j)  # ifft's output dtype
    slabs, at = _runs(lines // M)
    slab = np.zeros((slabs.size, M, M), dtype=dtype)
    slab[at, lines % M] = np.fft.ifft(rows, norm="forward")
    np.fft.ifft(slab, axis=1, norm="forward", out=slab)
    stage = np.zeros((M, jb, M), dtype=dtype)
    res = None if np.iscomplexobj(out) else np.empty_like(stage)
    for j in range(0, M, jb):
        stage[slabs] = slab[:, j : j + jb]
        dest = out[:, j : j + jb]
        if res is None:
            np.fft.ifft(stage, axis=0, norm="forward", out=dest)
        else:
            np.fft.ifft(stage, axis=0, norm="forward", out=res)
            np.square(np.abs(res, out=dest), out=dest)


def _check_shape(M, shape: tuple, what: str) -> None:
    """CapacityError unless M is in GRID_SIZES, ConfigurationError unless shape is (M, M, M)."""
    if M not in GRID_SIZES:
        raise CapacityError(f"grid side must be one of {GRID_SIZES}, got {M}")
    if shape != (M,) * 3:
        raise ConfigurationError(f"{what} must have shape (M, M, M)")


@dataclass(frozen=True, eq=False)
class GridFunction(_Record):
    """Complex function on the periodic grid [0, M)^3 with unit spacing.

    `samples` is read-only: a writable array (or a view) from the caller is
    copied first, so the forward transform and the L4 norm are computed
    once per function and kept.
    """

    M: int
    samples: np.ndarray

    def __post_init__(self):
        _check_shape(self.M, np.shape(self.samples), "samples")
        object.__setattr__(self, "samples", _readonly(self.samples))

    @cached_property
    def _coeffs(self) -> np.ndarray:
        out = np.fft.fftn(self.samples) / self.M**3
        out.flags.writeable = False
        return out

    @cached_property
    def _l4(self) -> float:
        a = np.abs(self.samples)
        return float(np.sum(np.power(a, 4, out=a)))

    def coeffs(self) -> np.ndarray:
        """Coefficients c(xi) with f(x) = sum_xi c(xi) exp(2 pi i xi.x): one read-only array."""
        return self._coeffs

    @staticmethod
    def from_coeffs(coeffs: np.ndarray) -> "GridFunction":
        """The samples np.fft.ifftn(coeffs) * M^3, written chunk by chunk and kept uncopied.

        The shape is checked as the constructor checks it, before anything
        is allocated: CapacityError for a side not in GRID_SIZES,
        ConfigurationError for a shape other than (M, M, M).
        """
        shape = np.shape(coeffs)
        M = shape[0] if shape else None
        _check_shape(M, shape, "coefficients")
        a = np.empty(shape, dtype=np.result_type(coeffs, 1j))  # ifft's output dtype
        lines = np.flatnonzero(coeffs.any(axis=2))
        _synthesize(coeffs.reshape(M * M, M)[lines], lines, a)
        a.flags.writeable = False
        return GridFunction(M, a)

    def physical_energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2))

    def frequency_energy(self) -> float:
        return float(self.M**3 * np.sum(np.abs(self.coeffs()) ** 2))

    def parseval_error(self) -> float:
        p, f = self.physical_energy(), self.frequency_energy()
        if p == 0 and f == 0:
            return 0.0
        return abs(p - f) / max(p, f)


def l4_norm(g: GridFunction) -> float:
    """Integral of |g|^4 over the box with unit cell weight, computed once per function."""
    return g._l4


def _check_support(coeffs: np.ndarray, support: np.ndarray, what: str) -> None:
    """Raise PreconditionError when over 1e-10 of the coefficient energy is off the support.

    The energy |c|^2 is the one float array: after its total, the entries
    off the support move to its front, _BLOCK entries at a time, and their
    sum there has the bits of np.sum(energy[~support]).
    """
    energy = np.abs(coeffs)
    np.square(energy, out=energy)
    total = float(np.sum(energy))
    if not math.isfinite(total):
        raise NumericError(f"coefficient energy is {total}; the function has non-finite values")
    n = 0
    for lo in range(0, energy.size, _BLOCK):
        off = energy[lo : lo + _BLOCK][~support[lo : lo + _BLOCK]]
        energy[n : n + off.size] = off
        n += off.size
    leak = float(np.sum(energy[:n])) / total if total > 0 else 0.0
    if leak > 1e-10:
        raise PreconditionError(f"{what}: {leak:.3g} of the energy")


def _grid_rows(r: np.ndarray) -> tuple:
    """Rows of the C-ordered grid r x r x r as broadcasting views; `dot3` of them is (m, m, m)."""
    return r[:, None, None], r[None, :, None], r[None, None, :]


@dataclass(frozen=True)
class ConeGeometry:
    """Cap/plank hierarchy over the scaled cone plus the lattice assignment.

    The cone has the one radial range [RADIAL_FLOOR, 1], so there is one cap
    per direction: assignment[i] = direction index of lattice point i (FFT
    order), -1 off the cone.  sigma planks are the finest tau_s family
    (angular width s_min): sigma j is the run of caps j M s_min, ...,
    (j + 1) M s_min - 1, so a point's sigma is its cap // (M s_min), and
    consecutive sigmas nest into each tau_s.  The grid side, the direction
    count and the dyadic s values follow from delta, and the read-only
    assignment and `envelope_boxes` from the immutable curve and delta, so
    two geometries are equal when those two are and the boxes cannot go stale.
    """

    curve: Curve
    delta: float
    assignment: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "assignment", _readonly(self.assignment))

    @property
    def M(self) -> int:
        return round(1.0 / self.delta)

    @property
    def n_caps(self) -> int:
        return self.M

    @property
    def s_values(self) -> tuple:
        """Dyadic s from s_min = 2^-(k//2) up to 1, with delta = 2^-k."""
        k = dyadic_level(self.delta)
        return tuple(2.0**-m for m in range(k // 2, -1, -1))

    @property
    def s_min(self) -> float:
        return self.s_values[0]

    def n_sigma(self) -> int:
        return round(1.0 / self.s_min)

    @cached_property
    def envelope_boxes(self) -> dict:
        """(s, tau index) -> box id of every lattice point, for s < 1.

        The boxes are sharp-indicator translates of U_tau (dimensions
        delta^-1 x delta^-1 s x delta^-1 s^2 along the `frame` at (cap + 1/2)
        delta for the tau's central cap), binned on the grid indices minus M/2 with
        no wrap-around, so one box is centred at grid index (M/2, M/2, M/2),
        not at the origin; they partition the fundamental domain exactly.
        Box codes are mixed-radix in the per-axis bins, and an id is its
        code's rank among the occupied codes, so ids run densely from 0 in
        lexicographic box order.  Built on first use and kept as the rows of one
        (n_tau, M^3) uint16 array (at most 1,470 boxes per tau up to
        M = 128): 7.3 MB at M = 64 and 59 MB at M = 128.  The block is made
        before the build's temporaries, so the free space they leave is one
        run; rows made between them would split it, and a process's peak
        RSS would then depend on what ran before the first build.
        """
        M = self.M
        taus = [(s, ti) for s in self.s_values[:-1] for ti in range(round(1.0 / s))]
        ids = np.empty((len(taus), M**3), dtype=np.uint16)
        axes = _grid_rows(np.arange(M) - M / 2)
        caps = np.array([int((ti + 0.5) * s / self.delta) for s, ti in taus])
        frames = zip(*frame(self.curve, (caps + 0.5) * self.delta))
        for row, (s, ti), (gam, tan, nor) in zip(ids, taus, frames):
            widths = (float(M), float(M * s), float(M * s * s))
            code = 0
            for e, w in zip((nor, tan, gam), widths):
                b = np.floor((dot3(axes, e) + w / 2) / w).astype(np.int64).ravel()
                lo = b.min()
                code = code * (b.max() - lo + 1) + (b - lo)
            rank = np.cumsum(np.bincount(code) > 0) - 1
            row[:] = rank[code]
        ids.flags.writeable = False
        return dict(zip(taus, ids))


def _segment_dist2(points, norms2: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Squared distance of the points, coordinates first as `dot3` takes them, to [lo, hi] gamma."""
    lo, hi = FREQ_SCALE * RADIAL_FLOOR, FREQ_SCALE
    p = dot3(points, gamma)
    return norms2 - p * p + (p - np.clip(p, lo, hi)) ** 2


def build_geometry(curve: Curve, delta: float) -> ConeGeometry:
    """Assign every frequency lattice point near the cone to a unique cap.

    A lattice point joins the cone neighbourhood when its distance to the
    radial segment [lo, hi] gamma(theta) (lo = FREQ_SCALE * RADIAL_FLOOR,
    hi = FREQ_SCALE) is at most delta for some theta on a fine grid
    (FINE_PER_CAP samples per cap); its cap is the direction holding the
    closest such theta, the lowest one on ties, so the assignment is a
    partition by construction.

    Each fine theta measures only the lattice points of its segment's
    bounding box, widened by one grid step and rounded out to whole steps,
    [floor(min end) - 1, ceil(max end) + 1] per axis in grid steps, clipped
    to the lattice.  A point within delta (one step) of the segment is
    within one step of it on every axis, so it lies in the box with a step
    to spare for rounding; and a theta farther than delta from a point is
    never its closest theta.  Lattice coordinates are multiples of 1/M, so
    their squared norms are exact and each (point, theta) distance has the
    bits that a search over every point and theta gives.  One sort of the
    kept (point, distance, theta index) entries picks each point's closest
    theta.
    """
    k = dyadic_level(delta)
    M = 2**k
    if M not in GRID_SIZES:
        raise CapacityError(f"delta=2^-{k} needs grid side {M}, not in {GRID_SIZES}")
    if nondegeneracy_margin(curve) <= 0:
        raise GeometryError(
            f"curve {curve.label!r} is degenerate; plank frames need gamma' x gamma != 0"
        )
    thetas = np.linspace(0.0, 1.0, FINE_PER_CAP * M + 1)
    gammas = curve.points(thetas)
    ends = np.stack([FREQ_SCALE * RADIAL_FLOOR * gammas, FREQ_SCALE * gammas]) * M
    first = np.clip(np.floor(ends.min(axis=0)) - 1, -M // 2, M // 2 - 1).astype(np.int64)
    last = np.clip(np.ceil(ends.max(axis=0)) + 1, -M // 2, M // 2 - 1).astype(np.int64)

    flats, dists = [], []
    for gamma, a, b in zip(gammas, first, last):
        steps = [np.arange(u, v + 1) for u, v in zip(a, b)]
        box = np.ix_(*[r / M for r in steps])
        dist2 = _segment_dist2(box, dot3(box, box), gamma)
        near = np.nonzero(dist2 <= delta**2)
        flats.append(np.ravel_multi_index([r[n] for r, n in zip(steps, near)], (M,) * 3, "wrap"))
        dists.append(dist2[near])
    ti = np.repeat(np.arange(len(thetas)), [len(f) for f in flats])
    flat, dist2 = np.concatenate(flats), np.concatenate(dists)
    order = np.lexsort((ti, dist2, flat))
    _, head = np.unique(flat[order], return_index=True)
    closest = order[head]

    assignment = np.full(M**3, -1, dtype=np.int32)
    caps = (thetas[ti[closest]] / delta).astype(np.int64)
    assignment[flat[closest]] = np.minimum(caps, M - 1)
    assignment.flags.writeable = False
    return ConeGeometry(curve=curve, delta=delta, assignment=assignment)


# ----------------------------------------------------------------------------
# tube functions and the high/low split


def _radial_window(u: np.ndarray) -> np.ndarray:
    """Raised-cosine profile along the tube: flat on |u| <= 1/4, 0 at 1/2."""
    a = np.abs(u)
    taper = np.clip((a - 0.25) / 0.25, 0.0, 1.0)
    return np.where(a <= 0.5, np.cos(np.pi * taper / 2) ** 2, 0.0)


def tube_mask(M: int, gamma: np.ndarray, tangent: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Lattice points of the delta x delta x 1 tube along gamma at the origin.

    The transverse cross-section is widened by one lattice step per side so
    that every radial slot of the tube axis owns a lattice representative;
    the widening slack is absorbed into the finitely-overlapping constants.
    """
    rows = _grid_rows(np.fft.fftfreq(M))
    return _in_tube(rows, np.abs(dot3(rows, gamma)), tangent, normal)


def _in_tube(rows: tuple, radial: np.ndarray, tangent: np.ndarray, normal: np.ndarray):
    """`tube_mask` from the grid's rows and their |xi . gamma|, flattened."""
    half = 1.0 / rows[0].size + 1e-15
    return (
        (radial <= 0.5)
        & (np.abs(dot3(rows, tangent)) <= half)
        & (np.abs(dot3(rows, normal)) <= half)
    ).ravel()


def tube_axis_points(M: int, gamma: np.ndarray):
    """One lattice point per radial slot of the tube, nearest to the axis.

    Returns (flat fft indices, their exact radial coordinates xi.gamma); the
    deduplicated points all lie in the widened tube and their radial
    coordinates spread evenly over [-1/2, 1/2), which is what makes the
    synthesized bumps localize.
    """
    ms = np.arange(-M // 2, M // 2)
    targets = np.outer(ms / M, gamma)
    idx = np.round(targets * M).astype(np.int64) % M
    flat = (idx[:, 0] * M + idx[:, 1]) * M + idx[:, 2]
    flat, keep = np.unique(flat, return_index=True)
    signed = np.round(targets[keep] * M).astype(np.int64) / M  # true lattice coords
    return flat, dot3(signed.T, gamma)


def synth_tube_function(family: SlabFamily, geometry: ConeGeometry) -> GridFunction:
    """Sum of slab bumps with frequency support on the direction's tube.

    The coefficient at xi is omega(xi.gamma)/W * sum_S exp(-2 pi i c_S xi.gamma)
    with c_S the slab offsets in grid units and W the window mass, so a
    single slab peaks at height ~1 on its central plane.  The family's
    direction must match one of the geometry's cap directions.
    """
    M = geometry.M
    th = family.theta
    if not (0.0 <= th <= 1.0):
        raise ConfigurationError(
            f"family direction {th} has no tube in the geometry (delta={geometry.delta})"
        )
    gamma, tan, nor = frame(geometry.curve, th)
    offsets = family.offsets * (1.0 / family.thickness)  # in grid units
    flat, u = tube_axis_points(M, gamma)
    w = _radial_window(u)
    total = w.sum()
    if total == 0:
        raise ConfigurationError("tube holds no lattice points inside the window")
    coeffs = np.zeros(M**3, dtype=complex)
    if len(offsets):
        phases = np.exp(-2j * np.pi * np.outer(offsets, u)).sum(axis=0)
        coeffs[flat] = (w / total) * phases
    return GridFunction.from_coeffs(coeffs.reshape((M,) * 3))


def choose_K(delta: float, s: float) -> int:
    """Power of two nearest (log2 delta^-1)^(2/(1-s)), clamped to [2, delta^-1/2]."""
    if not (0.0 < s < 1.0):
        raise DomainError(f"the exponent 2/(1-s) needs 0 < s < 1, got s={s}")
    k = dyadic_level(delta)
    raw = float(k) ** (2.0 / (1.0 - s))
    power = round(math.log2(raw))
    hi = 2 ** (k // 2)
    return int(min(max(2, 2**power), hi))


def high_low_split(
    f_theta: GridFunction, theta: float, K: int, geometry: ConeGeometry
):
    """Split a tube function at radial height 1/K along gamma(theta).

    Multiplies the coefficients by a smooth partition pair transitioning
    over [1/(2K), 1/K] in |xi.gamma|; reconstruction f_high + f_low = f is
    exact on the lattice.  Raises DomainError for K < 1 and PreconditionError
    on frequency support leaking outside the tube.
    """
    if K < 1:
        raise DomainError(f"the split height 1/K needs K >= 1, got K={K}")
    M = f_theta.M
    gamma, tan, nor = frame(geometry.curve, theta)
    coeffs = f_theta.coeffs().ravel()
    rows = _grid_rows(np.fft.fftfreq(M))
    radial = np.abs(dot3(rows, gamma))  # shared by the tube test and the ramp
    mask = _in_tube(rows, radial, tan, nor)
    _check_support(coeffs, mask, "frequency support leaks outside the tube")
    u = radial.ravel()
    lo, hi = 0.5 / K, 1.0 / K
    ramp = np.clip((u - lo) / (hi - lo), 0.0, 1.0)
    eta_high = np.sin(np.pi * ramp / 2) ** 2
    ch = (coeffs * eta_high).reshape((M,) * 3)
    cl = (coeffs * (1.0 - eta_high)).reshape((M,) * 3)
    return GridFunction.from_coeffs(ch), GridFunction.from_coeffs(cl)


# ----------------------------------------------------------------------------
# cap restriction, t-spacing, decoupling


def _check_grid(g: GridFunction, geometry: ConeGeometry) -> None:
    if g.M != geometry.M:
        raise ConfigurationError(
            f"function on a {g.M}^3 grid against a geometry on a {geometry.M}^3 grid"
        )


def _cap_l4(coeffs: np.ndarray, points: np.ndarray, M: int) -> float:
    """l4_norm of the function with coefficients coeffs[points], by additive energy."""
    idx = np.stack(np.unravel_index(points, (M, M, M)), axis=1)
    eta = (idx[:, None, :] + idx[None, :, :]).reshape(-1, 3) % M
    c = coeffs[points]
    prods = np.outer(c, c).ravel()
    _, group = group_rows(eta)
    h_re = np.bincount(group, weights=prods.real)
    h_im = np.bincount(group, weights=prods.imag)
    return float(M**3 * np.sum(h_re**2 + h_im**2))


def _check_caps(cap_ids, geometry: ConeGeometry) -> None:
    """Raise ConfigurationError on a cap id that is not an integer in 0..n_caps - 1."""
    ids = np.asarray(cap_ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ConfigurationError(f"cap ids must be integers, got dtype {ids.dtype}")
    bad = ids[(ids < 0) | (ids >= geometry.n_caps)]
    if bad.size:
        raise ConfigurationError(f"cap {bad[0]} outside 0..{geometry.n_caps - 1}")


def cap_restrict(g: GridFunction, cap_id: int, geometry: ConeGeometry) -> GridFunction:
    """Zero all coefficients not assigned to the cap; linear and idempotent."""
    _check_grid(g, geometry)
    _check_caps(cap_id, geometry)
    coeffs = np.where(geometry.assignment == cap_id, g.coeffs().ravel(), 0)
    return GridFunction.from_coeffs(coeffs.reshape((g.M,) * 3))


@dataclass(frozen=True, eq=False)
class CapSubset(_Record):
    """Distinct direction indices of selected caps, meant to form a (delta, t)-set.

    The spacing constant is not stored: `decoupling_ratio` scans for it.
    """

    t: float
    directions: np.ndarray

    def __post_init__(self):
        d = _readonly(self.directions)
        if d.ndim != 1 or np.unique(d).size != d.size:
            raise ConfigurationError("cap directions must be a 1-D array of distinct indices")
        if not np.issubdtype(d.dtype, np.integer):
            raise ConfigurationError(f"cap directions must be integers, got dtype {d.dtype}")
        object.__setattr__(self, "directions", d)

    def __len__(self) -> int:
        return int(self.directions.size)


def tspacing_subsample(geometry: ConeGeometry, t: float, seed: int) -> CapSubset:
    """Select cap directions forming a (delta, t)-set at every angular scale.

    Reuses the direction-net construction, which keeps at most
    ceil((r/delta)^t) <= 2 (r/delta)^t points in every aligned dyadic window
    of length r (the full grid at t = 1 does too).  A closed window of
    length r meets at most two aligned ones, so the spacing constant is at
    most 4 and no scan runs here; `decoupling_ratio` checks the condition
    on whatever subset it is given.
    """
    net = direction_net(geometry.delta, t, seed)
    dirs = np.unique(np.minimum(net.indices, geometry.n_caps - 1))
    return CapSubset(t=t, directions=dirs)


@dataclass(frozen=True)
class DecouplingReport:
    lhs: float
    rhs: float
    ratio: float
    t: float
    delta: float
    n_caps: int


def decoupling_ratio(g: GridFunction, caps: CapSubset, geometry: ConeGeometry) -> DecouplingReport:
    """Measure integral |g|^4 against delta^-t sum_caps integral |g_cap|^4.

    Preconditions: the frequency support of g sits on the selected caps'
    lattice points, and the caps satisfy the t-spacing condition with
    constant at most MAX_SPACING_CONSTANT (witness reported on violation).

    Each integral |g_cap|^4 is the additive energy M^3 sum_eta |h(eta)|^2
    with h(eta) = sum_{xi1 + xi2 = eta (mod 1)} c(xi1) c(xi2) over the cap's
    lattice points (Parseval for g_cap^2), so the call does one forward
    transform and no inverse one.
    """
    _check_grid(g, geometry)
    _check_caps(caps.directions, geometry)
    dirs = np.asarray(caps.directions, dtype=np.int64)
    worst, witness = spacing_scan(dirs[:, None], dyadic_level(geometry.delta), caps.t)
    if worst > MAX_SPACING_CONSTANT:
        raise PreconditionError(
            f"t-spacing violated: constant {worst:.3g} at angular window r={witness[0]}"
        )
    coeffs = g.coeffs().ravel()
    allowed = np.isin(geometry.assignment, caps.directions)
    _check_support(coeffs, allowed, "support leaks off the selected caps")
    lhs = l4_norm(g)
    points = np.nonzero(allowed)[0]
    owner = geometry.assignment[points]
    rhs_sum = 0.0
    for cid in caps.directions:
        rhs_sum += _cap_l4(coeffs, points[owner == cid], geometry.M)
    rhs = geometry.delta ** (-caps.t) * rhs_sum
    ratio = 0.0 if rhs == 0 else lhs / rhs
    return DecouplingReport(
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        t=caps.t,
        delta=geometry.delta,
        n_caps=len(caps),
    )


def random_cap_function(geometry: ConeGeometry, caps: CapSubset, seed: int) -> GridFunction:
    """Unit-amplitude random-phase coefficients on the selected caps, seeded as nets are."""
    _check_caps(caps.directions, geometry)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    M = geometry.M
    coeffs = np.zeros(M**3, dtype=complex)
    sel = np.isin(geometry.assignment, caps.directions)
    coeffs[sel] = np.exp(2j * np.pi * rng.random(int(sel.sum())))
    return GridFunction.from_coeffs(coeffs.reshape((M,) * 3))


# ----------------------------------------------------------------------------
# wave envelopes


@dataclass(frozen=True)
class WaveEnvelopeReport:
    per_s: dict
    total: float
    l4: float
    quotient: float


def wave_envelope_rhs(f: GridFunction, geometry: ConeGeometry) -> WaveEnvelopeReport:
    """Sum over s, tau_s and envelope boxes U of |U|^-1 ||S_U f||_2^4.

    S_U f collects sum_{sigma in tau_s} |f_sigma|^2 over the box U; the
    boxes are `ConeGeometry.envelope_boxes` (at s = 1 the one box is the
    whole periodic domain), so a call bins each tau's field with one
    np.bincount over dense ids: the box masses come out as one array in
    lexicographic box order, as a sort-based grouping gives them.

    The sigma fields stream in order.  Each |f_sigma|^2 comes from one
    `_synthesize` call on the lines that hold the sigma's own points, into
    one real M^3 field.  Tau j at scale s is the ordered sum of sigmas j m,
    ..., (j + 1) m - 1 with m = s / s_min, so the taus of all scales that
    start at the same sigma share one running sum, kept in that sigma's
    field; each tau is binned when its last sigma is in, so each scale's
    terms are added in tau order, and at most one real M^3 field per scale
    is alive at a time.
    """
    _check_grid(f, geometry)
    M = geometry.M
    coeffs = f.coeffs().ravel()
    _check_support(coeffs, geometry.assignment >= 0, "support leaks off the cone neighbourhood")
    # the boxes are built before the sigma fields hold memory, and no cone mask is
    # kept across the build: with one held, a first call at M = 128 took about 15%
    # longer (2 vCPUs)
    boxes = geometry.envelope_boxes
    on = np.flatnonzero(geometry.assignment >= 0)  # a few points per cap, in FFT order
    sigma = geometry.assignment[on] // round(geometry.s_min * M)
    n_sigma = geometry.n_sigma()
    spans = {s: round(s * n_sigma) for s in geometry.s_values}  # sigmas per tau
    per_s = dict.fromkeys(geometry.s_values, 0.0)
    sums, spare = {}, []  # first sigma -> running sum of the open taus from it; free fields
    for si in range(n_sigma):
        points = on[sigma == si]
        lines, at = _runs(points // M)
        rows = np.zeros((lines.size, M), dtype=coeffs.dtype)
        rows[at, points % M] = coeffs[points]
        field = spare.pop() if spare else np.empty(M**3)
        _synthesize(rows, lines, field.reshape((M,) * 3))
        for acc in sums.values():
            np.add(acc, field, out=acc)
        sums[si] = field
        for s, m in spans.items():
            if (si + 1) % m:
                break  # a coarser tau ends on a multiple of m too
            lo = si + 1 - m
            acc = sums[lo]
            box_vol = M**3 * s**3
            if s == 1.0:
                # U_{tau_1} is the full periodic box: one sharp box, exactly
                per_s[s] += float(acc.sum() ** 2 / box_vol)
            else:
                masses = np.bincount(boxes[s, lo // m], weights=acc)
                per_s[s] += float(np.sum(masses**2) / box_vol)
            if lo % (2 * m) or m == n_sigma:  # no coarser tau starts at lo
                spare.append(sums.pop(lo))
    total = 0.0
    for value_s in per_s.values():  # left to right; sum() compensates from Python 3.12
        total += value_s
    l4 = l4_norm(f)
    quotient = 0.0 if total == 0 else l4 / total
    return WaveEnvelopeReport(per_s=per_s, total=total, l4=l4, quotient=quotient)
