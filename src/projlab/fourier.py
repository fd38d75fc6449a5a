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

from .curve import Curve, direction_net, frame, nondegeneracy_margin
from .dyadic import dyadic_level, group_rows, spacing_scan
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

#: fine thetas per cell of build_geometry's coarse pruning pass
_COARSE_STRIDE = 16

#: (relative, absolute) slack of build_geometry's pruning tests, for rounding
_PRUNE_SLACK = (1e-9, 1e-12)

#: largest t-spacing constant `decoupling_ratio` accepts
MAX_SPACING_CONSTANT = 64.0


def _synthesize(coeffs: np.ndarray, lines: np.ndarray, stage: np.ndarray, out: np.ndarray):
    """Write sum_xi coeffs(xi) exp(2 pi i xi.x) into out: the bytes of ifftn(coeffs) * M^3.

    `lines` holds the flat indices i M + j, sorted and distinct, of every
    (i, j) line on axis 2 where coeffs may be nonzero; `stage` is a zeroed
    complex (M, M, M) buffer.  ifftn runs axis 2, then 1, then 0, one line
    at a time, and the transform of a zero line is exactly 0, so only those
    lines run on axis 2 and only their i slabs on axis 1.  The passes run
    unscaled (norm="forward"): ifftn's 1/M per axis and the factor M^3 are
    powers of two, so leaving both out keeps the bits.  Unless out is stage,
    the slab rows of stage go back to 0, so the next call can reuse it.
    """
    M = coeffs.shape[0]
    stage.reshape(M * M, M)[lines] = np.fft.ifft(coeffs.reshape(M * M, M)[lines], norm="forward")
    slabs = np.unique(lines // M)
    stage[slabs] = np.fft.ifft(stage[slabs], axis=1, norm="forward")
    np.fft.ifft(stage, axis=0, norm="forward", out=out)
    if out is not stage:
        stage[slabs] = 0
    return out


@dataclass(frozen=True)
class GridFunction:
    """Complex function on the periodic grid [0, M)^3 with unit spacing.

    `samples` is read-only: a writable array (or a view) from the caller is
    copied first, so the forward transform and the L4 norm are computed
    once per function and kept.
    """

    M: int
    samples: np.ndarray

    def __post_init__(self):
        if self.M not in GRID_SIZES:
            raise CapacityError(f"grid side must be one of {GRID_SIZES}, got {self.M}")
        if self.samples.shape != (self.M,) * 3:
            raise ConfigurationError("samples must have shape (M, M, M)")
        if self.samples.flags.writeable or self.samples.base is not None:
            samples = self.samples.copy()  # the caller's array stays theirs
            samples.flags.writeable = False
            object.__setattr__(self, "samples", samples)

    @cached_property
    def _coeffs(self) -> np.ndarray:
        out = np.fft.fftn(self.samples) / self.M**3
        out.flags.writeable = False
        return out

    @cached_property
    def _l4(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 4))

    def coeffs(self) -> np.ndarray:
        """Coefficients c(xi) with f(x) = sum_xi c(xi) exp(2 pi i xi.x): one read-only array."""
        return self._coeffs

    @staticmethod
    def from_coeffs(coeffs: np.ndarray) -> "GridFunction":
        """The samples np.fft.ifftn(coeffs) * M^3, synthesised in place and kept uncopied."""
        M = coeffs.shape[0]
        a = np.zeros(coeffs.shape, dtype=np.result_type(coeffs, 1j))  # ifft's output dtype
        _synthesize(coeffs, np.flatnonzero(coeffs.any(axis=2)), a, a)
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
    """Raise PreconditionError when over 1e-10 of the coefficient energy is off the support."""
    energy = np.abs(coeffs) ** 2
    total = float(np.sum(energy))
    if not math.isfinite(total):
        raise NumericError(f"coefficient energy is {total}; the function has non-finite values")
    leak = float(np.sum(energy[~support])) / total if total > 0 else 0.0
    if leak > 1e-10:
        raise PreconditionError(f"{what}: {leak:.3g} of the energy")


def frequency_lattice(M: int) -> np.ndarray:
    """All frequency lattice points, shape (M^3, 3), in FFT index order."""
    xi = np.fft.fftfreq(M)
    a, b, c = np.meshgrid(xi, xi, xi, indexing="ij")
    return np.stack([a.ravel(), b.ravel(), c.ravel()], axis=1)


@dataclass(frozen=True)
class ConeGeometry:
    """Cap/plank hierarchy over the scaled cone plus the lattice assignment.

    The cone has the one radial range [RADIAL_FLOOR, 1], so there is one cap
    per direction: assignment[i] = direction index of lattice point i (FFT
    order), -1 off the cone.  sigma planks are the finest tau_s family
    (angular width s_min): sigma j is the run of caps j M s_min, ...,
    (j + 1) M s_min - 1, so a point's sigma is its cap // (M s_min), and
    consecutive sigmas nest into each tau_s.  The grid side, the direction
    count and the dyadic s values follow from delta.  `build_geometry`
    makes `assignment` and `frames` read-only, so `envelope_boxes`, built
    from `frames` and read-only too, cannot go stale.
    """

    curve: Curve = field(compare=False)
    delta: float
    assignment: np.ndarray = field(compare=False)
    frames: np.ndarray = field(compare=False)  # (n_directions, 3, 3): gamma, t, n rows

    @property
    def M(self) -> int:
        return round(1.0 / self.delta)

    @property
    def n_directions(self) -> int:
        return self.M

    @property
    def n_caps(self) -> int:
        return self.n_directions

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
        delta^-1 x delta^-1 s x delta^-1 s^2 along the plank frame at the
        tau's central direction), binned on the grid indices minus M/2 with
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
        axes = np.indices((M, M, M)).reshape(3, -1).astype(float) - M / 2
        for row, (s, ti) in zip(ids, taus):
            widths = (float(M), float(M * s), float(M * s * s))
            di = int((ti + 0.5) * s / self.delta)
            gam, tan, nor = self.frames[di]
            code = 0
            for e, w in zip((nor, tan, gam), widths):
                b = np.floor((e @ axes + w / 2) / w).astype(np.int64)
                lo = b.min()
                code = code * (b.max() - lo + 1) + (b - lo)
            rank = np.cumsum(np.bincount(code) > 0) - 1
            row[:] = rank[code]
        ids.flags.writeable = False
        return dict(zip(taus, ids))


def _segment_dist2(points: np.ndarray, norms2: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Squared distance of each point to the radial segment [lo, hi] gamma (unit gamma)."""
    lo, hi = FREQ_SCALE * RADIAL_FLOOR, FREQ_SCALE
    p = points @ gamma
    return norms2 - p * p + (p - np.clip(p, lo, hi)) ** 2


def build_geometry(curve: Curve, delta: float) -> ConeGeometry:
    """Assign every frequency lattice point near the cone to a unique cap.

    For each lattice point the closest direction parameter is found on a
    fine grid (FINE_PER_CAP samples per cap, ties to the lower index); the
    point joins the cone neighbourhood when its distance to the radial
    segment [lo, hi] gamma (lo = FREQ_SCALE * RADIAL_FLOOR, hi = FREQ_SCALE)
    is at most delta, and its cap is the direction holding that parameter,
    so the assignment is a partition by construction.

    The fine search runs only on points that can reach the cone:
    - radial shell: every point of the segment has norm in [lo, hi], so the
      distance is at least the gap between |xi| and [lo, hi], and a point
      with |xi| outside [lo - delta, hi + delta] is off the cone;
    - coarse angular pass: every _COARSE_STRIDE-th fine theta is a coarse
      theta, and each fine theta belongs to its nearest one.  With R_c the
      largest chord |gamma_f - gamma_c| over the fine samples of cell c,
      the segment at theta_f lies within hi R_c of the segment at theta_c,
      so dist(theta_f) >= dist(theta_c) - hi R_c.  A point whose
      dist(theta_c) exceeds delta + hi R_c at every c is off the cone.
      This needs no derivative, so it holds for finite-difference curves.
    Both tests carry a relative and an absolute slack (_PRUNE_SLACK) far
    above the rounding of the squared distances, so no point whose computed
    fine minimum is at most delta^2 is dropped.  The survivors run the same
    fine loop, row by row, as the full lattice would, so their distances,
    tie rule and caps, and hence the assignment, are the same bits.
    """
    k = dyadic_level(delta)
    M = 2**k
    if M not in GRID_SIZES:
        raise CapacityError(f"delta=2^-{k} needs grid side {M}, not in {GRID_SIZES}")
    if nondegeneracy_margin(curve) <= 0:
        raise GeometryError(
            f"curve {curve.label!r} is degenerate; plank frames need gamma' x gamma != 0"
        )
    lattice = frequency_lattice(M)
    norms2 = np.sum(lattice**2, axis=1)

    n_fine = FINE_PER_CAP * M
    thetas = np.linspace(0.0, 1.0, n_fine + 1)
    gammas = curve.points(thetas)

    rel, tol = _PRUNE_SLACK
    lo, hi = FREQ_SCALE * RADIAL_FLOOR, FREQ_SCALE
    inner, outer = (lo - delta) ** 2 * (1 - rel) - tol, (hi + delta) ** 2 * (1 + rel) + tol
    cand = np.flatnonzero((norms2 >= inner) & (norms2 <= outer))

    coarse = np.arange(0, n_fine + 1, _COARSE_STRIDE)
    nearest = (np.arange(n_fine + 1) + _COARSE_STRIDE // 2) // _COARSE_STRIDE
    owner = np.minimum(nearest, len(coarse) - 1)
    chord = np.linalg.norm(gammas - gammas[coarse[owner]], axis=1)
    reach = np.zeros(len(coarse))
    np.maximum.at(reach, owner, chord)
    points, n2 = lattice[cand], norms2[cand]
    near = np.zeros(len(cand), dtype=bool)
    for gamma, r in zip(gammas[coarse], reach):
        near |= _segment_dist2(points, n2, gamma) <= (delta + hi * r) ** 2 * (1 + rel) + tol
    cand = cand[near]

    points, n2 = lattice[cand], norms2[cand]
    best = np.full(len(cand), np.inf)
    best_theta = np.zeros(len(cand))
    for theta, gamma in zip(thetas, gammas):
        dist2 = _segment_dist2(points, n2, gamma)
        best_theta = np.where(dist2 < best, theta, best_theta)
        best = np.minimum(best, dist2)

    on_cone = best <= delta**2
    assignment = np.full(len(lattice), -1, dtype=np.int32)
    assignment[cand[on_cone]] = np.minimum((best_theta[on_cone] / delta).astype(np.int64), M - 1)

    dir_thetas = np.minimum((np.arange(M) + 0.5) * delta, 1.0)
    frames = np.stack(frame(curve, dir_thetas), axis=1)
    assignment.flags.writeable = frames.flags.writeable = False
    return ConeGeometry(curve=curve, delta=delta, assignment=assignment, frames=frames)


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
    lattice = frequency_lattice(M)
    u = lattice @ gamma
    half = 1.0 / M + 1e-15
    return (
        (np.abs(u) <= 0.5)
        & (np.abs(lattice @ tangent) <= half)
        & (np.abs(lattice @ normal) <= half)
    )


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
    u = signed @ gamma
    return flat, u


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
    mask = tube_mask(M, gamma, tan, nor)
    _check_support(coeffs, mask, "frequency support leaks outside the tube")
    u = np.abs(frequency_lattice(M) @ gamma)
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


@dataclass(frozen=True)
class CapSubset:
    """Distinct direction indices of selected caps, meant to form a (delta, t)-set.

    The spacing constant is not stored: `decoupling_ratio` scans for it.
    """

    t: float
    directions: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.directions)
        if d.ndim != 1 or np.unique(d).size != d.size:
            raise ConfigurationError("cap directions must be a 1-D array of distinct indices")
        if not np.issubdtype(d.dtype, np.integer):
            raise ConfigurationError(f"cap directions must be integers, got dtype {d.dtype}")

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
    dirs = np.unique(np.minimum(net.indices, geometry.n_directions - 1))
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
    """Unit-amplitude random-phase coefficients on the selected caps."""
    _check_caps(caps.directions, geometry)
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

    Each |f_sigma|^2 comes from one `_synthesize` call on the lines that
    hold the sigma's own points, through buffers made once per call.  Tau j
    at scale s is the ordered sum of sigmas j m, ..., (j + 1) m - 1 with
    m = s / s_min, so the coarser taus that start at the same sigma extend
    one running sum; each scale's terms are still added in tau order.
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
    sigma_fields = np.empty((n_sigma, M**3))
    c = np.zeros_like(coeffs)
    stage, samples = np.zeros((2, M, M, M), dtype=coeffs.dtype)
    for si, dest in enumerate(sigma_fields):
        points = on[sigma == si]
        c[points] = coeffs[points]
        _synthesize(c.reshape((M,) * 3), np.unique(points // M), stage, samples)
        c[points] = 0
        np.square(np.abs(samples.ravel(), out=dest), out=dest)
    del c, stage, samples  # the accumulator reuses their space

    acc = np.empty(M**3)
    per_s = dict.fromkeys(geometry.s_values, 0.0)
    for lo in range(n_sigma):
        field, end = sigma_fields[lo], lo + 1
        for s in geometry.s_values:
            m = round(s * n_sigma)
            if lo % m:
                break
            for si in range(end, lo + m):
                field = np.add(field, sigma_fields[si], out=acc)
            end = lo + m
            box_vol = M**3 * s**3
            if s == 1.0:
                # U_{tau_1} is the full periodic box: one sharp box, exactly
                per_s[s] += float(field.sum() ** 2 / box_vol)
            else:
                masses = np.bincount(boxes[s, lo // m], weights=field)
                per_s[s] += float(np.sum(masses**2) / box_vol)
    total = 0.0
    for value_s in per_s.values():  # left to right; sum() compensates from Python 3.12
        total += value_s
    l4 = l4_norm(f)
    quotient = 0.0 if total == 0 else l4 / total
    return WaveEnvelopeReport(per_s=per_s, total=total, l4=l4, quotient=quotient)
