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

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curve import Curve, direction_net, frame, nondegeneracy_margin
from .dyadic import dyadic_level, group_rows, spacing_scan
from .errors import (
    CapacityError,
    ConfigurationError,
    DomainError,
    GeometryError,
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


@dataclass(frozen=True)
class GridFunction:
    """Complex function on the periodic grid [0, M)^3 with unit spacing."""

    M: int
    samples: np.ndarray

    def __post_init__(self):
        if self.M not in GRID_SIZES:
            raise CapacityError(f"grid side must be one of {GRID_SIZES}, got {self.M}")
        if self.samples.shape != (self.M,) * 3:
            raise ConfigurationError("samples must have shape (M, M, M)")

    @property
    def delta(self) -> float:
        return 1.0 / self.M

    def coeffs(self) -> np.ndarray:
        """Coefficients c(xi) with f(x) = sum_xi c(xi) exp(2 pi i xi.x)."""
        return np.fft.fftn(self.samples) / self.M**3

    @staticmethod
    def from_coeffs(coeffs: np.ndarray) -> "GridFunction":
        M = coeffs.shape[0]
        return GridFunction(M, np.fft.ifftn(coeffs) * M**3)

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
    """Integral of |g|^4 over the box with unit cell weight."""
    return float(np.sum(np.abs(g.samples) ** 4))


def _leak(coeffs: np.ndarray, support: np.ndarray) -> float:
    """Share of the coefficient energy off the boolean support (0 for a zero function)."""
    energy = np.abs(coeffs) ** 2
    total = float(np.sum(energy))
    return float(np.sum(energy[~support])) / total if total > 0 else 0.0


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
    (angular width s_min); nesting tables map each cap to its sigma and
    each sigma to its tau_s per dyadic s.
    """

    curve: Curve = field(compare=False)
    delta: float
    n_directions: int
    assignment: np.ndarray = field(compare=False)
    overlap_max: int
    s_values: tuple  # dyadic s from s_min up to 1
    frames: np.ndarray = field(compare=False)  # (n_directions, 3, 3): gamma, t, n rows

    @property
    def M(self) -> int:
        return round(1.0 / self.delta)

    @property
    def n_caps(self) -> int:
        return self.n_directions

    @property
    def s_min(self) -> float:
        return self.s_values[0]

    def cap_points(self, cap_id: int) -> np.ndarray:
        return np.nonzero(self.assignment == cap_id)[0]

    def n_sigma(self) -> int:
        return round(1.0 / self.s_min)

    def sigma_assignment(self) -> np.ndarray:
        """Lattice point -> sigma id (or -1), derived from the cap map."""
        out = np.full(self.assignment.shape, -1, dtype=np.int32)
        on = self.assignment >= 0
        out[on] = (self.assignment[on] * self.delta / self.s_min).astype(np.int32)
        return out


def build_geometry(curve: Curve, delta: float) -> ConeGeometry:
    """Assign every frequency lattice point near the cone to a unique cap.

    For each lattice point the closest direction parameter is found on a
    fine grid (FINE_PER_CAP samples per cap, ties to the lower index); the
    point joins the cone neighbourhood when its distance to the radial
    segment [RADIAL_FLOOR, 1] (in nominal units, embedded at FREQ_SCALE)
    is at most delta, and its cap is the direction holding that parameter.
    Geometric cap overlap before assignment is recorded and stays small;
    the assignment itself is a partition by construction.
    """
    k = dyadic_level(delta)
    M = 2**k
    if M not in GRID_SIZES:
        raise CapacityError(f"delta=2^-{k} needs grid side {M}, not in {GRID_SIZES}")
    if nondegeneracy_margin(curve, 1024) <= 0:
        raise GeometryError(
            f"curve {curve.label!r} is degenerate; plank frames need gamma' x gamma != 0"
        )
    n_dir = M
    lattice = frequency_lattice(M)
    norms2 = np.sum(lattice**2, axis=1)

    n_fine = FINE_PER_CAP * M
    thetas = np.linspace(0.0, 1.0, n_fine + 1)
    gammas = curve.points(thetas)

    best = np.full(len(lattice), np.inf)
    best_theta = np.zeros(len(lattice))
    lo, hi = FREQ_SCALE * RADIAL_FLOOR, FREQ_SCALE
    for theta, gamma in zip(thetas, gammas):
        p = lattice @ gamma
        dist2 = norms2 - p * p + (p - np.clip(p, lo, hi)) ** 2
        best_theta = np.where(dist2 < best, theta, best_theta)
        best = np.minimum(best, dist2)

    on_cone = best <= delta**2
    di = np.minimum((best_theta / delta).astype(np.int64), n_dir - 1)
    assignment = np.where(on_cone, di, -1).astype(np.int32)

    # geometric box overlap before assignment: closed cap ranges share their
    # angular boundaries, so a point on a boundary counts double
    frac_t = best_theta[on_cone] / delta
    on_t_edge = np.abs(frac_t - np.round(frac_t)) < 1e-12
    overlap = int((1 + on_t_edge).max()) if on_cone.any() else 0
    s_vals = tuple(2.0**-m for m in range(k // 2, -1, -1))

    dir_thetas = (np.arange(n_dir) + 0.5) * delta
    frames = np.zeros((n_dir, 3, 3))
    for i, th in enumerate(dir_thetas):
        g, t, n = frame(curve, float(min(th, 1.0)))
        frames[i] = np.stack([g, t, n])

    return ConeGeometry(
        curve=curve,
        delta=delta,
        n_directions=n_dir,
        assignment=assignment,
        overlap_max=overlap,
        s_values=s_vals,
        frames=frames,
    )


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


def synth_tube_function(
    family: SlabFamily, geometry: ConeGeometry, theta: Optional[float] = None
) -> GridFunction:
    """Sum of slab bumps with frequency support on the direction's tube.

    The coefficient at xi is omega(xi.gamma)/W * sum_S exp(-2 pi i c_S xi.gamma)
    with c_S the slab offsets in grid units and W the window mass, so a
    single slab peaks at height ~1 on its central plane.  The family's
    direction must match one of the geometry's cap directions.
    """
    M = geometry.M
    th = family.theta if theta is None else theta
    if not (0.0 <= th <= 1.0) or int(th / geometry.delta) >= geometry.n_directions + 1:
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


@dataclass(frozen=True)
class KChoice:
    K: int
    raw: float
    clamped: bool

    def __int__(self) -> int:
        return self.K


def choose_K(delta: float, s: float) -> KChoice:
    """Power of two nearest (log2 delta^-1)^(2/(1-s)), clamped to [2, delta^-1/2]."""
    if not (0.0 < s < 1.0):
        raise DomainError(f"the exponent 2/(1-s) needs 0 < s < 1, got s={s}")
    k = dyadic_level(delta)
    raw = float(k) ** (2.0 / (1.0 - s))
    power = round(math.log2(raw))
    hi = 2 ** (k // 2)
    K = int(min(max(2, 2**power), hi))
    return KChoice(K=K, raw=raw, clamped=(K != 2**power))


def high_low_split(
    f_theta: GridFunction, theta: float, K: int, geometry: ConeGeometry
):
    """Split a tube function at radial height 1/K along gamma(theta).

    Multiplies the coefficients by a smooth partition pair transitioning
    over [1/(2K), 1/K] in |xi.gamma|; reconstruction f_high + f_low = f is
    exact on the lattice.  Raises PreconditionError on frequency support
    leaking outside the tube.
    """
    M = f_theta.M
    gamma, tan, nor = frame(geometry.curve, theta)
    coeffs = f_theta.coeffs().ravel()
    mask = tube_mask(M, gamma, tan, nor)
    leak = _leak(coeffs, mask)
    if leak > 1e-10:
        raise PreconditionError(
            f"frequency support leaks outside the tube: {leak:.3g} of the energy"
        )
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


def cap_restrict(g: GridFunction, cap_id: int, geometry: ConeGeometry) -> GridFunction:
    """Zero all coefficients not assigned to the cap; linear and idempotent."""
    _check_grid(g, geometry)
    if not (0 <= cap_id < geometry.n_caps):
        raise ConfigurationError(f"cap {cap_id} outside 0..{geometry.n_caps - 1}")
    coeffs = g.coeffs().ravel()
    keep = geometry.assignment == cap_id
    coeffs[~keep] = 0
    return GridFunction.from_coeffs(coeffs.reshape((g.M,) * 3))


@dataclass(frozen=True)
class CapSubset:
    """Direction indices of selected caps plus the recorded spacing constant."""

    t: float
    directions: np.ndarray
    worst_constant: float

    def __len__(self) -> int:
        return int(self.directions.size)


def tspacing_subsample(geometry: ConeGeometry, t: float, seed: int) -> CapSubset:
    """Select cap directions forming a (delta, t)-set at every angular scale.

    Reuses the direction-net construction, so the spacing condition holds
    with constant <= 64 and is re-validated exhaustively here.
    """
    net = direction_net(geometry.curve, geometry.delta, t, seed)
    dirs = np.unique(np.minimum(net.indices, geometry.n_directions - 1))
    k = dyadic_level(geometry.delta)
    worst, _ = spacing_scan(dirs, k, t)
    if worst > 64:
        raise GeometryError(f"cap subsample violates the spacing condition: {worst}")
    return CapSubset(t=t, directions=dirs, worst_constant=worst)


@dataclass(frozen=True)
class DecouplingReport:
    lhs: float
    rhs: float
    ratio: float
    t: float
    delta: float
    n_caps: int


def decoupling_ratio(
    g: GridFunction,
    caps: CapSubset,
    geometry: ConeGeometry,
    max_constant: float = 64.0,
) -> DecouplingReport:
    """Measure integral |g|^4 against delta^-t sum_caps integral |g_cap|^4.

    Preconditions: the frequency support of g sits on the selected caps'
    lattice points, and the caps satisfy the t-spacing condition with
    constant at most max_constant (witness reported on violation).

    Each integral |g_cap|^4 is the additive energy M^3 sum_eta |h(eta)|^2
    with h(eta) = sum_{xi1 + xi2 = eta (mod 1)} c(xi1) c(xi2) over the cap's
    lattice points (Parseval for g_cap^2), so the call does one forward
    transform and no inverse one.
    """
    _check_grid(g, geometry)
    dirs = np.sort(np.asarray(caps.directions, dtype=np.int64))
    worst, witness = spacing_scan(dirs, dyadic_level(geometry.delta), caps.t)
    if worst > max_constant:
        raise PreconditionError(
            f"t-spacing violated: constant {worst:.3g} at angular window r={witness[0]}"
        )
    coeffs = g.coeffs().ravel()
    allowed = np.isin(geometry.assignment, caps.directions)
    leak = _leak(coeffs, allowed)
    if leak > 1e-10:
        raise PreconditionError(f"support leaks off the selected caps: {leak:.3g} of the energy")
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
    boxes are sharp-indicator translates of U_{tau_s} (dimensions
    delta^-1 x delta^-1 s x delta^-1 s^2 along the plank frame), binned so
    one box is centred at the origin, and they partition the fundamental
    domain exactly.  Box codes are mixed-radix in the per-axis bins, so
    np.bincount gives the box masses in lexicographic box order.
    """
    _check_grid(f, geometry)
    M = geometry.M
    coeffs = f.coeffs().ravel()
    leak = _leak(coeffs, geometry.assignment >= 0)
    if leak > 1e-10:
        raise PreconditionError(
            f"support leaks off the cone neighbourhood: {leak:.3g} of the energy"
        )
    sig_assign = geometry.sigma_assignment()
    n_sigma = geometry.n_sigma()
    sigma_fields = []
    for si in range(n_sigma):
        c = coeffs.copy()
        c[sig_assign != si] = 0
        g = GridFunction.from_coeffs(c.reshape((M,) * 3))
        sigma_fields.append(np.abs(g.samples.ravel()) ** 2)

    axes = np.indices((M, M, M)).reshape(3, -1).astype(float) - M / 2

    per_s = {}
    total = 0.0
    for s in geometry.s_values:
        n_tau = round(1.0 / s)
        sig_per_tau = max(1, round(s / geometry.s_min))
        box_vol = M**3 * s**3
        value_s = 0.0
        for ti in range(n_tau):
            sis = range(ti * sig_per_tau, min((ti + 1) * sig_per_tau, n_sigma))
            field = np.zeros(M**3)
            for si in sis:
                field += sigma_fields[si]
            if not field.any():
                continue
            if s == 1.0:
                # U_{tau_1} is the full periodic box: one sharp box, exactly
                value_s += float(field.sum() ** 2 / box_vol)
                continue
            # plank frame at the tau's central direction
            theta_c = (ti + 0.5) * s
            di = min(int(theta_c / geometry.delta), geometry.n_directions - 1)
            gam, tan, nor = geometry.frames[di]
            widths = (float(M), float(M * s), float(M * s * s))
            code = 0
            for e, w in zip((nor, tan, gam), widths):
                u = e @ axes
                b = np.floor((u + w / 2) / w).astype(np.int64)
                lo = b.min()
                code = code * (b.max() - lo + 1) + (b - lo)
            # unoccupied codes are dropped so the sum of squares runs over the
            # same array, in the same order, as a sort-based grouping would
            masses = np.bincount(code, weights=field)[np.bincount(code) > 0]
            value_s += float(np.sum(masses**2) / box_vol)
        per_s[s] = value_s
        total += value_s
    l4 = l4_norm(f)
    quotient = 0.0 if total == 0 else l4 / total
    return WaveEnvelopeReport(per_s=per_s, total=total, l4=l4, quotient=quotient)


# ----------------------------------------------------------------------------
# geometry audit dump


def geometry_to_json(geometry: ConeGeometry) -> str:
    """Audit dump: cap corner coordinates and the plank frame tables."""
    delta = geometry.delta
    on = geometry.assignment >= 0
    n_points = np.bincount(geometry.assignment[on], minlength=geometry.n_caps)
    caps = []
    for cid in range(geometry.n_caps):
        g, t, n = geometry.frames[cid]
        corners = []
        for a in (FREQ_SCALE * RADIAL_FLOOR, FREQ_SCALE):
            for b in (-delta / 2, delta / 2):
                for c in (-delta / 2, delta / 2):
                    corners.append((a * g + b * t + c * n).tolist())
        caps.append(
            {
                "cap": cid,
                "direction": cid,
                "theta": (cid + 0.5) * delta,
                "corners": corners,
                "points": int(n_points[cid]),
            }
        )
    payload = {
        "delta": delta,
        "radial_floor": RADIAL_FLOOR,
        "freq_scale": FREQ_SCALE,
        "overlap_max": geometry.overlap_max,
        "s_values": list(geometry.s_values),
        "caps": caps,
    }
    return json.dumps(payload, sort_keys=True)
