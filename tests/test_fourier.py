import hashlib
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from projlab import curve, fourier, fractal
from projlab.curve import Curve, frame, great_circle, helix_curve, model_curve
from projlab.dyadic import spacing_scan
from projlab.errors import (
    CapacityError,
    ConfigurationError,
    DomainError,
    GeometryError,
    NumericError,
    PreconditionError,
)
from projlab.fourier import (
    CapSubset,
    ConeGeometry,
    GridFunction,
    _cap_l4,
    build_geometry,
    cap_restrict,
    choose_K,
    decoupling_ratio,
    frequency_lattice,
    high_low_split,
    l4_norm,
    random_cap_function,
    synth_tube_function,
    tspacing_subsample,
    tube_axis_points,
    wave_envelope_rhs,
)
from projlab.incidence import make_family

CURVE = model_curve()


@pytest.fixture(scope="module")
def geo16():
    return build_geometry(CURVE, 2.0**-4)


@pytest.fixture(scope="module")
def geo32():
    return build_geometry(CURVE, 2.0**-5)


def direct_dft(coeffs_flat, M):
    """Independent series summation f(x) = sum_xi c(xi) exp(2 pi i xi.x)."""
    nz = np.nonzero(coeffs_flat)[0]
    xi = frequency_lattice(M)[nz]
    c = coeffs_flat[nz]
    xs = np.indices((M, M, M)).reshape(3, -1).T.astype(float)
    phases = np.exp(2j * np.pi * (xs @ xi.T))
    return (phases @ c).reshape((M,) * 3)


@lru_cache(maxsize=None)
def cached_geometry(M):
    return build_geometry(CURVE, 1.0 / M)


def random_on(points, M, seed):
    """Random complex coefficients on the given flat lattice points, zero elsewhere."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(M**3, dtype=complex)
    coeffs[points] = rng.normal(size=len(points)) + 1j * rng.normal(size=len(points))
    return GridFunction.from_coeffs(coeffs.reshape((M,) * 3))


def envelope_oracle(f, geometry):
    """(per_s, total) of wave_envelope_rhs with boxes grouped by np.unique on packed codes.

    The sigma fields come from the full np.fft.ifftn, so the check shares no
    synthesis code with wave_envelope_rhs.
    """
    M = geometry.M
    coeffs = f.coeffs().ravel()
    on = geometry.assignment >= 0
    sig_assign = np.full(geometry.assignment.shape, -1, dtype=np.int32)
    sig_assign[on] = (geometry.assignment[on] * geometry.delta / geometry.s_min).astype(np.int32)
    n_sigma = geometry.n_sigma()
    sigma_fields = []
    for si in range(n_sigma):
        c = coeffs.copy()
        c[sig_assign != si] = 0
        samples = np.fft.ifftn(c.reshape((M,) * 3)) * M**3
        sigma_fields.append(np.abs(samples.ravel()) ** 2)
    axes = np.indices((M, M, M)).reshape(3, -1).T.astype(float) - M / 2
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
                value_s += float(field.sum() ** 2 / box_vol)
                continue
            theta_c = (ti + 0.5) * s
            di = min(int(theta_c / geometry.delta), geometry.n_directions - 1)
            gam, tan, nor = geometry.frames[di]
            widths = (float(M), float(M * s), float(M * s * s))
            bins = []
            for e, w in zip((nor, tan, gam), widths):
                u = axes @ e
                bins.append(np.floor((u + w / 2) / w).astype(np.int64))
            code = (bins[0] + 64) * 2**40 + (bins[1] + 2**19) * 2**20 + (bins[2] + 2**19)
            _, inv = np.unique(code, return_inverse=True)
            masses = np.bincount(inv, weights=field)
            value_s += float(np.sum(masses**2) / box_vol)
        per_s[s] = value_s
        total += value_s
    return per_s, total


class TestGridFunction:
    @pytest.mark.parametrize("M", [16, 32])
    def test_parseval(self, M):
        rng = np.random.default_rng(M)
        coeffs = rng.normal(size=(M,) * 3) + 1j * rng.normal(size=(M,) * 3)
        g = GridFunction.from_coeffs(coeffs)
        assert g.parseval_error() < 1e-8

    def test_coeff_roundtrip(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=(16,) * 3) + 1j * rng.normal(size=(16,) * 3)
        g = GridFunction.from_coeffs(coeffs)
        assert np.allclose(g.coeffs(), coeffs, atol=1e-12)

    def test_grid_size_guard(self):
        with pytest.raises(CapacityError):
            GridFunction(17, np.zeros((17,) * 3, dtype=complex))

    def test_l4_norm_basics(self):
        M = 16
        ones = GridFunction(M, np.ones((M,) * 3, dtype=complex))
        assert l4_norm(ones) == M**3
        half = np.zeros((M,) * 3, dtype=complex)
        half[: M // 2] = 1.0
        assert l4_norm(GridFunction(M, half)) == M**3 / 2
        coeffs = np.zeros((M,) * 3, dtype=complex)
        coeffs[3, 5, 1] = 1.0
        assert l4_norm(GridFunction.from_coeffs(coeffs)) == pytest.approx(M**3)


SUPPORTS = (
    "empty", "point", "line0", "line1", "line2", "plane0", "plane1", "plane2", "random", "dense",
)


@pytest.mark.parametrize("kind", SUPPORTS)
@given(st.sampled_from([16, 32]), st.integers(0, 2**32 - 1), st.floats(0.001, 1.0))
def test_from_coeffs_bytes_match_ifftn(kind, M, seed, density):
    # from_coeffs skips zero lines on axes 2 and 1; the full ifftn is the oracle
    rng = np.random.default_rng(seed)
    i, j, k = rng.integers(0, M, size=3)
    mask = np.zeros((M,) * 3, dtype=bool)
    if kind == "point":
        mask[i, j, k] = True
    elif kind == "line0":
        mask[:, j, k] = True
    elif kind == "line1":
        mask[i, :, k] = True
    elif kind == "line2":
        mask[i, j, :] = True
    elif kind == "plane0":
        mask[i] = True
    elif kind == "plane1":
        mask[:, j] = True
    elif kind == "plane2":
        mask[:, :, k] = True
    elif kind == "random":
        mask = rng.random((M,) * 3) < density
    elif kind == "dense":
        mask[...] = True
    values = rng.normal(size=(M,) * 3) + 1j * rng.normal(size=(M,) * 3)
    coeffs = np.where(mask, values, 0)
    got = GridFunction.from_coeffs(coeffs).samples
    want = np.fft.ifftn(coeffs) * M**3
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@given(
    st.sampled_from([16, 32]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 5),
    st.integers(-60, 60),
)
def test_unscaled_synthesis_bytes_match_ifftn(M, seed, n_slabs, exponent):
    """from_coeffs and _synthesize on sparse input equal np.fft.ifftn(coeffs) * M^3 in bytes.

    The passes run unscaled, while ifftn scales by 1/M per axis and the
    product by M^3: powers of two, so the bytes agree as long as every
    partial sum stays in the normal float range (no overflow, no
    subnormals), which coefficients of size 2^-60 to 2^60 keep.  Some drawn
    lines and slabs are all zero; _synthesize also gets those lines, as
    wave_envelope_rhs does, and its stage must come back zeroed.
    """
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((M,) * 3, dtype=complex)
    lines = []
    for i in rng.choice(M, size=n_slabs, replace=False):
        for j in rng.choice(M, size=rng.integers(1, 4), replace=False):
            k = rng.random(M) < rng.random()  # sometimes no point at all
            values = rng.normal(size=(2, int(k.sum())))
            coeffs[i, j, k] = (values[0] + 1j * values[1]) * 2.0**exponent
            lines.append(i * M + j)
    want = np.fft.ifftn(coeffs) * M**3
    assert GridFunction.from_coeffs(coeffs).samples.tobytes() == want.tobytes()
    stage, out = np.zeros((M,) * 3, dtype=complex), np.empty((M,) * 3, dtype=complex)
    for _ in range(2):
        fourier._synthesize(coeffs, np.unique(np.array(lines, dtype=np.int64)), stage, out)
        assert out.tobytes() == want.tobytes()
        assert not stage.any()


class TestFrozenGridFunction:
    @staticmethod
    def make(M=16, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(M,) * 3) + 1j * rng.normal(size=(M,) * 3)

    def test_samples_and_coeffs_are_read_only(self):
        for g in (GridFunction(16, self.make()), GridFunction.from_coeffs(self.make())):
            for a in (g.samples, g.coeffs()):
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0, 0] = 1.0

    def test_caller_array_is_copied(self):
        samples = self.make()
        g = GridFunction(16, samples)
        before = g.samples.tobytes(), g.coeffs().tobytes()
        samples[...] = 0
        assert (g.samples.tobytes(), g.coeffs().tobytes()) == before
        assert samples.flags.writeable

    def test_read_only_view_of_a_writable_array_is_copied(self):
        base = self.make()
        view = base[:]
        view.flags.writeable = False
        g = GridFunction(16, view)
        before = g.samples.tobytes()
        base[...] = 0
        assert g.samples.tobytes() == before

    def test_coeffs_and_l4_computed_once(self, monkeypatch):
        g = GridFunction(16, self.make())
        first = g.coeffs()
        monkeypatch.setattr(np.fft, "fftn", None)  # a second transform would fail
        assert g.coeffs() is first
        l4 = l4_norm(g)
        assert l4 == float(np.sum(np.abs(g.samples) ** 4))
        monkeypatch.setattr(np, "abs", None)
        assert l4_norm(g) == l4

    def test_callers_leave_coeffs_untouched(self, geo16):
        sub = CapSubset(t=0.5, directions=np.array([3, 9]))
        g = random_cap_function(geo16, sub, seed=4)
        before = g.coeffs().tobytes()
        cap_restrict(g, 3, geo16)
        g.frequency_energy()
        f = synth_tube_function(make_family(0.1, [0.0, 0.25], delta=2.0**-4, s=0.5), geo16)
        f_before = f.coeffs().tobytes()
        high_low_split(f, 0.1, 4, geo16)
        assert g.coeffs().tobytes() == before
        assert f.coeffs().tobytes() == f_before


def oracle_assignment(curve, delta):
    """build_geometry's assignment by the fine direction loop over every lattice point."""
    M = round(1.0 / delta)
    lattice = frequency_lattice(M)
    norms2 = np.sum(lattice**2, axis=1)
    thetas = np.linspace(0.0, 1.0, fourier.FINE_PER_CAP * M + 1)
    gammas = curve.points(thetas)
    best = np.full(len(lattice), np.inf)
    best_theta = np.zeros(len(lattice))
    lo, hi = fourier.FREQ_SCALE * fourier.RADIAL_FLOOR, fourier.FREQ_SCALE
    for theta, gamma in zip(thetas, gammas):
        p = lattice @ gamma
        dist2 = norms2 - p * p + (p - np.clip(p, lo, hi)) ** 2
        best_theta = np.where(dist2 < best, theta, best_theta)
        best = np.minimum(best, dist2)
    on_cone = best <= delta**2
    di = np.minimum((best_theta / delta).astype(np.int64), M - 1)
    return np.where(on_cone, di, -1).astype(np.int32)


def rotated_model_curve(q):
    """The model curve turned by the rotation of the (nonzero) quaternion q."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    m = model_curve()
    return Curve(
        "rotated", lambda t: m.eval_fn(t) @ rot.T,
        lambda t: m.d1(t) @ rot.T, lambda t: m.d2(t) @ rot.T,
    )


class TestGeometryOracle:
    @pytest.mark.parametrize("M", [16, 32, 64])
    @pytest.mark.parametrize("make", [model_curve, helix_curve], ids=["model", "helix"])
    def test_assignment_matches_full_loop(self, make, M):
        got = build_geometry(make(), 1.0 / M).assignment
        want = oracle_assignment(make(), 1.0 / M)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @given(
        M=st.sampled_from([16, 32]),
        q=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    )
    def test_rotated_model_curves_match_full_loop(self, M, q):
        c = rotated_model_curve(q)
        assert np.array_equal(build_geometry(c, 1.0 / M).assignment, oracle_assignment(c, 1.0 / M))

    def test_pinned_assignment_at_128(self):
        # sha256 of the full loop's assignment (int32); that loop takes 20-30 s on 2 vCPUs
        a = build_geometry(CURVE, 2.0**-7).assignment
        assert a.dtype == np.int32 and int(np.sum(a >= 0)) == 2411
        assert hashlib.sha256(a.tobytes()).hexdigest() == (
            "c82a12ebf5d4fe3ababa3aeab940440e76c7c51076e4e6305c4aa9cddccfb5dc"
        )


class TestGeometry:
    def test_counts_at_2_pow_4(self, geo16):
        assert geo16.n_caps == 16
        assert geo16.n_sigma() == 4
        assert geo16.s_values == (0.25, 0.5, 1.0)

    def test_assignment_audit(self, geo16):
        # independent membership recomputation on a finer direction grid
        M = geo16.M
        delta = geo16.delta
        lattice = frequency_lattice(M)
        thetas = np.linspace(0, 1, 16 * M + 1)
        gammas = CURVE.points(thetas)
        best = np.full(len(lattice), np.inf)
        for gamma in gammas:
            p = lattice @ gamma
            r = np.clip(p, 0.25, 0.5)
            d2 = np.sum(lattice**2, axis=1) - p * p + (p - r) ** 2
            best = np.minimum(best, d2)
        assigned = geo16.assignment >= 0
        # every assigned point is within delta of the cone (small slack for
        # the coarser grid used at build time)
        assert np.all(best[assigned] <= (1.01 * delta) ** 2)
        # every clearly-near point is assigned
        clearly_near = best <= (0.99 * delta) ** 2
        assert np.all(assigned[clearly_near])
        # partition: ids in range, one per point
        ids = geo16.assignment[assigned]
        assert ids.min() >= 0 and ids.max() < geo16.n_caps
        total = sum(int(np.sum(geo16.assignment == c)) for c in range(geo16.n_caps))
        assert total == int(assigned.sum())

    def test_degenerate_curve_rejected(self):
        with pytest.raises(GeometryError):
            build_geometry(great_circle(), 2.0**-4)

    def test_equality_ignores_the_box_cache(self):
        a, b = build_geometry(CURVE, 2.0**-4), build_geometry(CURVE, 2.0**-4)
        assert "envelope_boxes" not in vars(a)
        a.envelope_boxes
        assert "envelope_boxes" in vars(a)
        assert a == b and hash(a) == hash(b)
        assert a != build_geometry(CURVE, 2.0**-5)

    def test_assignment_frames_and_box_ids_refuse_writes(self, geo16):
        # the box ids are cached from the frames, so a write to either could leave them stale
        for a in (geo16.assignment, geo16.frames, *geo16.envelope_boxes.values()):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    def test_envelope_box_ids(self, geo16):
        # dense ids 0..n-1 over every lattice point, rows of one uint16 block
        assert sorted(geo16.envelope_boxes) == [(0.25, i) for i in range(4)] + [(0.5, 0), (0.5, 1)]
        block = None
        for ids in geo16.envelope_boxes.values():
            n = int(ids.max()) + 1
            assert ids.shape == (16**3,) and ids.dtype == np.uint16
            assert np.array_equal(np.unique(ids), np.arange(n))
            assert ids.base is not None and (block is None or ids.base is block)
            block = ids.base


class TestSynth:
    def test_single_slab_peak_matches_direct_series(self, geo16):
        fam = make_family(0.1, [0.0], delta=2.0**-4, s=0.5)
        f = synth_tube_function(fam, geo16)
        direct = direct_dft(f.coeffs().ravel(), 16)
        assert np.allclose(direct, f.samples, atol=1e-9)
        assert abs(f.samples[0, 0, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_core_and_decay(self, geo16):
        fam = make_family(0.1, [0.0], delta=2.0**-4, s=0.5)
        f = synth_tube_function(fam, geo16)
        g, _, _ = frame(CURVE, 0.1)
        axes = np.indices((16,) * 3).reshape(3, -1).T.astype(float)
        axes = (axes + 8) % 16 - 8
        dist = np.abs(axes @ g)
        vals = np.abs(f.samples.ravel())
        assert vals[dist <= 0.25].min() >= 0.5  # slab core (thickness 1 rescaled)
        # decay off the slab is typical, not pointwise: a finite set of pure
        # tones recurs exactly at congruence points of the integer grid
        far = vals[dist > 2.0]
        assert np.quantile(far, 0.9) <= 0.3
        assert far.mean() <= 0.15

    def test_two_slab_cosine_pattern(self, geo16):
        c = 4.0
        fam = make_family(0.1, [-c / 16, c / 16], delta=2.0**-4, s=0.5)
        f = synth_tube_function(fam, geo16)
        gamma, _, _ = frame(CURVE, 0.1)
        coeffs = f.coeffs().ravel()
        nz = np.nonzero(np.abs(coeffs) > 1e-14)[0]
        u = frequency_lattice(16)[nz] @ gamma
        _, u_axis = tube_axis_points(16, gamma)

        def window(x):
            return np.where(
                np.abs(x) <= 0.5,
                np.cos(np.pi * np.clip((np.abs(x) - 0.25) / 0.25, 0, 1) / 2) ** 2,
                0.0,
            )

        expected = 2 * np.abs(np.cos(2 * np.pi * c * u)) * window(u) / window(u_axis).sum()
        assert np.allclose(np.abs(coeffs[nz]), expected, atol=1e-12)

    def test_empty_family_zero(self, geo16):
        fam = make_family(0.1, [], delta=2.0**-4, s=0.5)
        f = synth_tube_function(fam, geo16)
        assert np.all(f.samples == 0)

    def test_unknown_direction_rejected(self, geo16):
        for theta in (-0.1, 1.1, 1.7):
            fam = make_family(theta, [0.0], delta=2.0**-4, s=0.5)
            with pytest.raises(ConfigurationError):
                synth_tube_function(fam, geo16)


class TestChooseK:
    def test_spec_values(self):
        # 10^4 and 4^4 = 256 clamp to delta^-1/2 = 32 and 4
        assert choose_K(2.0**-10, 0.5) == 32
        assert choose_K(2.0**-4, 0.5) == 4
        # 64^4 = 2^24 already sits inside [2, delta^-1/2 = 2^32], so no
        # clamping applies
        assert choose_K(2.0**-64, 0.5) == 2**24

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            choose_K(2.0**-6, 1.0)
        with pytest.raises(DomainError):
            choose_K(2.0**-6, 0.0)


class TestHighLow:
    def test_exact_reconstruction(self, geo16):
        fam = make_family(0.1, [-0.25, 0.125, 0.375], delta=2.0**-4, s=0.5)
        f = synth_tube_function(fam, geo16)
        fh, fl = high_low_split(f, 0.1, 4, geo16)
        err = np.max(np.abs(f.samples - fh.samples - fl.samples))
        assert err <= 1e-10 * np.max(np.abs(f.samples))

    def test_high_energy_input_has_no_low_part(self, geo16):
        gamma, tan, nor = frame(CURVE, 0.1)
        flat, u = tube_axis_points(16, gamma)
        from projlab.fourier import tube_mask

        K = 4
        coeffs = np.zeros(16**3, dtype=complex)
        sel = (np.abs(u) >= 1.0 / K) & tube_mask(16, gamma, tan, nor)[flat]
        coeffs[flat[sel]] = 1.0
        f = GridFunction.from_coeffs(coeffs.reshape((16,) * 3))
        _, fl = high_low_split(f, 0.1, K, geo16)
        assert fl.physical_energy() <= 1e-8 * f.physical_energy()

    def test_support_leak_rejected(self, geo16):
        coeffs = np.zeros((16,) * 3, dtype=complex)
        coeffs[5, 5, 5] = 1.0  # far from the theta=0.1 tube
        f = GridFunction.from_coeffs(coeffs)
        with pytest.raises(
            PreconditionError, match="^frequency support leaks outside the tube: "
        ):
            high_low_split(f, 0.1, 4, geo16)

    @pytest.mark.parametrize("K", [0, -2])
    def test_k_below_one_rejected(self, geo16, K):
        # K = 0 divided by zero, and K = -2 returned an all-zero high part
        fam = make_family(0.1, [0.125], delta=2.0**-4, s=0.5)
        f = synth_tube_function(fam, geo16)
        with pytest.raises(DomainError, match="K >= 1"):
            high_low_split(f, 0.1, K, geo16)

    def test_low_part_envelope_constant(self, geo16):
        from projlab.incidence import IncidenceSpec, random_admissible_config

        spec = IncidenceSpec(delta=2.0**-4, s=0.5, t=0.5, seed=3)
        cfg = random_admissible_config(spec)
        K = choose_K(2.0**-4, 0.5)
        low = np.zeros((16,) * 3, dtype=complex)
        for fam in cfg.families:
            f_th = synth_tube_function(fam, geo16)
            _, fl = high_low_split(f_th, fam.theta, K, geo16)
            low += fl.samples
        fitted = np.max(np.abs(low)) / (K ** (0.5 - 1) * len(cfg.net))
        assert fitted <= 16.0  # mirrors the K^(s-1)#Theta envelope, C = O(1)


class TestCapRestrict:
    def test_single_cap_support_fixed_point(self, geo16):
        sub = CapSubset(t=0.5, directions=np.array([5]))
        g = random_cap_function(geo16, sub, seed=2)
        again = cap_restrict(g, 5, geo16)
        assert np.allclose(again.samples, g.samples, atol=1e-12)

    def test_partition_reconstruction_and_energy(self, geo16):
        rng = np.random.default_rng(0)
        coeffs = np.zeros(16**3, dtype=complex)
        on = geo16.assignment >= 0
        coeffs[on] = rng.normal(size=int(on.sum())) + 1j * rng.normal(size=int(on.sum()))
        g = GridFunction.from_coeffs(coeffs.reshape((16,) * 3))
        parts = [cap_restrict(g, cid, geo16) for cid in range(geo16.n_caps)]
        total = sum(p.samples for p in parts)
        assert np.max(np.abs(total - g.samples)) <= 1e-10 * np.max(np.abs(g.samples))
        e = sum(p.physical_energy() for p in parts)
        assert e == pytest.approx(g.physical_energy(), rel=1e-8)

    def test_linearity(self, geo16):
        sub = CapSubset(t=1.0, directions=np.arange(16))
        g1 = random_cap_function(geo16, sub, seed=4)
        g2 = random_cap_function(geo16, sub, seed=5)
        lhs = cap_restrict(
            GridFunction(16, g1.samples + 2 * g2.samples), 3, geo16
        )
        rhs = cap_restrict(g1, 3, geo16).samples + 2 * cap_restrict(g2, 3, geo16).samples
        assert np.allclose(lhs.samples, rhs, atol=1e-9)


@pytest.mark.parametrize("call", ["cap_restrict", "decoupling_ratio", "wave_envelope_rhs"])
def test_grid_size_mismatch_names_both_sizes(geo32, call):
    sub = CapSubset(t=0.5, directions=np.array([4]))
    g = random_cap_function(cached_geometry(16), sub, seed=0)
    run = {
        "cap_restrict": lambda: cap_restrict(g, 4, geo32),
        "decoupling_ratio": lambda: decoupling_ratio(g, sub, geo32),
        "wave_envelope_rhs": lambda: wave_envelope_rhs(g, geo32),
    }[call]
    with pytest.raises(ConfigurationError, match=r"16\^3.*32\^3"):
        run()


@given(
    st.sampled_from([16, 32]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_cap_energy_matches_fft_restriction(M, seed, data):
    # the additive-energy helper and decoupling_ratio's rhs against the FFT
    # route: restrict to each cap, transform back, sum |g_cap|^4
    geo = cached_geometry(M)
    cap_ids = data.draw(
        st.lists(st.integers(0, geo.n_directions - 1), max_size=8, unique=True).map(sorted)
    )
    # some selected caps carry no coefficients
    filled = [c for c in cap_ids if data.draw(st.booleans())]
    points = np.flatnonzero(np.isin(geo.assignment, filled))
    g = random_on(points, M, seed)
    coeffs = g.coeffs().ravel()
    oracle = []
    for cid in cap_ids:
        want = l4_norm(cap_restrict(g, cid, geo))
        oracle.append(want)
        got = _cap_l4(coeffs, np.flatnonzero(geo.assignment == cid), M)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    t = 0.5
    sub = CapSubset(t=t, directions=np.array(cap_ids, dtype=np.int64))
    rep = decoupling_ratio(g, sub, geo)
    assert rep.lhs == l4_norm(g)
    assert rep.rhs == pytest.approx(geo.delta**-t * sum(oracle), rel=1e-12, abs=0.0)


@given(
    st.sampled_from([16, 32]),
    st.tuples(*[st.integers(0, 31)] * 3),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_cap_energy_on_any_support(M, corner, side, seed):
    # the identity holds for any support, including boxes that wrap around
    # the periodic lattice, which no cap of the model-curve geometries does
    rng = np.random.default_rng(seed)
    box = np.indices((side,) * 3).reshape(3, -1).T + np.array(corner)
    idx = box[rng.random(len(box)) < 0.5] % M
    points = np.ravel_multi_index(idx.T, (M, M, M))
    g = random_on(points, M, seed)
    got = _cap_l4(g.coeffs().ravel(), points, M)
    assert got == pytest.approx(l4_norm(g), rel=1e-12, abs=0.0)


def test_transform_counts(geo16, monkeypatch):
    # the forward transform is kept on the function, so the ratio's one fftn
    # also serves the envelope, which synthesises each sigma field directly
    sub = tspacing_subsample(geo16, 0.5, seed=1)
    g = random_cap_function(geo16, sub, seed=2)
    calls = dict.fromkeys(["coeffs", "fftn", "from_coeffs", "_synthesize"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(GridFunction, "coeffs", counted("coeffs", GridFunction.coeffs))
    monkeypatch.setattr(np.fft, "fftn", counted("fftn", np.fft.fftn))
    monkeypatch.setattr(
        GridFunction, "from_coeffs", staticmethod(counted("from_coeffs", GridFunction.from_coeffs))
    )
    monkeypatch.setattr(fourier, "_synthesize", counted("_synthesize", fourier._synthesize))
    decoupling_ratio(g, sub, geo16)
    assert calls == {"coeffs": 1, "fftn": 1, "from_coeffs": 0, "_synthesize": 0}
    calls.update(dict.fromkeys(calls, 0))
    wave_envelope_rhs(g, geo16)
    assert calls == {"coeffs": 1, "fftn": 0, "from_coeffs": 0, "_synthesize": geo16.n_sigma()}


def test_one_spacing_scan_per_decouple_item(geo16, monkeypatch):
    # tspacing_subsample builds on direction_net's window caps, so only
    # decoupling_ratio's precondition check scans the spacing; curve,
    # fractal and fourier are the modules that import spacing_scan
    calls = []

    def counted(*args):
        calls.append(args)
        return spacing_scan(*args)

    for module in (curve, fractal, fourier):
        monkeypatch.setattr(module, "spacing_scan", counted)
    sub = tspacing_subsample(geo16, 0.5, seed=1)
    g = random_cap_function(geo16, sub, seed=2)
    decoupling_ratio(g, sub, geo16)
    assert len(calls) == 1


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_non_finite_cap_spacing_exponent_rejected(geo16, t):
    # a NaN t used to pass the t-spacing check: 1.0 ** nan == 1.0
    g = random_cap_function(geo16, CapSubset(t=0.5, directions=np.array([3, 9])), seed=0)
    with pytest.raises(DomainError, match="spacing exponent"):
        decoupling_ratio(g, CapSubset(t=t, directions=np.array([3, 9])), geo16)


class TestTspacing:
    def test_t_one_all_caps(self, geo16):
        sub = tspacing_subsample(geo16, 1.0, seed=0)
        assert np.array_equal(sub.directions, np.arange(16))

    def test_t_zero_single_cap(self, geo16):
        assert len(tspacing_subsample(geo16, 0.0, seed=3)) == 1

    def test_half_exponent_count(self):
        geo = cached_geometry(64)
        sub = tspacing_subsample(geo, 0.5, seed=1)
        assert len(sub) == 8  # laminar rank at delta = 2^-6, t = 1/2
        assert spacing_scan(sub.directions[:, None], 6, 0.5)[0] <= 64


class TestCapRange:
    @pytest.mark.parametrize("directions", [[-1, 3], [3, 99], [16]])
    def test_directions_outside_geometry_rejected(self, geo16, directions):
        # -1 is the off-cone sentinel of the assignment: it used to put random
        # coefficients on every off-cone point; 99 used to count as an empty cap
        sub = CapSubset(t=0.5, directions=np.array(directions))
        with pytest.raises(ConfigurationError, match=r"outside 0\.\.15"):
            random_cap_function(geo16, sub, seed=0)
        g = random_cap_function(geo16, CapSubset(t=0.5, directions=np.array([3])), seed=0)
        with pytest.raises(ConfigurationError, match=r"outside 0\.\.15"):
            decoupling_ratio(g, sub, geo16)
        bad = [d for d in directions if not 0 <= d < 16][0]
        with pytest.raises(ConfigurationError, match=rf"cap {bad} outside 0\.\.15"):
            cap_restrict(g, bad, geo16)

    @pytest.mark.parametrize("directions", [[3.5], [1.0, 2.0], [True]])
    def test_non_integer_directions_rejected(self, geo16, directions):
        with pytest.raises(ConfigurationError, match="integers"):
            CapSubset(t=0.5, directions=np.array(directions))
        # cap_restrict takes a bare id; 3.5 matches no cap and would give zero
        g = random_cap_function(geo16, CapSubset(t=0.5, directions=np.array([3])), seed=0)
        with pytest.raises(ConfigurationError, match="integers"):
            cap_restrict(g, directions[0], geo16)


@pytest.mark.parametrize("call", ["decoupling_ratio", "wave_envelope_rhs"])
@pytest.mark.parametrize("where", ["everywhere", "one sample"])
def test_non_finite_function_rejected(geo16, call, where):
    # a NaN energy used to read as a zero leak and pass the support check
    samples = np.zeros((16,) * 3, dtype=complex)
    if where == "everywhere":
        samples[...] = np.nan
    else:
        samples[3, 4, 5] = np.nan
    g = GridFunction(16, samples)
    run = {
        "decoupling_ratio": lambda: decoupling_ratio(
            g, CapSubset(t=0.5, directions=np.array([3])), geo16
        ),
        "wave_envelope_rhs": lambda: wave_envelope_rhs(g, geo16),
    }[call]
    with pytest.raises(NumericError, match="non-finite"):
        run()


class TestDecoupling:
    # frozen from the direct-summation oracle at delta = 2^-4 (also
    # recomputed below): all caps, unit coefficients, constant phase
    GOLDEN_CONST_PHASE_RATIO = 2.9464889366933007

    @pytest.mark.parametrize("M,k", [(16, 4), (32, 5)])
    def test_single_cap_identity(self, M, k):
        geo = build_geometry(CURVE, 2.0**-k)
        # pick a nonempty cap
        occupied = np.unique(geo.assignment[geo.assignment >= 0])
        cid = int(occupied[len(occupied) // 2])
        sub = CapSubset(t=0.5, directions=np.array([cid % geo.n_directions]))
        g = random_cap_function(geo, sub, seed=7)
        rep = decoupling_ratio(g, sub, geo)
        expected = (2.0**-k) ** 0.5
        assert abs(rep.ratio - expected) <= 1e-6 * expected

    def test_constant_phase_golden_value(self, geo16):
        coeffs = np.zeros(16**3, dtype=complex)
        coeffs[geo16.assignment >= 0] = 1.0
        g = GridFunction.from_coeffs(coeffs.reshape((16,) * 3))
        sub = CapSubset(t=1.0, directions=np.arange(16))
        rep = decoupling_ratio(g, sub, geo16)
        # independent direct-summation recomputation of both sides
        lhs_direct = float(np.sum(np.abs(direct_dft(coeffs, 16)) ** 4))
        rhs_direct = 0.0
        for cid in range(16):
            cc = coeffs.copy()
            cc[geo16.assignment != cid] = 0
            rhs_direct += float(np.sum(np.abs(direct_dft(cc, 16)) ** 4))
        rhs_direct *= 16.0  # delta^-t at t = 1
        assert rep.lhs == pytest.approx(lhs_direct, rel=1e-9)
        assert rep.rhs == pytest.approx(rhs_direct, rel=1e-9)
        assert rep.ratio == pytest.approx(self.GOLDEN_CONST_PHASE_RATIO, rel=1e-9)

    def test_random_phase_band(self, geo32):
        ratios = []
        for seed in range(20):
            sub = tspacing_subsample(geo32, 0.5, seed=seed)
            g = random_cap_function(geo32, sub, seed=seed + 100)
            ratios.append(decoupling_ratio(g, sub, geo32).ratio)
        assert max(ratios) <= 4.0

    def test_monotone_in_cap_set(self, geo16):
        small = tspacing_subsample(geo16, 0.5, seed=2)
        big = CapSubset(t=0.5, directions=np.arange(16))
        g = random_cap_function(geo16, small, seed=11)
        rep_small = decoupling_ratio(g, small, geo16)
        rep_big = decoupling_ratio(g, big, geo16)
        assert rep_big.rhs >= rep_small.rhs - 1e-9

    def test_scaling_covariance(self, geo16):
        sub = tspacing_subsample(geo16, 0.5, seed=5)
        g = random_cap_function(geo16, sub, seed=6)
        rep1 = decoupling_ratio(g, sub, geo16)
        rep3 = decoupling_ratio(GridFunction(16, 3.0 * g.samples), sub, geo16)
        assert rep3.lhs == pytest.approx(81 * rep1.lhs, rel=1e-12)
        assert rep3.rhs == pytest.approx(81 * rep1.rhs, rel=1e-12)
        assert rep3.ratio == pytest.approx(rep1.ratio, rel=1e-12)

    def test_spacing_precondition_witnessed(self, geo16, monkeypatch):
        monkeypatch.setattr(fourier, "MAX_SPACING_CONSTANT", 1.5)
        sub = CapSubset(t=0.5, directions=np.array([4, 5]))
        g = random_cap_function(geo16, sub, seed=1)
        with pytest.raises(PreconditionError, match="t-spacing"):
            decoupling_ratio(g, sub, geo16)

    @pytest.mark.parametrize("directions", [[4, 4], [3, 9, 3], [[4], [5]], 4])
    def test_cap_directions_distinct_and_flat(self, directions):
        # a repeated direction would count as two caps and double rhs
        with pytest.raises(ConfigurationError, match="distinct"):
            CapSubset(t=0.5, directions=np.array(directions))

    def test_support_precondition(self, geo16):
        sub = CapSubset(t=0.5, directions=np.array([4]))
        g = random_cap_function(
            geo16, CapSubset(t=0.5, directions=np.array([4, 9])),
            seed=3,
        )
        with pytest.raises(PreconditionError, match="^support leaks off the selected caps: "):
            decoupling_ratio(g, sub, geo16)


class TestWaveEnvelope:
    def test_zero_function(self, geo16):
        rep = wave_envelope_rhs(GridFunction(16, np.zeros((16,) * 3, dtype=complex)), geo16)
        assert rep.total == 0.0 and rep.quotient == 0.0

    def test_single_sigma_plank(self, geo16):
        # at M = 16, s_min = 1/4: sigma 0 is caps 0..3
        coeffs = np.zeros(16**3, dtype=complex)
        coeffs[np.isin(geo16.assignment, range(4))] = 1.0
        f = GridFunction.from_coeffs(coeffs.reshape((16,) * 3))
        rep = wave_envelope_rhs(f, geo16)
        # direct recomputation of the l4 side
        assert rep.l4 == pytest.approx(
            float(np.sum(np.abs(direct_dft(coeffs, 16)) ** 4)), rel=1e-9
        )
        # sharp-indicator boxes pay a small constant over the idealized <= 1
        assert 0 < rep.quotient <= 4.0

    def test_oracle_recomputation_of_total(self, geo16):
        rng = np.random.default_rng(3)
        on = geo16.assignment >= 0
        coeffs = np.zeros(16**3, dtype=complex)
        coeffs[on] = np.exp(2j * np.pi * rng.random(int(on.sum())))
        f = GridFunction.from_coeffs(coeffs.reshape((16,) * 3))
        rep = wave_envelope_rhs(f, geo16)
        # brute-force python re-binning at one scale must agree with per_s
        M, s = 16, 0.25
        fields = {}
        for si in range(4):
            cc = coeffs.copy()
            cc[~np.isin(geo16.assignment, range(4 * si, 4 * si + 4))] = 0
            fields[si] = np.abs(GridFunction.from_coeffs(cc.reshape((16,) * 3)).samples.ravel()) ** 2
        axes = np.indices((M, M, M)).reshape(3, -1).T.astype(float) - M / 2
        total_s = 0.0
        for ti in range(4):
            field = fields[ti]
            theta_c = (ti + 0.5) * s
            di = min(int(theta_c * 16), 15)
            gam, tan, nor = geo16.frames[di]
            widths = (16.0, 4.0, 1.0)
            masses = {}
            for x, val in zip(axes, field):
                key = tuple(
                    math.floor((float(x @ e) + w / 2) / w)
                    for e, w in zip((nor, tan, gam), widths)
                )
                masses[key] = masses.get(key, 0.0) + val
            total_s += sum(m**2 for m in masses.values()) / (16**3 * s**3)
        assert rep.per_s[s] == pytest.approx(total_s, rel=1e-9)

    def test_focused_quotient_depends_on_where_f_peaks(self, geo16):
        # the boxes are binned on the grid indices minus M/2, unwrapped, so
        # one box is centred at index M/2: f peaking at index 0 is cut
        # across the corner boxes, and its translate to M/2 is not
        coeffs = np.where(geo16.assignment >= 0, 1.0 + 0j, 0j)
        x0 = np.array([8.0, 8.0, 8.0])
        moved = coeffs * np.exp(-2j * np.pi * (frequency_lattice(16) @ x0))
        for c, peak, quotient in [
            (coeffs, (0, 0, 0), 12.336245338552457),
            (moved, (8, 8, 8), 6.010346042130451),
        ]:
            f = GridFunction.from_coeffs(c.reshape((16,) * 3))
            assert np.unravel_index(np.argmax(np.abs(f.samples)), f.samples.shape) == peak
            assert wave_envelope_rhs(f, geo16).quotient == pytest.approx(quotient, rel=1e-9)

    def test_random_band(self, geo16):
        on = geo16.assignment >= 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            coeffs = np.zeros(16**3, dtype=complex)
            coeffs[on] = np.exp(2j * np.pi * rng.random(int(on.sum())))
            rep = wave_envelope_rhs(
                GridFunction.from_coeffs(coeffs.reshape((16,) * 3)), geo16
            )
            assert rep.l4 <= 2.0 * (2.0**-4) ** -0.5 * rep.total

    def test_support_leak_rejected(self, geo16):
        coeffs = np.zeros((16,) * 3, dtype=complex)
        coeffs[1, 1, 1] = 1.0
        with pytest.raises(
            PreconditionError, match="^support leaks off the cone neighbourhood: "
        ):
            wave_envelope_rhs(GridFunction.from_coeffs(coeffs), geo16)

    @staticmethod
    def assert_matches_oracle(M, seed):
        geo = cached_geometry(M)
        on_cone = random_on(np.flatnonzero(geo.assignment >= 0), M, seed)
        sub = tspacing_subsample(geo, 0.5, seed=seed)
        on_caps = random_cap_function(geo, sub, seed=seed + 1)
        for f in (on_cone, on_caps):
            rep = wave_envelope_rhs(f, geo)
            per_s, total = envelope_oracle(f, geo)
            assert rep.per_s == per_s
            assert rep.total == total
            assert rep.l4 == l4_norm(f)

    @pytest.mark.parametrize("M", [16, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_unique_binning(self, M, seed):
        self.assert_matches_oracle(M, seed)

    def test_bit_identical_to_unique_binning_at_bench_size(self):
        # the bench's largest grid: 1,280 to 1,425 boxes per tau at s = 1/8
        self.assert_matches_oracle(64, 0)

    @pytest.mark.parametrize("M", [32, 64])
    def test_bit_identical_on_one_sigma(self, M):
        # every other sigma field, and every tau field without this sigma, is
        # exactly 0: wave_envelope_rhs adds their +0.0 terms, the oracle skips them
        geo = cached_geometry(M)
        on = np.flatnonzero(geo.assignment >= 0)
        sigma = geo.assignment[on] // round(geo.s_min * M)
        si = geo.n_sigma() // 2 + 1
        f = random_on(on[sigma == si], M, seed=M)
        rep = wave_envelope_rhs(f, geo)
        per_s, total = envelope_oracle(f, geo)
        assert rep.per_s == per_s
        assert rep.total == total
        assert total > 0

    def test_box_ids_built_once_per_geometry(self, monkeypatch):
        geo = build_geometry(CURVE, 2.0**-4)
        sub = tspacing_subsample(geo, 0.5, seed=1)
        g = random_cap_function(geo, sub, seed=2)
        decoupling_ratio(g, sub, geo)
        assert "envelope_boxes" not in vars(geo)  # set-up and ratios never pay for them
        builds = []
        prop = vars(ConeGeometry)["envelope_boxes"]
        build = prop.func

        def counted(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(prop, "func", counted)
        first = wave_envelope_rhs(g, geo)
        second = wave_envelope_rhs(g, geo)
        assert len(builds) == 1
        assert first == second
