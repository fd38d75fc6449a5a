import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from projlab.curve import frame, great_circle, model_curve
from projlab.errors import (
    CapacityError,
    ConfigurationError,
    DomainError,
    GeometryError,
    PreconditionError,
)
from projlab.fourier import (
    CapSubset,
    GridFunction,
    _cap_l4,
    build_geometry,
    cap_restrict,
    choose_K,
    decoupling_ratio,
    frequency_lattice,
    geometry_to_json,
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
    """(per_s, total) of wave_envelope_rhs with boxes grouped by np.unique on packed codes."""
    M = geometry.M
    coeffs = f.coeffs().ravel()
    sig_assign = geometry.sigma_assignment()
    n_sigma = geometry.n_sigma()
    sigma_fields = []
    for si in range(n_sigma):
        c = coeffs.copy()
        c[sig_assign != si] = 0
        g = GridFunction.from_coeffs(c.reshape((M,) * 3))
        sigma_fields.append(np.abs(g.samples.ravel()) ** 2)
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
        total = sum(len(geo16.cap_points(c)) for c in range(geo16.n_caps))
        assert total == int(assigned.sum())

    def test_overlap_bound(self, geo16, geo32):
        assert geo16.overlap_max <= 4
        assert geo32.overlap_max <= 4

    def test_degenerate_curve_rejected(self):
        with pytest.raises(GeometryError):
            build_geometry(great_circle(), 2.0**-4)

    def test_geometry_json(self, geo16):
        import json

        payload = json.loads(geometry_to_json(geo16))
        assert len(payload["caps"]) == 16
        assert payload["overlap_max"] <= 4
        assert all(len(cap["corners"]) == 8 for cap in payload["caps"])


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
        fam = make_family(0.1, [0.0], delta=2.0**-4, s=0.5)
        with pytest.raises(ConfigurationError):
            synth_tube_function(fam, geo16, theta=1.7)


class TestChooseK:
    def test_spec_values(self):
        k1 = choose_K(2.0**-10, 0.5)
        assert (k1.raw, k1.K, k1.clamped) == (1.0e4, 32, True)
        k2 = choose_K(2.0**-4, 0.5)
        assert (k2.raw, k2.K, k2.clamped) == (256.0, 4, True)
        # raw = 64^4 = 2^24 already sits inside [2, delta^-1/2 = 2^32],
        # so no clamping applies
        k3 = choose_K(2.0**-64, 0.5)
        assert k3.raw == pytest.approx(1.6777216e7)
        assert k3.K == 2**24
        assert not k3.clamped

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
        with pytest.raises(PreconditionError):
            high_low_split(f, 0.1, 4, geo16)

    def test_low_part_envelope_constant(self, geo16):
        from projlab.incidence import IncidenceSpec, random_admissible_config

        spec = IncidenceSpec(delta=2.0**-4, s=0.5, t=0.5, seed=3)
        cfg = random_admissible_config(spec)
        kc = choose_K(2.0**-4, 0.5)
        low = np.zeros((16,) * 3, dtype=complex)
        for j, th in enumerate(cfg.net.thetas):
            f_th = synth_tube_function(cfg.families[j], geo16, theta=float(th))
            _, fl = high_low_split(f_th, float(th), kc.K, geo16)
            low += fl.samples
        fitted = np.max(np.abs(low)) / (kc.K ** (0.5 - 1) * len(cfg.net))
        assert fitted <= 16.0  # mirrors the K^(s-1)#Theta envelope, C = O(1)


class TestCapRestrict:
    def test_single_cap_support_fixed_point(self, geo16):
        sub = CapSubset(t=0.5, directions=np.array([5]), worst_constant=1.0)
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
        sub = CapSubset(t=1.0, directions=np.arange(16), worst_constant=2.0)
        g1 = random_cap_function(geo16, sub, seed=4)
        g2 = random_cap_function(geo16, sub, seed=5)
        lhs = cap_restrict(
            GridFunction(16, g1.samples + 2 * g2.samples), 3, geo16
        )
        rhs = cap_restrict(g1, 3, geo16).samples + 2 * cap_restrict(g2, 3, geo16).samples
        assert np.allclose(lhs.samples, rhs, atol=1e-9)


@pytest.mark.parametrize("call", ["cap_restrict", "decoupling_ratio", "wave_envelope_rhs"])
def test_grid_size_mismatch_names_both_sizes(geo32, call):
    sub = CapSubset(t=0.5, directions=np.array([4]), worst_constant=1.0)
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
        got = _cap_l4(coeffs, geo.cap_points(cid), M)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    t = 0.5
    sub = CapSubset(t=t, directions=np.array(cap_ids, dtype=np.int64), worst_constant=0.0)
    rep = decoupling_ratio(g, sub, geo, max_constant=np.inf)
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
    sub = tspacing_subsample(geo16, 0.5, seed=1)
    g = random_cap_function(geo16, sub, seed=2)
    calls = {"coeffs": 0, "from_coeffs": 0}
    coeffs, from_coeffs = GridFunction.coeffs, GridFunction.from_coeffs

    def counted_coeffs(self):
        calls["coeffs"] += 1
        return coeffs(self)

    def counted_from_coeffs(c):
        calls["from_coeffs"] += 1
        return from_coeffs(c)

    monkeypatch.setattr(GridFunction, "coeffs", counted_coeffs)
    monkeypatch.setattr(GridFunction, "from_coeffs", staticmethod(counted_from_coeffs))
    decoupling_ratio(g, sub, geo16)
    assert calls == {"coeffs": 1, "from_coeffs": 0}
    calls.update(coeffs=0, from_coeffs=0)
    wave_envelope_rhs(g, geo16)
    assert calls == {"coeffs": 1, "from_coeffs": geo16.n_sigma()}


class TestTspacing:
    def test_t_one_all_caps(self, geo16):
        sub = tspacing_subsample(geo16, 1.0, seed=0)
        assert np.array_equal(sub.directions, np.arange(16))

    def test_t_zero_single_cap(self, geo16):
        assert len(tspacing_subsample(geo16, 0.0, seed=3)) == 1

    def test_half_exponent_count(self):
        geo = build_geometry(CURVE, 2.0**-6)
        sub = tspacing_subsample(geo, 0.5, seed=1)
        assert len(sub) == 8  # laminar rank at delta = 2^-6, t = 1/2
        assert sub.worst_constant <= 64


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
        sub = CapSubset(t=0.5, directions=np.array([cid % geo.n_directions]), worst_constant=1.0)
        g = random_cap_function(geo, sub, seed=7)
        rep = decoupling_ratio(g, sub, geo)
        expected = (2.0**-k) ** 0.5
        assert abs(rep.ratio - expected) <= 1e-6 * expected

    def test_constant_phase_golden_value(self, geo16):
        coeffs = np.zeros(16**3, dtype=complex)
        coeffs[geo16.assignment >= 0] = 1.0
        g = GridFunction.from_coeffs(coeffs.reshape((16,) * 3))
        sub = CapSubset(t=1.0, directions=np.arange(16), worst_constant=2.0)
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
        big = CapSubset(t=0.5, directions=np.arange(16), worst_constant=8.0)
        g = random_cap_function(geo16, small, seed=11)
        rep_small = decoupling_ratio(g, small, geo16)
        rep_big = decoupling_ratio(g, big, geo16, max_constant=16.0)
        assert rep_big.rhs >= rep_small.rhs - 1e-9

    def test_scaling_covariance(self, geo16):
        sub = tspacing_subsample(geo16, 0.5, seed=5)
        g = random_cap_function(geo16, sub, seed=6)
        rep1 = decoupling_ratio(g, sub, geo16)
        rep3 = decoupling_ratio(GridFunction(16, 3.0 * g.samples), sub, geo16)
        assert rep3.lhs == pytest.approx(81 * rep1.lhs, rel=1e-12)
        assert rep3.rhs == pytest.approx(81 * rep1.rhs, rel=1e-12)
        assert rep3.ratio == pytest.approx(rep1.ratio, rel=1e-12)

    def test_spacing_precondition_witnessed(self, geo16):
        sub = CapSubset(t=0.5, directions=np.array([4, 5]), worst_constant=2.0)
        g = random_cap_function(geo16, sub, seed=1)
        with pytest.raises(PreconditionError, match="t-spacing"):
            decoupling_ratio(g, sub, geo16, max_constant=1.5)

    def test_support_precondition(self, geo16):
        sub = CapSubset(t=0.5, directions=np.array([4]), worst_constant=1.0)
        g = random_cap_function(
            geo16, CapSubset(t=0.5, directions=np.array([4, 9]), worst_constant=2.0),
            seed=3,
        )
        with pytest.raises(PreconditionError, match="leak"):
            decoupling_ratio(g, sub, geo16)


class TestWaveEnvelope:
    def test_zero_function(self, geo16):
        rep = wave_envelope_rhs(GridFunction(16, np.zeros((16,) * 3, dtype=complex)), geo16)
        assert rep.total == 0.0 and rep.quotient == 0.0

    def test_single_sigma_plank(self, geo16):
        sig = geo16.sigma_assignment()
        coeffs = np.zeros(16**3, dtype=complex)
        coeffs[sig == 0] = 1.0
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
        sig = geo16.sigma_assignment()
        fields = {}
        for si in range(4):
            cc = coeffs.copy()
            cc[sig != si] = 0
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
        with pytest.raises(PreconditionError):
            wave_envelope_rhs(GridFunction.from_coeffs(coeffs), geo16)

    @pytest.mark.parametrize("M", [16, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_unique_binning(self, M, seed):
        geo = cached_geometry(M)
        on_cone = random_on(np.flatnonzero(geo.assignment >= 0), M, seed)
        sub = tspacing_subsample(geo, 0.5, seed=seed)
        on_caps = random_cap_function(geo, sub, seed=seed + 1)
        for f in (on_cone, on_caps):
            rep = wave_envelope_rhs(f, geo)
            per_s, total = envelope_oracle(f, geo)
            assert rep.per_s == per_s
            assert rep.total == total
