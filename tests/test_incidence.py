import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from projlab.covering import Covering, single_level_covering
from projlab.curve import direction_net, model_curve
from projlab.errors import ConfigurationError, DomainError, NumericError, PreconditionError
from projlab.fractal import PointSet, cantor_1d, extract_delta_s_set, full_grid
from projlab.incidence import (
    IncidenceConfig,
    _offset_delta_s_set,
    IncidenceMatrix,
    IncidenceSpec,
    ball_target,
    heavy_subset,
    incidence_count,
    make_family,
    random_admissible_config,
    scan_slab_family,
    slabs_from_covering,
    verify_incidence_bound,
)

CURVE = model_curve()


def origin_ball(delta):
    return PointSet(
        3, delta, np.zeros((1, 3), dtype=np.int64), domain="ball", nominal_dim=0.0
    )


def config_through_origin(delta, t=1.0, s=0.5):
    """Every direction holds one slab through the origin."""
    net = direction_net(CURVE, delta, t, seed=0)
    fams = tuple(
        make_family(float(th), [0.0], delta=delta, s=s) for th in net.thetas
    )
    return IncidenceConfig(net=net, families=fams, balls=origin_ball(delta))


class TestSlabFamilies:
    def test_single_interval_covering(self):
        p = PointSet(1, 2.0**-6, np.array([[17]]), nominal_dim=0.0)
        cov = single_level_covering(p, s=0.5, level=3)
        fam = slabs_from_covering(cov, theta=0.3)
        assert len(fam) == 1
        assert fam.thickness == 2.0**-3
        assert fam.offsets[0] == pytest.approx((2 + 0.5) * 2.0**-3)

    def test_cantor_image_family_passes(self):
        p = cantor_1d(1 / 3, 4)
        cov = single_level_covering(p, s=0.7)
        fam = slabs_from_covering(cov, theta=0.1)
        assert len(fam) == 16
        assert len(fam) * fam.thickness**fam.s <= 8.0
        worst, _ = scan_slab_family(fam.offsets, fam.thickness, fam.thickness, fam.s)
        assert worst <= 8.0

    def test_injected_violation_fails_with_witness(self):
        # a full grid of offsets is 1-dimensional, not 0.5-dimensional
        offsets = np.arange(64) * 2.0**-6
        fam = make_family(0.2, offsets, delta=2.0**-6, s=0.5)
        worst, witness_r = scan_slab_family(fam.offsets, fam.thickness, 2.0**-6, 0.5)
        assert worst > 8.0
        assert 2.0**-6 <= witness_r <= 1.0

    def test_family_is_delta_slabs_in_the_unit_ball(self):
        fam = make_family(0.2, [0.5, -0.25, 1.0], delta=2.0**-3, s=0.5)
        assert fam.offsets.tolist() == [-0.25, 0.5, 1.0]
        assert fam.thickness == 2.0**-3
        with pytest.raises(ConfigurationError, match=r"\|offset\| <= 1"):
            make_family(0.2, [1.125], delta=2.0**-3, s=0.5)

    @pytest.mark.parametrize("offsets", [[], [0.0]])
    def test_family_delta_must_be_dyadic(self, offsets):
        # the scan used to be the only check, and it skipped empty families
        with pytest.raises(DomainError, match="delta"):
            make_family(0.2, offsets, delta=0.3, s=0.5)

    def test_multi_level_covering_rejected(self):
        cov = Covering(
            1, 0.5, 1.0, {2: np.array([[0]]), 3: np.array([[7]])}
        )
        with pytest.raises(ConfigurationError):
            slabs_from_covering(cov, theta=0.0)

    def test_axis_transform(self):
        p = PointSet(1, 2.0**-5, np.array([[4]]), nominal_dim=0.0)
        cov = single_level_covering(p, s=0.5)
        fam = slabs_from_covering(cov, theta=0.0, axis=(2.0, -1.0))
        assert fam.thickness == pytest.approx(2.0**-4)
        assert fam.offsets[0] == pytest.approx(2 * (4.5 * 2.0**-5) - 1)


class TestIncidenceCount:
    def test_origin_ball_meets_every_direction(self):
        cfg = config_through_origin(2.0**-5)
        m = incidence_count(cfg, CURVE)
        assert m.row_counts()[0] == len(cfg.net)

    def test_empty_families_empty_matrix(self):
        net = direction_net(CURVE, 2.0**-4, 1.0, seed=0)
        fams = tuple(
            make_family(float(th), [], delta=2.0**-4, s=0.5) for th in net.thetas
        )
        cfg = IncidenceConfig(net=net, families=fams, balls=origin_ball(2.0**-4))
        m = incidence_count(cfg, CURVE)
        assert m.total == 0

    def test_double_counting_identity(self):
        for seed in range(5):
            spec = IncidenceSpec(delta=2.0**-5, s=0.5, t=0.5, seed=seed)
            cfg = random_admissible_config(spec)
            m = incidence_count(cfg, CURVE)
            assert int(m.row_counts().sum()) == int(m.col_counts().sum()) == m.total

    def test_monotone_in_slabs(self):
        spec = IncidenceSpec(delta=2.0**-4, s=0.5, t=0.5, seed=3)
        cfg = random_admissible_config(spec)
        m1 = incidence_count(cfg, CURVE)
        # adding a slab through every ball's projection can only add hits
        fam0 = cfg.families[0]
        new_offsets = np.sort(np.append(fam0.offsets, [0.0]))
        fam0b = replace(fam0, offsets=np.unique(new_offsets))
        cfg2 = replace(cfg, families=(fam0b,) + cfg.families[1:])
        m2 = incidence_count(cfg2, CURVE)
        assert np.all(m2.row_counts() >= m1.row_counts())


def oracle_scan_slab_family(cells, width, k, s):
    """scan_slab_family of the offsets cells * delta and thickness width * delta
    by brute force: every dyadic r, every window start on the delta-lattice."""
    delta = 2.0**-k
    cells = np.asarray(cells, dtype=np.int64)
    worst, witness_r = 0.0, 1.0
    for m in range(k + 1):
        r = 2.0**-m
        length = 2 * 2 ** (k - m) + width  # the window 2r + thickness, in cells
        most = 0
        for start in range(-(2**k) - length, 2**k + 1):
            most = max(most, int(np.sum((cells >= start) & (cells <= start + length))))
        ratio = most / (r / delta) ** s
        if ratio > worst:
            worst, witness_r = float(ratio), r
    return worst, witness_r


@given(
    st.integers(2, 5).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(-(2**k), 2**k), max_size=2 ** (k + 1) + 1, unique=True),
        )
    ),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
)
def test_scan_slab_family_matches_brute_force_windows(k_cells, width, s):
    k, cells = k_cells
    delta = 2.0**-k
    offsets = np.sort(np.array(cells, dtype=np.int64)) * delta
    got = scan_slab_family(offsets, width * delta, delta, s)
    assert got == oracle_scan_slab_family(cells, width, k, s)


def slab_contains(points, gamma, offset, thickness):
    """Membership in one slab: |x . gamma - offset| <= thickness/2 and |x| <= 1."""
    inside_band = np.abs(points @ gamma - offset) <= thickness / 2
    inside_ball = np.linalg.norm(points, axis=-1) <= 1.0
    return inside_band & inside_ball


def oracle_incidence(cfg, curve):
    """Dense (ball, direction) relation from every ball against every slab."""
    pts = cfg.balls.values
    hit = np.zeros((len(cfg.balls), len(cfg.net)), dtype=bool)
    for j, theta in enumerate(cfg.net.thetas):
        fam = cfg.families[j]
        gamma = curve.points(np.array([theta]))[0]
        for c in fam.offsets:
            hit[:, j] |= slab_contains(pts, gamma, c, fam.thickness)
    return hit


def dense(m: IncidenceMatrix, n_directions: int) -> np.ndarray:
    out = np.zeros((m.n_balls, n_directions), dtype=bool)
    out[m.balls, np.repeat(np.arange(n_directions), m.col_counts())] = True
    return out


@st.composite
def small_configs(draw):
    """Configs at delta = 2^-2..2^-4: lattice balls in the unit ball and
    per-direction lattice offsets on [-1, 1], families possibly empty,
    slabs delta or 4 delta thick."""
    k = draw(st.integers(2, 4))
    delta = 2.0**-k
    n = 2**k
    net = direction_net(CURVE, delta, draw(st.sampled_from([0.5, 1.0])), draw(st.integers(0, 9)))
    cells = draw(
        st.lists(st.tuples(*[st.integers(-n, n)] * 3), min_size=1, max_size=24, unique=True)
    )
    cells = [c for c in cells if sum(x * x for x in c) <= n * n] or [(0, 0, 0)]
    thickness = draw(st.sampled_from([1, 4])) * delta
    fams = tuple(
        make_family(
            float(th),
            np.array(draw(st.lists(st.integers(-n, n), max_size=12, unique=True))) * delta,
            delta=thickness,
            s=0.5,
        )
        for th in net.thetas
    )
    balls = PointSet(3, delta, np.array(cells), domain="ball", nominal_dim=0.0)
    return IncidenceConfig(net=net, families=fams, balls=balls)


@given(small_configs())
def test_incidence_count_matches_every_ball_against_every_slab(cfg):
    expected = oracle_incidence(cfg, CURVE)
    m = incidence_count(cfg, CURVE)
    assert m.n_balls == len(cfg.balls)
    assert np.array_equal(dense(m, len(cfg.net)), expected)
    # each direction's ball list is sorted and free of repeats
    for j in range(len(cfg.net)):
        assert np.all(np.diff(m.balls[m.ptr[j] : m.ptr[j + 1]]) > 0)
    assert np.array_equal(m.row_counts(), expected.sum(axis=1))
    assert np.array_equal(m.col_counts(), expected.sum(axis=0))
    assert m.total == int(expected.sum())


class TestHeavySubset:
    def test_origin_ball_retained(self):
        for k in (1, 3, 5):
            cfg = config_through_origin(2.0**-k)
            m = incidence_count(cfg, CURVE)
            heavy = heavy_subset(m, cfg)
            assert len(heavy) == 1

    def test_empty_rows_dropped(self):
        net = direction_net(CURVE, 2.0**-4, 1.0, seed=0)
        fams = tuple(
            make_family(float(th), [], delta=2.0**-4, s=0.5) for th in net.thetas
        )
        cfg = IncidenceConfig(net=net, families=fams, balls=origin_ball(2.0**-4))
        heavy = heavy_subset(incidence_count(cfg, CURVE), cfg)
        assert len(heavy) == 0

    def test_threshold_arithmetic_at_2_pow_5(self):
        spec = IncidenceSpec(delta=2.0**-5, s=0.5, t=0.5, seed=11)
        cfg = random_admissible_config(spec)
        m = incidence_count(cfg, CURVE)
        heavy = heavy_subset(m, cfg)
        counts = m.row_counts()
        expected = np.sum(counts >= len(cfg.net) / 25.0)  # (log2 32)^2 = 25
        assert len(heavy) == int(expected)


class TestVerifyBound:
    def test_full_net_single_slab_exponent_arithmetic(self):
        delta, s, eps = 2.0**-6, 0.5, 0.1
        cfg = config_through_origin(delta, t=1.0, s=s)
        rep = verify_incidence_bound(cfg, CURVE, epsilon=eps)
        n_theta = 2**6 + 1
        assert rep.lhs == pytest.approx(n_theta**4)
        assert rep.fitted_c == pytest.approx(n_theta**4 * delta ** (4 + s + eps))
        assert rep.fitted_c <= 1.2
        assert rep.ceiling_ok

    def test_randomized_config_finite_constant(self):
        spec = IncidenceSpec(delta=2.0**-4, s=0.5, t=0.5, seed=1)
        cfg = random_admissible_config(spec)
        rep = verify_incidence_bound(cfg, CURVE)
        assert np.isfinite(rep.fitted_c) and rep.fitted_c > 0
        assert rep.heavy_count == len(cfg.balls)
        assert rep.theta_count == len(cfg.net)

    def test_cross_scale_stability(self):
        for s, t in [(0.5, 0.5), (0.3, 0.7)]:
            cs = []
            for k in (4, 5, 6):
                spec = IncidenceSpec(delta=2.0**-k, s=s, t=t, seed=7)
                rep = verify_incidence_bound(
                    random_admissible_config(spec), CURVE
                )
                cs.append(rep.fitted_c)
            assert max(cs) / min(cs) <= 10.0

    @pytest.mark.parametrize("eps", [1000.0, -2000.0, float("nan")])
    def test_unrepresentable_rhs_raises_numeric_error(self, eps):
        # delta^-(2t+s+2+eps) overflows (1000), underflows to 0 (-2000) or is nan
        cfg = config_through_origin(2.0**-4)
        with pytest.raises(NumericError, match="not a finite positive float"):
            verify_incidence_bound(cfg, CURVE, epsilon=eps)

    def test_precondition_error_names_ball(self):
        net = direction_net(CURVE, 2.0**-5, 0.5, seed=0)
        fams = tuple(
            make_family(float(th), [0.5], delta=2.0**-5, s=0.5)
            for th in net.thetas
        )
        # the origin ball misses every slab at offset 0.5
        cfg = IncidenceConfig(net=net, families=fams, balls=origin_ball(2.0**-5))
        with pytest.raises(PreconditionError, match=r"ball at \(0.0, 0.0, 0.0\)"):
            verify_incidence_bound(cfg, CURVE)


class TestConfigScale:
    def test_ball_delta_must_match_the_net(self):
        cfg = config_through_origin(2.0**-4)
        with pytest.raises(ConfigurationError, match="delta"):
            replace(cfg, balls=origin_ball(2.0**-6))

    def test_families_must_share_s(self):
        cfg = config_through_origin(2.0**-4, s=0.5)
        fam0 = replace(cfg.families[0], s=0.7)
        with pytest.raises(ConfigurationError, match="disagree on s"):
            replace(cfg, families=(fam0,) + cfg.families[1:])

    def test_generator_rejects_delta_one(self):
        # log2(1/delta) = 0 there, and the heavy threshold divides by its square
        with pytest.raises(DomainError, match="delta <= 1/2"):
            random_admissible_config(IncidenceSpec(delta=1.0, s=0.5, t=0.5, seed=0))

    def test_config_rejects_delta_one(self):
        net = direction_net(CURVE, 1.0, 1.0, 0)
        fams = tuple(make_family(float(th), [0.0], delta=1.0, s=0.5) for th in net.thetas)
        with pytest.raises(DomainError, match="delta <= 1/2"):
            IncidenceConfig(net=net, families=fams, balls=origin_ball(1.0))

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_generator_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            random_admissible_config(IncidenceSpec(delta=2.0**-4, s=0.5, t=0.5, seed=seed))


class TestSpecSerialization:
    def test_spec_roundtrip(self):
        spec = IncidenceSpec(delta=2.0**-5, s=0.3, t=0.7, seed=42)
        text = spec.to_json()
        payload = json.loads(text)
        assert set(payload) == {"delta", "s", "t", "seed", "curve"}
        assert IncidenceSpec.from_json(text) == spec
        # extra keys such as `mode` and `generator` are ignored
        old = json.dumps({**payload, "mode": "unit", "generator": "slab-sampled"})
        assert IncidenceSpec.from_json(old) == spec

    def test_report_json_keys(self):
        spec = IncidenceSpec(delta=2.0**-4, s=0.5, t=0.5, seed=0)
        rep = verify_incidence_bound(random_admissible_config(spec), CURVE)
        payload = json.loads(rep.to_json())
        assert set(payload) == {"lhs", "rhs", "fitted_C", "heavy_count", "theta_count"}

    def test_generator_deterministic(self):
        spec = IncidenceSpec(delta=2.0**-5, s=0.5, t=0.5, seed=9)
        a = random_admissible_config(spec)
        b = random_admissible_config(spec)
        assert np.array_equal(a.balls.indices, b.balls.indices)
        assert all(
            np.array_equal(fa.offsets, fb.offsets)
            for fa, fb in zip(a.families, b.families)
        )


def oracle_offset_delta_s_set(k, s, rng):
    """The generator's offsets by general extraction on an explicit full grid."""
    grid = full_grid(k + 1)
    w = rng.random(len(grid))
    extracted = extract_delta_s_set(grid.with_weights(w / w.sum()), s, 1.0)
    return np.sort(extracted.indices[:, 0] * extracted.delta * 2.0 - 1.0)


@given(
    st.integers(1, 9),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.integers(0, 2**32 - 1),
)
@example(1, 0.0, 0)
@example(9, 1.0, 0)
def test_offsets_match_general_extraction(k, s, seed):
    fast_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _offset_delta_s_set(k, s, fast_rng)
    want = oracle_offset_delta_s_set(k, s, oracle_rng)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert fast_rng.random() == oracle_rng.random()


class FixedDraw:
    """Stands in for a Generator whose `random(n)` returns given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        assert n == self.values.size
        return self.values.copy()


@st.composite
def tie_heavy_draws(draw):
    """Leaf weights from a few decimals whose right half permutes the left,
    so the root's children (and often deeper siblings) weigh the same in
    exact arithmetic and only the summation order decides between them."""
    k = draw(st.integers(1, 6))
    half = 2**k
    left = draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7]), min_size=half, max_size=half))
    return k, left + draw(st.permutations(left))


@given(tie_heavy_draws(), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_offsets_match_general_extraction_on_near_ties(draw, s):
    k, values = draw
    got = _offset_delta_s_set(k, s, FixedDraw(values))
    want = oracle_offset_delta_s_set(k, s, FixedDraw(values))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("s", [-0.1, 1.5, float("nan")])
def test_offsets_reject_s_like_general_extraction(s):
    for fn in (_offset_delta_s_set, oracle_offset_delta_s_set):
        with pytest.raises(DomainError, match=r"need 0 <= s <= ambient_dim, got s="):
            fn(4, s, np.random.default_rng(0))


#: sha256 of net indices, ball indices and concatenated slab offsets per spec
PINNED_DIGESTS = [
    (0.3, 0.3, 4, 3, "af7652879c1754305674edf7495fbec5aee2127265024822de1bb39996066342"),
    (0.3, 0.3, 7, 11, "ff3d04250d16b035a8935f312a66220a859a4fa818b197b4259194940fb799e2"),
    (0.3, 0.7, 4, 3, "0d059fbe5d4f8e5e4a58cb4979f7c5dc3dce08f35f3fdcc8fc2ffd6131bbfcb5"),
    (0.3, 0.7, 7, 11, "0e8b74e83703435271e3a18e62a07632aaba2decc05c31bd64d8d65667e58a42"),
    (0.7, 0.3, 4, 3, "99271548cd1411b3ad990e5d688d4856567068d1e9c286dc90bf1a93ecc54678"),
    (0.7, 0.3, 7, 11, "5383e398f17907753e8f35eeb253de830a513d9bd8b2d74ab051ca7beb82735b"),
    (0.7, 0.7, 4, 3, "4c509c65e15fd4bc80e0418fa54f45a45a309619bc0c334cc25c03b23db2367a"),
    (0.7, 0.7, 7, 11, "aa67b8bd197c95aa3777bfa97de62f2db8634fe8b6a05a7f783603d7f8ce0db3"),
    (0.5, 0.5, 5, 9, "ae29e4fd185b0b09ba85a576f2638429c865e25f43e6c7eb428406d7e604cd1e"),
]


def test_generator_pinned_digests():
    for s, t, k, seed, want in PINNED_DIGESTS:
        cfg = random_admissible_config(IncidenceSpec(delta=2.0**-k, s=s, t=t, seed=seed))
        h = hashlib.sha256()
        h.update(cfg.net.indices.tobytes())
        h.update(cfg.balls.indices.tobytes())
        h.update(np.concatenate([fam.offsets for fam in cfg.families]).tobytes())
        assert h.hexdigest() == want, (s, t, k, seed)


class TestBallTarget:
    def test_tracks_the_bound_exponent(self):
        for s, t in [(0.3, 0.3), (0.5, 0.5), (0.7, 0.3)]:
            for k in (4, 5, 6, 7):
                n = ball_target(2.0**-k, s, t)
                ideal = 2.0**-4 * 2.0 ** (k * (2 + s - 2 * t))
                assert n == max(1, round(ideal))
