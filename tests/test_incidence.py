import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from projlab import incidence
from projlab.curve import Curve, direction_net, frame, model_curve, named_curve
from projlab.dyadic import dot3, dyadic_level, group_rows
from projlab.errors import (
    CapacityError,
    ConfigurationError,
    DomainError,
    InfeasibleError,
    NumericError,
    PreconditionError,
)
from projlab.fractal import PointSet, extract_delta_s_set, full_grid
from projlab.incidence import (
    IncidenceConfig,
    IncidenceMatrix,
    _offset_delta_s_sets,
    IncidenceSpec,
    SlabFamily,
    _in_band,
    ball_target,
    heavy_subset,
    heavy_threshold,
    incidence_count,
    make_family,
    random_admissible_config,
    verify_incidence_bound,
)

CURVE = model_curve()
#: the batch bound the library ships with, before any test patches it
BLOCK = incidence._BLOCK


def origin_ball(delta):
    return PointSet(
        3, delta, np.zeros((1, 3), dtype=np.int64), domain="ball", nominal_dim=0.0
    )


def config_through_origin(delta, t=1.0, s=0.5):
    """Every direction holds one slab through the origin."""
    net = direction_net(delta, t, seed=0)
    fams = tuple(
        make_family(float(th), [0.0], delta=delta, s=s) for th in net.thetas
    )
    return IncidenceConfig(net=net, families=fams, balls=origin_ball(delta))


class TestSlabFamilies:
    def test_family_is_delta_slabs_in_the_unit_ball(self):
        fam = make_family(0.2, [0.5, -0.25, 1.0], delta=2.0**-3, s=0.5)
        assert fam.offsets.tolist() == [-0.25, 0.5, 1.0]
        assert fam.thickness == 2.0**-3
        with pytest.raises(ConfigurationError, match=r"\|offset\| <= 1"):
            make_family(0.2, [1.125], delta=2.0**-3, s=0.5)
        # NaN compares false, so a max-based check let it through
        with pytest.raises(ConfigurationError, match=r"\|offset\| <= 1"):
            make_family(0.2, [0.5, float("nan"), -0.2], delta=2.0**-3, s=0.5)

    def test_offsets_are_a_read_only_copy(self):
        mine = np.array([-0.25, 0.5])
        fam = SlabFamily(theta=0.2, s=0.5, offsets=mine, thickness=2.0**-3)
        with pytest.raises(ValueError, match="read-only"):
            fam.offsets[0] = 0.0
        mine[0] = 0.0  # the caller's array stays writable
        assert fam.offsets.tolist() == [-0.25, 0.5]

    @pytest.mark.parametrize("offsets", [[[0.1, 0.2], [0.3, 0.4]], 0.5])
    def test_offsets_must_be_one_row(self, offsets):
        # a 2-D block was accepted, and the first band test died in searchsorted
        # with a bare ValueError ("object too deep for desired array")
        with pytest.raises(ConfigurationError, match="1-D"):
            make_family(0.0, offsets, delta=2.0**-3, s=0.5)

    @pytest.mark.parametrize("offsets", [[], [0.0]])
    def test_family_delta_must_be_dyadic(self, offsets):
        # the scan used to be the only check, and it skipped empty families
        with pytest.raises(DomainError, match="delta"):
            make_family(0.2, offsets, delta=0.3, s=0.5)


class TestIncidenceCount:
    def test_origin_ball_meets_every_direction(self):
        cfg = config_through_origin(2.0**-5)
        m = incidence_count(cfg, CURVE)
        assert m.row_counts()[0] == len(cfg.net)

    def test_empty_families_empty_matrix(self):
        net = direction_net(2.0**-4, 1.0, seed=0)
        fams = tuple(
            make_family(float(th), [], delta=2.0**-4, s=0.5) for th in net.thetas
        )
        cfg = IncidenceConfig(net=net, families=fams, balls=origin_ball(2.0**-4))
        m = incidence_count(cfg, CURVE)
        assert m.total == 0

    def test_counts_are_int64_per_ball_and_per_direction(self):
        # the bench digest hashes each count array's dtype string
        cfg = random_admissible_config(IncidenceSpec(delta=2.0**-5, s=0.5, t=0.5, seed=3))
        empty = tuple(make_family(f.theta, [], delta=2.0**-5, s=0.5) for f in cfg.families)
        for c, curve in [
            (cfg, named_curve("model")),  # the generator's matrix
            (cfg, CURVE),  # a fresh count
            (replace(cfg, families=empty), CURVE),
        ]:
            m = incidence_count(c, curve)
            rows, cols = m.row_counts(), m.col_counts()
            assert rows.dtype == cols.dtype == np.int64
            assert rows.shape == (len(c.balls),) and cols.shape == (len(c.net),)
            assert type(m.total) is int and m.total == int(rows.sum())
        assert m.total == 0 and len(c.balls) > 1

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


@st.composite
def small_configs(draw):
    """Configs at delta = 2^-2..2^-4: lattice balls in the unit ball and
    per-direction lattice offsets on [-1, 1], families possibly empty,
    slabs delta or 4 delta thick."""
    k = draw(st.integers(2, 4))
    delta = 2.0**-k
    n = 2**k
    net = direction_net(delta, draw(st.sampled_from([0.5, 1.0])), draw(st.integers(0, 9)))
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
    assert m.hits.dtype == bool and m.hits.shape == (len(cfg.balls), len(cfg.net))
    assert np.array_equal(m.hits, expected)
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
        net = direction_net(2.0**-4, 1.0, seed=0)
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
        net = direction_net(2.0**-5, 0.5, seed=0)
        fams = tuple(
            make_family(float(th), [0.5], delta=2.0**-5, s=0.5)
            for th in net.thetas
        )
        # the origin ball misses every slab at offset 0.5
        cfg = IncidenceConfig(net=net, families=fams, balls=origin_ball(2.0**-5))
        with pytest.raises(PreconditionError, match=r"ball at \(0.0, 0.0, 0.0\)"):
            verify_incidence_bound(cfg, CURVE)


class TestCountMemo:
    def test_returned_arrays_are_read_only(self):
        cfg = random_admissible_config(IncidenceSpec(delta=2.0**-5, s=0.5, t=0.5, seed=2))
        for curve in (named_curve("model"), CURVE):  # the generator's matrix and a count
            m = incidence_count(cfg, curve)
            with pytest.raises(ValueError, match="read-only"):
                m.hits[0, 0] = not m.hits[0, 0]

    def test_the_matrix_keeps_its_own_copy(self):
        h = np.zeros((2, 3), dtype=bool)
        m = IncidenceMatrix(h)
        h[0, 0] = True  # used to raise: the matrix froze the caller's array in place
        assert m.total == 0

    def test_the_net_thetas_refuse_writes(self):
        # a write used to leave the memo's matrix stale and make replace() refuse the config
        cfg = random_admissible_config(IncidenceSpec(delta=2.0**-5, s=0.5, t=0.5, seed=3))
        m = incidence_count(cfg, named_curve("model"))
        with pytest.raises(ValueError, match="read-only"):
            cfg.net.thetas[0] += 0.25
        assert incidence_count(replace(cfg), named_curve("model")).hits.tobytes() == m.hits.tobytes()

    def test_the_config_keeps_its_own_families(self):
        # a config kept the caller's list, so replacing a family after a count
        # left the memo reading 7 hits in that column where a fresh count read 0
        model = named_curve("model")
        cfg = random_admissible_config(IncidenceSpec(delta=2.0**-5, s=0.5, t=0.5, seed=1))
        families = list(cfg.families)
        mine = IncidenceConfig(cfg.net, families, cfg.balls)
        m = incidence_count(mine, model)
        j = int(np.argmax(m.col_counts()))
        assert m.col_counts()[j] == 7
        families[j] = make_family(families[j].theta, [], delta=2.0**-5, s=0.5)
        assert mine.families == cfg.families and mine == cfg
        assert incidence_count(replace(mine), model) == m

    def test_replace_starts_with_an_empty_memo(self):
        cfg = config_through_origin(2.0**-4)
        m = incidence_count(cfg, CURVE)
        assert incidence_count(cfg, CURVE) is m
        other = replace(cfg, balls=origin_ball(2.0**-4))
        assert other._counts == {}
        assert incidence_count(other, CURVE) is not m

    def test_a_fresh_curve_misses_and_recounts_the_same_arrays(self):
        cfg = random_admissible_config(IncidenceSpec(delta=2.0**-5, s=0.5, t=0.5, seed=4))
        model = named_curve("model")
        cached = incidence_count(cfg, model)
        # functions of its own: a Curve made by replace() would hash equal and hit the memo
        twin = Curve("model", lambda t: model.points(t), lambda t: model.deriv1(t), lambda t: model.deriv2(t))
        fresh = incidence_count(cfg, twin)
        assert fresh is not cached
        assert np.array_equal(fresh.hits, cached.hits)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_generator_matrix_equals_a_fresh_count(self, k):
        for s, t in [(0.3, 0.7), (0.5, 0.5), (0.7, 0.3)]:
            for seed in range(10):
                cfg = random_admissible_config(IncidenceSpec(delta=2.0**-k, s=s, t=t, seed=seed))
                kept = cfg._counts[named_curve("model")]
                fresh = incidence_count(replace(cfg), named_curve("model"))
                assert kept.hits.shape == fresh.hits.shape == (len(cfg.balls), len(cfg.net))
                assert kept.hits.dtype == fresh.hits.dtype == bool
                assert np.array_equal(kept.hits, fresh.hits)
                assert np.all(kept.row_counts() >= heavy_threshold(cfg.net))

    def test_a_bench_shaped_item_counts_once(self, monkeypatch):
        counted = []
        count = incidence._hits
        monkeypatch.setattr(incidence, "_hits", lambda *args: counted.append(args) or count(*args))
        model = named_curve("model")
        cfg = random_admissible_config(IncidenceSpec(delta=2.0**-6, s=0.5, t=0.5, seed=5))
        m = incidence_count(cfg, model)
        verify_incidence_bound(cfg, model)
        assert len(counted) == 1
        assert m is cfg._counts[model]

    def test_the_generator_builds_each_object_once(self, monkeypatch):
        """One point set, one config, one curve evaluation and one count per
        generated config; the generator used to build the point set and the
        config twice, for all sampled cells and again for the heavy ones, and
        to evaluate the curve again for the count."""
        built = {"PointSet": 0, "IncidenceConfig": 0, "points": 0, "hits": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(PointSet, "__post_init__", counting("PointSet", PointSet.__post_init__))
        monkeypatch.setattr(
            IncidenceConfig,
            "__post_init__",
            counting("IncidenceConfig", IncidenceConfig.__post_init__),
        )
        model = named_curve("model")
        monkeypatch.setitem(vars(model), "points", counting("points", model.points))
        monkeypatch.setattr(incidence, "_hits", counting("hits", incidence._hits))
        cfg = random_admissible_config(IncidenceSpec(delta=2.0**-6, s=0.5, t=0.5, seed=5))
        verify_incidence_bound(cfg, model)
        assert built == {"PointSet": 1, "IncidenceConfig": 1, "points": 1, "hits": 1}


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

    def test_generator_refuses_a_ball_batch_over_the_cell_cap(self):
        # ball_target(2^-10, 1, 0) = 2^26, so the first batch would hold 2^27 draws
        with pytest.raises(CapacityError, match="ball draws exceeds the cap"):
            random_admissible_config(IncidenceSpec(delta=2.0**-10, s=1.0, t=0.0, seed=0))

    def test_config_rejects_delta_one(self):
        net = direction_net(1.0, 1.0, 0)
        fams = tuple(make_family(float(th), [0.0], delta=1.0, s=0.5) for th in net.thetas)
        with pytest.raises(DomainError, match="delta <= 1/2"):
            IncidenceConfig(net=net, families=fams, balls=origin_ball(1.0))

    @pytest.mark.parametrize(
        "change, match",
        [
            (lambda cfg: {"families": cfg.families[:-1]}, "one slab family per direction"),
            (
                lambda cfg: {"balls": PointSet(2, 2.0**-4, [[0, 0]], domain="ball")},
                "balls must be a 3-D point set",
            ),
        ],
        ids=["family-count", "balls-2d"],
    )
    def test_config_refusals(self, change, match):
        cfg = config_through_origin(2.0**-4)
        with pytest.raises(ConfigurationError, match=match):
            replace(cfg, **change(cfg))

    def test_config_rejects_a_family_off_its_direction(self):
        # the count pairs family j with net.thetas[j], but the family's own
        # theta places its slabs, so the two must agree
        net = direction_net(2.0**-4, 1.0, 0)
        fams = [make_family(float(th), [0.0], delta=2.0**-4, s=0.5) for th in net.thetas]
        fams[3] = make_family(0.9, [0.0], delta=2.0**-4, s=0.5)
        with pytest.raises(ConfigurationError, match="family 3 sits at theta=0.9"):
            IncidenceConfig(net=net, families=tuple(fams), balls=origin_ball(2.0**-4))

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_generator_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            random_admissible_config(IncidenceSpec(delta=2.0**-4, s=0.5, t=0.5, seed=seed))


class TestSpecSerialization:
    def test_unhashable_curve_name_is_a_domain_error(self):
        spec = IncidenceSpec(delta=2.0**-4, s=0.5, t=0.5, seed=0, curve=[1])
        with pytest.raises(DomainError, match="unknown curve"):
            random_admissible_config(spec)

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
    extracted = extract_delta_s_set(replace(grid, weights=w / w.sum()), s, 1.0)
    return np.sort(extracted.indices[:, 0] * extracted.delta * 2.0 - 1.0)


def oracle_offsets(k, s, n_sets, rng):
    """n_sets consecutive oracle draws from one generator, stacked."""
    return np.stack([oracle_offset_delta_s_set(k, s, rng) for _ in range(n_sets)])


@given(
    st.integers(1, 9),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
@example(1, 0.0, 1, 0)
@example(9, 1.0, 3, 0)
def test_offsets_match_general_extraction(k, s, n_sets, seed):
    fast_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _offset_delta_s_sets(k, s, n_sets, fast_rng)
    want = oracle_offsets(k, s, n_sets, oracle_rng)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state


class FixedDraw:
    """Stands in for a Generator whose draws return given rows: `random(n)`
    the next row, `random((n_rows, n))` all of them."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.next = 0

    def random(self, shape):
        if isinstance(shape, tuple):
            assert shape == self.rows.shape
            return self.rows.copy()
        assert shape == self.rows.shape[1]
        self.next += 1
        return self.rows[self.next - 1].copy()


@st.composite
def tie_heavy_draws(draw):
    """Leaf weights from a few decimals whose right half permutes the left,
    so the root's children (and often deeper siblings) weigh the same in
    exact arithmetic and only the summation order decides between them;
    one such row per direction."""
    k = draw(st.integers(1, 6))
    half = 2**k
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        left = draw(
            st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7]), min_size=half, max_size=half)
        )
        rows.append(left + draw(st.permutations(left)))
    return k, rows


@given(tie_heavy_draws(), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_offsets_match_general_extraction_on_near_ties(draw, s):
    k, rows = draw
    got = _offset_delta_s_sets(k, s, len(rows), FixedDraw(rows))
    want = oracle_offsets(k, s, len(rows), FixedDraw(rows))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("s", [-0.1, 1.5, float("nan")])
def test_offsets_reject_s_like_general_extraction(s):
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError, match=r"need 0 <= s <= ambient_dim, got s="):
        _offset_delta_s_sets(4, s, 2, rng)
    with pytest.raises(DomainError, match=r"need 0 <= s <= ambient_dim, got s="):
        oracle_offset_delta_s_set(4, s, rng)


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


def test_generator_families_equal_make_family_of_their_offset_rows():
    """Each family is `make_family` of its direction's row of the offsets block,
    on the incidence bench's (s, t, k) classes at two seeds and the pinned specs."""
    specs = [
        (s, t, k, seed)
        for s in (0.3, 0.5, 0.7)
        for t in (0.3, 0.5, 0.7)
        for k in (4, 5, 6, 7)
        for seed in (0, 1)
    ] + [spec[:4] for spec in PINNED_DIGESTS]
    for s, t, k, seed in specs:
        cfg = random_admissible_config(IncidenceSpec(delta=2.0**-k, s=s, t=t, seed=seed))
        rows = _offset_delta_s_sets(k, s, len(cfg.net), np.random.default_rng(seed))
        assert len(cfg.families) == len(rows)
        for theta, fam, row in zip(cfg.net.thetas, cfg.families, rows):
            want = make_family(float(theta), row, delta=2.0**-k, s=s)
            assert (fam.theta, fam.s, fam.thickness) == (want.theta, want.s, want.thickness)
            assert type(fam.theta) is float
            assert fam.offsets.dtype == want.offsets.dtype
            assert fam.offsets.tobytes() == want.offsets.tobytes(), (s, t, k, seed)
            assert not fam.offsets.flags.writeable


class TestBallTarget:
    def test_tracks_the_bound_exponent(self):
        for s, t in [(0.3, 0.3), (0.5, 0.5), (0.7, 0.3)]:
            for k in (4, 5, 6, 7):
                n = ball_target(2.0**-k, s, t)
                ideal = 2.0**-4 * 2.0 ** (k * (2 + s - 2 * t))
                assert n == max(1, round(ideal))


# ----------------------------------------------------------------------------
# the per-direction loops that the batched sampler and count replaced, as oracles


def loop_count(cfg, curve):
    """The incidence matrix one direction at a time: a `dot3` and a band test each."""
    pts = cfg.balls.float_indices * cfg.delta
    in_ball = np.linalg.norm(pts, axis=0) <= 1.0
    hits = np.empty((len(cfg.balls), len(cfg.net)), dtype=bool)
    for j, (fam, gamma) in enumerate(zip(cfg.families, curve.points(cfg.net.thetas))):
        hits[:, j] = _in_band(fam, dot3(pts, gamma)) & in_ball
    return hits


def loop_sampler(spec):
    """`random_admissible_config` placing and band-testing one direction at a time.

    Returns the config of the sampled cells (before the heavy filter), the
    heavy cells, their rows of the incidence matrix and, per attempt, the
    draw count of each drawn direction in ascending direction order.
    """
    curve = named_curve(spec.curve)
    k = dyadic_level(spec.delta)
    rng = np.random.default_rng(spec.seed)
    net = direction_net(spec.delta, spec.t, spec.seed)
    families = tuple(
        SlabFamily(float(theta), spec.s, offsets, spec.delta)
        for theta, offsets in zip(net.thetas, _offset_delta_s_sets(k, spec.s, len(net), rng))
    )
    gammas, tangents, normals = frame(curve, net.thetas)
    want = ball_target(spec.delta, spec.s, spec.t)
    collected = np.zeros((0, 3), dtype=np.int64)
    attempts = []
    for _attempt in range(64):
        if len(collected) >= want:
            break
        batch = max(64, 2 * (want - len(collected)))
        js = rng.integers(0, len(net), size=batch)
        found = [collected]
        dirs, counts = np.unique(js, return_counts=True)
        attempts.append(counts.tolist())
        for j, count in zip(dirs, counts):
            fam = families[j]
            g, tv, nv = gammas[j], tangents[j], normals[j]
            cs = fam.offsets[rng.integers(0, len(fam), size=count)]
            u = rng.uniform(-0.7, 0.7, size=count)
            v = rng.uniform(-0.7, 0.7, size=count)
            pts = cs[:, None] * g + u[:, None] * tv + v[:, None] * nv
            idx = np.round(pts / spec.delta).astype(np.int64)
            snapped = idx * spec.delta
            ok = _in_band(fam, dot3(snapped.T, g)) & (np.linalg.norm(snapped, axis=1) <= 0.98)
            found.append(idx[ok])
        stacked = np.concatenate(found)
        collected = stacked[group_rows(stacked)[0]]
    if len(collected) == 0:
        raise InfeasibleError("failed to sample any admissible ball")
    balls = PointSet(3, spec.delta, collected[:want], domain="ball", nominal_dim=3.0)
    cfg = IncidenceConfig(net=net, families=families, balls=balls)
    hits = loop_count(cfg, curve)
    heavy = np.count_nonzero(hits, axis=1) >= heavy_threshold(cfg.net)
    if not heavy.any():
        raise InfeasibleError("no sampled ball clears the heavy threshold")
    return cfg, cfg.balls.indices[heavy], hits[heavy], attempts


def placement_slices(counts, block):
    """The slices one attempt is placed in: runs of consecutive direction
    counts summing to at most `block` (a larger count is a run by itself),
    each cut into slices of at most `block` balls."""
    slices, run = 0, 0
    for c in counts:
        if run and run + c > block:
            slices += -(-run // block)
            run = 0
        run += c
    return slices + -(-run // block)


#: _BLOCK = 1 places one ball per slice, 5 cuts most runs into several slices
#: and many attempts into several runs, 64 makes most runs one direction
@pytest.mark.parametrize("block", [1, 5, 64, BLOCK])
@given(
    st.integers(3, 6),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["model", "helix"]),
)
def test_batched_sampler_and_count_match_the_per_direction_loops(block, k, s, t, seed, curve):
    spec = IncidenceSpec(delta=2.0**-k, s=s, t=t, seed=seed, curve=curve)
    try:
        want = loop_sampler(spec)
    except InfeasibleError as e:
        want = e
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(incidence, "_BLOCK", block)
        if isinstance(want, InfeasibleError):
            with pytest.raises(InfeasibleError, match=str(want)):
                random_admissible_config(spec)
            return
        cfg = random_admissible_config(spec)
        fresh = incidence_count(replace(cfg), named_curve(curve))
        sampled = incidence_count(want[0], named_curve(curve))
    want_cfg, cells, hits, _ = want
    assert cfg.net.indices.tobytes() == want_cfg.net.indices.tobytes()
    assert [f.offsets.tobytes() for f in cfg.families] == [
        f.offsets.tobytes() for f in want_cfg.families
    ]
    assert cfg.balls.indices.dtype == cells.dtype
    assert cfg.balls.indices.tobytes() == cells.tobytes()
    for m in (cfg._counts[named_curve(curve)], fresh):
        assert m.hits.shape == hits.shape and m.hits.tobytes() == hits.tobytes()
    assert sampled.hits.tobytes() == loop_count(want_cfg, named_curve(curve)).tobytes()


@pytest.mark.parametrize("block", [5, BLOCK])
def test_a_bench_item_makes_one_dot_per_slice_and_per_direction_block(monkeypatch, block):
    """On the incidence bench's (k, s, t) = (6, 0.5, 0.5) class the sampler
    makes one `dot3` per placement slice and the count one per block of
    max(1, _BLOCK // n) directions: 2 calls on these seeds, where one
    direction at a time made 16 (8 directions, one attempt)."""
    calls = []

    def counting_dot3(x, v, *args):
        calls.append(np.ndim(x))  # the sampler dots (3, w) rows, the count (3, 1, n)
        return dot3(x, v, *args)

    monkeypatch.setattr(incidence, "dot3", counting_dot3)
    monkeypatch.setattr(incidence, "_BLOCK", block)
    model = named_curve("model")
    for seed in range(5):
        spec = IncidenceSpec(delta=2.0**-6, s=0.5, t=0.5, seed=seed)
        sampled, _, _, attempts = loop_sampler(spec)
        calls.clear()
        cfg = random_admissible_config(spec)
        verify_incidence_bound(cfg, model)
        n, J = len(sampled.balls), len(cfg.net)
        assert calls.count(2) == sum(placement_slices(c, block) for c in attempts)
        assert calls.count(3) == -(-J // max(1, block // n))
        assert len(calls) == calls.count(2) + calls.count(3)
        if block == BLOCK:
            assert calls == [2] * len(attempts) + [3]


def test_sampler_peak_memory_is_bounded():
    """delta = 2^-7, s = 1, t = 0.2 draws 37,640 balls over 3 directions in
    runs of at most _BLOCK.  Its tracemalloc peak is 4.3 MiB; placing a
    whole attempt in one gather reads 6.4 MiB, and the per-direction loop
    that kept each attempt's arrays to the end read 6.3 MiB."""
    spec = IncidenceSpec(delta=2.0**-7, s=1.0, t=0.2, seed=0)
    random_admissible_config(spec)  # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        cfg = random_admissible_config(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(cfg.net), len(cfg.balls)) == (3, 18820)
    assert peak < 5.0 * 2**20
