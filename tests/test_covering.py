import json
import math
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projlab import covering, dyadic
from projlab.covering import (
    BUDGET_SLACK,
    Covering,
    CoveringReport,
    covering_from_json,
    covering_to_json,
    dyadic_content,
    greedy_cover,
    validate_covering,
)
from projlab.dyadic import group_rows, rows_in
from projlab.errors import (
    ConfigurationError, DomainError, InconsistencyError, InfeasibleError, RangeError
)
from projlab.fractal import PointSet, cantor_1d, full_grid
from projlab.projection import box_counts


def corners_2d(k):
    m = 2**k - 1
    idx = np.array([[0, 0], [0, m], [m, 0], [m, m]])
    return PointSet(2, 2.0**-k, idx, nominal_dim=0.0)


def naive_condition3_ok(cov, s):
    """Independent exhaustive scan of the counting condition."""
    for k, idx in cov.levels.items():
        cubes = [tuple(r) for r in idx.tolist()]
        for l in range(0, k):
            groups = {}
            for c in cubes:
                key = tuple(v >> (k - l) for v in c)
                groups[key] = groups.get(key, 0) + 1
            if groups and max(groups.values()) > 2 ** ((k - l) * s) + 1e-9:
                return False
    return True


class TestGreedyCover:
    def test_single_cell(self):
        p = PointSet(2, 2.0**-6, np.array([[10, 20]]), nominal_dim=0.0)
        cov = greedy_cover(p, 0.5, 1.0)
        assert cov.cube_count() == 1
        assert cov.budget_value() == pytest.approx(2.0**-3)  # (2^-6)^0.5

    def test_four_corners(self):
        cov = greedy_cover(corners_2d(6), 0.5, 1.0)
        assert cov.cube_count() == 4
        rep = validate_covering(cov)
        assert rep.cover_ok and rep.disjoint_ok and rep.budget_ok
        assert rep.worst_condition3_ratio <= 1.0
        assert naive_condition3_ok(cov, 0.5)

    def test_full_2d_grid_infeasible(self):
        idx = np.stack(np.meshgrid(np.arange(32), np.arange(32), indexing="ij"), axis=-1)
        with pytest.raises(InfeasibleError):
            greedy_cover(PointSet(2, 2.0**-5, idx.reshape(-1, 2), nominal_dim=2.0), 0.5, 1.0)

    def test_merging_kicks_in(self):
        # 16 adjacent cells at delta 2^-8 fit the s=0.5 budget exactly but
        # violate the counting condition at the finest level, so the greedy
        # exchange must coarsen them.
        idx = np.arange(16)[:, None]
        p = PointSet(1, 2.0**-8, idx, nominal_dim=0.5)
        cov = greedy_cover(p, 0.5, 1.0, min_level=0)
        assert cov.cube_count() < 16
        rep = validate_covering(cov)
        assert rep.cover_ok and rep.disjoint_ok
        assert rep.worst_condition3_ratio <= 1.0
        assert rep.budget_value <= 1.0
        assert naive_condition3_ok(cov, 0.5)

    def test_idempotent_budget(self):
        p = cantor_1d(1 / 3, 6)
        cov = greedy_cover(p, 0.8, 1.0, min_level=0)
        # re-cover the covering's own cube corners at the same scales
        cells = []
        for k, idx in sorted(cov.levels.items()):
            cells.extend((idx << (p.level - k)).tolist())
        q = PointSet(1, p.delta, np.array(sorted(cells)), nominal_dim=0.5)
        cov2 = greedy_cover(q, 0.8, 1.0, min_level=0)
        assert cov2.budget_value() <= cov.budget_value() + 1e-12

    def test_degenerate_range(self):
        with pytest.raises(RangeError):
            greedy_cover(full_grid(4), 0.5, 1.0, min_level=4)

    def test_empty_set_refused(self):
        empty = PointSet(1, 2.0**-3, np.empty((0, 1), dtype=np.int64))
        with pytest.raises(ConfigurationError, match="cannot cover an empty set"):
            greedy_cover(empty, 0.5, 1.0, min_level=0)

    def test_negative_min_level_rejected(self):
        # level -2 cubes have side 4; the call used to return one
        with pytest.raises(RangeError, match="min_level must be >= 0"):
            greedy_cover(full_grid(3), 0.5, 100.0, min_level=-3)

    def test_deterministic(self):
        p = cantor_1d(1 / 3, 5)
        a = greedy_cover(p, 0.7, 1.0, min_level=0)
        b = greedy_cover(p, 0.7, 1.0, min_level=0)
        assert covering_to_json(a) == covering_to_json(b)


class TestExponentDomain:
    # s = 1e4 raised a bare OverflowError; s = nan gave budget nan and worst
    # ratio 0.0; s = inf gave budget 0.0; t = nan gave a content of nan
    @pytest.mark.parametrize(
        "s, epsilon",
        [(1e4, 1.0), (math.nan, 1.0), (math.inf, 1.0), (-0.5, 1.0), (1.5, 1.0),
         (0.5, math.nan), (0.5, math.inf)],
    )
    def test_greedy_cover_refuses(self, s, epsilon):
        with pytest.raises(DomainError, match="need 0 <= s <= 1"):
            greedy_cover(cantor_1d(1 / 3, 4), s, epsilon, 0)

    @pytest.mark.parametrize("s, epsilon", [(1e6, 1.0), (math.nan, 1.0), (0.5, -math.inf)])
    def test_covering_refuses(self, s, epsilon):
        with pytest.raises(DomainError, match="need 0 <= s <= 1"):
            Covering(1, s, epsilon, {3: np.array([[1]])})

    @pytest.mark.parametrize(
        "dim, levels",
        [
            (1, {2: np.array([0, 1])}),  # raised a bare TypeError in validate_covering
            (2, {2: np.array([[0, 1, 2]])}),  # a 3-wide row validated without error
            (1, {-1: np.array([[0]])}),  # so did a level of -1
        ],
        ids=["flat_cubes", "wide_row", "negative_level"],
    )
    def test_covering_refuses_malformed_levels(self, dim, levels):
        with pytest.raises(ConfigurationError, match="needs 0 <= k <= 62 and rows of"):
            Covering(dim, 0.5, 1.0, levels)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_covering_refuses_a_dimension_below_one(self, dim):
        # dimension 0 at s = 0 reached validate_covering and died in lexsort with a TypeError
        with pytest.raises(ConfigurationError, match="ambient_dim must be at least 1"):
            Covering(dim, 0.0, 1.0, {1: np.zeros((2, max(dim, 0)), np.int64)})

    def test_covering_keeps_a_read_only_copy_of_its_levels(self):
        # the covering kept the caller's array itself, writable
        mine = np.array([[0], [3]])
        cov = Covering(1, 0.5, 1.0, {2: mine})
        assert cov.levels[2] is not mine and not cov.levels[2].flags.writeable
        mine[0, 0] = 1
        assert cov.levels[2].tolist() == [[0], [3]]
        with pytest.raises(TypeError):
            cov.levels[3] = np.array([[0]])

    def test_covering_stores_int_levels_and_empty_rows(self):
        cov = Covering(2, 0.5, 1.0, {np.int64(3): np.array([[1, 2]], np.int32), 2: []})
        assert [type(k) for k in cov.levels] == [int, int]
        assert cov.levels[3].dtype == np.int64 and cov.levels[2].shape == (0, 2)
        assert cov.levels[2].dtype == np.int64

    def test_edges_accepted(self):
        # s = 0 and s = ambient_dim are inside the domain; one cube's worst
        # ratio is 1 / 2^s, at its parent
        for s in (0.0, 1.0):
            rep = validate_covering(Covering(1, s, 1.0, {3: np.array([[1]])}))
            assert rep.worst_condition3_ratio == 2.0**-s

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_dyadic_content_refuses(self, t):
        with pytest.raises(DomainError, match="finite and >= 0"):
            dyadic_content(cantor_1d(1 / 3, 4), t, 4)

    def test_dyadic_content_refuses_a_level_off_the_lattice(self):
        # a level finer than the lattice used to refine every cell below delta
        p = cantor_1d(1 / 3, 4)
        for level in (-1, p.level + 1):
            with pytest.raises(RangeError, match=rf"max_level must lie in \[0, {p.level}\]"):
                dyadic_content(p, 0.5, level)


@pytest.mark.parametrize(
    "call",
    [
        lambda p, level: box_counts(p, level),
        lambda p, level: dyadic_content(p, 0.5, level),
        lambda p, level: greedy_cover(p, 0.7, 4.0, level),
    ],
    ids=["box_counts", "dyadic_content", "greedy_cover"],
)
@pytest.mark.parametrize("level", [2.0, 1.5, "2", True, np.float64(2.0)])
def test_a_level_that_is_no_integer_is_refused(call, level):
    # each call used to die with a bare TypeError, or to count at a float level
    with pytest.raises(RangeError, match="must be an integer"):
        call(cantor_1d(1 / 3, 4), level)


@pytest.mark.parametrize("level", [np.int64(2), np.int32(2), np.uint8(2)])
def test_numpy_integer_levels_give_the_int_results(level):
    p = cantor_1d(1 / 3, 4)
    assert box_counts(p, level) == box_counts(p, 2)
    assert dyadic_content(p, 0.5, level) == dyadic_content(p, 0.5, 2)
    assert greedy_cover(p, 0.7, 4.0, level) == greedy_cover(p, 0.7, 4.0, 2)


def test_a_target_of_another_dimension_is_refused():
    # validate_covering used to die inside np.concatenate with a bare ValueError
    with pytest.raises(ConfigurationError, match="1-D target"):
        Covering(2, 0.5, 1.0, {1: [[0, 0]]}, target=cantor_1d(1 / 3, 3))


class TestValidateCovering:
    def test_root_cube_covering(self):
        p = full_grid(4)
        cov = Covering(1, 1.0, 1.0, {0: np.array([[0]])}, target=p)
        rep = validate_covering(cov)
        assert rep.cover_ok
        assert rep.budget_value == pytest.approx(1.0)

    def test_missing_cell_witnessed(self):
        p = full_grid(2)
        cov = Covering(
            1, 1.0, 1.0, {2: np.array([[0], [1], [2]])}, target=p
        )
        rep = validate_covering(cov)
        assert not rep.cover_ok
        assert rep.witness == ("uncovered", (3,))

    def test_condition3_violation_detected(self):
        # 8 level-4 cubes inside one level-1 cube: ratio 8 / 2^(3*0.5) > 1
        cov = Covering(1, 0.5, 10.0, {4: np.arange(8)[:, None]})
        rep = validate_covering(cov)
        assert rep.worst_condition3_ratio > 1.0

    def test_nested_cubes_flagged(self):
        cov = Covering(1, 1.0, 10.0, {1: np.array([[0]]), 3: np.array([[2]])})
        rep = validate_covering(cov)
        assert not rep.disjoint_ok

    @pytest.mark.parametrize("k,cubes", [(2, [[1], [1]]), (0, [[0], [0]]), (3, [[1], [4], [1]])])
    def test_cube_listed_twice_flagged(self, k, cubes):
        payload = {"s": 0.5, "epsilon": 10.0, "levels": [{"k": k, "cubes": cubes}]}
        rep = validate_covering(covering_from_json(json.dumps(payload), 1))
        assert not rep.disjoint_ok


def test_a_covering_is_validated_once(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return group_rows(rows)

    monkeypatch.setattr(covering, "group_rows", counted)
    cov = greedy_cover(corners_2d(6), 0.5, 1.0)
    n = len(calls)
    assert n > 0  # greedy_cover's own check
    report = validate_covering(cov)
    assert validate_covering(cov) is report and len(calls) == n
    assert validate_covering(replace(cov)) == report and len(calls) == 2 * n


def test_validate_covering_groups_each_level_once_then_only_distinct_nodes(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return group_rows(rows)

    cubes = {1: [[0, 0], [0, 0]], 4: [[0, 0], [1, 1], [1, 1], [3, 2], [8, 8], [9, 9]]}
    cov = Covering(2, 0.5, 10.0, cubes)
    monkeypatch.setattr(covering, "group_rows", counted)
    monkeypatch.setattr(dyadic, "group_rows", counted)
    report = validate_covering(cov)
    assert not report.disjoint_ok  # a cube listed twice, so no nesting test runs
    # per level: its cubes once, then the distinct nodes of levels k, k - 1, ..., 1
    assert calls == [2, 1, 6, 5, 3, 2, 2]


def oracle_validate_covering(c):
    """Three passes: condition (3) over every pair of levels, disjointness
    within each covering level and over every pair of them, then the cover
    check."""
    ks = sorted(k for k, idx in c.levels.items() if len(idx))
    budget = c.budget_value()

    worst, witness = 0.0, None
    for k in ks:
        idx = c.levels[k]
        for l in range(0, k):
            anc = idx >> (k - l)
            first, inv = group_rows(anc)
            counts = np.bincount(inv)
            ratio = counts.max() / 2.0 ** ((k - l) * c.s)
            if ratio > worst:
                worst = float(ratio)
                witness = (l, k, tuple(anc[first[int(np.argmax(counts))]].tolist()))

    repeats = any(len(group_rows(c.levels[k])[0]) < len(c.levels[k]) for k in ks)
    disjoint = not repeats and not any(
        rows_in(c.levels[k] >> (k - l), c.levels[l]).any()
        for i, l in enumerate(ks)
        for k in ks[i + 1 :]
    )

    cover_ok = True
    if c.target is not None:
        cells = c.target.indices
        k_cell = c.target.level
        covered = np.zeros(len(cells), dtype=bool)
        for k in ks:
            if k > k_cell:
                raise InconsistencyError("covering finer than the target lattice")
            covered |= rows_in(cells >> (k_cell - k), c.levels[k])
        cover_ok = bool(covered.all())
        if not cover_ok:
            missing = cells[~covered][0]
            witness = ("uncovered", tuple(missing.tolist()))

    return CoveringReport(
        cover_ok=cover_ok,
        disjoint_ok=disjoint,
        budget_value=budget,
        budget_ok=bool(budget <= c.epsilon + BUDGET_SLACK),
        worst_condition3_ratio=worst,
        witness=witness,
    )


#: finest level of the random coverings below
FINEST = 7


@st.composite
def random_coverings(draw):
    """Coverings of 1-3 dimensions on 1-4 levels in [0, 7], gaps allowed.

    Every cube is the ancestor of a cell drawn at level 7, so cubes nest
    across levels; a level may repeat a cube or be empty.  The target, when
    there is one, mixes such cells with random ones, so some may be
    uncovered, and its level may lie one below the covering's finest.
    """
    dim = draw(st.integers(1, 3))
    cell = st.lists(st.integers(0, 2**FINEST - 1), min_size=dim, max_size=dim)
    pool = np.array(draw(st.lists(cell, min_size=1, max_size=12)), dtype=np.int64)
    levels = {}
    for k in draw(st.lists(st.integers(0, FINEST), min_size=1, max_size=4, unique=True)):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
        if draw(st.sampled_from([False, False, False, True])):
            picks = []
        levels[k] = (pool[picks] >> (FINEST - k)).reshape(-1, dim)
    s = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, float(dim)]), st.floats(0.0, dim)))
    epsilon = draw(st.sampled_from([0.0, 0.5, 1.0, 10.0]))
    target = None
    if draw(st.sampled_from([True, True, False])):
        k_cell = draw(st.integers(max(0, max(levels) - 1), FINEST))
        extra = np.array(draw(st.lists(cell, max_size=6)), dtype=np.int64).reshape(-1, dim)
        cells = np.concatenate([pool, extra]) >> (FINEST - k_cell)
        target = PointSet(dim, 2.0**-k_cell, cells[group_rows(cells)[0]], nominal_dim=0.0)
    return Covering(dim, s, epsilon, levels, target=target)


@settings(max_examples=200)
@given(random_coverings())
@example(Covering(1, 1.0, 10.0, {1: np.array([[0]]), 3: np.array([[2]])}))
@example(Covering(1, 1.0, 1.0, {2: np.array([[0], [1], [2]])}, target=full_grid(2)))
@example(Covering(1, 1.0, 1.0, {3: np.array([[0]])}, target=full_grid(2)))
def test_validate_covering_matches_three_pass_oracle(cov):
    try:
        want = oracle_validate_covering(cov)
    except InconsistencyError:
        with pytest.raises(InconsistencyError, match="finer than the target lattice"):
            validate_covering(cov)
        return
    got = validate_covering(cov)
    for f in fields(CoveringReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert type(getattr(got, f.name)) is type(getattr(want, f.name)), f.name


class TestDyadicContent:
    CANTOR_CONTENT = 0.8692922595473369  # frozen from the recursive DP oracle

    def test_full_grid_t_one(self):
        assert dyadic_content(full_grid(6), 1.0, 6) == pytest.approx(1.0)

    def test_cantor_golden_value(self):
        p = cantor_1d(1 / 3, 8)
        t = math.log(2) / math.log(3)
        val = dyadic_content(p, t, p.level)
        assert 0.25 <= val <= 1.0
        assert val == pytest.approx(self.CANTOR_CONTENT, rel=1e-12)

    def test_cantor_oracle_recomputation(self):
        p = cantor_1d(1 / 3, 7)
        t = math.log(2) / math.log(3)
        idx = tuple(int(i) for i in p.indices[:, 0])
        k = p.level

        @lru_cache(maxsize=None)
        def content(lo, hi, l):
            pts = [i for i in idx if lo <= i < hi]
            if not pts:
                return 0.0
            side = 2.0**-l
            if l == k:
                return side**t
            mid = (lo + hi) // 2
            return min(side**t, content(lo, mid, l + 1) + content(mid, hi, l + 1))

        assert dyadic_content(p, t, k) == pytest.approx(content(0, 2**k, 0))

    def test_high_exponent_small_content(self):
        p = cantor_1d(1 / 3, 8)
        assert dyadic_content(p, 0.9, p.level) < 0.1

    def test_monotone_in_t(self):
        p = cantor_1d(1 / 3, 6)
        vals = [dyadic_content(p, t, p.level) for t in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_max_level(self):
        p = cantor_1d(1 / 3, 6)
        t = 0.63
        vals = [dyadic_content(p, t, m) for m in range(0, p.level + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_ball_domain_set(self):
        idx = np.array([[-2], [1]])
        p = PointSet(1, 2.0**-2, idx, nominal_dim=0.0, domain="ball")
        assert dyadic_content(p, 1.0, 2) == pytest.approx(0.5)


class TestSerialization:
    def test_json_roundtrip(self):
        cov = greedy_cover(corners_2d(5), 0.5, 1.0)
        text = covering_to_json(cov)
        back = covering_from_json(text, 2)
        assert back.s == cov.s
        assert back.epsilon == cov.epsilon
        for k in cov.levels:
            assert np.array_equal(back.levels[k], cov.levels[k])

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"s": 0.5}',
            '{"s": 0.5, "epsilon": 1.0, "levels": [{"k": 2, "cubes": [[1, 2, 3]]}]}',
            '{"s": 0.5, "epsilon": 1.0, "levels": [{"k": 2, "cubes": [[1.5, 2]]}]}',
            '{"s": 0.5, "epsilon": 1.0, "levels": [{"k": 2.5, "cubes": [[1, 2]]}]}',
            '{"s": 0.5, "epsilon": 1.0, "levels": [{"k": 2, "cubes": [[1], [1, 2]]}]}',
            '{"s": 0.5, "epsilon": 1.0, "levels": [{"k": 2, "cubes": [[true, false]]}]}',
            '{"s": 0.5, "epsilon": 1.0, "levels": 3}',
            '{"s": "x", "epsilon": 1.0, "levels": []}',
            "{",
            '{"s": NaN, "epsilon": Infinity, "levels": []}',
            '{"s": 0.5, "epsilon": 1, "levels": '
            '[{"k": 2, "cubes": [[0, 0]]}, {"k": 2, "cubes": [[1, 1], [2, 2]]}]}',
            '{"s": 1e6, "epsilon": 1, "levels": [{"k": 3, "cubes": [[1, 1]]}]}',
            '{"s": 0.5, "epsilon": 1, "levels": [{"k": 3000, "cubes": [[1, 1]]}]}',
            '{"s": 0.5, "epsilon": 1, "levels": [{"k": 64, "cubes": [[1, 1]]}]}',
        ],
        ids=[
            "list", "missing_keys", "wide_cube", "fractional_index", "fractional_level",
            "ragged_cubes", "boolean_index", "levels_not_a_list", "non_numeric_s", "not_json",
            "non_finite_s_and_epsilon", "repeated_level", "s_above_dim", "level_3000",
            "level_64",
        ],
    )
    def test_malformed_json_rejected(self, text):
        # these raised TypeError, KeyError or ValueError, or (1.5) truncated
        # the index to 1; a NaN s made every condition (3) ratio compare
        # false, so validate_covering reported a worst ratio of 0; a repeated
        # level kept only its last entry; s = 1e6 made validate_covering
        # raise a bare OverflowError, and so did a level of 3000; a level of
        # 64 shifted int64 indices by 64 bits
        with pytest.raises(ConfigurationError, match="malformed covering JSON"):
            covering_from_json(text, 2)
