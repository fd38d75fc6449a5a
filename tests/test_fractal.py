import math
from fractions import Fraction

import numpy as np
import pytest

from projlab.errors import (
    CapacityError,
    ConfigurationError,
    DomainError,
    InfeasibleError,
)
from projlab.fractal import (
    PointSet,
    SimilarityMap,
    cantor_1d,
    extract_delta_s_set,
    frostman_constant,
    full_grid,
    ifs_attractor,
    load_csv,
    product_set,
    rebase_unit_interval,
    save_csv,
    similarity_dimension,
    validate_delta_s_set,
)


def naive_worst_constant(indices, k, s):
    """Independent scan: every dyadic window length, every integer start."""
    idx = sorted(int(i) for i in indices)
    worst = 0.0
    for m in range(k + 1):
        length = 2 ** (k - m)
        for start in range(idx[0] - length, idx[-1] + 1):
            count = sum(1 for i in idx if start <= i <= start + length)
            worst = max(worst, count / length**s)
    return worst


def naive_tree_rank(indices, k, s):
    """Independent laminar-budget rank: min(cap, children) bottom-up."""

    def rank(lo, hi, level):
        pts = [i for i in indices if lo <= i < hi]
        if not pts:
            return 0
        cap = math.ceil((2 ** (k - level)) ** s)
        if level == k:
            return min(cap, 1)
        mid = (lo + hi) // 2
        return min(cap, rank(lo, mid, level + 1) + rank(mid, hi, level + 1))

    return rank(0, 2**k, 0)


class TestCantor:
    def test_middle_thirds(self):
        p = cantor_1d(1 / 3, 5)
        assert len(p) == 32
        assert p.nominal_dim == pytest.approx(0.6309, abs=1e-4)
        assert p.delta == 2.0**-8  # nearest dyadic to 3^-5

    def test_ratio_half_fills_grid(self):
        p = cantor_1d(0.5, 4)
        assert len(p) == 16
        assert p.nominal_dim == 1.0
        assert np.array_equal(p.indices[:, 0], np.arange(16))

    def test_ratio_quarter(self):
        p = cantor_1d(0.25, 3)
        assert len(p) == 8
        assert p.nominal_dim == 0.5
        assert p.delta == 2.0**-6

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            cantor_1d(0.5, 25)

    @pytest.mark.parametrize(
        "ratio, depth, k",
        [(1e-5, 4, "66"), (1e-300, 1, "997"), (1e-310, 1, "inf"), (2.0**-63, 1, "63")],
    )
    def test_level_beyond_int64_names_k(self, ratio, depth, k):
        with pytest.raises(CapacityError, match=f"level k={k},"):
            cantor_1d(ratio, depth)

    def test_level_62_still_fits(self):
        assert cantor_1d(2.0**-62, 1).delta == 2.0**-62

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cantor_1d(0.6, 3)
        with pytest.raises(DomainError):
            cantor_1d(1 / 3, 0)


class TestProduct:
    def test_triple_cantor(self):
        c = cantor_1d(1 / 3, 4)
        p = product_set(c, c, c)
        assert len(p) == 16**3
        assert p.nominal_dim == pytest.approx(3 * math.log(2) / math.log(3), abs=1e-12)
        assert p.domain == "ball"
        assert np.max(np.linalg.norm(p.values, axis=1)) <= 1.0

    def test_planar_slab(self):
        g = full_grid(4)
        single = PointSet(1, 2.0**-4, np.array([[3]]), nominal_dim=0.0)
        p = product_set(g, g, single)
        assert len(p) == 256
        assert p.nominal_dim == 2.0

    def test_single_point_cube(self):
        single = PointSet(1, 2.0**-4, np.array([[5]]), nominal_dim=0.0)
        p = product_set(single, single, single)
        assert len(p) == 1
        assert p.nominal_dim == 0.0

    def test_cardinality_multiplies(self):
        a = cantor_1d(1 / 3, 3)  # delta = 2^-5
        g = full_grid(5)
        assert len(product_set(a, g, a)) == len(a) * len(g) * len(a)

    def test_mismatched_delta(self):
        with pytest.raises(ConfigurationError):
            product_set(full_grid(4), full_grid(5), full_grid(4))


class TestIfs:
    def test_four_corner_maps_dimension_one(self):
        maps = [
            SimilarityMap(0.25, np.array([ox, oy]))
            for ox in (0.0, 0.75)
            for oy in (0.0, 0.75)
        ]
        p = ifs_attractor(maps, depth=4, delta=2.0**-8)
        assert p.nominal_dim == pytest.approx(1.0, abs=1e-9)
        assert p.ambient_dim == 2

    def test_single_map_single_cell(self):
        p = ifs_attractor([SimilarityMap(0.5, np.array([0.0]))], depth=6, delta=2.0**-6)
        assert len(p) == 1
        assert p.nominal_dim == 0.0

    def test_cantor_maps_match_exact_oracle(self):
        # Oracle: exact rational composition images.  Depth-4 compositions of
        # x/3 and x/3 + 2/3 applied to 1/2 give a + (1/2) 3^-4 with a running
        # over the stage-4 left endpoints.
        maps = [
            SimilarityMap(1 / 3, np.array([0.0])),
            SimilarityMap(1 / 3, np.array([2 / 3])),
        ]
        p = ifs_attractor(maps, depth=4, delta=2.0**-6)
        expected = set()
        for bits in range(16):
            a = Fraction(0)
            for i in range(4):
                if bits >> i & 1:
                    a += 2 * Fraction(1, 3) ** (i + 1)
            point = a + Fraction(1, 2) * Fraction(1, 3) ** 4
            expected.add(int(point * 64))  # floor: point*64 is never integral
        assert set(p.indices[:, 0].tolist()) == expected

    def test_cantor_maps_reproduce_cantor_cells(self):
        # With a dyadic ratio the center-seeded IFS lands exactly on the
        # cantor_1d cells; with ratio 1/3 the half-interval seed offset can
        # shift a cell by at most one lattice step.
        maps_half = [
            SimilarityMap(0.5, np.array([0.0])),
            SimilarityMap(0.5, np.array([0.5])),
        ]
        p = ifs_attractor(maps_half, depth=4, delta=2.0**-4)
        assert np.array_equal(p.indices, cantor_1d(0.5, 4).indices)

        maps_third = [
            SimilarityMap(1 / 3, np.array([0.0])),
            SimilarityMap(1 / 3, np.array([2 / 3])),
        ]
        q = ifs_attractor(maps_third, depth=4, delta=2.0**-6)
        c = cantor_1d(1 / 3, 4)
        assert len(q) == len(c)
        assert np.max(np.abs(q.indices - c.indices)) <= 1

    def test_non_contracting_rejected(self):
        with pytest.raises(ConfigurationError):
            ifs_attractor([SimilarityMap(1.0, np.array([0.0]))], 3, 2.0**-4)

    def test_unresolved_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            ifs_attractor([SimilarityMap(0.5, np.array([0.0]))], 2, 2.0**-6)

    def test_similarity_dimension_bisection(self):
        assert similarity_dimension([0.5, 0.25]) == pytest.approx(0.6942419, abs=1e-5)


class TestValidate:
    def test_full_grid_s_one_valid(self):
        rep = validate_delta_s_set(full_grid(6), 1.0)
        assert rep.valid
        assert rep.worst_constant == pytest.approx(2.0)

    def test_full_grid_s_half_invalid(self):
        rep = validate_delta_s_set(full_grid(6), 0.5)
        assert not rep.valid
        assert rep.worst_constant == pytest.approx(8.0)
        assert rep.witness_r == 1.0

    def test_worst_constant_matches_naive_scan(self):
        p = cantor_1d(1 / 3, 4)
        rep = validate_delta_s_set(p, 0.5)
        naive = naive_worst_constant(p.indices[:, 0], p.level, 0.5)
        assert rep.worst_constant == pytest.approx(naive)

    def test_cantor_half_grid_family(self):
        for k in range(1, 11):
            rep = validate_delta_s_set(cantor_1d(0.5, k), 1.0)
            assert rep.valid
            assert rep.worst_constant <= 2.0

    def test_2d_window_scan_matches_naive(self):
        rng = np.random.default_rng(5)
        idx = np.unique(rng.integers(0, 16, size=(25, 2)), axis=0)
        p = PointSet(2, 2.0**-4, idx, nominal_dim=1.0)
        rep = validate_delta_s_set(p, 1.0)
        # naive 2-D scan over all anchor pairs
        worst = 0.0
        for m in range(5):
            length = 2 ** (4 - m)
            for ax in range(-length, 17):
                for ay in range(-length, 17):
                    count = np.sum(
                        (idx[:, 0] >= ax)
                        & (idx[:, 0] <= ax + length)
                        & (idx[:, 1] >= ay)
                        & (idx[:, 1] <= ay + length)
                    )
                    worst = max(worst, count / length**1.0)
        assert rep.worst_constant == pytest.approx(worst)


class TestExtract:
    def test_full_grid_extraction(self):
        p = full_grid(6)
        q = extract_delta_s_set(p, 0.5, 1.0)
        assert len(q) >= 8  # delta^-1/2 = 8
        assert len(q) == naive_tree_rank(p.indices[:, 0], 6, 0.5)
        assert validate_delta_s_set(q, 0.5).valid

    def test_subset_and_idempotent(self):
        p = full_grid(7)
        q = extract_delta_s_set(p, 0.4, 1.0)
        as_set = set(map(tuple, p.indices))
        assert all(tuple(row) in as_set for row in q.indices)
        r = extract_delta_s_set(q, 0.4, len(q) * q.delta**0.4)
        assert np.array_equal(r.indices, q.indices)

    def test_valid_set_returned_whole(self):
        q = extract_delta_s_set(full_grid(6), 0.5, 1.0)
        r = extract_delta_s_set(q, 0.5, len(q) * q.delta**0.5)
        assert np.array_equal(r.indices, q.indices)

    def test_single_cell_s_zero(self):
        p = PointSet(1, 2.0**-4, np.array([[7]]), nominal_dim=0.0)
        q = extract_delta_s_set(p, 0.0, 1.0)
        assert np.array_equal(q.indices, p.indices)

    def test_weighted_extraction_prefers_heavy(self):
        idx = np.arange(16)[:, None]
        w = np.zeros(16)
        w[3] = 0.9
        w[12] = 0.1
        p = PointSet(1, 2.0**-4, idx, nominal_dim=1.0).with_weights(w / w.sum())
        q = extract_delta_s_set(p, 0.0, 1.0)
        assert len(q) == 1
        assert q.indices[0, 0] == 3

    def test_infeasible_content_estimate(self):
        p = PointSet(1, 2.0**-8, np.array([[0]]), nominal_dim=0.0)
        with pytest.raises(InfeasibleError):
            extract_delta_s_set(p, 1.0, 64.0)

    def test_revalidation_of_outputs(self):
        for s in (0.3, 0.5, 0.8):
            q = extract_delta_s_set(full_grid(8), s, 1.0)
            rep = validate_delta_s_set(q, s)
            assert rep.valid, (s, rep)

    def test_ball_cubes_with_colliding_packed_codes_stay_apart(self):
        # (0, 0, 1) and (0, 0.5, -0.75) lie in distinct level-0 and level-1
        # cubes; codes packed with base 2^(l+1) from the shifted indices
        # gave both the level-1 code 44 and kept only one of them.
        p = PointSet(
            3, 2**-3, [[0, 0, 8], [0, 4, -6]], domain="ball", nominal_dim=0.0
        )
        q = extract_delta_s_set(p, 0.0, 1e-6)
        assert q.indices.tolist() == [[0, 0, 8], [0, 4, -6]]

    def test_deterministic(self):
        a = extract_delta_s_set(full_grid(7), 0.6, 1.0)
        b = extract_delta_s_set(full_grid(7), 0.6, 1.0)
        assert np.array_equal(a.indices, b.indices)


class TestWeights:
    def test_frostman_scan(self):
        p = product_set(cantor_1d(1 / 3, 3), cantor_1d(1 / 3, 3), cantor_1d(1 / 3, 3))
        c = frostman_constant(p)
        assert np.isfinite(c) and c > 0
        # brute-force re-check of the constant at every level
        k = p.level
        shifted = p.indices + 2**k
        worst = 0.0
        for l in range(k + 1):
            codes = [tuple(row) for row in (shifted >> (k - l))]
            mass = {}
            for code, w in zip(codes, p.weights):
                mass[code] = mass.get(code, 0.0) + w
            worst = max(worst, max(mass.values()) / (2.0**-l) ** p.nominal_dim)
        assert c == pytest.approx(worst)

    def test_weight_sum_enforced(self):
        with pytest.raises(ConfigurationError):
            PointSet(
                1, 0.5, np.array([[0], [1]]), weights=np.array([0.7, 0.6]),
                nominal_dim=1.0,
            )

    def test_weights_attach_without_nominal_dim_but_scan_needs_it(self):
        # the constant is computed on request only, so attaching weights to a
        # set without dimension metadata succeeds and the scan itself refuses
        p = PointSet(1, 0.25, np.array([[0], [3]])).with_uniform_weights()
        assert np.array_equal(p.weights, [0.5, 0.5])
        with pytest.raises(ConfigurationError, match="nominal_dim"):
            frostman_constant(p)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        p = product_set(cantor_1d(1 / 3, 3), cantor_1d(1 / 3, 3), cantor_1d(1 / 3, 3))
        path = tmp_path / "set.csv"
        save_csv(p, path)
        q = load_csv(path)
        assert q.ambient_dim == p.ambient_dim
        assert q.delta == p.delta
        assert np.array_equal(q.indices, p.indices)
        assert np.allclose(q.weights, p.weights)

    def test_deterministic_bytes(self, tmp_path):
        p = cantor_1d(1 / 3, 5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(p, a)
        save_csv(p, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_order(self, tmp_path):
        p = cantor_1d(0.5, 3)
        path = tmp_path / "grid.csv"
        save_csv(p, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dim,delta,domain,nominal_dim"
        assert lines[1] == "1,0.125,cube,1.0"
        vals = [float(ln) for ln in lines[2:]]
        assert vals == sorted(vals)

    def test_roundtrip_keeps_nominal_dim(self, tmp_path):
        p = product_set(cantor_1d(1 / 3, 3), cantor_1d(1 / 3, 3), cantor_1d(1 / 3, 3))
        path = tmp_path / "set.csv"
        save_csv(p, path)
        assert load_csv(path).nominal_dim == p.nominal_dim == pytest.approx(1.8928, abs=1e-4)

    def test_roundtrip_keeps_ball_domain_without_negative_indices(self, tmp_path):
        p = PointSet(2, 0.25, np.array([[0, 1], [2, 3]]), nominal_dim=0.5, domain="ball")
        path = tmp_path / "ball.csv"
        save_csv(p, path)
        q = load_csv(path)
        assert q.domain == "ball"
        assert np.array_equal(q.indices, p.indices)

    def test_two_field_header_still_loads(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("dim,delta\n1,0.25\n-0.25\n0.5\n")
        q = load_csv(path)
        assert (q.domain, q.delta, q.indices.ravel().tolist()) == ("ball", 0.25, [-1, 2])
        assert math.isnan(q.nominal_dim)

    def test_header_field_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dim,delta,domain,nominal_dim\n1,0.25\n0.5\n")
        with pytest.raises(ConfigurationError, match="does not match"):
            load_csv(path)

    @pytest.mark.parametrize(
        "body",
        ["0.125,0.25\n0.5\n", "0.125,0.25,0.5\n0.5,0.5\n", "0.125\n0.5\n"],
        ids=["short_row", "missing_weight", "too_few_fields"],
    )
    def test_ragged_rows_rejected(self, tmp_path, body):
        # a malformed file is a ConfigurationError, not a bare numpy
        # ValueError or IndexError
        path = tmp_path / "ragged.csv"
        path.write_text("dim,delta,domain,nominal_dim\n2,0.125,cube,1.0\n" + body)
        with pytest.raises(ConfigurationError, match="every data row"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["1,0.25,cube,1.0\nabc\n", "one,0.25,cube,1.0\n0.5\n"])
    def test_non_numeric_field_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text("dim,delta,domain,nominal_dim\n" + text)
        with pytest.raises(ConfigurationError, match="non-numeric"):
            load_csv(path)


class TestRebase:
    def test_affine_map(self):
        idx = np.array([[-4], [0], [3]])
        p = PointSet(1, 2.0**-2, idx, nominal_dim=0.5, domain="ball")
        q, (scale, shift) = rebase_unit_interval(p)
        assert q.domain == "cube"
        assert q.delta == 2.0**-3
        assert np.allclose(scale * q.values + shift, p.values)
