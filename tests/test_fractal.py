import hashlib
import math
from dataclasses import fields, replace

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
    cantor_1d,
    extract_delta_s_set,
    frostman_constant,
    full_grid,
    load_csv,
    product_set,
    save_csv,
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

    def test_huge_depth_refused_without_forming_the_power(self):
        # 2**depth used to be formed first: a JSON depth of 1e300 hung here
        with pytest.raises(CapacityError, match="exceed the cap"):
            cantor_1d(0.5, 10**300)

    @pytest.mark.parametrize(
        "ratio, depth, k",
        [(1e-5, 4, "66"), (1e-300, 1, "997"), (1e-310, 1, "inf"), (2.0**-63, 1, "63")],
    )
    def test_level_beyond_int64_names_k(self, ratio, depth, k):
        with pytest.raises(CapacityError, match=f"level k={k},"):
            cantor_1d(ratio, depth)

    def test_level_62_still_fits(self):
        assert cantor_1d(2.0**-62, 1).delta == 2.0**-62

    @pytest.mark.parametrize("k", [54, 60, 62])
    def test_last_endpoint_stays_in_the_unit_interval(self, k):
        # the endpoint 1 - 2^-k rounds to 1.0 in float from k = 54 on, but
        # its cell is 2^k - 1 in exact arithmetic
        p = cantor_1d(2.0**-k, 1)
        assert p.indices[:, 0].tolist() == [0, 2**k - 1]

    @pytest.mark.parametrize(
        "ratio, depth, level, digest",
        [
            (1 / 3, 4, 6, "27619a16be26bfe1d45f0be494242532309878857958de7d70965a375b8cf371"),
            (1 / 3, 6, 10, "7b57b38a3ebe0a5fbd8cc9029a4fa00d47c688a6f3443c81482dd9ce54463000"),
            (0.25, 4, 8, "6cbe08a24328c3045b6627b59182d292eec418b589a221abd1499ee27d14e571"),
        ],
    )
    def test_pinned_indices(self, ratio, depth, level, digest):
        p = cantor_1d(ratio, depth)
        assert p.level == level and p.indices.dtype == np.int64
        assert hashlib.sha256(p.indices.tobytes()).hexdigest() == digest

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cantor_1d(0.6, 3)
        with pytest.raises(DomainError):
            cantor_1d(1 / 3, 0)


class TestReadOnly:
    def test_indices_and_weights_refuse_writes(self):
        mine = np.array([[3], [1]])
        p = replace(PointSet(1, 0.25, mine), weights=[0.25, 0.75])
        for a in (p.indices, p.weights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        mine[0, 0] = 2  # the caller's array stays writable
        assert p.indices.tolist() == [[1], [3]]

    def test_float_indices_are_a_read_only_copy_built_on_first_use(self):
        rows = np.array([[2**39 + 1, -5], [0, -(2**38) - 3], [3, 3]])  # not float32-exact
        p = PointSet(2, 2.0**-40, rows, domain="ball")
        assert "float_indices" not in vars(p)  # nothing is built with the set
        f = p.float_indices
        assert f.dtype == np.float64
        assert f.tobytes() == p.indices.astype(float).tobytes()
        assert p.float_indices is f
        with pytest.raises(ValueError, match="read-only"):
            f[0, 0] = 0.0

    def test_float_indices_are_not_a_field(self):
        p, q = (PointSet(1, 0.25, np.array([[3]]), nominal_dim=0.0) for _ in range(2))
        p.float_indices
        assert p == q
        assert repr(p) == repr(q)
        assert "float_indices" not in {f.name for f in fields(PointSet)}
        for r in (replace(p, nominal_dim=1.0), replace(p, weights=[1.0])):
            assert "float_indices" not in vars(r)


class TestAmbientDim:
    @pytest.mark.parametrize("shape", [(2, 0), (0, 0)], ids=["two_cells", "empty"])
    def test_zero_dim_point_set_rejected(self, shape):
        # both used to reach group_rows and die in lexsort with a TypeError
        with pytest.raises(ConfigurationError, match="ambient_dim must be at least 1"):
            PointSet(0, 0.25, np.zeros(shape, dtype=np.int64))


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
        p = replace(PointSet(1, 2.0**-4, idx, nominal_dim=1.0), weights=w / w.sum())
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

    @pytest.mark.parametrize(
        "weights",
        [[math.nan], [0.5, math.nan], [math.inf, math.nan]],
        ids=["nan", "half_nan", "inf_nan"],
    )
    def test_nan_weights_rejected(self, weights):
        # NaN compares False both with `w < 0` and with the sum check, so a
        # NaN weight used to pass, and frostman_constant then returned 0.0
        idx = np.arange(len(weights))[:, None]
        with pytest.raises(ConfigurationError, match="nonnegative"):
            PointSet(1, 0.25, idx, weights=np.array(weights), nominal_dim=0.5)

    def test_weights_attach_without_nominal_dim_but_scan_needs_it(self):
        # the constant is computed on request only, so attaching weights to a
        # set without dimension metadata succeeds and the scan itself refuses
        p = replace(PointSet(1, 0.25, np.array([[0], [3]])), weights=np.full(2, 1 / 2))
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

    @pytest.mark.parametrize(
        "p",
        [
            product_set(cantor_1d(0.25, 3), cantor_1d(0.25, 3), cantor_1d(0.25, 3)),
            replace(product_set(*[cantor_1d(1 / 3, 2)] * 3), weights=np.arange(1, 65) / 2080),
            cantor_1d(1 / 3, 5),
            PointSet(2, 2.0**-3, np.array([[-5, 2], [0, -8], [3, 3]]), nominal_dim=0.7,
                     domain="ball"),
        ],
        ids=["weighted_3d_product", "uneven_weights_3d", "unweighted_1d", "ball_2d"],
    )
    def test_bytes_match_the_per_cell_formula(self, tmp_path, p):
        # the per-cell repr(float(...)) loop that save_csv once ran
        lines = [
            "dim,delta,domain,nominal_dim",
            f"{p.ambient_dim},{p.delta!r},{p.domain},{float(p.nominal_dim)!r}",
        ]
        for i in range(len(p)):
            fields = [repr(float(v)) for v in p.values[i]]
            if p.weights is not None:
                fields.append(repr(float(p.weights[i])))
            lines.append(",".join(fields))
        path = tmp_path / "set.csv"
        save_csv(p, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

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

    def test_two_field_header_rejected(self, tmp_path):
        # such a file used to load, with its domain guessed from the index signs
        path = tmp_path / "old.csv"
        path.write_text("dim,delta\n1,0.25\n-0.25\n0.5\n")
        with pytest.raises(ConfigurationError, match="missing dim,delta,domain,nominal_dim header"):
            load_csv(path)

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

    @pytest.mark.parametrize(
        "text, match",
        [
            ("0,0.25,cube,1.0\n0.5\n", "dim must be at least 1"),
            ("1,0.25,cube,1.0\nnan\n", "finite"),
            ("1,0.25,cube,1.0\ninf\n", "finite"),
            ("1,0.25,cube,1.0\n1e300\n", "2\\^62"),
            ("2,0.25,cube,1.0\n0.5,-1e300\n", "2\\^62"),
            ("1,0.25,cube,1.0\n0.5,nan\n", "nonnegative"),
        ],
        ids=["dim_zero", "nan_coordinate", "inf_coordinate", "huge", "huge_negative", "nan_weight"],
    )
    def test_unreadable_values_rejected(self, tmp_path, text, match):
        # these raised numpy's ValueError ("zero-size array"), ValueError
        # (NaN to integer) and OverflowError (int64) before
        path = tmp_path / "bad.csv"
        path.write_text("dim,delta,domain,nominal_dim\n" + text)
        with pytest.raises(ConfigurationError, match=match):
            load_csv(path)

    def test_subnormal_delta_loads(self, tmp_path):
        # 2^-1074 is dyadic; its level used to raise OverflowError
        path = tmp_path / "tiny.csv"
        path.write_text("dim,delta,domain,nominal_dim\n1,5e-324,cube,0.0\n0.0\n1e-323\n")
        q = load_csv(path)
        assert (q.level, q.indices.ravel().tolist()) == (1074, [0, 2])

    @pytest.mark.parametrize("delta", ["0", "nan"])
    def test_non_dyadic_delta_rejected_before_the_rows(self, tmp_path, delta):
        # delta = 0 used to divide by zero on the first row
        path = tmp_path / "bad.csv"
        path.write_text(f"dim,delta,domain,nominal_dim\n1,{delta},cube,1.0\n0.5\n")
        with pytest.raises(DomainError, match="delta"):
            load_csv(path)
