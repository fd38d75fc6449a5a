import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from projlab import dyadic, projection
from projlab.curve import Curve, frame, model_curve, named_curve
from projlab.dyadic import group_rows
from projlab.errors import CapacityError, ConfigurationError, DomainError, RangeError
from projlab.fractal import PointSet, cantor_1d, full_grid, product_set
from projlab.projection import (
    box_counts,
    box_dimension,
    exceptional_sweep,
    project_line,
    theorem_bound,
)

CURVE = model_curve()


def oracle_project_line(a, curve, theta):
    """The projection in Python floats: each cell is round((x0*g0 + x1*g1) + x2*g2).

    It shares no SIMD or BLAS code with `project_line`, and the sum order
    and half-to-even rounding define the same bits.
    """
    g0, g1, g2 = curve.points(np.array([theta]))[0].tolist()
    cells = sorted({round((x0 * g0 + x1 * g1) + x2 * g2) for x0, x1, x2 in a.indices.tolist()})
    return PointSet(
        1,
        a.delta,
        np.array(cells, dtype=np.int64).reshape(-1, 1),
        nominal_dim=min(1.0, a.nominal_dim),
        domain="ball",
    )


def blas_project_line(a, curve, theta):
    """The projection's former route: the cells of a BLAS matvec (n, 3) @ (3,)."""
    gamma = curve.points(np.array([theta]))[0]
    cells = np.unique(np.round(a.indices.astype(np.float64) @ gamma).astype(np.int64))
    return PointSet(
        1, a.delta, cells[:, None], nominal_dim=min(1.0, a.nominal_dim), domain="ball"
    )


def ball_set(k, n, seed):
    """Up to n random distinct cells of the unit ball at delta = 2^-k, negative indices included."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(-(2**k), 2**k + 1, size=(n, 3))
    rows = np.unique(rows[np.linalg.norm(rows * 2.0**-k, axis=1) <= 1.0], axis=0)
    return PointSet(3, 2.0**-k, rows, nominal_dim=3.0, domain="ball")


def constant_curve(direction):
    """A curve that points in one direction for every theta (its derivatives are unused)."""
    g = np.asarray(direction, dtype=float) / np.linalg.norm(direction)

    def const(t):
        return np.tile(g, (np.size(t), 1))

    return Curve("constant", const, const, const)


@pytest.fixture
def sort_calls(monkeypatch):
    """The row counts of every `group_rows` call `project_line` makes (the sort route)."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return group_rows(rows)

    monkeypatch.setattr(projection, "group_rows", counted)
    return calls


def assert_same_projection(got, want):
    assert got.indices.dtype == want.indices.dtype
    assert got.indices.shape == want.indices.shape
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.weights is None and want.weights is None
    assert (got.nominal_dim, got.domain) == (want.nominal_dim, want.domain)


def single_point_set(value, delta=2.0**-6):
    idx = np.round(np.asarray(value) / delta).astype(np.int64)[None, :]
    return PointSet(3, delta, idx, nominal_dim=0.0, domain="ball")


def planar_set(theta0, delta=2.0**-6, radius=0.9):
    """A disc inside the plane orthogonal to gamma(theta0)."""
    _, t, n = frame(CURVE, theta0)
    half = round(radius / delta)
    us = np.arange(-half, half + 1) * delta
    uu, vv = np.meshgrid(us, us, indexing="ij")
    mask = uu**2 + vv**2 <= radius**2
    pts = uu[mask][:, None] * t + vv[mask][:, None] * n
    idx = np.unique(np.round(pts / delta).astype(np.int64), axis=0)
    return PointSet(3, delta, idx, nominal_dim=2.0, domain="ball")


def no_map(fn, items):
    raise AssertionError("mapped")


def cantor_product(depth):
    c = cantor_1d(1 / 3, depth)
    return product_set(c, c, c)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: project_line(full_grid(3), CURVE, 0.5), ConfigurationError, "3-D set"),
        (
            lambda: box_dimension(PointSet(1, 2.0**-4, np.empty((0, 1), np.int64)), 0.0625, 0.5),
            ConfigurationError,
            "empty set",
        ),
        (lambda: box_dimension(full_grid(4), 2.0**-5, 0.5), RangeError, "below the lattice scale"),
        (
            lambda: exceptional_sweep(cantor_product(2), CURVE, s=0.5, theta_grid=1),
            ConfigurationError,
            "theta_grid must be at least 2",
        ),
    ],
    ids=["project-2d", "fit-empty", "fit-below-delta", "sweep-one-theta"],
)
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestProjectLine:
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_refused(self, theta):
        # the dense route warned of an unsafe cast, then raised a bare IndexError
        with pytest.raises(DomainError, match="theta must be finite"):
            project_line(cantor_product(3), CURVE, theta)

    def test_north_cell_projects_to_invsqrt2(self):
        a = single_point_set([0.0, 0.0, 1.0])
        for theta in (0.0, 0.37, 1.0):
            p = project_line(a, CURVE, theta)
            assert len(p) == 1
            assert abs(p.values[0, 0] - 2**-0.5) <= a.delta

    def test_symmetry_preserved(self):
        idx = np.array([[3, -5, 10], [-3, 5, -10], [7, 2, 1], [-7, -2, -1]])
        a = PointSet(3, 2.0**-5, idx, nominal_dim=1.0, domain="ball")
        p = project_line(a, CURVE, 0.42)
        vals = np.sort(p.values[:, 0])
        assert np.allclose(vals, -np.sort(-vals) * -1.0)
        assert np.allclose(np.sort(vals), np.sort(-vals))

    def test_plane_subset_projects_to_zero(self):
        a = planar_set(0.25, radius=0.2)
        p = project_line(a, CURVE, 0.25)
        assert np.max(np.abs(p.values)) <= 2 * a.delta

    def test_weighted_and_unweighted_project_alike(self):
        idx = np.array([[0, 0, 4], [0, 0, -4], [3, 1, 0]])
        a = PointSet(3, 2.0**-4, idx, nominal_dim=0.0, domain="ball")
        weighted = replace(a, weights=[0.5, 0.5, 0.0])
        for theta in (0.0, 0.4, 1.0):
            p = project_line(weighted, CURVE, theta)
            assert p.weights is None
            # the zero-weight cell keeps its projected cell
            assert_same_projection(p, project_line(a, CURVE, theta))

    def test_lipschitz_diameter_and_counts(self):
        a = product_set(cantor_1d(1 / 3, 3), cantor_1d(1 / 3, 3), cantor_1d(1 / 3, 3))
        diam = np.max(np.linalg.norm(a.values[None] - a.values[:, None], axis=-1))
        for theta in (0.0, 0.3, 0.9):
            p = project_line(a, CURVE, theta)
            spread = p.values.max() - p.values.min()
            assert spread <= diam + a.delta
            for m in range(0, a.level + 1):
                # lattice surrogate of the Lipschitz covering bound
                assert box_counts(p, m) <= 3 * box_counts(a, m)


@given(
    k=st.integers(1, 20),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    name=st.sampled_from(["model", "helix", "greatcircle"]),
    theta=st.floats(0.0, 1.0),
)
def test_project_line_matches_sort_oracle(k, n, seed, zero_share, name, theta):
    # small k fills the index range (dense count), large k leaves it sparse
    # (group_rows); weights, even weights of exactly 0, change no cell
    rng = np.random.default_rng(seed)
    delta = 2.0**-k
    rows = rng.integers(-(2**k), 2**k + 1, size=(n, 3))
    rows = np.unique(rows[np.linalg.norm(rows * delta, axis=1) <= 1.0], axis=0)
    a = PointSet(3, delta, rows, nominal_dim=rng.uniform(0.0, 3.0), domain="ball")
    curve = named_curve(name)
    assert_same_projection(project_line(a, curve, theta), oracle_project_line(a, curve, theta))
    w = rng.random(len(a)) * (rng.random(len(a)) >= zero_share)
    if w.sum() > 0:
        weighted = replace(a, weights=w / w.sum())
        assert_same_projection(
            project_line(weighted, curve, theta), oracle_project_line(a, curve, theta)
        )


class TestProjectLineRoutes:
    def test_empty_set(self):
        a = PointSet(3, 2.0**-5, np.zeros((0, 3), dtype=np.int64), domain="ball")
        for theta in (0.0, 0.5):
            p = project_line(a, CURVE, theta)
            assert len(p) == 0
            assert_same_projection(p, oracle_project_line(a, CURVE, theta))

    def test_route_depends_on_index_range(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return group_rows(rows)

        monkeypatch.setattr(projection, "group_rows", counted)
        c = cantor_1d(1 / 3, 3)
        dense = product_set(c, c, c)
        thin = cantor_1d(0.001, 3)
        sparse = product_set(thin, thin, thin)
        # 512 cells at k = 30: a dense count would need 2^31 bins
        assert (len(sparse), sparse.level) == (512, 30)
        for theta in (0.0, 0.3, 0.77, 1.0):
            assert_same_projection(
                project_line(dense, CURVE, theta), oracle_project_line(dense, CURVE, theta)
            )
            assert calls == []  # the dense count sorts nothing
            assert_same_projection(
                project_line(sparse, CURVE, theta), oracle_project_line(sparse, CURVE, theta)
            )
            assert calls == [len(sparse)]
            calls.clear()

    @pytest.mark.parametrize("n", [32767, 32768, 32769])
    def test_block_edges(self, n, sort_calls):
        # n cells on the x-axis at k = 15: the great circle at theta = 0 maps
        # each to itself, so a cell lost at a block edge shows
        k = 15
        rows = np.zeros((n, 3), dtype=np.int64)
        rows[:, 0] = np.arange(n) - 2 ** (k - 1)
        a = PointSet(3, 2.0**-k, rows, nominal_dim=1.0, domain="ball")
        p = project_line(a, named_curve("greatcircle"), 0.0)
        assert p.indices[:, 0].tolist() == rows[:, 0].tolist()
        for theta in (0.3, 0.9):
            assert_same_projection(
                project_line(a, CURVE, theta), oracle_project_line(a, CURVE, theta)
            )
        assert sort_calls == []

    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_axis_cells_reach_the_bound(self, k, sort_calls):
        # every cell of the three axes, |x_i| <= 2^k, projected along each axis
        # and the diagonal; along an axis the ends land on -2^k and 2^k exactly
        line = np.arange(-(2**k), 2**k + 1)
        rows = np.unique(
            np.concatenate([np.outer(line, e) for e in np.eye(3, dtype=np.int64)]), axis=0
        )
        a = PointSet(3, 2.0**-k, rows, nominal_dim=1.0, domain="ball")
        for e in np.concatenate([np.eye(3), -np.eye(3)]):
            p = project_line(a, constant_curve(e), 0.0)
            assert p.indices[:, 0].tolist() == line.tolist()
        for curve in (constant_curve([1, 1, 1]), CURVE, named_curve("helix")):
            for theta in (0.0, 0.6):
                assert_same_projection(
                    project_line(a, curve, theta), oracle_project_line(a, curve, theta)
                )
        assert sort_calls == []

    def test_cube_set_inside_the_ball(self, sort_calls):
        k = 3
        rows = np.argwhere(np.ones((2**k + 1,) * 3))
        a = PointSet(3, 2.0**-k, rows[(rows**2).sum(axis=1) <= 4**k])  # cube domain
        for name in ("model", "helix", "greatcircle"):
            for theta in (0.0, 0.45, 1.0):
                curve = named_curve(name)
                assert_same_projection(
                    project_line(a, curve, theta), oracle_project_line(a, curve, theta)
                )
        assert sort_calls == []

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_cube_corner_at_the_bound_raises(self, k, sort_calls):
        # the corner (2^k, 2^k, 2^k) projects onto the diagonal at sqrt(3) 2^k,
        # the largest value of a valid set, which the occupancy array still holds
        edge = np.arange(2**k + 1)
        rows = np.concatenate([np.stack([edge, edge, edge], axis=1), [[2**k, 0, 0]]])
        a = PointSet(3, 2.0**-k, rows)
        with pytest.raises(DomainError):
            project_line(a, constant_curve([1, 1, 1]), 0.0)
        assert sort_calls == []

    # two cells leave the index range sparse; the whole cube [0, 1]^3 fills it
    @pytest.mark.parametrize(
        "rows", [[[16, 16, 16], [0, 0, 0]], np.argwhere(np.ones((17, 17, 17)))]
    )
    def test_cube_set_outside_the_ball_raises(self, rows):
        a = PointSet(3, 2.0**-4, rows)
        with pytest.raises(DomainError):
            project_line(a, CURVE, 0.3)


@pytest.mark.parametrize("name", ["model", "helix", "greatcircle"])
def test_project_line_matches_the_blas_route(name, sort_calls):
    # the former matvec route, kept as an oracle, on the sweep's sets and on
    # scattered ball sets with negative indices, through both routes; the
    # great circle has gamma_z = 0, so x2 * gamma_z adds signed zeros
    curve = named_curve(name)
    thin = cantor_1d(0.001, 3)
    sets = [product_set(c, c, c) for c in (cantor_1d(1 / 3, 6), cantor_1d(1 / 4, 3), thin)]
    sets += [ball_set(k, n, seed) for seed, (k, n) in enumerate([(5, 3000), (12, 3000), (20, 500)])]
    sparse = []
    for a in sets:
        for theta in np.linspace(0.0, 1.0, 17):
            before = len(sort_calls)
            assert_same_projection(
                project_line(a, curve, theta), blas_project_line(a, curve, theta)
            )
            sparse.append(len(sort_calls) > before)
    assert any(sparse) and not all(sparse)


@pytest.mark.parametrize("k", [26, 50, 51, 53, 62])
def test_sparse_route_at_the_deepest_levels(k, sort_calls):
    # from k = 51 on, |i . gamma| may pass 2^51 and the snap rounds with np.rint
    a = ball_set(k, 300, k)
    for name in ("model", "helix", "greatcircle"):
        curve = named_curve(name)
        for theta in (0.0, 0.3, 0.77):
            got = project_line(a, curve, theta)
            assert_same_projection(got, oracle_project_line(a, curve, theta))
    assert sort_calls == [len(a)] * 9


#: the bound R = isqrt(3 4^k) + 2 at k = 24, the largest level of the dense route
R24 = math.isqrt(3 * 4**24) + 2


@st.composite
def snap_inputs(draw):
    """(values, offset, bound): |values| <= bound, ties and signed zeros among them."""
    bound = draw(st.sampled_from([R24, 2**51 - 1, 2**62]))
    edge = float(bound) - 2.0 if bound < 2**51 else 2.0**52  # a float below bound, spacing <= 1/2
    value = st.one_of(
        st.integers(-2 * R24, 2 * R24).map(lambda m: m / 2),  # half-integers of both signs
        st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, R24 - 0.5, 0.5 - R24]),
        st.integers(-64, 64).map(lambda j: math.copysign(edge, j) - j / 4),  # near +-bound
        st.floats(-float(bound), float(bound)).filter(lambda v: abs(v) <= bound),
    )
    values = draw(st.lists(value, max_size=40))
    offset = draw(st.sampled_from([0, 1, R24]))
    return np.array(values, dtype=np.float64), offset, bound


@given(snap_inputs())
@example((np.array([-0.0, 0.0, -0.5, 0.5, -1.5, 1.5, -2.5, 2.5]), 0, R24))
@example((np.array([R24 - 0.5, 0.5 - R24, R24 - 1.5, 1.5 - R24, -R24 + 0.0]), R24, R24))
@example((np.array([2.0**51 - 0.5, 0.5 - 2.0**51, 2.0**51 - 1.5]), 0, 2**51 - 1))
@example((np.array([2.0**51 + 0.5, -(2.0**51) - 0.5, 2.0**62, -(2.0**62)]), 0, 2**62))
def test_snap_is_rint(case):
    # np.rint and a cast, the former rounding, as the oracle: ties to even and -0.0 -> 0
    v, offset, bound = case
    want = np.rint(v).astype(np.int64) + offset
    buf = v.copy()
    got = projection._snap(buf, offset, bound)
    assert got.dtype == np.int64 and got.base is buf  # written over the buffer
    assert got.tolist() == want.tolist()


def test_one_projection_allocates_under_one_mib(traced_peak):
    # criterion 4's set; the former route allocated four 2 MB temporaries
    c = cantor_1d(1 / 3, 6)
    a = product_set(c, c, c)
    a.float_indices
    project_line(a, CURVE, 0.3)
    _, peak = traced_peak(project_line, a, CURVE, 0.3)
    assert peak < 2**20


@given(
    k=st.integers(0, 20),
    n=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    domain=st.sampled_from(["cube", "ball"]),
)
@example(k=5, n=0, seed=0, domain="ball")
@example(k=5, n=0, seed=0, domain="cube")
def test_box_counts_1d_match_group_rows(k, n, seed, domain):
    # the sort-free 1-D count against a group_rows count of the ancestors at
    # every level; ball-domain indices run negative, and n = 0 is the empty set
    rng = np.random.default_rng(seed)
    lo = -(2**k) if domain == "ball" else 0
    rows = np.unique(rng.integers(lo, 2**k + 1, size=n))[:, None]
    p = PointSet(1, 2.0**-k, rows, domain=domain)
    for m in range(k + 1):
        assert box_counts(p, m) == len(group_rows(p.indices >> (k - m))[0])


@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    slope=st.floats(-3.0, 3.0),
)
def test_line_fit_matches_polyfit(n, seed, slope):
    # np.polyfit, the former fit, is the oracle up to rounding; the correctly
    # rounded sums make the fit's bits independent of the point order
    rng = np.random.default_rng(seed)
    xs = rng.permutation(np.arange(n) + rng.integers(-5, 6)).astype(float)
    ys = slope * xs + rng.normal(0.0, 0.5, n)
    got = projection._line_fit(xs, ys)
    want = np.polyfit(xs, ys, 1)
    assert got == pytest.approx(tuple(want), rel=1e-9, abs=1e-9)
    order = rng.permutation(n)
    assert projection._line_fit(xs[order], ys[order]) == got


class TestBoxDimension:
    def test_only_sets_above_1d_are_grouped(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(rows.shape[1])
            return group_rows(rows)

        monkeypatch.setattr(dyadic, "group_rows", counted)
        c = cantor_1d(1 / 3, 3)
        box_dimension(c, 4 * c.delta, 2.0**-1)
        assert calls == []  # 1-D counts come from sorted ancestors
        a = product_set(c, c, c)
        box_dimension(a, 4 * a.delta, 2.0**-1)
        assert calls and set(calls) == {3}

    def test_full_grid_slope_one(self):
        p = full_grid(10)
        fit = box_dimension(p, 2.0**-8, 2.0**-2)
        assert fit.slope == pytest.approx(1.0, abs=0.02)
        assert fit.r2 > 0.999

    def test_single_cell_slope_zero(self):
        p = PointSet(1, 2.0**-10, np.array([[37]]), nominal_dim=0.0)
        fit = box_dimension(p, 2.0**-8, 2.0**-2)
        assert abs(fit.slope) < 1e-9
        assert fit.r2 == 1.0

    def test_cantor_slope(self):
        p = cantor_1d(1 / 3, 8)
        fit = box_dimension(p, 4 * p.delta, 2.0**-2)
        assert fit.slope == pytest.approx(math.log(2) / math.log(3), abs=0.05)

    def test_counts_monotone(self):
        p = cantor_1d(1 / 3, 6)
        fit = box_dimension(p, 4 * p.delta, 2.0**-1)
        assert np.all(np.diff(fit.counts) >= 0)  # N grows as r shrinks

    def test_box_counts_refuse_a_level_off_the_lattice(self):
        # level -1 used to count cubes of side 2: 8 for this product of three
        p = product_set(cantor_1d(1 / 3, 3), cantor_1d(1 / 3, 3), cantor_1d(1 / 3, 3))
        for level in (-1, p.level + 1):
            with pytest.raises(RangeError, match=rf"box level must lie in \[0, {p.level}\]"):
                box_counts(p, level)
        assert box_counts(p, 0) == 8  # recentred on the origin: one unit cube per octant

    def test_too_few_scales(self):
        with pytest.raises(RangeError):
            box_dimension(full_grid(4), 2.0**-3, 2.0**-2)

    @pytest.mark.parametrize(
        "r_min, r_max",
        [(math.inf, 0.5), (math.nan, 0.5), (2.0**-4, math.nan), (2.0**-4, -math.inf)],
    )
    def test_non_finite_scales_refused(self, r_min, r_max):
        # infinity raised a bare OverflowError and NaN a bare ValueError
        with pytest.raises(RangeError, match="must be finite"):
            box_dimension(full_grid(4), r_min, r_max)

    @pytest.mark.parametrize("r_max", [0.0, -0.5, 2.0])
    def test_r_max_outside_the_unit_interval_refused(self, r_max):
        # r_max <= 0 raised math.log2's bare ValueError
        with pytest.raises(RangeError, match=r"r_max must lie in \(0, 1\]"):
            box_dimension(full_grid(4), 2.0**-4, r_max)


class TestSweep:
    def test_bound_values(self):
        assert theorem_bound(1.0, 3.0) == 0.0
        alpha = 3 * math.log(2) / math.log(3)
        assert theorem_bound(1.0, alpha) == pytest.approx(0.5536053696, abs=1e-9)
        assert theorem_bound(1.0, alpha) == pytest.approx(0.5535, abs=2e-4)

    @pytest.mark.parametrize("s, alpha", [(math.nan, 1.0), (1.0, math.nan)])
    def test_bound_refuses_nan(self, s, alpha):
        # max(0.0, nan) is 0.0: a NaN bound read as 0
        with pytest.raises(DomainError, match="must be numbers"):
            theorem_bound(s, alpha)

    @pytest.mark.parametrize(
        "s, margin",
        [(math.nan, 0.1), (-0.5, 0.1), (5.0, 0.1), (math.inf, 0.1), (0.5, math.nan),
         (0.5, math.inf)],
    )
    def test_s_and_margin_outside_the_domain_refused_before_the_map(self, s, margin):
        # s = NaN and margin = NaN flagged no direction, s = 5 or infinity every one
        with pytest.raises(DomainError, match="need 0 <= s <= 1 and a finite margin"):
            exceptional_sweep(cantor_product(3), CURVE, s, 8, margin, map_fn=no_map)

    def test_a_set_without_nominal_dim_refused_before_the_map(self):
        a = PointSet(3, 2.0**-3, [[0, 0, 0]], domain="ball")
        with pytest.raises(ConfigurationError, match="nominal_dim"):
            exceptional_sweep(a, CURVE, s=0.5, theta_grid=8, map_fn=no_map)

    def test_planar_set_flagged_at_theta0(self):
        theta0 = 0.25
        a = planar_set(theta0, delta=2.0**-7)
        rows, summary = exceptional_sweep(a, CURVE, s=0.5, theta_grid=16)
        by_theta = {round(r.theta * 16): r for r in rows}
        assert by_theta[4].est_dim < 0.2  # theta = 4/16 = theta0
        assert by_theta[4].below_s
        # transverse directions see a 1-dimensional shadow
        others = [r.est_dim for r in rows if abs(r.theta - theta0) >= 0.3]
        assert np.median(others) > 0.8

    def test_row_count_and_summary_keys(self):
        c = cantor_1d(1 / 3, 4)
        a = product_set(c, c, c)
        rows, summary = exceptional_sweep(a, CURVE, s=1.0, theta_grid=32)
        # a thread pool's map gives the serial rows and summary
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = exceptional_sweep(a, CURVE, s=1.0, theta_grid=32, map_fn=pool.map)
        assert pooled == (rows, summary)
        assert len(rows) == 32
        assert set(summary) == {
            "s",
            "alpha",
            "bound",
            "exceptional_fraction",
            "exceptional_dim_fit",
        }
        assert summary["bound"] == pytest.approx(
            max(0.0, 1 + (1.0 - a.nominal_dim) / 2)
        )

    def test_threads_racing_to_a_fresh_float_cache_give_the_serial_rows(self):
        c = cantor_1d(1 / 3, 3)
        serial = exceptional_sweep(product_set(c, c, c), CURVE, s=1.0, theta_grid=64)
        fresh = product_set(c, c, c)  # its float cache is first built inside the pool
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                pooled = exceptional_sweep(fresh, CURVE, s=1.0, theta_grid=64, map_fn=pool.map)
        finally:
            sys.setswitchinterval(old)
        assert pooled == serial

    @pytest.mark.parametrize("theta_grid", [2**24 + 1, 10**300])
    def test_theta_grid_over_the_cap_refused_before_the_map(self, theta_grid):
        # a pool's map submits every theta up front: 10**300 of them hung
        def no_map(fn, items):
            raise AssertionError("mapped")

        with pytest.raises(CapacityError, match="theta_grid"):
            exceptional_sweep(full_grid(3), CURVE, s=0.5, theta_grid=theta_grid, map_fn=no_map)

    @pytest.mark.parametrize("theta_grid", [4.0, "8", np.True_, True])
    def test_theta_grid_must_be_an_integer(self, theta_grid):
        # 4.0 and "8" raised a bare TypeError, and np.True_ was read as 1
        with pytest.raises(RangeError, match="theta_grid must be an integer"):
            exceptional_sweep(full_grid(3), CURVE, s=0.5, theta_grid=theta_grid)

    def test_numpy_integer_theta_grid_gives_the_int_rows(self):
        c = cantor_1d(1 / 3, 3)
        a = product_set(c, c, c)
        got = exceptional_sweep(a, CURVE, s=0.5, theta_grid=np.int64(8))
        assert got == exceptional_sweep(a, CURVE, s=0.5, theta_grid=8)

    def test_est_dim_capped_by_source(self):
        c = cantor_1d(1 / 3, 4)
        a = product_set(c, c, c)
        src = box_dimension(a, 4 * a.delta, 0.25).slope
        rows, _ = exceptional_sweep(a, CURVE, s=0.5, theta_grid=8)
        for r in rows:
            assert r.est_dim <= min(1.0, src) + 0.1
