import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from projlab import projection
from projlab.curve import frame, model_curve, named_curve
from projlab.dyadic import group_rows
from projlab.errors import CapacityError, DomainError, RangeError
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
    """The sort-based projection: the support, every duplicate merged by group_rows."""
    gamma = curve.points(np.array([theta]))[0]
    vals = a.values @ gamma
    idx = np.round(vals / a.delta).astype(np.int64)[:, None]
    first, _ = group_rows(idx)
    return PointSet(
        1, a.delta, idx[first], nominal_dim=min(1.0, a.nominal_dim), domain="ball"
    )


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


class TestProjectLine:
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

    # two cells leave the index range sparse; the whole cube [0, 1]^3 fills it
    @pytest.mark.parametrize(
        "rows", [[[16, 16, 16], [0, 0, 0]], np.argwhere(np.ones((17, 17, 17)))]
    )
    def test_cube_set_outside_the_ball_raises(self, rows):
        a = PointSet(3, 2.0**-4, rows)
        with pytest.raises(DomainError):
            project_line(a, CURVE, 0.3)


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


class TestBoxDimension:
    def test_only_sets_above_1d_are_grouped(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(rows.shape[1])
            return group_rows(rows)

        monkeypatch.setattr(projection, "group_rows", counted)
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

    def test_too_few_scales(self):
        with pytest.raises(RangeError):
            box_dimension(full_grid(4), 2.0**-3, 2.0**-2)


class TestSweep:
    def test_bound_values(self):
        assert theorem_bound(1.0, 3.0) == 0.0
        alpha = 3 * math.log(2) / math.log(3)
        assert theorem_bound(1.0, alpha) == pytest.approx(0.5536053696, abs=1e-9)
        assert theorem_bound(1.0, alpha) == pytest.approx(0.5535, abs=2e-4)

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

    def test_est_dim_capped_by_source(self):
        c = cantor_1d(1 / 3, 4)
        a = product_set(c, c, c)
        src = box_dimension(a, 4 * a.delta, 0.25).slope
        rows, _ = exceptional_sweep(a, CURVE, s=0.5, theta_grid=8)
        for r in rows:
            assert r.est_dim <= min(1.0, src) + 0.1
