import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from projlab.curve import (
    Curve,
    direction_net,
    frame,
    great_circle,
    helix_curve,
    model_curve,
    named_curve,
    nondegeneracy_margin,
    validate_direction_net,
)
from projlab.errors import DomainError, NumericError


def brute_force_spacing_ok(thetas, delta, t, cap):
    """Independent (delta,t)-check: every dyadic window, every grid start."""
    k = round(math.log2(1 / delta))
    idx = sorted(round(th / delta) for th in thetas)
    for m in range(k + 1):
        length = 2 ** (k - m)
        for start in range(-length, 2**k + 1):
            count = sum(1 for i in idx if start <= i <= start + length)
            if count > cap * length**t:
                return False
    return True


class TestEvalCurve:
    def test_model_at_zero(self):
        v = model_curve().points(np.array([0.0]))[0]
        assert np.allclose(v, [0.7071068, 0.0, 0.7071068], atol=1e-7)

    def test_model_third_coordinate_constant(self):
        pts = model_curve().points(np.linspace(0, 1, 17))
        assert np.all(np.abs(pts[:, 2] - 2**-0.5) <= 1e-12)

    def test_great_circle_is_planar(self):
        v = great_circle().points(np.array([0.3]))[0]
        assert v[2] == 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_grids(self):
        for curve, tol in [(model_curve(), 1e-10), (great_circle(), 1e-10), (helix_curve(), 1e-6)]:
            pts = curve.points(np.linspace(0, 1, 4096))
            assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < tol


class TestNondegeneracyMargin:
    # Symbolic oracle for the model curve: with c = cos(theta), s = sin(theta),
    #   gamma   = (c, s, 1)/sqrt(2)
    #   gamma'  = (-s, c, 0)/sqrt(2)
    #   gamma'' = (-c, -s, 0)/sqrt(2)
    # Expanding det along the third column gives (1/sqrt 2)*(s^2+c^2)/2 = 2^-1.5
    # independently of theta.
    MODEL_MARGIN = 2.0**-1.5

    def test_model_margin(self):
        assert nondegeneracy_margin(model_curve(), 1024) == pytest.approx(
            self.MODEL_MARGIN, abs=1e-9
        )

    def test_great_circle_degenerate(self):
        assert nondegeneracy_margin(great_circle(), 1024) == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference_frame_matches_closed_form(self):
        closed = model_curve()
        fd = Curve("model-fd", closed.eval_fn)  # d1/d2 omitted -> central differences
        assert nondegeneracy_margin(fd, 1024) == pytest.approx(self.MODEL_MARGIN, abs=1e-4)

    def test_margin_is_scale_free(self):
        a = nondegeneracy_margin(model_curve(), 1024)
        b = nondegeneracy_margin(model_curve(), 2048)
        assert abs(a - b) < 1e-6

    def test_helix_is_admissible(self):
        assert nondegeneracy_margin(helix_curve(), 512) > 0.01

    def test_sample_count_validation(self):
        with pytest.raises(DomainError):
            nondegeneracy_margin(model_curve(), 1)


class TestDirectionNet:
    def test_full_grid_at_t_one(self):
        net = direction_net(model_curve(), 2.0**-6, 1.0, seed=0)
        assert len(net) == 65
        assert np.allclose(np.diff(net.thetas), 2.0**-6)

    def test_single_point_at_t_zero(self):
        net = direction_net(model_curve(), 2.0**-4, 0.0, seed=3)
        assert len(net) == 1

    def test_half_exponent_net(self):
        net = direction_net(model_curve(), 2.0**-8, 0.5, seed=7)
        assert len(net) >= 1
        assert 8 <= len(net) <= 32  # around delta^-t = 16
        _, worst, _ = validate_direction_net(net)
        assert brute_force_spacing_ok(net.thetas, net.delta, net.t, cap=worst + 1e-9)

    def test_cardinality_lower_bound(self):
        for t in (0.3, 0.5, 0.7):
            for k in (4, 6, 8):
                net = direction_net(model_curve(), 2.0**-k, t, seed=11)
                assert len(net) >= (1 / k**2) * 2 ** (k * t) / 16

    def test_exhaustive_validation(self):
        for seed in range(5):
            net = direction_net(model_curve(), 2.0**-6, 0.5, seed=seed)
            separated, worst, _ = validate_direction_net(net)
            assert separated
            assert worst <= 64

    def test_seed_changes_points_not_cardinality(self):
        a = direction_net(model_curve(), 2.0**-7, 0.6, seed=1)
        b = direction_net(model_curve(), 2.0**-7, 0.6, seed=2)
        assert len(a) == len(b)  # laminar matroid rank is seed-independent

    def test_deterministic_given_seed(self):
        a = direction_net(model_curve(), 2.0**-7, 0.6, seed=9)
        b = direction_net(model_curve(), 2.0**-7, 0.6, seed=9)
        assert np.array_equal(a.thetas, b.thetas)

    def test_nondyadic_delta_rejected(self):
        with pytest.raises(DomainError):
            direction_net(model_curve(), 0.3, 0.5, seed=0)


class TestCsvCurve:
    def test_named_curves(self):
        assert named_curve("model").label == "model"
        assert named_curve("helix").label == "helix"
        # one instance per name, which the builders return too, so a curve
        # from model_curve() hits the count memo of named_curve("model")
        for make, name in [(model_curve, "model"), (helix_curve, "helix"), (great_circle, "greatcircle")]:
            assert make() is named_curve(name) is named_curve(name)
        with pytest.raises(DomainError):
            named_curve("parabola")
        with pytest.raises(DomainError, match="unknown curve"):
            named_curve(["x"])


class TestFrame:
    def test_orthonormal(self):
        g, t, n = frame(model_curve(), 0.37)
        for v in (g, t, n):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
        assert abs(g @ t) < 1e-10
        assert abs(g @ n) < 1e-10
        assert abs(t @ n) < 1e-10


def oracle_frame(curve, theta):
    """The scalar frame: one theta, np.linalg.norm of one derivative vector."""
    g = curve.points(np.array([theta]))[0]
    d = curve.deriv1(np.array([theta]))[0]
    n = np.linalg.norm(d)
    if not np.isfinite(n) or n < 1e-12:
        raise NumericError(f"curve {curve.label!r} has no tangent frame at theta={theta}")
    t = d / n
    return g, t, np.cross(g, t)


@given(
    st.sampled_from(["model", "helix", "greatcircle"]),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
def test_frame_rows_are_the_scalar_frames_bit_for_bit(name, thetas):
    curve = named_curve(name)
    rows = frame(curve, np.array(thetas))
    assert all(a.shape == (len(thetas), 3) for a in rows)
    for i, theta in enumerate(thetas):
        want = oracle_frame(curve, theta)
        scalar = frame(curve, theta)
        for got_row, got_scalar, w in zip(rows, scalar, want):
            assert got_scalar.shape == (3,)
            assert got_row[i].tobytes() == got_scalar.tobytes() == w.tobytes()


def test_frame_names_the_first_theta_without_a_tangent():
    model = model_curve()

    def d1(t):  # gamma' vanishes at theta = 0.5 and 0.75
        return model.deriv1(t) * ((t != 0.5) & (t != 0.75))[:, None]

    flat = Curve("flat", model.eval_fn, d1)
    with pytest.raises(NumericError, match=r"'flat' has no tangent frame at theta=0.5$"):
        frame(flat, np.array([0.25, 0.5, 0.75, 0.0]))
    with pytest.raises(NumericError, match="theta=0.75"):
        frame(flat, 0.75)
    frame(flat, np.array([0.25, 0.0]))
