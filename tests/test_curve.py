import math

import numpy as np
import pytest

from projlab.curve import (
    Curve,
    direction_net,
    eval_curve,
    frame,
    great_circle,
    helix_curve,
    model_curve,
    named_curve,
    nondegeneracy_margin,
    validate_direction_net,
)
from projlab.errors import DomainError


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
        v = eval_curve(model_curve(), 0.0)
        assert np.allclose(v, [0.7071068, 0.0, 0.7071068], atol=1e-7)

    def test_model_third_coordinate_constant(self):
        curve = model_curve()
        for theta in np.linspace(0, 1, 17):
            assert eval_curve(curve, theta)[2] == pytest.approx(2**-0.5, abs=1e-12)

    def test_great_circle_is_planar(self):
        assert eval_curve(great_circle(), 0.3)[2] == 0.0
        assert np.linalg.norm(eval_curve(great_circle(), 0.3)) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_grids(self):
        for curve, tol in [(model_curve(), 1e-10), (great_circle(), 1e-10), (helix_curve(), 1e-6)]:
            pts = curve.points(np.linspace(0, 1, 4096))
            assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < tol

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_curve(model_curve(), -0.01)
        with pytest.raises(DomainError):
            eval_curve(model_curve(), 1.01)


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
        with pytest.raises(DomainError):
            named_curve("parabola")


class TestFrame:
    def test_orthonormal(self):
        g, t, n = frame(model_curve(), 0.37)
        for v in (g, t, n):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
        assert abs(g @ t) < 1e-10
        assert abs(g @ n) < 1e-10
        assert abs(t @ n) < 1e-10
