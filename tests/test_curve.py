import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from projlab.curve import (
    MARGIN_SAMPLES,
    Curve,
    DirectionNet,
    _cone,
    _cross,
    direction_net,
    frame,
    great_circle,
    helix_curve,
    model_curve,
    named_curve,
    nondegeneracy_margin,
    validate_direction_net,
)
from projlab.errors import DomainError, InfeasibleError, NumericError


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


def greedy_net_oracle(delta, t, seed):
    """The per-candidate greedy loop: accept while every enclosing window is under its cap."""
    k = round(math.log2(1 / delta))
    n = 2**k
    if t == 1.0:
        return np.arange(n + 1, dtype=np.int64) * delta
    caps = [math.ceil((2 ** (k - l)) ** t) for l in range(k + 1)]
    counts = [np.zeros(2**l, dtype=np.int64) for l in range(k + 1)]
    chosen = []
    for i in np.random.default_rng(seed).permutation(n):
        if all(counts[l][i >> (k - l)] < caps[l] for l in range(k + 1)):
            chosen.append(i)
            for l in range(k + 1):
                counts[l][i >> (k - l)] += 1
    return np.sort(np.array(chosen, dtype=np.int64)) * delta


def central_d1(curve, thetas, h=2.0**-20):
    return (curve.points(thetas + h) - curve.points(thetas - h)) / (2 * h)


def central_d2(curve, thetas, h=2.0**-10):
    return (curve.points(thetas + h) - 2 * curve.points(thetas) + curve.points(thetas - h)) / h**2


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

    @pytest.mark.parametrize("c, label", [(1.0, "model"), (0.0, "greatcircle")])
    def test_cone_matches_the_literal_formulas_bit_for_bit(self, c, label):
        t = np.linspace(0.0, 1.0, 2**15 + 1)
        cos, sin, zero = np.cos(t), np.sin(t), np.zeros_like(t)
        rows = [(cos, sin, np.full_like(t, c)), (-sin, cos, zero), (-cos, -sin, zero)]
        if c == 1.0:  # the model curve: (cos, sin, 1) / sqrt(2)
            want = [np.stack(r, axis=-1) / math.sqrt(2.0) for r in rows]
        else:  # the great circle: (cos, sin, 0), no division
            want = [np.stack(r, axis=-1) for r in rows]
        want = [w.tobytes() for w in want]
        for curve in (_cone(c, label), named_curve(label)):
            assert curve.label == label
            assert [f(t).tobytes() for f in (curve.points, curve.deriv1, curve.deriv2)] == want

    def test_helix_derivatives_match_central_differences(self):
        # observed gaps: 1.6e-10 on gamma' (step 2^-20) and 5.3e-8 on gamma''
        # (step 2^-10, truncation about h^2/12 times the fourth derivative)
        helix = helix_curve()
        t = np.linspace(0.0, 1.0, 2**12 + 1)
        assert np.max(np.abs(helix.deriv1(t) - central_d1(helix, t))) < 1e-9
        assert np.max(np.abs(helix.deriv2(t) - central_d2(helix, t))) < 2e-7

    def test_derivatives_are_required(self):
        with pytest.raises(TypeError):
            Curve("bare", model_curve().points)

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
        assert nondegeneracy_margin(model_curve()) == pytest.approx(self.MODEL_MARGIN, abs=1e-9)

    def test_great_circle_degenerate(self):
        # gamma_z = 0 multiplies the only nonzero term of the triple product
        assert nondegeneracy_margin(great_circle()) == 0.0

    def test_helix_is_admissible(self):
        assert nondegeneracy_margin(helix_curve()) > 0.01


class TestDirectionNet:
    def test_full_grid_at_t_one(self):
        net = direction_net(2.0**-6, 1.0, seed=0)
        assert len(net) == 65
        assert np.allclose(np.diff(net.thetas), 2.0**-6)

    def test_single_point_at_t_zero(self):
        net = direction_net(2.0**-4, 0.0, seed=3)
        assert len(net) == 1

    def test_half_exponent_net(self):
        net = direction_net(2.0**-8, 0.5, seed=7)
        assert len(net) >= 1
        assert 8 <= len(net) <= 32  # around delta^-t = 16
        _, worst, _ = validate_direction_net(net)
        assert brute_force_spacing_ok(net.thetas, net.delta, net.t, cap=worst + 1e-9)

    def test_cardinality_lower_bound(self):
        for t in (0.3, 0.5, 0.7):
            for k in (4, 6, 8):
                net = direction_net(2.0**-k, t, seed=11)
                assert len(net) >= (1 / k**2) * 2 ** (k * t) / 16

    def test_exhaustive_validation(self):
        for seed in range(5):
            net = direction_net(2.0**-6, 0.5, seed=seed)
            separated, worst, _ = validate_direction_net(net)
            assert separated
            assert worst <= 64

    def test_seed_changes_points_not_cardinality(self):
        a = direction_net(2.0**-7, 0.6, seed=1)
        b = direction_net(2.0**-7, 0.6, seed=2)
        assert len(a) == len(b)  # laminar matroid rank is seed-independent

    def test_deterministic_given_seed(self):
        a = direction_net(2.0**-7, 0.6, seed=9)
        b = direction_net(2.0**-7, 0.6, seed=9)
        assert np.array_equal(a.thetas, b.thetas)

    def test_thetas_are_a_read_only_copy(self):
        mine = np.array([0.0, 0.5, 1.0])
        net = DirectionNet(0.5, 1.0, mine)
        mine[0] = 0.25  # the caller's array stays writable
        assert net.thetas.tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            net.thetas[0] = 0.25

    @given(
        st.integers(0, 9),
        st.floats(0.0, 0.99) | st.sampled_from([0.0, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_bottom_up_windows_give_the_greedy_net(self, k, t, seed):
        want = greedy_net_oracle(2.0**-k, t, seed)
        try:
            got = direction_net(2.0**-k, t, seed).thetas
        except InfeasibleError:  # the oracle has no target cardinality
            return
        assert got.tobytes() == want.tobytes()

    def test_nondyadic_delta_rejected(self):
        with pytest.raises(DomainError):
            direction_net(0.3, 0.5, seed=0)

    @pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
    def test_spacing_exponent_outside_the_unit_interval_refused(self, t):
        with pytest.raises(DomainError, match=r"t must lie in \[0, 1\]"):
            direction_net(2.0**-4, t, 0)

    @pytest.mark.parametrize("t", [0.5, 1.0])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.True_, "0", None])
    def test_bad_seed_rejected(self, seed, t):
        # -1 raised numpy's ValueError, 1.5 a TypeError, True ran as seed 1
        # and None drew fresh entropy; the full grid at t = 1 ignores the
        # seed but follows the same rule
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            direction_net(2.0**-4, t, seed)

    def test_numpy_integer_seed_is_the_int_seed(self):
        a = direction_net(2.0**-7, 0.6, np.int64(9))
        assert a.thetas.tobytes() == direction_net(2.0**-7, 0.6, 9).thetas.tobytes()


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
    """The scalar frame: one theta, the fixed-order sum of squares of one derivative vector."""
    g = curve.points(np.array([theta]))[0]
    d = curve.deriv1(np.array([theta]))[0]
    n = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
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


#: pairs of (n, 3) float rows: any finite double, signed zeros and subnormals included
cross_rows = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        *[hnp.arrays(np.float64, (n, 3), elements=st.floats(allow_nan=False, allow_infinity=False))] * 2
    )
)


@given(cross_rows)
@example((np.array([[1.0, -0.0, 3e300]]), np.array([[0.0, 2e-310, -1.0]])))
def test_cross_is_np_cross_bit_for_bit(ab):
    a, b = ab
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _cross(a, b), np.cross(a, b)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["model", "helix", "greatcircle"])
def test_margin_and_frames_match_np_cross(name):
    # np.cross, the former product, as the oracle on every theta the margin samples
    curve = named_curve(name)
    thetas = np.linspace(0.0, 1.0, MARGIN_SAMPLES)
    g, d1, d2 = curve.points(thetas), curve.deriv1(thetas), curve.deriv2(thetas)
    det = np.cross(d1, d2)
    det = (g[:, 0] * det[:, 0] + g[:, 1] * det[:, 1]) + g[:, 2] * det[:, 2]
    assert nondegeneracy_margin(curve) == float(np.min(np.abs(det)))
    gs, ts, ns = frame(curve, thetas)
    assert ns.tobytes() == np.cross(gs, ts).tobytes()


def test_frame_names_the_first_theta_without_a_tangent():
    model = model_curve()

    def d1(t):  # gamma' vanishes at theta = 0.5 and 0.75
        return model.deriv1(t) * ((t != 0.5) & (t != 0.75))[:, None]

    flat = Curve("flat", model.points, d1, model.deriv2)
    with pytest.raises(NumericError, match=r"'flat' has no tangent frame at theta=0.5$"):
        frame(flat, np.array([0.25, 0.5, 0.75, 0.0]))
    with pytest.raises(NumericError, match="theta=0.75"):
        frame(flat, 0.75)
    frame(flat, np.array([0.25, 0.0]))
