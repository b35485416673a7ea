"""Hitting/intersection/dimension classifiers and the convergence probes."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from addlevy import (
    ConvergenceVerdict,
    StableSystem,
    intersection_dimension,
    intersections_exist,
    multiple_points_allowed,
    numeric_intersection_dimension,
    range_dimension,
    range_has_positive_measure,
    subordinator_meet,
)
from addlevy import classify
from addlevy.classify import (
    InconclusiveError,
    _ridge_rule,
    planar_averaged_kernel,
    point_capacity_test,
    probe_intersection_dimension_test,
    probe_planar_point_test,
)
from addlevy.exponents import ExponentVector, IsotropicStable, PureDrift, SumOf
from helpers import probe_intersections_exist


class TestRangeMeasure:
    def test_brownian_line(self):
        # [TRIVIAL] the Brownian range on the line is an interval
        assert range_has_positive_measure(StableSystem(alphas=(2.0,), d=1))

    def test_single_stable_plane(self):
        # [DERIVED] tail exponent 1.5 < 2
        assert not range_has_positive_measure(StableSystem(alphas=(1.5,), d=2))

    def test_triple_cauchy_plane(self):
        # [DERIVED] total tail exponent 3 > 2
        assert range_has_positive_measure(StableSystem(alphas=(1.0, 1.0, 1.0), d=2))


class TestRangeDimension:
    def test_subcritical_single(self):
        # [DERIVED] dim of the range is alpha when alpha < d
        assert range_dimension(StableSystem(alphas=(0.7,), d=1)) == pytest.approx(0.7)

    def test_additive_pair_in_space(self):
        # [DERIVED] min(d, sum alpha) = min(3, 2)
        assert range_dimension(StableSystem(alphas=(1.0, 1.0), d=3)) == pytest.approx(2.0)

    def test_capped_at_ambient(self):
        # [TRIVIAL] range lives inside R^d
        assert range_dimension(StableSystem(alphas=(2.0,), d=1)) == pytest.approx(1.0)


class TestIntersectionsExist:
    def test_brownian_pair_cutoff(self):
        # Brownian paths intersect in dimension up to 3 and not in 4
        assert intersections_exist(StableSystem(alphas=(2.0, 2.0), d=3))
        assert not intersections_exist(StableSystem(alphas=(2.0, 2.0), d=4))

    def test_stable_pair_plane(self):
        # [DERIVED] 1.5 + 1.5 = 3 > 2
        assert intersections_exist(StableSystem(alphas=(1.5, 1.5), d=2))

    def test_triple_brownian_boundary(self):
        # strict inequality fails at 6 = 6: three Brownian paths have no
        # common point in dimension 3
        assert not intersections_exist(StableSystem(alphas=(2.0, 2.0, 2.0), d=3))
        assert intersections_exist(StableSystem(alphas=(2.0, 2.0, 2.0), d=2))

    def test_range_of_positive_measure_counts_as_d(self):
        # [DERIVED] alpha = 2 > d = 1: that range has dimension 1, not 2, so
        # min(2, 1) + 0.1 + 0.1 = 1.2 < (N - 1) d = 2 (Hawkes 1977; KXZ:03)
        sys_ = StableSystem(alphas=(2.0, 0.1, 0.1), d=1)
        assert not intersections_exist(sys_)
        assert probe_intersections_exist(sys_).kind == "Divergent"


class TestIntersectionDimension:
    def test_stable_pair_plane(self):
        # [DERIVED] 2*1.5 - 1*2 = 1
        assert intersection_dimension(StableSystem(alphas=(1.5, 1.5), d=2)) == pytest.approx(1.0)

    def test_brownian_double_points_space(self):
        # [DERIVED] classical value: double points of Brownian motion in R^3
        assert intersection_dimension(StableSystem(alphas=(2.0, 2.0), d=3)) == pytest.approx(1.0)

    def test_clamped_at_zero(self):
        # [TRIVIAL] sup over the empty set is 0
        assert intersection_dimension(StableSystem(alphas=(0.5, 0.5), d=1)) == 0.0

    def test_capped_at_d(self):
        # [TRIVIAL] the intersection lies in R^d: sum(alpha) - (N-1) d = 2
        # for two alpha = 1.5 paths on the line, but the dimension is 1
        assert intersection_dimension(StableSystem(alphas=(1.5, 1.5), d=1)) == 1.0
        assert intersection_dimension(StableSystem(alphas=(2.0,), d=1)) == 1.0

    def test_alpha_above_d_counts_as_d(self):
        # [DERIVED] min(1.2, 1) + 0.3 - 1 = 0.3, not 1.2 + 0.3 - 1 = 0.5:
        # the probe of the defining integral puts the threshold there too
        sys_ = StableSystem(alphas=(1.2, 0.3), d=1)
        assert intersection_dimension(sys_) == pytest.approx(0.3)
        assert probe_intersection_dimension_test(sys_, 0.2).kind == "Convergent"
        assert probe_intersection_dimension_test(sys_, 0.4).kind == "Divergent"


class TestMultiplePoints:
    def test_brownian_space(self):
        # doubles but no triples for Brownian motion in R^3
        assert multiple_points_allowed(2.0, 3, 2)
        assert not multiple_points_allowed(2.0, 3, 3)

    def test_bounded_potential_all_orders(self):
        # [DERIVED] alpha > d makes the potential density bounded
        for n in (2, 3, 5, 10):
            assert multiple_points_allowed(1.5, 1, n)

    def test_planar_cauchy_boundary(self):
        # [DERIVED] strict inequality fails at 2 * 1 = 2
        assert not multiple_points_allowed(1.0, 2, 2)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 2.5, 3.0])
    def test_index_outside_zero_two_is_refused(self, alpha):
        # alpha >= d alone would read True for an index that is not stable
        with pytest.raises(ValueError, match="stability index"):
            multiple_points_allowed(alpha, 2, 2)


class TestSubordinatorMeet:
    def test_supercritical(self):
        # [DERIVED] 0.7 + 0.7 > 1
        assert subordinator_meet(0.7, 0.7)

    def test_subcritical(self):
        # [DERIVED] 0.3 + 0.3 < 1
        assert not subordinator_meet(0.3, 0.3)

    def test_boundary(self):
        # [DERIVED] logarithmic divergence at 0.5 + 0.5 = 1
        assert not subordinator_meet(0.5, 0.5)


class TestNumericProbe:
    def test_pair_probe_brackets_analytic_dimension(self):
        # [DERIVED] analytic intersection dimension is 1.0; the probe must
        # call the integral test on either side of it
        sys_ = StableSystem(alphas=(1.5, 1.5), d=2)
        assert probe_intersection_dimension_test(sys_, 0.9).kind == "Convergent"
        assert probe_intersection_dimension_test(sys_, 1.1).kind == "Divergent"

    def test_triple_probe_brackets_analytic_dimension(self):
        # [DERIVED] three alpha = 1.8 paths in the plane: 5.4 - 2*2 = 1.4
        sys_ = StableSystem(alphas=(1.8, 1.8, 1.8), d=2)
        assert probe_intersection_dimension_test(sys_, 1.3).kind == "Convergent"
        assert probe_intersection_dimension_test(sys_, 1.5).kind == "Divergent"

    def test_probe_existence_matches_analytic(self):
        yes = probe_intersections_exist(StableSystem(alphas=(1.5, 1.5), d=2))
        no = probe_intersections_exist(StableSystem(alphas=(0.7, 0.7), d=2))
        assert yes.kind == "Convergent"
        assert no.kind == "Divergent"


@st.composite
def stable_systems(draw):
    """A system with s* = sum(alpha) - (N-1) d in [0.16, d - 0.16], so that
    s* -/+ 0.15 lie in [0, d) despite rounding.

    Every alpha is at most d: a larger alpha (d = 1) gives a bounded
    one-potential density, so the test integral then counts it as d.  N = 3
    in d = 3 has no such system, since s* <= 6 - 6.
    """
    n, d = draw(st.sampled_from([(n, d) for n in (1, 2, 3) for d in (1, 2, 3)
                                 if (n, d) != (3, 3)]))
    cap = min(2.0, float(d))
    rest = draw(st.floats(0.16 + (n - 1) * d, min(d - 0.16 + (n - 1) * d, n * cap)))
    alphas = []
    for left in range(n - 1, 0, -1):
        alphas.append(draw(st.floats(max(0.1, rest - cap * left), min(cap, rest - 0.1 * left))))
        rest -= alphas[-1]
    alphas.append(min(rest, cap))
    return StableSystem(alphas=tuple(alphas), d=d)


@settings(max_examples=8, deadline=None)
@given(stable_systems())
def test_probe_never_contradicts_the_analytic_dimension(sys_):
    # Inconclusive is allowed within 0.15 of s*, a flat contradiction is not
    s_star = sum(sys_.alphas) - (sys_.n - 1) * sys_.d
    assert probe_intersection_dimension_test(sys_, s_star - 0.15).kind != "Divergent"
    assert probe_intersection_dimension_test(sys_, s_star + 0.15).kind != "Convergent"


@settings(max_examples=40, deadline=None)
@given(stable_systems())
def test_one_probe_finds_the_analytic_dimension(sys_):
    # [DERIVED] the slope at s = 0 estimates -s*; the worst draws have some
    # alpha_j = d, where the slope converges like 1/k and reads up to 0.054 low
    s_star = sum(sys_.alphas) - (sys_.n - 1) * sys_.d
    value, error = numeric_intersection_dimension(sys_)
    assert abs(value - s_star) <= 0.06
    assert error >= 0.0


@settings(max_examples=8, deadline=None)
@given(stable_systems())
def test_slope_offset_does_not_depend_on_s(sys_):
    # [DERIVED] shell k's nodes are 2^-k times shell 0's, so x^-s adds
    # exactly k s log 2 to log(increment_k): s - slope(s) is one number
    offsets = [s - probe_intersection_dimension_test(sys_, s).slope
               for s in np.arange(5) * sys_.d / 5]
    assert max(offsets) - min(offsets) < 1e-3


@st.composite
def isotropic_systems(draw):
    """N <= 5 isotropic stable indices in d <= 4; multiples of 1/8 half the
    time, so that sum(alpha) = d is drawn exactly."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    alpha = st.one_of(st.floats(0.01, 2.0), st.sampled_from([k / 8 for k in range(1, 17)]))
    return StableSystem(alphas=tuple(draw(st.lists(alpha, min_size=n, max_size=n))), d=d)


@settings(max_examples=200, deadline=None)
@given(isotropic_systems())
@example(StableSystem(alphas=(1.0,), d=1))
@example(StableSystem(alphas=(0.5, 0.5), d=1))
@example(StableSystem(alphas=(1.0, 1.0), d=2))
@example(StableSystem(alphas=(1.5, 1.5), d=3))
@example(StableSystem(alphas=(0.75, 0.75, 0.75, 0.75), d=3))
@example(StableSystem(alphas=(2.0, 2.0), d=4))
def test_range_has_positive_measure_iff_points_are_hit(sys_):
    # [DERIVED] read at F = {x}, the range has positive measure exactly when
    # Cap_K({x}) > 0, that is when int K < infinity; equality fails on both sides
    psi = ExponentVector(tuple(IsotropicStable(alpha=a, dim=sys_.d) for a in sys_.alphas))
    assert range_has_positive_measure(sys_) == point_capacity_test(psi)


class TestNumericDimension:
    def test_stable_pair_dimension(self):
        # [DERIVED] analytic value 2 * 1.5 - 2 = 1
        value, error = numeric_intersection_dimension(StableSystem(alphas=(1.5, 1.5), d=2))
        assert value == pytest.approx(1.0, abs=1e-6)
        assert error < 1e-6

    def test_clamped_at_zero(self):
        # [DERIVED] s* = 4.5 - 6 < 0: the slope at 0 is positive
        assert numeric_intersection_dimension(StableSystem(alphas=(1.5, 1.5, 1.5), d=3))[0] == 0.0

    def test_clamped_at_d(self):
        # [DERIVED] alpha = 2 > d = 1: a bounded density, so s* = d
        assert numeric_intersection_dimension(StableSystem(alphas=(2.0,), d=1))[0] == 1.0

    def test_one_probe_at_zero(self, monkeypatch):
        probed = []

        def probe(sys_, s):
            probed.append(s)
            return ConvergenceVerdict(kind="Convergent", slope=-0.7, error=0.01)

        monkeypatch.setattr(classify, "probe_intersection_dimension_test", probe)
        assert numeric_intersection_dimension(StableSystem(alphas=(0.7,), d=1)) == (0.7, 0.01)
        assert probed == [0.0]

    @pytest.mark.parametrize("slope", [math.nan, math.inf, -math.inf])
    def test_non_finite_slope_raises(self, slope, monkeypatch):
        verdict = ConvergenceVerdict(kind="Inconclusive", slope=slope, error=math.nan)
        monkeypatch.setattr(classify, "probe_intersection_dimension_test", lambda *_: verdict)
        with pytest.raises(InconclusiveError, match="slope"):
            numeric_intersection_dimension(StableSystem(alphas=(0.7,), d=1))


class TestBisection:
    # the tolerance that dimension --numeric passes as --bisect-tol
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            numeric_intersection_dimension(StableSystem(alphas=(1.5, 1.5), d=2), tol=tol)

    def test_tolerance_below_float_spacing_raises(self):
        # [DERIVED] no estimate of s* = 1 is closer than its float spacing
        # 2.2e-16; the slope error of (1.5, 1.5) in the plane is about 4e-8
        with pytest.raises(InconclusiveError, match="exceeds tol 1e-300"):
            numeric_intersection_dimension(StableSystem(alphas=(1.5, 1.5), d=2), tol=1e-300)

    def test_tolerance_met_returns_the_estimate(self):
        sys_ = StableSystem(alphas=(1.5, 1.5), d=2)
        assert (numeric_intersection_dimension(sys_, tol=1e-6)
                == numeric_intersection_dimension(sys_))

    def test_nan_error_does_not_meet_a_tolerance(self, monkeypatch):
        verdict = ConvergenceVerdict(kind="Convergent", slope=-0.7, error=math.nan)
        monkeypatch.setattr(classify, "probe_intersection_dimension_test", lambda *_: verdict)
        with pytest.raises(InconclusiveError, match="error nan exceeds"):
            numeric_intersection_dimension(StableSystem(alphas=(0.7,), d=1), tol=0.05)


class TestValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            StableSystem(alphas=(3.0,), d=1)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            StableSystem(alphas=(1.0,), d=0)

    def test_probe_s_out_of_range(self):
        with pytest.raises(ValueError):
            probe_intersection_dimension_test(StableSystem(alphas=(1.5, 1.5), d=2), 2.5)

    def test_probe_refuses_d_above_three(self):
        with pytest.raises(ValueError, match="analytic route"):
            probe_intersection_dimension_test(StableSystem(alphas=(2.0,), d=4), 1.0)


def drift(*b):
    return PureDrift(b=tuple(float(v) for v in b))


class TestPlanarPointProbe:
    @pytest.mark.parametrize("speed_r", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("a", [1.0, 3.0])
    def test_ridge_rule_reproduces_the_closed_forms(self, speed_r, a):
        # [DERIVED] with A = a and B = |b| r, the mean of A / (A^2 + B^2 cos^2)
        # over the circle is (A^2 + B^2)^-1/2, and over the sphere (weight
        # sin(theta) / 2 in the polar angle from b) it is arctan(B / A) / B
        home, offsets, weights = _ridge_rule(np.array([0.5 * np.pi]), np.array([1.0 / speed_r]))
        theta = 0.5 * np.pi + offsets[0]
        ridge = a / (a * a + (speed_r * np.cos(theta)) ** 2)
        assert np.all(home == 0)
        assert np.sum(weights * ridge) / np.pi == pytest.approx(
            (a * a + speed_r ** 2) ** -0.5, rel=1e-10, abs=0)
        assert np.sum(weights * ridge * np.sin(theta)) / 2.0 == pytest.approx(
            math.atan(speed_r / a) / speed_r, rel=1e-10, abs=0)

    @pytest.mark.parametrize("speed_r", [0.5, 5.0, 50.0])
    def test_planar_average_of_one_drift(self, speed_r):
        # a drift with an alpha = 1 real part: A = 1 + r, B = |b| r
        b = np.array([0.3, -0.7])
        r = speed_r / np.linalg.norm(b)
        psi = ExponentVector((SumOf(components=(drift(*b), IsotropicStable(alpha=1.0, dim=2))),
                              IsotropicStable(alpha=1.5, dim=2)))
        a = 1.0 + r
        expect = (a * a + speed_r ** 2) ** -0.5 / (1.0 + r ** 1.5)
        got = planar_averaged_kernel(psi, np.array([r]))[0]
        assert got == pytest.approx(expect, rel=1e-10, abs=0)

    def test_non_parallel_drifts_integrate_to_the_closed_form(self):
        # [DERIVED] int over R^2 of prod_j 1 / (1 + (b_j . xi)^2) is
        # pi^2 / |det(b1, b2)|, by the substitution eta_j = b_j . xi
        b1, b2 = (1.0, 0.3), (-0.4, 2.0)
        verdict = probe_planar_point_test(ExponentVector((drift(*b1), drift(*b2))))
        assert verdict.kind == "Convergent"
        assert verdict.slope == pytest.approx(-1.0, abs=0.01)
        total = 2.0 * np.pi * verdict.partials[-1]
        assert total == pytest.approx(np.pi ** 2 / abs(np.linalg.det([b1, b2])), rel=1e-6)

    @pytest.mark.parametrize("b2", [(2.0, 4.0), (-0.5, -1.0)])
    def test_parallel_drifts_diverge(self, b2):
        # [DERIVED] K is constant along the common ridge b . xi = 0
        verdict = probe_planar_point_test(ExponentVector((drift(1.0, 2.0), drift(*b2))))
        assert verdict.kind == "Divergent"
        assert verdict.slope == pytest.approx(1.0, abs=0.01)

    def test_drift_free_components_factor_out(self):
        psi = ExponentVector((drift(0.0, 0.0), IsotropicStable(alpha=1.5, dim=2)))
        r = np.array([0.5, 3.0])
        assert np.array_equal(planar_averaged_kernel(psi, r), 1.0 / (1.0 + r ** 1.5))

    def test_needs_the_plane(self):
        with pytest.raises(ValueError):
            probe_planar_point_test(ExponentVector((drift(1.0, 0.0, 0.0), drift(0.0, 1.0, 0.0))))
