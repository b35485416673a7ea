"""Hitting/intersection/dimension classifiers and the convergence probes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from addlevy import (
    ConvergenceVerdict,
    StableSystem,
    dimension_by_bisection,
    intersection_dimension,
    intersections_exist,
    multiple_points_allowed,
    range_dimension,
    range_has_positive_measure,
    subordinator_meet,
)
from addlevy.classify import (
    InconclusiveError,
    _ridge_rule,
    planar_averaged_kernel,
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
def test_bisection_finds_the_analytic_dimension(sys_):
    # the probe is conclusive outside 0.15 of s*, so bisection at tol 0.05
    # lands within 0.15 + 0.05 of it
    s_star = sum(sys_.alphas) - (sys_.n - 1) * sys_.d
    found = dimension_by_bisection(lambda s: probe_intersection_dimension_test(sys_, s),
                                   0.0, float(sys_.d), tol=0.05)
    assert abs(found - s_star) <= 0.2


class TestBisection:
    def test_stable_pair_dimension(self):
        # [DERIVED] converges to the analytic value 1.0
        sys_ = StableSystem(alphas=(1.5, 1.5), d=2)
        val = dimension_by_bisection(
            lambda s: probe_intersection_dimension_test(sys_, s), 0.0, 2.0)
        assert val == pytest.approx(1.0, abs=0.1)

    def test_always_divergent_returns_lo(self):
        # [TRIVIAL] sup over the empty set: returns the lower endpoint
        always_div = lambda s: ConvergenceVerdict(kind="Divergent", slope=1.0)
        assert dimension_by_bisection(always_div, 0.0, 2.0) == pytest.approx(0.0, abs=0.06)

    def test_always_convergent_returns_hi(self):
        always_conv = lambda s: ConvergenceVerdict(kind="Convergent")
        assert dimension_by_bisection(always_conv, 0.0, 2.0) == pytest.approx(2.0, abs=0.06)

    def test_each_s_probed_once(self):
        # [DERIVED] an Inconclusive verdict shrinks [0, 2] symmetrically, so the
        # midpoint stays at 1 while the bracket narrows to the tolerance
        probed = []

        def inconclusive(s):
            probed.append(s)
            return ConvergenceVerdict(kind="Inconclusive")

        val = dimension_by_bisection(inconclusive, 0.0, 2.0)
        assert probed == [1.0]
        assert 1.0 - 0.05 <= val < 1.0


    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        always_conv = lambda s: ConvergenceVerdict(kind="Convergent")
        with pytest.raises(ValueError, match="positive and finite"):
            dimension_by_bisection(always_conv, 0.0, 2.0, tol=tol)

    def test_stalled_bisection_raises(self):
        # [DERIVED] 21 Inconclusive shrinks leave 2 * 0.75^21 = 0.0063 > 1e-3
        inconclusive = lambda s: ConvergenceVerdict(kind="Inconclusive")
        with pytest.raises(InconclusiveError, match="21 Inconclusive"):
            dimension_by_bisection(inconclusive, 0.0, 2.0, tol=1e-3)

    def test_tolerance_below_float_spacing_raises(self):
        # the bracket stops at two neighbouring floats around 0.3 instead of
        # probing their midpoint, one of them, forever
        threshold = lambda s: (ConvergenceVerdict(kind="Convergent") if s < 0.3
                               else ConvergenceVerdict(kind="Divergent", slope=1.0))
        with pytest.raises(InconclusiveError, match="cannot narrow"):
            dimension_by_bisection(threshold, 0.0, 1.0, tol=1e-300)


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
