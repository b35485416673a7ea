"""Exponent algebra: evaluation, product kernel, sector constants."""
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from addlevy import (
    BrownianIsotropic,
    ExponentVector,
    IsotropicStable,
    PureDrift,
    Skewed1DStable,
    SumOf,
    sector_constant,
)
from addlevy.exponents import DimensionMismatchError, exponent_from_json


class TestEvalExponent:
    def test_stable_at_origin_is_zero(self):
        # [TRIVIAL] Psi(0) = 0 for every Levy exponent
        assert IsotropicStable(alpha=2.0, dim=1)(0.0) == 0.0

    def test_brownian_plane(self):
        # [TRIVIAL] Psi(xi) = ||xi||^2 / 2 at xi = (1, 1)
        val = BrownianIsotropic(dim=2, diffusivity=1.0)(np.array([1.0, 1.0]))
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_skewed_stable(self):
        # [DERIVED] standard skewed-stable exponent at xi=1:
        # |xi|^a (1 - i b sign(xi) tan(pi a / 2)) = 1 - i tan(3 pi / 4) = 1 + i
        val = Skewed1DStable(alpha=1.5, beta=1.0)(1.0)
        assert val == pytest.approx(1.0 + 1.0j, abs=1e-12)

    def test_isotropic_stable_scaling(self):
        # [DERIVED] Psi(xi) = (scale |xi|)^alpha
        val = IsotropicStable(alpha=1.5, scale=2.0)(3.0)
        assert val == pytest.approx(6.0 ** 1.5, rel=1e-12)

    def test_pure_drift_imaginary(self):
        # [TRIVIAL] drift exponent is -i b.xi
        val = PureDrift(dim=1, b=(3.0,))(2.0)
        assert val.real == 0.0
        assert val.imag == pytest.approx(-6.0)

    def test_sum_of_adds(self):
        # [TRIVIAL] exponents of independent summands add
        parts = (IsotropicStable(alpha=2.0), PureDrift(b=(1.0,)))
        total = SumOf(dim=1, components=parts)(1.5)
        expected = sum(p(1.5) for p in parts)
        assert total == pytest.approx(expected, abs=1e-14)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            BrownianIsotropic(dim=2)(np.array([1.0, 2.0, 3.0]))

    @given(st.floats(min_value=-50.0, max_value=50.0),
           st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=50, deadline=None)
    def test_conjugate_symmetry(self, xi, alpha):
        # Psi(-xi) = conj(Psi(xi)) for every Levy exponent
        beta = 0.0 if abs(alpha - 1.0) < 0.05 or alpha > 1.99 else 0.5
        exp = Skewed1DStable(alpha=min(alpha, 2.0), beta=beta)
        a = exp(xi)
        b = exp(-xi)
        assert b == pytest.approx(np.conj(a), abs=1e-10)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_real_part(self, xi):
        for exp in (IsotropicStable(alpha=1.3), BrownianIsotropic(),
                    Skewed1DStable(alpha=1.7, beta=-0.8)):
            assert exp(xi).real >= -1e-12


class TestKPsi:
    def test_single_brownian_origin(self):
        # [TRIVIAL] Psi(0)=0 so every factor is 1
        psi = ExponentVector((BrownianIsotropic(dim=1),))
        assert psi.kernel_values(0.0) == pytest.approx(1.0)

    def test_two_cauchy_quarter(self):
        # [TRIVIAL] each factor Re 1/(1+|1|) = 1/2, product 0.25
        psi = ExponentVector((IsotropicStable(alpha=1.0, dim=1),
                              IsotropicStable(alpha=1.0, dim=1)))
        assert psi.kernel_values(1.0) == pytest.approx(0.25)

    def test_cauchy_with_drift(self):
        # [DERIVED] Psi(1) = 1 - i, factor Re 1/(2 - i) = 2/5
        psi = ExponentVector((SumOf(dim=1, components=(
            IsotropicStable(alpha=1.0), PureDrift(b=(1.0,)))),))
        assert psi.kernel_values(1.0) == pytest.approx(0.4)

    @given(st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_values_in_unit_interval(self, xi):
        # K_Psi = prod Re(1/(1+Psi_j)) lies in (0, 1] for these families
        psi = ExponentVector((IsotropicStable(alpha=1.5, dim=1),
                              BrownianIsotropic(dim=1)))
        assert 0.0 < psi.kernel_values(xi) <= 1.0 + 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_values_match_the_complex_formula(d):
    # real exponents stay real inside kernel_values; Re z / |z|^2 of the
    # complex 1 + Psi is the same bits, factor by factor and in the product
    comps = [IsotropicStable(alpha=1.3, scale=0.7, dim=d),
             BrownianIsotropic(diffusivity=1.7, dim=d),
             PureDrift(b=tuple(np.linspace(0.5, -0.4, d))),
             SumOf(components=(IsotropicStable(alpha=0.6, dim=d), BrownianIsotropic(dim=d))),
             SumOf(components=(IsotropicStable(alpha=0.6, dim=d), PureDrift(b=(0.3,) * d)))]
    if d == 1:
        comps.append(Skewed1DStable(alpha=1.4, beta=-0.6))
    pts = 10.0 * np.random.default_rng(d).standard_normal((500, d))
    product = np.ones(500)
    for c in comps:
        z = 1.0 + c(pts)
        assert z.dtype == complex
        factor = z.real / np.abs(z) ** 2
        assert np.array_equal(ExponentVector((c,)).kernel_values(pts), factor)
        product *= factor
    assert np.array_equal(ExponentVector(tuple(comps)).kernel_values(pts), product)

class TestSectorConstant:
    GRID = (-100.0, -10.0, -1.0, 1.0, 10.0, 100.0)

    def test_symmetric_is_zero(self):
        # [TRIVIAL] Im Psi = 0 identically
        assert sector_constant(IsotropicStable(alpha=1.5), self.GRID) == 0.0

    def test_skewed_ratio(self):
        # [DERIVED] |Im Psi| / (1 + Re Psi) -> |tan(3 pi / 4)| = 1 as xi grows
        val = sector_constant(Skewed1DStable(alpha=1.5, beta=1.0), self.GRID)
        assert val == pytest.approx(1.0, rel=1e-2)

    def test_pure_drift_fails_sector(self):
        # [DERIVED] Re = 0 so the ratio blows up; measured on {1} it is 3/1
        val = sector_constant(PureDrift(b=(3.0,)), (1.0,))
        assert val == pytest.approx(3.0) or math.isinf(val)


class TestJsonRoundTrip:
    # each exponent JSON form of the README, as text, parses to the object it describes
    @pytest.mark.parametrize("exp", [
        ('{"family": "IsotropicStable", "dim": 2, "params": {"alpha": 1.3, "scale": 0.7}}',
         IsotropicStable(dim=2, alpha=1.3, scale=0.7)),
        ('{"family": "BrownianIsotropic", "dim": 3, "params": {"diffusivity": 2.0}}',
         BrownianIsotropic(dim=3, diffusivity=2.0)),
        ('{"family": "Skewed1DStable", "dim": 1,'
         ' "params": {"alpha": 0.9, "beta": -0.4, "scale": 1.1}}',
         Skewed1DStable(alpha=0.9, beta=-0.4, scale=1.1)),
        ('{"family": "PureDrift", "dim": 2, "params": {"b": [1.0, -2.0]}}',
         PureDrift(dim=2, b=(1.0, -2.0))),
        ('{"family": "SumOf", "dim": 1, "params": {"components": ['
         '{"family": "IsotropicStable", "dim": 1, "params": {"alpha": 1.0}},'
         ' {"family": "PureDrift", "dim": 1, "params": {"b": [1.0]}}]}}',
         SumOf(dim=1, components=(IsotropicStable(alpha=1.0), PureDrift(b=(1.0,))))),
    ])
    def test_round_trip(self, exp):
        text, expected = exp
        assert exponent_from_json(json.loads(text)) == expected

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            exponent_from_json({"family": "Nope", "dim": 1, "params": {}})


class TestValidation:
    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            IsotropicStable(alpha=3.0)

    def test_alpha_zero(self):
        with pytest.raises(ValueError):
            IsotropicStable(alpha=0.0)

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            Skewed1DStable(alpha=1.5, beta=1.5)

    @pytest.mark.parametrize("build", [
        lambda: IsotropicStable(1.5),
        lambda: PureDrift((-1.0,)),
        lambda: BrownianIsotropic(1, 2.0),
        lambda: Skewed1DStable(1.5),
        lambda: SumOf((IsotropicStable(alpha=1.5),)),
    ])
    def test_positional_construction_refused(self, build):
        # IsotropicStable(1.5) would otherwise read as dim=1.5, alpha=2.0
        with pytest.raises(TypeError):
            build()

    def test_vector_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ExponentVector((IsotropicStable(dim=2), BrownianIsotropic(dim=3)))

    def test_vector_shape(self):
        psi = ExponentVector((IsotropicStable(dim=2), BrownianIsotropic(dim=2)))
        assert psi.n == 2 and psi.dim == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False])
@pytest.mark.parametrize("name, build", [
    ("alpha", lambda v: IsotropicStable(alpha=v, dim=2)),
    ("scale", lambda v: IsotropicStable(alpha=1.5, scale=v, dim=2)),
    ("diffusivity", lambda v: BrownianIsotropic(diffusivity=v, dim=3)),
    ("alpha", lambda v: Skewed1DStable(alpha=v)),
    ("beta", lambda v: Skewed1DStable(alpha=1.5, beta=v)),
    ("scale", lambda v: Skewed1DStable(alpha=1.5, beta=0.5, scale=v)),
    ("b", lambda v: PureDrift(b=(1.0, v))),
    ("b", lambda v: PureDrift(b=np.array([v]))),
])
def test_non_finite_and_boolean_parameters_refused(name, build, bad):
    # NaN passes every order test, inf passes "positive", and True reads as 1
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a finite number, got {bad!r}")):
        build(bad)


# ---------------------------------------------------------------------------
# the split Psi = R(|xi|) - i b . xi, bit for bit
# ---------------------------------------------------------------------------

ALPHAS = st.floats(min_value=0.05, max_value=2.0)
SCALES = st.floats(min_value=1e-3, max_value=1e3)


def radial_families(d):
    return st.one_of(
        st.builds(IsotropicStable, alpha=ALPHAS, scale=SCALES, dim=st.just(d)),
        st.builds(BrownianIsotropic, diffusivity=SCALES, dim=st.just(d)))


def radial_components(d):
    return st.one_of(radial_families(d), st.builds(
        lambda cs: SumOf(components=tuple(cs)), st.lists(radial_families(d), min_size=1,
                                                         max_size=3)))


def drifts(d):
    return st.builds(lambda b: PureDrift(b=tuple(b)),
                     st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=d, max_size=d))


def skewed():
    return st.builds(lambda a, beta: Skewed1DStable(alpha=a, beta=0.0 if a == 1.0 else beta),
                     ALPHAS, st.floats(min_value=-1.0, max_value=1.0))


def components_1d():
    """Every family in d = 1, and sums that mix them."""
    one = st.one_of(radial_families(1), drifts(1), skewed())
    return st.one_of(one, st.builds(lambda cs: SumOf(components=tuple(cs)),
                                    st.lists(one, min_size=1, max_size=3)))


RADII = st.lists(st.one_of(st.just(0.0),
                           st.floats(min_value=1e-170, max_value=1e-155),  # r^2 subnormal
                           st.floats(min_value=1e-6, max_value=1e6),
                           st.floats(min_value=1e150, max_value=1e200)),  # r^2 may be inf
                 min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2, 3]), radii=RADII)
def test_kernel_radial_is_kernel_values_on_the_first_axis(data, d, radii):
    comps = components_1d() if d == 1 else radial_components(d)
    psi = ExponentVector(tuple(data.draw(st.lists(comps, min_size=1, max_size=4))))
    r = np.array(radii)
    pts = np.zeros((r.size, d))
    pts[:, 0] = r
    with np.errstate(all="ignore"):  # inf / inf at the huge radii
        got, want = psi.kernel_radial(r), psi.kernel_values(pts)
    assert got.shape == r.shape
    assert got.tobytes() == want.tobytes()


def test_kernel_radial_keeps_the_shape_and_refuses_a_direction():
    psi = ExponentVector((IsotropicStable(alpha=1.5, dim=2), BrownianIsotropic(dim=2)))
    r = np.linspace(0.0, 3.0, 6).reshape(2, 3)
    assert psi.kernel_radial(r).shape == (2, 3)
    with pytest.raises(ValueError, match="direction"):
        ExponentVector((SumOf(components=(IsotropicStable(alpha=1.5, dim=2),
                                          PureDrift(b=(0.0, 0.0)))),)).kernel_radial(r)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(min_value=1, max_value=10),
       alpha=ALPHAS, scale=SCALES)
def test_radial_families_keep_the_norm_formulas(data, d, alpha, scale):
    # Psi on q = |xi|^2 is (scale ||xi||)^alpha and diffusivity sum(xi^2) / 2
    # as np.linalg.norm and np.sum form them; from 8 columns numpy sums pairwise
    n = data.draw(st.integers(min_value=1, max_value=20))
    pts = np.array(data.draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6), min_size=n * d, max_size=n * d))).reshape(n, d)
    stable = IsotropicStable(alpha=alpha, scale=scale, dim=d)
    brownian = BrownianIsotropic(diffusivity=scale, dim=d)
    old_stable = (scale * np.linalg.norm(pts, axis=-1)) ** alpha
    old_brownian = 0.5 * scale * np.sum(pts * pts, axis=-1)
    assert stable._eval(pts).tobytes() == old_stable.tobytes()
    assert brownian._eval(pts).tobytes() == old_brownian.tobytes()
    assert np.array_equal(stable(pts), old_stable.astype(complex))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2, 3]))
def test_drift_is_minus_im_psi_at_the_unit_vectors(data, d):
    # a skewed stable's imaginary part is a skew, not a drift: beta = 0 only
    one = st.one_of(radial_families(d), drifts(d),
                    *([st.builds(Skewed1DStable, alpha=ALPHAS)] if d == 1 else []))
    comps = data.draw(st.lists(one, min_size=1, max_size=4))
    for c in [*comps, SumOf(components=tuple(comps))]:
        assert c.drift.shape == (d,)
        assert np.array_equal(c.drift, -c(np.eye(d)).imag)


def test_skewed_stable_has_no_drift():
    c = Skewed1DStable(alpha=1.5, beta=1.0)
    assert np.array_equal(c.drift, [0.0]) and c(1.0).imag != 0.0
