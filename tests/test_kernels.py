"""Kernels: Lambda closed form and brute force, Riesz constants, potentials."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from addlevy import (
    ExponentVector,
    IsotropicStable,
    BrownianIsotropic,
    PotentialDensity,
    PureDrift,
    Skewed1DStable,
    StableSystem,
    kernel_sup_check,
    lambda_bruteforce,
    lambda_closed,
    potential_density_v,
    riesz_constant,
    riesz_kernel,
    sector_constant,
)
from addlevy import classify, kernels
from addlevy.kernels import Kernel
from addlevy.quadrature import QuadratureError, QuadratureSpec
from helpers import cauchy_kernel, exponential_kernel, gaussian_kernel


class TestLambdaClosed:
    def test_origin(self):
        # [TRIVIAL] the defining double integral degenerates to
        # (int e^{-|t|} dt)^2 = 4; the closed form gives 2 + 2
        assert lambda_closed(0.0) == pytest.approx(4.0)

    def test_one(self):
        # [DERIVED] 2*Re(1/2) + 2*(2^2 - 0)/2^4 = 1 + 1/2
        assert lambda_closed(1.0) == pytest.approx(1.5)

    def test_i(self):
        # [DERIVED] 2*(1/2) + 2*((1)^2 - 1)/|1+i|^4 = 1 + 0
        assert lambda_closed(1j) == pytest.approx(1.0)

    def test_negative_real_part_rejected(self):
        with pytest.raises(ValueError):
            lambda_closed(-0.5)
        with pytest.raises(ValueError):
            lambda_closed(np.array([1.0, -0.5 + 1j]))

    def test_array_is_elementwise(self):
        zs = np.array([[0.0, 1.0], [1j, 2.0 - 3.0j]])
        vals = lambda_closed(zs)
        assert vals.shape == (2, 2)
        assert vals.ravel() == pytest.approx([lambda_closed(z) for z in zs.ravel()],
                                             rel=1e-15)
        assert isinstance(lambda_closed(1.0), float)

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_upper_bound(self, re, im):
        # Lambda(z) <= 4 Re(1/(1+z)) whenever Re z >= 0
        z = complex(re, im)
        assert lambda_closed(z) <= 4.0 * (1.0 / (1.0 + z)).real + 1e-12

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_positive(self, re, im):
        assert lambda_closed(complex(re, im)) > 0.0


class TestLambdaBruteforce:
    @pytest.mark.parametrize("z,expected", [
        (0.0 + 0.0j, 4.0),       # [TRIVIAL]
        (1.0 + 0.0j, 1.5),       # [DERIVED]
        (0.0 + 1.0j, 1.0),       # [DERIVED]
    ])
    def test_known_values(self, z, expected):
        assert lambda_bruteforce(z) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("z", [2.0 + 1.0j, 0.3 - 2.5j, 4.0 + 4.0j])
    def test_matches_closed_form(self, z):
        # [DERIVED] the double integral and the closed form must agree
        assert lambda_bruteforce(z) == pytest.approx(lambda_closed(z), abs=1e-6)

    @pytest.mark.parametrize("z", [50.0, 40.0j, 5.0 + 5.0j])
    def test_matches_closed_form_far_out(self, z):
        # [DERIVED] fast decay (Re z = 50), fast oscillation (Im z = 40) and
        # both: no factor overflows, and the panels resolve both
        assert lambda_bruteforce(z) == pytest.approx(lambda_closed(z), abs=1e-9)

    def test_truncation_refused(self):
        # [DERIVED] at T = 5 the square misses mass of order e^-5
        with pytest.raises(QuadratureError, match="truncation"):
            lambda_bruteforce(1.0, QuadratureSpec(r_max=5.0, rel_tol=1e-9))

    def test_sector_lower_bound(self):
        # With c = |Im z| / (1 + Re z) and R = Re(1/(1+z)) in [0, 1], the
        # closed form gives Lambda(z) = 2R + 2(1-c^2)R^2 exactly, hence
        # Lambda(z) >= 2(2-c^2) R^2 whenever the sector constant c < sqrt(2).
        for z in (1.0 + 0.5j, 2.0 + 1.0j, 0.5 + 0.2j, 0.0 + 1.0j):
            c = abs(z.imag) / (1.0 + z.real)
            assert c < math.sqrt(2.0)
            r = (1.0 / (1.0 + z)).real
            tight = 2.0 * r + 2.0 * (1.0 - c * c) * r * r
            assert lambda_closed(z) == pytest.approx(tight, rel=1e-12)
            assert lambda_closed(z) >= 2.0 * (2.0 - c * c) * r * r - 1e-12


def calibrated_riesz_constant(d: int, alpha: float) -> float:
    """Riesz constant by Gaussian calibration: the ratio of the real-side and
    Fourier-side energies of the standard Gaussian, each a radial quadrature."""
    from scipy import integrate

    s_d = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    # real side: E ||X - Y||^{alpha-d} with X, Y iid N(0, I_d), X-Y ~ N(0, 2 I_d)
    real_side = (s_d / (4.0 * math.pi) ** (d / 2.0)) * integrate.quad(
        lambda r: r ** (alpha - 1.0) * math.exp(-r * r / 4.0), 0.0, np.inf)[0]
    # Fourier side without the constant: (2 pi)^-d int e^{-||xi||^2} ||xi||^-alpha
    fourier_side = (s_d / (2.0 * math.pi) ** d) * integrate.quad(
        lambda r: r ** (d - alpha - 1.0) * math.exp(-r * r), 0.0, np.inf)[0]
    return real_side / fourier_side


class TestRieszConstant:
    def test_half_integral_on_line(self):
        # [DERIVED] c_{1,1/2} = sqrt(2 pi) (classical Riesz normalization)
        assert riesz_constant(1, 0.5) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-8)

    def test_newtonian(self):
        # [DERIVED] c_{3,2} = 4 pi (Newtonian potential normalization)
        assert riesz_constant(3, 2.0) == pytest.approx(4.0 * math.pi, rel=1e-8)

    def test_planar_exact(self):
        # [DERIVED] c_{2,1} = pi 2 Gamma(1/2) / Gamma(1/2) = 2 pi, exactly
        assert riesz_constant(2, 1.0) == 2.0 * math.pi

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("frac", [0.35, 0.5, 0.65, 0.8])
    def test_matches_gaussian_calibration(self, d, frac):
        # [DERIVED] the closed form satisfies the Riesz energy identity for
        # the standard Gaussian (the quadrature loses accuracy as alpha nears
        # 0 or d, where its integrands turn singular)
        alpha = frac * d
        assert riesz_constant(d, alpha) == pytest.approx(
            calibrated_riesz_constant(d, alpha), rel=1e-10)

    def test_positive(self):
        # [TRIVIAL] a positive kernel of positive type has a positive transform
        for d, a in ((1, 0.3), (2, 1.0), (3, 1.5)):
            assert riesz_constant(d, a) > 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            riesz_constant(1, 1.5)


class TestRadius:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_numpy_norm(self, d):
        # the row sums follow norm's order, down to overflow and underflow
        rng = np.random.default_rng(d)
        x = rng.normal(size=(500, 6, d)) * 10.0 ** rng.integers(-170, 170, size=(500, 6, 1))
        x[0, 0] = 0.0
        x[1, 1] = -0.0
        with np.errstate(over="ignore", under="ignore"):
            got = kernels._radius(x, d)
            expect = np.linalg.norm(x, axis=-1)
        assert got.tobytes() == expect.tobytes()

    def test_riesz_kernel_values(self):
        # [DERIVED] ||x||^(alpha - d), infinite at the origin
        k = kernels.riesz_kernel(2, 0.5)
        x = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, -0.25]])
        assert np.array_equal(k.eval(x), [np.inf, 5.0 ** -1.5, 0.25 ** -1.5])
        assert np.array_equal(k.fourier(x), k.meta["riesz"]["constant"]
                              * np.array([np.inf, 5.0 ** -0.5, 0.25 ** -0.5]))


class TestPotentialDensity:
    PSI = ExponentVector((IsotropicStable(alpha=1.5, dim=1),))

    def test_cauchy_origin_diverges(self):
        # [DERIVED] K fails to be integrable (logarithmic tail) so v(0) = inf
        psi = ExponentVector((IsotropicStable(alpha=1.0, dim=1),))
        assert potential_density_v(psi, 0.0) == np.inf

    def test_brownian_origin(self):
        # [DERIVED] v(0) = (1/pi) int_0^inf dxi / (1 + xi^2/2) = sqrt(2)/2
        psi = ExponentVector((BrownianIsotropic(dim=1),))
        assert potential_density_v(psi, 0.0) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-6)

    @pytest.mark.parametrize("psi", [
        ExponentVector((PureDrift(b=(1.0, 0.0)),)),
        ExponentVector((IsotropicStable(alpha=1.5, dim=2), PureDrift(b=(1.0, 0.0)))),
        ExponentVector((PureDrift(b=(0.0, 1.0, 0.0)),)),
    ])
    def test_direction_dependent_kernel_is_refused(self, psi):
        # a drift's K depends on the direction of xi, so no radial transform
        # inverts it: v(0.5, 0) and v(0, 0.5) came out equal and wrong
        with pytest.raises(ValueError, match="direction-dependent kernel"):
            potential_density_v(psi, np.eye(psi.dim)[0] * 0.5)

    def test_supremum_at_origin(self):
        # kernels of positive type achieve their supremum at the origin
        v = PotentialDensity(self.PSI)
        assert v(0.0) < np.inf
        assert v(0.0) > v(1.0) > 0.0

    def test_even(self):
        # [TRIVIAL] symmetrization makes v even
        v = PotentialDensity(self.PSI)
        for x in (0.3, 1.0, 2.7):
            assert v(x) == pytest.approx(v(-x), rel=1e-12)

    def test_as_kernel_shapes(self):
        k = PotentialDensity(self.PSI).as_kernel()
        out = k.eval(np.zeros((2, 2, 1)))
        assert out.shape == (2, 2)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.5])
    def test_one_brownian_3d(self, r):
        # [DERIVED] K = 2/(2 + |xi|^2) inverts to the Yukawa potential
        # e^{-sqrt2 r}/(2 pi r), which is not integrable at 0
        psi = ExponentVector((BrownianIsotropic(dim=3),))
        assert potential_density_v(psi, np.zeros(3)) == np.inf
        expected = math.exp(-math.sqrt(2.0) * r) / (2.0 * math.pi * r)
        assert potential_density_v(psi, np.array([0.0, r, 0.0])) == pytest.approx(
            expected, rel=1e-8)

    @pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 1.0, 2.5])
    def test_two_brownians_3d(self, r):
        # [DERIVED] K = 4/(2 + |xi|^2)^2 inverts to e^{-sqrt2 r}/(2 sqrt2 pi)
        psi = ExponentVector((BrownianIsotropic(dim=3), BrownianIsotropic(dim=3)))
        expected = math.exp(-math.sqrt(2.0) * r) / (2.0 * math.sqrt(2.0) * math.pi)
        assert potential_density_v(psi, np.array([r, 0.0, 0.0])) == pytest.approx(
            expected, rel=2e-7 if r == 0.0 else 1e-8)

    @pytest.mark.parametrize("r", [0.01, 0.5, 1.0, 2.5])
    def test_one_brownian_2d(self, r):
        # [DERIVED] K = 2/(2 + |xi|^2) inverts to K0(sqrt2 r)/pi, infinite at 0
        from scipy.special import k0
        psi = ExponentVector((BrownianIsotropic(dim=2),))
        assert potential_density_v(psi, np.zeros(2)) == np.inf
        expected = k0(math.sqrt(2.0) * r) / math.pi
        assert potential_density_v(psi, np.array([0.0, r])) == pytest.approx(
            expected, rel=1e-8)

    @pytest.mark.parametrize("r", [2.0 ** -10, 0.1, 1.0])
    def test_cauchy_3d(self, r):
        # [DERIVED] K = 1/(1 + |xi|) inverts to
        # (1/r - Ci(r) sin r - (pi/2 - Si(r)) cos r) / (2 pi^2 r); the
        # envelope s sin(s r) K(s) of the sine transform does not decay
        from scipy.special import sici
        psi = ExponentVector((IsotropicStable(alpha=1.0, dim=3),))
        si, ci = sici(r)
        expected = (1.0 / r - ci * math.sin(r) - (math.pi / 2.0 - si) * math.cos(r)) / (
            2.0 * math.pi ** 2 * r)
        assert potential_density_v(psi, np.array([0.0, 0.0, r])) == pytest.approx(
            expected, rel=1e-8)

    def test_cauchy_1d_near_origin(self):
        # [DERIVED] K = 1/(1 + |xi|) inverts to
        # (-Ci(r) cos r + (pi/2 - Si(r)) sin r) / pi.  At r = 2^-k the
        # transform needs r_max ~ 1/r, the panels toward 0 must still reach
        # the scale on which K bends, and r must be inverted at its own
        # value, not rounded to a fixed number of decimals
        from scipy.special import sici
        psi = ExponentVector((IsotropicStable(alpha=1.0, dim=1),))
        for k in (30, 36):
            r = 2.0 ** -k
            si, ci = sici(r)
            expected = (-ci * math.cos(r) + (math.pi / 2.0 - si) * math.sin(r)) / math.pi
            quad = QuadratureSpec(r_max=400.0 * 2.0 ** k)
            assert potential_density_v(psi, r, quad) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("psi", [
        ExponentVector((IsotropicStable(alpha=1.2, dim=1),)),
        ExponentVector((IsotropicStable(alpha=1.5, dim=2), IsotropicStable(alpha=1.5, dim=2))),
        ExponentVector((IsotropicStable(alpha=1.5, dim=3), BrownianIsotropic(dim=3))),
    ], ids=["d1", "d2", "d3"])
    def test_array_call_equals_scalar_calls(self, psi, monkeypatch):
        # one batched inversion per call, of the distinct rounded radii, and
        # the value of a radius does not depend on the other points of the
        # call or their order: not at an octave top (0.5) and below it, nor
        # under the floor of 16 uniform panels (1/64)
        d = psi.dim
        near = np.nextafter(0.3, 1.0)  # a different radius with the same 14-digit key
        radii = np.array([0.3, -0.75, 0.0, near, 1.25, 0.75, -0.3, 0.0, 2.0,
                          0.5, np.nextafter(0.5, 0.0), 1.0 / 64.0])
        rng = np.random.default_rng(3)
        if d == 1:
            pts = radii[:, None]
            scalar = np.array([potential_density_v(psi, r) for r in radii])
        else:
            dirs = rng.normal(size=(radii.size, d))
            pts = radii[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
            scalar = np.array([potential_density_v(psi, p) for p in pts])
        calls = []
        real_inverse = kernels._radial_inverse
        monkeypatch.setattr(kernels, "_radial_inverse",
                            lambda *a: calls.append(a[1]) or real_inverse(*a))
        for perm in (np.arange(radii.size), rng.permutation(radii.size),
                     rng.permutation(radii.size)):
            calls.clear()
            batch = potential_density_v(psi, pts[perm].reshape(3, 4, d))
            assert batch.shape == (3, 4)
            assert np.array_equal(batch.ravel(), scalar[perm])
            assert len(calls) == 1
            inversions = calls[0]
            # 0, 1/64, 0.3 (and near), 0.5 (and its neighbour, by the 14-digit
            # key), 0.75, 1.25, 2
            assert len(inversions) == 7
        assert scalar[0] == scalar[3]
        assert np.array_equal(PotentialDensity(psi).as_kernel().eval(pts), scalar)

    def test_one_node_set_per_octave(self, monkeypatch):
        # the 128 x 128 differences of a 128-cell grid on [0, 1] take 128
        # distinct radii k/128 in 9 octaves (0 among them), and the octave
        # tops up to 1/16 all take the floor of 16 uniform panels: 5 node sets
        psi = ExponentVector((IsotropicStable(alpha=1.2, dim=1),))
        x = (np.arange(128) + 0.5) / 128.0
        calls = []
        real_nodes = kernels.panel_nodes
        monkeypatch.setattr(kernels, "panel_nodes",
                            lambda *a: calls.append(a) or real_nodes(*a))
        potential_density_v(psi, (x[:, None] - x[None, :])[..., None])
        assert len(calls) <= 6


    def test_unconverged_tail_raises_in_a_batch(self):
        # [DERIVED] with K(s) = cos(s)/s the tail of r = 1 holds
        # cos(s)^2/s, whose mean 1/(2s) is not integrable, while the tails of
        # r = 0.5, 2 and 5 converge; batching r = 1 with them must still raise
        class Resonant:
            dim = 1

            def kernel_values(self, xi):
                s = np.asarray(xi)[:, 0]
                return np.cos(s) / s

        quad = QuadratureSpec(r_max=40.0)
        converging = kernels._radial_inverse((Resonant(),), np.array([0.5, 2.0, 5.0]), quad)
        assert np.all(np.isfinite(converging))
        with pytest.raises(QuadratureError, match="1 of 4"):
            kernels._radial_inverse((Resonant(),), np.array([0.5, 1.0, 2.0, 5.0]), quad)


class TestJ0:
    """The in-repository Bessel function J0 of the d = 2 radial weight."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1e6))
    def test_agrees_with_scipy(self, x):
        # scipy (a test-only oracle) rounds x - pi/4 before its cosine and
        # sine, an error of up to 2^-53 x sqrt(2 / (pi x)) < 1e-16 sqrt(x);
        # _j0 takes cos and sin of x itself and is within 7e-16 of J0
        from scipy.special import j0

        assert abs(kernels._j0(x) - j0(x)) <= 2e-15 + 1e-16 * math.sqrt(x)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_even_with_one_at_zero(self, xs):
        x = np.array(xs)
        assert kernels._j0(0.0) == 1.0
        assert np.array_equal(kernels._j0(-x), kernels._j0(x))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(500.0, 525.0) | st.floats(0.0, 1e4), min_size=2, max_size=40))
    def test_value_does_not_depend_on_the_other_elements(self, xs):
        # the arrays straddle the end of the table at 512
        x = np.array(xs)
        whole = kernels._j0(x)
        for i in range(x.size):
            assert kernels._j0(x[i:i + 1])[0] == whole[i]


class TestDyadicRadialInverse:
    """v at 2^-k y with r_max = 400 * 2^k, all shells k in one inversion."""

    Y = 0.75 + 0.25 * np.polynomial.legendre.leggauss(8)[0]  # the probe's outer shell

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.floats(0.3, 2.0))
    def test_matches_one_inversion_per_shell(self, d, alpha):
        psi = ExponentVector((IsotropicStable(alpha=alpha, dim=d),))
        shells = kernels._radial_inverse((psi,), self.Y, QuadratureSpec(r_max=400.0), shells=36)[0]
        assert shells.shape == (36, 8)
        for k in (0, 13, 35):
            pts = np.zeros((8, d))
            pts[:, 0] = self.Y / 2.0 ** k
            alone = potential_density_v(psi, pts, QuadratureSpec(r_max=400.0 * 2.0 ** k))
            np.testing.assert_allclose(shells[k], alone, rtol=1e-10, atol=0.0)

    def test_exponents_of_one_call_match_their_own_calls(self):
        # bit for bit, v(0) finite for one exponent and infinite for the other
        psis = [ExponentVector((IsotropicStable(alpha=1.5, dim=2),) * 2),
                ExponentVector((IsotropicStable(alpha=1.2, dim=2),))]
        y = np.concatenate(([0.0], self.Y))
        quad = QuadratureSpec(r_max=400.0)
        both = kernels._radial_inverse(psis, y, quad, shells=3)
        assert np.isfinite(both[0, :, 0]).all() and np.isinf(both[1, :, 0]).all()
        for psi, rows in zip(psis, both):
            assert np.array_equal(rows, kernels._radial_inverse((psi,), y, quad, shells=3)[0])

    def test_one_weight_matrix_per_system(self, monkeypatch):
        # the probe's shells of alpha = 1.2 and 1.3 share one node set and
        # one weight matrix (one per alpha, 2, before)
        calls = []
        real_nodes = kernels.panel_nodes
        monkeypatch.setattr(kernels, "panel_nodes",
                            lambda *a: calls.append(a) or real_nodes(*a))
        classify._potential_shells(StableSystem(alphas=(1.2, 1.3), d=2))
        assert len(calls) == 1

    def test_unconverged_tail_raises(self):
        # [DERIVED] K(s) = cos(s)/s resonates with the radius 1 of shell 0;
        # the radii 0.5 and 0.25 of both shells converge
        class Resonant:
            dim = 1

            def kernel_values(self, xi):
                s = np.asarray(xi)[:, 0]
                return np.cos(s) / s

        quad = QuadratureSpec(r_max=40.0)
        converging = kernels._radial_inverse((Resonant(),), np.array([0.5]), quad, shells=2)
        assert np.all(np.isfinite(converging))
        with pytest.raises(QuadratureError, match="1 of 4"):
            kernels._radial_inverse((Resonant(),), np.array([0.5, 1.0]), quad, shells=2)


class TestKernelSupCheck:
    def test_riesz_true(self):
        # [TRIVIAL] value at 0 is +inf, trivially the supremum
        k = riesz_kernel(1, 0.5)
        assert kernel_sup_check(k, np.linspace(-3.0, 3.0, 31))

    def test_potential_density_true(self):
        k = PotentialDensity(ExponentVector((IsotropicStable(alpha=1.5, dim=1),))).as_kernel()
        assert kernel_sup_check(k, np.linspace(-3.0, 3.0, 13))

    def test_corrupted_false(self):
        # [TRIVIAL] negative control: dent the kernel at the origin
        base = exponential_kernel(1.0)

        def dented(x):
            vals = np.asarray(base.eval(x), dtype=float)
            r = np.atleast_1d(np.abs(np.asarray(x, dtype=float))).reshape(vals.shape)
            return np.where(r < 1e-9, 0.5 * vals, vals)

        k = Kernel(eval=dented, dim=1, fourier=base.fourier)
        assert not kernel_sup_check(k, np.linspace(-3.0, 3.0, 31))


class TestClosedFormKernels:
    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_positive_transforms(self, xi):
        # positive-type gauges have nonnegative transforms
        for k in (exponential_kernel(1.0), gaussian_kernel(1.0), cauchy_kernel(1.0)):
            assert float(np.atleast_1d(k.fourier(np.array([xi])))[0]) >= 0.0
