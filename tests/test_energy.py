"""Energy functionals: real-side, Fourier-side, and the identity bridges."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from hypothesis import given, settings, strategies as st

from addlevy import (
    BrownianIsotropic,
    ExponentVector,
    IsotropicStable,
    PureDrift,
    Skewed1DStable,
    SumOf,
    energy_fourier,
    energy_identity_check,
    lambda_closed,
    mutual_energy_real,
    riesz_constant,
    riesz_kernel,
    sojourn_second_moment,
)
from addlevy import energy, kernels, measures
from addlevy.energy import riesz_identity_sides
from addlevy.kernels import Kernel, potential_density_v
from addlevy.measures import (
    AtomicMeasure,
    cantor_product,
    circle,
    cube_grid,
    delta,
    discretize,
    two_point,
)
from addlevy.quadrature import QuadratureSpec
from helpers import cauchy_kernel, exponential_kernel

UNIFORM_HALF_ENERGY = 8.0 / 3.0  # int_0^1 int_0^1 |x-y|^{-1/2} dx dy
GRID_64 = discretize(cube_grid([(0.0, 1.0)], 64))


class TestMutualEnergyReal:
    def test_constant_kernel(self):
        # [TRIVIAL] kappa == 1 and probability measures give exactly 1
        ones = Kernel(eval=lambda x: np.ones(np.asarray(x, dtype=float).shape[:-1]
                                             if np.asarray(x).ndim > 1 else
                                             np.shape(np.atleast_1d(x))), dim=1)
        mu = discretize(cube_grid([(0.0, 1.0)], 8))
        assert mutual_energy_real(ones, mu, mu) == pytest.approx(1.0)

    def test_riesz_uniform_off_diagonal(self):
        # [DERIVED] continuum value 2/((1-s)(2-s)) = 8/3 at s = 1/2.
        # Dropping the diagonal loses the within-cell mass, an O(n^{s-1})
        # deficit (about 4.4% at n=512), so the estimate sits just below.
        mu = discretize(cube_grid([(0.0, 1.0)], 512))
        k = riesz_kernel(1, 0.5)
        val = mutual_energy_real(k, mu, mu, drop_diagonal=True)
        assert UNIFORM_HALF_ENERGY * 0.95 < val < UNIFORM_HALF_ENERGY

    def test_delta_diagonal_infinite(self):
        # [TRIVIAL] kappa(0) = +inf on the diagonal atom
        mu = delta([0.0])
        assert mutual_energy_real(riesz_kernel(1, 0.5), mu, mu) == np.inf

    def test_symmetric_in_arguments(self):
        k = exponential_kernel(1.0)
        mu = discretize(cube_grid([(0.0, 1.0)], 8))
        nu = discretize(two_point(1.0))
        assert mutual_energy_real(k, mu, nu) == pytest.approx(
            mutual_energy_real(k, nu, mu), rel=1e-12)


class TestPairBudget:
    """Pair arrays over the budget are refused before they are allocated;
    the budget is lowered to 1 MiB so that the grids stay small."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(measures, "_BYTES_BUDGET", 2 ** 20)

    def test_mutual_energy(self):
        # 200 x 100 pairs in d = 1: 5 arrays of 8 bytes, 0.8 MB, fit; 300 x 100 do not
        k = riesz_kernel(1, 0.5)
        small = discretize(cube_grid([(0.0, 1.0)], 100))
        assert math.isfinite(mutual_energy_real(k, discretize(cube_grid([(0.0, 1.0)], 200)),
                                                small))
        with pytest.raises(ValueError, match="the 300 x 100 pair arrays would take"):
            mutual_energy_real(k, discretize(cube_grid([(0.0, 1.0)], 300)), small)

    def test_energy_fourier(self):
        psi = ExponentVector((IsotropicStable(alpha=1.5, dim=2),) * 2)
        with pytest.raises(ValueError, match="the 400 x 400 pair arrays would take"):
            energy_fourier(psi, discretize(cube_grid([(0.0, 1.0)] * 2, 20)))

    @pytest.mark.parametrize("d, n_per_axis", [(2, 40), (3, 10)])
    def test_energy_fourier_charges_its_peak(self, d, n_per_axis, monkeypatch):
        # what the d = 2, 3 energy charges the budget is at or above what it
        # allocates at its peak (the J0 table is built once per process)
        charged = []
        monkeypatch.setattr(energy, "_check_budget", lambda size, what: charged.append(size))
        psi = ExponentVector((IsotropicStable(alpha=1.5, dim=d), IsotropicStable(alpha=1.9, dim=d)))
        mu = discretize(cube_grid([(0.0, 1.0)] * d, n_per_axis))
        kernels._j0_table()
        tracemalloc.start()
        try:
            energy_fourier(psi, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert charged == [8 * mu.n_atoms ** 2 * (d + 4)]
        assert peak <= charged[0]

    def test_identity_check(self):
        # 40 x 40 x 100 pairs of 5 arrays: 6.4 MB
        with pytest.raises(ValueError, match="the 40 x 40 x 100 convolved pair arrays"):
            energy_identity_check(exponential_kernel(1.0),
                                  discretize(cube_grid([(0.0, 1.0)], 100)),
                                  discretize(cube_grid([(0.0, 1.0)], 40)))


class TestEnergyFourier:
    def test_brownian_delta(self):
        # [DERIVED] (1/2pi) int dxi / (1 + xi^2/2) = 1/sqrt(2)
        psi = ExponentVector((BrownianIsotropic(dim=1),))
        rep = energy_fourier(psi, delta([0.0]))
        assert rep.converged
        assert rep.value == pytest.approx(math.sqrt(0.5), rel=1e-6)

    def test_cauchy_delta_diverges(self):
        # [DERIVED] logarithmic tail: flagged divergent, value +inf
        psi = ExponentVector((IsotropicStable(alpha=1.0, dim=1),))
        rep = energy_fourier(psi, delta([0.0]))
        assert not rep.converged
        assert rep.value == np.inf

    def test_cancelling_drifts_diverge(self):
        # [DERIVED] opposite drifts sum to Psi = 0, so K = 1 is not integrable
        psi = ExponentVector((SumOf(components=(PureDrift(b=(1.0,)), PureDrift(b=(-1.0,)))),))
        rep = energy_fourier(psi, delta([0.0]))
        assert not rep.converged
        assert rep.value == np.inf

    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=10, deadline=None)
    def test_translation_invariance(self, a):
        # [TRIVIAL] |mu_hat| is unchanged by translation
        psi = ExponentVector((IsotropicStable(alpha=1.5, dim=1),))
        base = discretize(two_point(1.0))
        shifted = type(base)(points=base.points + a, weights=base.weights)
        v0 = energy_fourier(psi, base).value
        v1 = energy_fourier(psi, shifted).value
        assert v1 == pytest.approx(v0, abs=1e-10)

    @pytest.mark.parametrize("spec", [cube_grid([(0.0, 1.0)], 96), cantor_product(1.0 / 3.0, 10),
                                      two_point(1.0)])
    def test_structured_sets_form_no_phase_matrix(self, spec, monkeypatch):
        # grids, Cantor products and point pairs take their closed-form transform
        def refuse(*args):
            raise AssertionError("phase matrix formed")

        monkeypatch.setattr(AtomicMeasure, "_phase_sums", refuse)
        psi = ExponentVector((IsotropicStable(alpha=1.5, dim=1),))
        assert 0.0 < energy_fourier(psi, discretize(spec)).value < np.inf

    def test_energy_positive(self):
        psi = ExponentVector((IsotropicStable(alpha=1.5, dim=1),))
        mu = discretize(cube_grid([(0.0, 1.0)], 16))
        assert energy_fourier(psi, mu).value > 0.0


class TestRealFourierAgreement:
    @given(alpha=st.one_of(st.none(), st.floats(1.5, 1.95)), n=st.integers(1, 5),
           start=st.floats(-2.0, 2.0), length=st.floats(0.25, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_parseval_d1(self, alpha, n, start, length):
        # [DERIVED] by Parseval sum_ij w_i w_j v(x_i - x_j) equals
        # (2 pi)^-1 int |mu_hat|^2 K, for a stable (alpha) or Brownian (None)
        # psi.  Both sides carry tail errors near 1e-5 at alpha = 1.5: the
        # Fourier side from the oscillating |mu_hat|^2 beyond r_max, the
        # real side from the power-law tail of v(0)
        comp = BrownianIsotropic(dim=1) if alpha is None else IsotropicStable(alpha=alpha, dim=1)
        psi = ExponentVector((comp,))
        mu = discretize(cube_grid([(start, start + length)], n))
        v = potential_density_v(psi, mu.points[:, None, :] - mu.points[None, :, :])
        real = float(mu.weights @ v @ mu.weights)
        fourier = energy_fourier(psi, mu, QuadratureSpec(r_max=3200.0, rel_tol=1e-6)).value
        assert real == pytest.approx(fourier, rel=5e-5)

    @pytest.mark.parametrize("alpha, beta", [(1.5, 1.0), (1.5, -1.0), (1.2, 1.0), (1.7, 0.5)])
    def test_parseval_skewed(self, alpha, beta):
        # [DERIVED] K is even for a skewed exponent too, so v is its cosine
        # transform and the identity holds as in the symmetric case
        psi = ExponentVector((Skewed1DStable(alpha=alpha, beta=beta),))
        mu = discretize(cube_grid([(0.0, 1.0)], 4))
        v = potential_density_v(psi, mu.points[:, None, :] - mu.points[None, :, :])
        real = float(mu.weights @ v @ mu.weights)
        fourier = energy_fourier(psi, mu, QuadratureSpec(r_max=3200.0, rel_tol=1e-4))
        assert fourier.converged
        assert real == pytest.approx(fourier.value, rel=5e-5)

    @pytest.mark.parametrize("alpha, beta", [(1.5, 1.0), (1.2, 0.4), (0.8, 1.0)])
    def test_skew_sign_leaves_the_energy(self, alpha, beta):
        # [DERIVED] Psi_-beta = conj(Psi_beta), and K = Re 1/(1 + Psi) is
        # the same for both
        mu = discretize(cube_grid([(0.0, 1.0)], 8))
        energies = [energy_fourier(ExponentVector((Skewed1DStable(alpha=alpha, beta=b),)), mu)
                    for b in (beta, -beta)]
        assert energies[0] == energies[1]


def _two_brownian_v(r, d):
    """[DERIVED] inverse transform of K = 4/(2 + |xi|^2)^2 in d = 2 and 3."""
    from scipy.special import k1
    if d == 3:
        return np.exp(-math.sqrt(2.0) * r) / (2.0 * math.sqrt(2.0) * math.pi)
    with np.errstate(invalid="ignore"):
        v = r * k1(math.sqrt(2.0) * r) / (math.sqrt(2.0) * math.pi)
    return np.where(r > 0.0, v, 1.0 / (2.0 * math.pi))


def _stable_pair():
    return ExponentVector((IsotropicStable(alpha=1.5, dim=2), IsotropicStable(alpha=1.5, dim=2)))


class TestEnergyRadial:
    """d >= 2 with a rotation-invariant K: sum_ij w_i w_j v(x_i - x_j)."""

    @pytest.mark.parametrize("spec", [
        two_point(0.5, d=2),
        cube_grid([(0.0, 1.0), (0.0, 1.0)], 4),
        cube_grid([(0.0, 1.0), (0.0, 1.0)], 16),
        circle(1.0, 64),
        cube_grid([(0.0, 1.0)] * 3, 3),
    ], ids=["twopoint", "grid4x4", "grid16x16", "circle64", "grid3x3x3"])
    def test_two_brownian_closed_form(self, spec):
        # [DERIVED] d = 2: v(r) = r K1(sqrt2 r) / (sqrt2 pi), v(0) = 1/(2 pi);
        # d = 3: v(r) = exp(-sqrt2 r) / (2 sqrt2 pi)
        mu = discretize(spec)
        d = mu.dim
        psi = ExponentVector((BrownianIsotropic(dim=d), BrownianIsotropic(dim=d)))
        r = np.linalg.norm(mu.points[:, None, :] - mu.points[None, :, :], axis=-1)
        expected = float(mu.weights @ _two_brownian_v(r, d) @ mu.weights)
        rep = energy_fourier(psi, mu)
        assert rep.converged
        assert rep.value == pytest.approx(expected, rel=1e-6)

    def test_stable_pair_diagonal(self):
        # [DERIVED] v(0) = (1/2pi) int_0^inf s / (1 + s^1.5)^2 ds = 2 / (9 sqrt3),
        # and two equal atoms give the mean of the diagonal and off-diagonal terms
        psi = _stable_pair()
        diagonal = 2.0 / (9.0 * math.sqrt(3.0))
        assert energy_fourier(psi, delta([0.0, 0.0])).value == pytest.approx(diagonal, rel=1e-6)
        rep = energy_fourier(psi, discretize(two_point(0.25, d=2)))
        off = potential_density_v(psi, np.array([0.25, 0.0]), QuadratureSpec(400.0, 1e-6))
        assert rep.value == pytest.approx(0.5 * (diagonal + off), rel=1e-6)

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=10, deadline=None)
    def test_translation_and_rotation_invariance(self, a, b, theta):
        # [TRIVIAL] the energy depends on the atoms only through their distances
        psi = _stable_pair()
        base = discretize(cube_grid([(0.0, 0.5), (0.0, 0.5)], 2))
        c, s = math.cos(theta), math.sin(theta)
        moved = AtomicMeasure(base.points @ np.array([[c, s], [-s, c]]) + [a, b], base.weights)
        v0 = energy_fourier(psi, base).value
        assert energy_fourier(psi, moved).value == pytest.approx(v0, abs=1e-10)

    def test_no_fourier_transform_of_the_measure(self, monkeypatch):
        # the real-side route never forms mu_hat, let alone a phase matrix
        def refuse(self, xi):
            raise AssertionError("AtomicMeasure.fourier called")

        monkeypatch.setattr(AtomicMeasure, "fourier", refuse)
        rep = energy_fourier(_stable_pair(), discretize(cube_grid([(0.0, 1.0)] * 2, 4)))
        assert rep.value > 0.0

    def test_direction_dependent_kernel_is_not_certified(self):
        # a drift has no radial tail rule in d = 2: nan, unconverged, no quadrature
        psi = ExponentVector((PureDrift(b=(1.0, 0.0)), IsotropicStable(alpha=1.5, dim=2)))
        rep = energy_fourier(psi, discretize(two_point(0.25, d=2)))
        assert math.isnan(rep.value) and rep.tail_estimate == np.inf
        assert not rep.converged


class TestIdentityChecks:
    def test_delta_nu_reduces_to_single_measure_identity(self):
        # [DERIVED] nu = delta_0: E_kappa(mu) vs (2pi)^-d int kappa_hat |mu_hat|^2
        k = exponential_kernel(1.0)
        mu = discretize(cube_grid([(0.0, 1.0)], 64))
        real, fourier, _ = energy_identity_check(k, delta([0.0]), mu)
        assert real == pytest.approx(fourier, rel=0.01)

    def test_two_point_measures(self):
        # [DERIVED] both sides by independent quadrature for a smooth gauge
        k = cauchy_kernel(1.0)
        mu = discretize(two_point(1.0))
        nu = discretize(two_point(0.5))
        real, fourier, _ = energy_identity_check(k, nu, mu)
        assert real == pytest.approx(fourier, rel=0.01)

    @pytest.mark.parametrize("k, nu, mu, expected", [
        (exponential_kernel(1.0), delta([0.0]), AtomicMeasure(GRID_64.points, GRID_64.weights),
         (0.7358252930188938, 0.7358248199602258)),
        (cauchy_kernel(1.0), discretize(two_point(0.5)), discretize(two_point(1.0)),
         (0.7281492109038737, 0.7281492109038739)),
        # the grid's closed form gives the phase matrix's bits here
        (exponential_kernel(1.0), delta([0.0]), GRID_64,
         (0.7358252930188938, 0.7358248199602258)),
    ])
    def test_fourier_side_is_one_resolution(self, k, nu, mu, expected, monkeypatch):
        # the values at r_max of the two-resolution rule (with and without a
        # power-law tail), bit for bit; the error takes a second quadrature
        # up to r_max / 2
        ends = []
        panels = energy.integrate_panels
        monkeypatch.setattr(energy, "integrate_panels",
                            lambda f, edges: ends.append(edges[-1]) or panels(f, edges))
        assert energy_identity_check(k, nu, mu)[:2] == expected
        assert ends == [2000.0, 1000.0]

    def test_slowly_decaying_transform_gives_infinite_fourier_side(self):
        # [DERIVED] kappa_hat = 1/(1 + |xi|) decays like xi^-1 and |mu_hat|^2
        # of an atomic mu does not decay, so the Fourier side diverges
        k = Kernel(eval=lambda x: np.ones(np.shape(x)[:-1]), dim=1,
                   fourier=lambda xi: 1.0 / (1.0 + np.abs(xi)))
        mu = discretize(cube_grid([(0.0, 1.0)], 8))
        real, fourier, error = energy_identity_check(k, delta([0.0]), mu)
        assert real == pytest.approx(1.0)
        assert fourier == np.inf and error == np.inf

    def test_error_covers_the_gap_to_the_real_side(self):
        # [DERIVED] for an atomic mu both sides are the same sum, so their
        # gap (4.7e-7 here) is the Fourier side's truncation and tail error
        real, fourier, error = energy_identity_check(exponential_kernel(1.0), delta([0.0]), GRID_64)
        assert 0.0 < abs(real - fourier) <= error < 1e-5 * fourier

    def test_double_delta_gives_kernel_at_zero(self):
        # [TRIVIAL] point masses collapse both sides to kappa(0)
        k = exponential_kernel(1.0)
        real, fourier, _ = energy_identity_check(k, delta([0.0]), delta([0.0]))
        k0 = float(np.atleast_1d(k.eval(np.array([0.0])))[0])
        assert real == pytest.approx(k0, rel=1e-9)
        assert fourier == pytest.approx(k0, rel=0.01)


class TestRieszIdentity:
    def test_uniform_interval(self):
        # [DERIVED] real side ~ 8/3 and matches the c_{d,alpha}-weighted
        # Fourier side
        spec = cube_grid([(0.0, 1.0)], 512)
        mu = discretize(spec)
        real, fourier, _ = riesz_identity_sides(mu, 0.5)
        assert real == pytest.approx(UNIFORM_HALF_ENERGY, rel=0.02)
        assert real == pytest.approx(fourier, rel=0.02)

    def test_reads_the_cell_of_the_measure(self):
        # a hand-built measure has cell 0 unless it is given one; cell 0 was
        # a ZeroDivisionError
        grid = discretize(cube_grid([(0.0, 1.0)], 64))
        bare = AtomicMeasure(points=grid.points, weights=grid.weights)
        with pytest.raises(ValueError, match="cell must be positive, got 0.0"):
            riesz_identity_sides(bare, 0.5)
        given = AtomicMeasure(points=grid.points, weights=grid.weights, cell=1.0 / 64)
        assert riesz_identity_sides(given, 0.5)[:2] == pytest.approx(
            riesz_identity_sides(grid, 0.5)[:2], rel=1e-9)


class TestSojournSecondMoment:
    def test_matches_direct_quadrature(self):
        # [DERIVED] independent oracle: (1/4)(2pi)^-1 int |f_hat|^2
        # Lambda(Psi(xi)) dxi for a standard Gaussian density
        alpha = 1.5
        psi = ExponentVector((IsotropicStable(alpha=alpha, dim=1),))
        fhat = lambda xi: np.exp(-0.5 * np.asarray(xi) ** 2)
        val, _ = sojourn_second_moment(psi, fhat)
        oracle = 0.25 / (2.0 * math.pi) * integrate.quad(
            lambda x: math.exp(-x * x) * lambda_closed(abs(x) ** alpha),
            -np.inf, np.inf)[0]
        assert val == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("sigma", [0.01, 0.02, 1.0])
    def test_error_covers_the_cut(self, sigma):
        # [DERIVED] a narrow density keeps |f_hat|^2 near 1 past the cut at
        # 60, which loses 1.4% at sigma = 0.01 and 0.22% at 0.02; the
        # reported error must cover the distance to an independent oracle
        alpha = 1.5
        psi = ExponentVector((IsotropicStable(alpha=alpha, dim=1),))
        val, error = sojourn_second_moment(psi, lambda xi: np.exp(-0.5 * (sigma * xi) ** 2))
        oracle = 0.25 / math.pi * sum(integrate.quad(
            lambda x: math.exp(-(sigma * x) ** 2) * lambda_closed(x ** alpha), a, b, limit=200)[0]
            for a, b in ((0.0, 1.0), (1.0, 60.0), (60.0, np.inf)))
        assert abs(val - oracle) <= error + 1e-9 * val

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 1.5])
    @pytest.mark.parametrize("sigma", [0.01, 1.0])
    def test_cut_scales_with_the_density_width(self, sigma, alpha):
        # [DERIVED] independent oracle, split where |f_hat|^2 and Lambda
        # change shape: given sigma, the cut at 60 / sigma loses nothing
        psi = ExponentVector((IsotropicStable(alpha=alpha, dim=1),))
        val, _ = sojourn_second_moment(psi, lambda xi: np.exp(-0.5 * (sigma * xi) ** 2), sigma)
        cuts = (0.0, 1.0, 1.0 / sigma, 60.0 / sigma, np.inf)
        oracle = 0.25 / math.pi * sum(integrate.quad(
            lambda x: math.exp(-(sigma * x) ** 2) * lambda_closed(x ** alpha), a, b,
            limit=200, epsabs=0.0, epsrel=1e-12)[0] for a, b in zip(cuts, cuts[1:]) if a < b)
        assert val == pytest.approx(oracle, rel=1e-9)

    def test_bounded_by_energy(self):
        # the sojourn norm is dominated by the energy I_Psi of the density:
        # Lambda(z) <= 4 Re(1/(1+z)) factorwise gives 4^-N prod Lambda <=
        # prod Re(1/(1+Psi_j))
        rng = np.random.default_rng(0)
        for _ in range(5):
            alpha = float(rng.uniform(0.5, 2.0))
            psi = ExponentVector((IsotropicStable(alpha=alpha, dim=1),))
            fhat = lambda xi: np.exp(-0.5 * np.asarray(xi) ** 2)
            second, _ = sojourn_second_moment(psi, fhat)
            energy = (1.0 / (2.0 * math.pi)) * integrate.quad(
                lambda x: math.exp(-x * x) / (1.0 + abs(x) ** alpha),
                -np.inf, np.inf)[0]
            assert second <= energy + 1e-12
