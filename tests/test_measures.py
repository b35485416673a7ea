"""Set discretizations and atomic measures."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from addlevy import AtomicMeasure, discretize
from addlevy.measures import (
    SetDiscretization,
    _dirichlet,
    cantor_product,
    circle,
    cube_grid,
    delta,
    two_point,
)


class TestConstructions:
    def test_two_point(self):
        # [TRIVIAL] symmetric pair around the origin
        mu = discretize(two_point(1.0))
        assert sorted(mu.points[:, 0]) == pytest.approx([-0.5, 0.5])
        assert mu.weights == pytest.approx([0.5, 0.5])

    def test_cube_grid_cell_centers(self):
        # [TRIVIAL] cell centers of [0,1] in 4 cells
        mu = discretize(cube_grid([(0.0, 1.0)], 4))
        assert sorted(mu.points[:, 0]) == pytest.approx([0.125, 0.375, 0.625, 0.875])
        assert mu.weights == pytest.approx([0.25] * 4)

    def test_cube_grid_2d(self):
        mu = discretize(cube_grid([(0.0, 1.0), (0.0, 2.0)], 3))
        assert mu.points.shape == (9, 2)
        assert mu.weights.sum() == pytest.approx(1.0)

    def test_cantor_level_two(self):
        # [DERIVED] midpoints of the 4 level-2 middle-thirds intervals
        mu = discretize(cantor_product(1.0 / 3.0, 2))
        expect = [1.0 / 18, 5.0 / 18, 13.0 / 18, 17.0 / 18]
        assert sorted(mu.points[:, 0]) == pytest.approx(expect)
        assert mu.weights == pytest.approx([0.25] * 4)

    def test_circle_on_circle(self):
        mu = discretize(circle(2.0, 16))
        radii = np.linalg.norm(mu.points, axis=1)
        assert radii == pytest.approx(np.full(16, 2.0))
        assert mu.weights == pytest.approx(np.full(16, 1.0 / 16))

    def test_cell_width(self):
        assert discretize(cube_grid([(0.0, 1.0)], 8)).cell == pytest.approx(0.125)
        assert discretize(cantor_product(1.0 / 3.0, 2)).cell == pytest.approx(1.0 / 9.0)

    def test_every_kind_carries_its_cell(self):
        # the narrowest grid axis, the level-k interval, the separation, the arc
        assert discretize(cube_grid([(0.0, 1.0), (0.0, 0.5)], 4)).cell == 0.125
        assert discretize(cantor_product(0.25, 3)).cell == 0.25 ** 3
        assert discretize(two_point(0.75, 2)).cell == 0.75
        assert discretize(circle(2.0, 16)).cell == 2.0 * np.pi * 2.0 / 16
        assert delta([0.0]).cell == 0.0

    @given(bounds=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
                           min_size=1, max_size=2),
           n=st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_grid_atoms_sit_exactly_on_their_lattice(self, bounds, n):
        # every difference of two atoms is exactly a lattice offset, and the
        # atoms stay within (n + 1) ulp of the cell centres
        bounds = [(a, a + length) for a, length in bounds]
        if len(bounds) == 2:
            n = min(n, 30)
        mu = discretize(cube_grid(bounds, n))
        assert [m for m, _ in mu.lattice] == [n] * len(bounds)
        for k, ((a, b), (_, h)) in enumerate(zip(bounds, mu.lattice)):
            x = np.unique(mu.points[:, k])
            assert np.array_equal(x[:, None] - x[None, :], np.subtract.outer(
                np.arange(n), np.arange(n)) * h)
            centres = a + (b - a) / n * (np.arange(n) + 0.5)
            ulp = np.spacing(max(abs(a), abs(b), b - a))
            assert np.all(np.abs(x - centres) <= (n + 1) * ulp)

    def test_integral_float_counts_are_counts(self):
        mu = discretize(SetDiscretization("CubeGrid", {"bounds": [[0, 1]], "n_per_axis": 4.0}))
        assert np.array_equal(mu.points, discretize(cube_grid([(0.0, 1.0)], 4)).points)

    def test_delta(self):
        mu = delta([1.0, 2.0])
        assert mu.points.shape == (1, 2)
        assert mu.weights == pytest.approx([1.0])


class TestFourier:
    def test_normalization_at_zero(self):
        # [TRIVIAL] mu_hat(0) = total mass = 1
        mu = discretize(cube_grid([(0.0, 1.0)], 16))
        assert mu.fourier(0.0) == pytest.approx(1.0 + 0.0j)

    def test_delta_at_origin(self):
        # [TRIVIAL] point mass at 0 has unit transform
        assert delta([0.0]).fourier(3.7) == pytest.approx(1.0 + 0.0j)

    def test_symmetric_pair_cosine(self):
        # [DERIVED] transform of (delta_{-1} + delta_{+1})/2 is cos(xi)
        mu = AtomicMeasure(points=np.array([[-1.0], [1.0]]),
                           weights=np.array([0.5, 0.5]))
        val = mu.fourier(np.pi / 2.0)
        assert abs(val) == pytest.approx(0.0, abs=1e-14)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_hermitian_symmetry(self, xi):
        mu = discretize(cube_grid([(0.0, 1.0)], 8))
        a = mu.fourier(xi)
        b = mu.fourier(-xi)
        assert b == pytest.approx(np.conj(a), abs=1e-12)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_modulus_bounded_by_mass(self, xi):
        mu = discretize(cantor_product(1.0 / 3.0, 3))
        assert abs(mu.fourier(xi)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("d,n_atoms,m", [(1, 64, 20011), (2, 4, 300007), (2, 2 ** 18 + 1, 5)])
    def test_row_blocks_match_one_phase_matrix(self, d, n_atoms, m):
        # the phase matrix is formed a block of rows at a time; every value
        # is bit-for-bit the one a single (m, n) matrix gives
        rng = np.random.default_rng(d * m)
        mu = AtomicMeasure(points=rng.uniform(-1.0, 1.0, (n_atoms, d)),
                           weights=np.full(n_atoms, 1.0 / n_atoms))
        xi = rng.uniform(-400.0, 400.0, (m, d))
        whole = np.exp(1j * (xi @ mu.points.T)) @ mu.weights
        assert np.array_equal(mu.fourier(xi), whole)


EPS = np.finfo(float).eps


@st.composite
def closed_form_cases(draw):
    """A set with a closed-form transform and frequencies (m, d) to take it at.

    Grid frequencies include points within a few ulps of 2 pi m / h, where
    the Dirichlet kernel's numerator and denominator both vanish, and of
    2 pi (2j + 1) / (b - a), where its numerator vanishes and
    tan(nt'/2) of its tangent form may have a pole.  Every set takes some
    subnormal frequencies.
    """
    kind = draw(st.sampled_from(["CubeGrid", "CantorProduct", "TwoPoint"]))
    if kind == "CubeGrid":
        d = draw(st.integers(1, 2))
        n = draw(st.integers(1, 64 if d == 1 else 10))
        bounds = []
        for _ in range(d):
            a = draw(st.floats(-50.0, 50.0))
            bounds.append((a, a + draw(st.floats(1e-3, 20.0))))
        spec = cube_grid(bounds, n)
    elif kind == "CantorProduct":
        d = draw(st.integers(1, 2))
        ratio = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
        spec = cantor_product(ratio, draw(st.integers(0, 10 if d == 1 else 5)), d)
    else:
        d = draw(st.integers(1, 3))
        spec = two_point(draw(st.floats(1e-3, 10.0)), d)
    m = draw(st.integers(1, 40))
    xi = np.array(draw(st.lists(st.floats(-4000.0, 4000.0), min_size=m * d, max_size=m * d)))
    xi = xi.reshape(m, d)
    if kind == "CubeGrid":
        for k, (a, b) in enumerate(bounds):
            orders = draw(st.lists(st.integers(-300, 300), min_size=m // 2, max_size=m // 2))
            poles = 2.0 * np.pi * np.array(orders, dtype=float) * n / (b - a)
            for _ in range(draw(st.integers(0, 4))):
                poles = np.nextafter(poles, draw(st.sampled_from([-np.inf, np.inf])))
            xi[: m // 2, k] = poles
            odd = draw(st.lists(st.integers(-300, 300), min_size=m // 4, max_size=m // 4))
            zeros = 2.0 * np.pi * (2.0 * np.array(odd, dtype=float) + 1.0) / (b - a)
            for _ in range(draw(st.integers(0, 4))):
                zeros = np.nextafter(zeros, draw(st.sampled_from([-np.inf, np.inf])))
            xi[m // 2: m // 2 + m // 4, k] = zeros
    tiny = draw(st.lists(st.floats(-2.0 ** -1022, 2.0 ** -1022), max_size=(m // 4) * d))
    if tiny:
        xi.reshape(-1)[-len(tiny):] = tiny
    return spec, xi


def sinc_dirichlet(a: float, b: float, n: int, x: np.ndarray) -> np.ndarray:
    """D_n(hx/2) as (-1)^(m(n-1)) sinc(nt'/pi) / sinc(t'/pi), the reference
    for the tangent form of measures._dirichlet."""
    t = x * ((b - a) / (2 * n))
    m = np.rint(t / np.pi)
    t = t - m * np.pi
    return (1.0 - 2.0 * (m * (n - 1) % 2.0)) * np.sinc(n * t / np.pi) / np.sinc(t / np.pi)


class TestClosedFormTransforms:
    @given(closed_form_cases())
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_the_phase_matrix(self, case):
        spec, xi = case
        mu = discretize(spec)
        assert mu.transform is not None
        matrix = AtomicMeasure(mu.points, mu.weights).fourier(xi)
        reach = np.linalg.norm(xi, axis=1) * np.linalg.norm(mu.points, axis=1).max()
        assert np.all(np.abs(mu.fourier(xi) - matrix) <= 64 * EPS * (1.0 + reach))
        # |a|^2 - |b|^2 = (|a| + |b|)(|a| - |b|), and |a| + |b| <= 2 here
        assert np.all(np.abs(mu.power(xi) - np.abs(matrix) ** 2)
                      <= 2 * 64 * EPS * (1.0 + reach))

    @given(closed_form_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_closed_form_is_blockwise_deterministic(self, case, data):
        # a value does not depend on the array it is evaluated in
        spec, xi = case
        mu = discretize(spec)
        if mu.dim == 1:
            xi = xi[:, 0]
        i = data.draw(st.integers(0, xi.shape[0] - 1))
        one = mu.fourier(xi[i])
        assert isinstance(one, complex)
        assert one == mu.fourier(xi)[i]
        power = mu.power(xi[i])
        assert isinstance(power, float)
        assert power == mu.power(xi)[i]

    @given(closed_form_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_phase_matrix_power_is_the_squared_modulus(self, case, data):
        # without a closed form, power keeps the bits of |fourier|^2
        spec, xi = case
        mu = discretize(spec)
        plain = AtomicMeasure(mu.points, mu.weights)
        if plain.dim == 1:
            xi = xi[:, 0]
        assert np.array_equal(plain.power(xi), np.abs(plain.fourier(xi)) ** 2)
        i = data.draw(st.integers(0, xi.shape[0] - 1))
        assert plain.power(xi[i]) == np.abs(plain.fourier(xi[i])) ** 2

    @given(closed_form_cases().filter(lambda case: case[0].kind == "CubeGrid"))
    @settings(max_examples=200, deadline=None)
    def test_tangent_dirichlet_matches_the_sinc_quotient(self, case):
        # both reduce t by the same m pi, and a relative error EPS in an
        # argument moves D by at most EPS |t'| / |sin t'| <= EPS pi / 2
        spec, xi = case
        n = spec.params["n_per_axis"]
        for k, (a, b) in enumerate(spec.params["bounds"]):
            x = xi[:, k]
            assert np.all(np.abs(_dirichlet(a, b, n, x) - sinc_dirichlet(a, b, n, x)) <= 16 * EPS)

    def test_circle_keeps_the_phase_matrix(self):
        assert discretize(circle(1.0, 8)).transform is None


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure(points=np.array([[0.0]]), weights=np.array([-1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([1.0]))

    def test_bad_cantor_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            discretize(cantor_product(0.6, 2))

    @pytest.mark.parametrize("spec, name", [
        (cube_grid([(0, 1)], 2.5), "n_per_axis"),
        (cube_grid([(0, 1)], True), "n_per_axis"),
        (circle(1.0, 6.7), "n"),
        (cantor_product(0.3, 2.9), "level"),
        (cantor_product(0.3, 2, 1.5), "d"),
        (two_point(1.0, 2.5), "d"),
        (two_point("1", 1), "separation"),
    ])
    def test_builders_do_not_truncate(self, spec, name):
        # discretize, the one validator, sees what the caller passed
        with pytest.raises(ValueError, match=f"^{name} must be "):
            discretize(spec)

    def test_integral_float_counts_are_accepted(self):
        assert discretize(cube_grid([(0, 1)], 2.0)).n_atoms == 2
        assert discretize(circle(1, 6.0)).n_atoms == 6
