"""Panel quadrature building blocks."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from addlevy.quadrature import (
    QuadratureSpec,
    QuadratureError,
    _gauss_legendre,
    averaged_oscillatory_tail,
    halfline_edges,
    integrate_panels,
    panel_nodes,
    powerlaw_tail,
    uniform_panel_count,
)


class TestPanels:
    def test_polynomial_exact(self):
        # [TRIVIAL] Gauss-Legendre panels integrate low-degree polynomials
        edges = np.array([0.0, 0.5, 2.0])
        val = integrate_panels(lambda x: 3.0 * x ** 2, edges)
        assert val == pytest.approx(8.0, rel=1e-13)

    def test_decaying_exponential(self):
        # [DERIVED] int_0^R e^-x = 1 - e^-R
        edges = halfline_edges(30.0)
        val = integrate_panels(lambda x: np.exp(-x), edges)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_nodes_cover_panels(self):
        edges = np.array([0.0, 1.0, 3.0])
        nodes, weights = panel_nodes(edges, 6)
        assert nodes.min() > 0.0 and nodes.max() < 3.0
        assert weights.sum() == pytest.approx(3.0, rel=1e-13)

    @given(st.lists(st.integers(-10_000, 10_000), min_size=2, max_size=21, unique=True),
           st.sampled_from([5, 6, 8, 12]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_exact_up_to_degree_2n_minus_1(self, milli_edges, n, data):
        # [DERIVED] an n-point Gauss-Legendre panel is exact for degree <= 2n-1;
        # the exact integral is taken in rational arithmetic and the error is
        # judged against int sum_k |c_k| |x|^k, which bounds the roundoff.
        # Edges on a 1e-3 grid and integer coefficients keep every term
        # clear of floating-point underflow.
        edges = np.array(sorted(milli_edges)) / 1000.0
        degree = data.draw(st.integers(0, 2 * n - 1))
        coeffs = data.draw(st.lists(st.integers(-1000, 1000), min_size=degree + 1,
                                    max_size=degree + 1))
        nodes, weights = panel_nodes(edges, n)
        approx = float(np.sum(weights * np.polynomial.polynomial.polyval(nodes, coeffs)))
        a, b = Fraction(float(edges[0])), Fraction(float(edges[-1]))
        exact = sum(Fraction(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                    for k, c in enumerate(coeffs))

        def abs_power(x, k):  # antiderivative of |x|^k
            return (1 if x >= 0 else -1) * abs(x) ** (k + 1) / (k + 1)

        bound = sum(abs(Fraction(c)) * (abs_power(b, k) - abs_power(a, k))
                    for k, c in enumerate(coeffs))
        assert abs(approx - float(exact)) <= 1e-12 * float(bound)

    def test_cached_rule_is_read_only(self):
        # the rule arrays are shared by every caller, so writes must fail
        x, w = _gauss_legendre(8)
        assert _gauss_legendre(8)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestTail:
    def test_powerlaw_tail_closed_form(self):
        # [DERIVED] int_R^inf A (x/R)^-p dx = A R / (p - 1)
        assert powerlaw_tail(2.0, 10.0, 3.0) == pytest.approx(10.0)

    def test_non_integrable_tail_is_infinite(self):
        # [TRIVIAL] decay <= 1 means the modeled tail diverges
        assert powerlaw_tail(1.0, 10.0, 0.5) == np.inf


def scalar_tail_reference(f, start, omega, rel_tol, scale, max_half_periods=4000, n_nodes=8):
    """One frequency at a time, as a plain loop over half periods: the
    reference the batched averaged_oscillatory_tail must match bit for bit."""
    h = np.pi / omega
    x, w = _gauss_legendre(n_nodes)
    partial = []
    total = 0.0
    a = start
    for _ in range(max_half_periods):
        mid, half = a + h / 2.0, h / 2.0
        total += float(np.sum(half * w * f(mid + half * x)))
        partial.append(total)
        a += h
        if len(partial) >= 8:
            row, prev = np.array(partial[-12:]), np.array(partial[-13:-1])
            for _ in range(6):
                row = 0.5 * (row[1:] + row[:-1])
                prev = 0.5 * (prev[1:] + prev[:-1])
            if abs(row[-1] - prev[-1]) <= rel_tol * max(abs(scale), 1e-300):
                return float(row[-1])
    raise QuadratureError("oscillatory tail did not converge")


class TestOscillatoryTail:
    OMEGA = np.array([0.3, 1.0, 2.5, 7.0, 40.0])

    @staticmethod
    def f(s, omega):
        return np.cos(omega * s) / s

    def test_rows_match_closed_form(self):
        # [DERIVED] int_a^inf cos(w s)/s ds = -Ci(w a), a = 40
        from scipy.special import sici
        tails = averaged_oscillatory_tail(self.f, 40.0, self.OMEGA, rel_tol=1e-12)
        assert tails.shape == self.OMEGA.shape
        assert tails == pytest.approx(-sici(self.OMEGA * 40.0)[1], abs=1e-10)

    def test_each_row_equals_a_one_row_call(self):
        # the rows stop at different rounds; each must carry the bits it
        # would have alone, whatever the other rows and their scales
        scale = np.array([1.0, 0.5, 3.0, 1e-3, 2.0])
        tails = averaged_oscillatory_tail(self.f, 40.0, self.OMEGA, rel_tol=1e-10, scale=scale)
        for i in range(self.OMEGA.size):
            omega = self.OMEGA[i]
            assert tails[i] == scalar_tail_reference(lambda s: self.f(s, omega), 40.0, omega,
                                                     1e-10, scale[i])
            one = averaged_oscillatory_tail(self.f, 40.0, self.OMEGA[i:i + 1], rel_tol=1e-10,
                                            scale=scale[i:i + 1])
            assert one.shape == (1,)
            assert one[0] == tails[i]
            assert averaged_oscillatory_tail(self.f, 40.0, self.OMEGA[i], rel_tol=1e-10,
                                             scale=scale[i]) == tails[i]

    def test_array_start_equals_one_call_per_row(self):
        # each row integrates from its own start, with the bits of a scalar call
        start = np.array([40.0, 3.0, 120.0, 40.0, 7.5])
        scale = np.array([1.0, 0.5, 3.0, 1e-3, 2.0])
        tails = averaged_oscillatory_tail(self.f, start[:, None], self.OMEGA[:, None],
                                          rel_tol=1e-10, scale=scale[:, None])
        assert tails.shape == (5, 1)
        for i in range(self.OMEGA.size):
            assert tails[i, 0] == averaged_oscillatory_tail(
                self.f, start[i], self.OMEGA[i], rel_tol=1e-10, scale=scale[i])

    def test_one_call_of_f_per_round(self):
        # every row starts at `start`, so round k is the k-th half period of
        # every row still running, and one call of f serves them all
        def rounds_of(omega):
            seen = []

            def f(s, o):
                seen.append(o.shape[0])
                assert s.shape == (o.shape[0], 8) and o.shape[1] == 1
                return self.f(s, o)

            averaged_oscillatory_tail(f, 40.0, omega)
            return seen

        alone = [len(rounds_of(w)) for w in self.OMEGA]
        assert rounds_of(self.OMEGA) == [sum(n > k for n in alone) for k in range(max(alone))]

    def test_divergent_row_raises(self):
        # [DERIVED] a non-oscillating integrand has no averaged sum
        with pytest.raises(QuadratureError, match="1 of 2"):
            averaged_oscillatory_tail(lambda s, o: np.where(o == 1.0, 1.0, np.cos(o * s) / s),
                                      3.0, np.array([1.0, 2.0]), max_half_periods=50)

    def test_omega_must_be_positive(self):
        with pytest.raises(ValueError):
            averaged_oscillatory_tail(self.f, 40.0, np.array([1.0, 0.0]))


class TestUniformPanelCount:
    @pytest.mark.parametrize("max_freq", [0.0, 1e-3, 0.3, 1.0, 7.5, 123.0])
    def test_matches_halfline_edges(self, max_freq):
        # halfline_edges depends on max_freq only through this count
        n = int(uniform_panel_count(400.0, max_freq))
        edges = halfline_edges(400.0, max_freq=max_freq)
        assert np.sum(edges >= 400.0 / n * (1.0 - 1e-12)) == n  # the uniform edges but 0
        assert np.array_equal(uniform_panel_count(400.0, np.array([max_freq, 0.0])),
                              [n, 16])


def set_halfline_edges(r_max, max_freq=0.0, min_scale=1e-9):
    """The edges built from a Python set of floats, as halfline_edges once did."""
    n_uniform = int(uniform_panel_count(r_max, max_freq))
    edges = set(np.linspace(0.0, r_max, n_uniform + 1).tolist())
    lo = r_max / n_uniform
    while lo > min_scale * r_max:
        lo /= 2.0
        edges.add(lo)
    return np.array(sorted(edges))


class TestHalflineEdges:
    def test_bit_identical_to_the_set_version(self):
        for r_max in (1.0, 3.0, 45.0, 400.0, 1600.0, 6400.0):
            for max_freq in (0.0, 1e-3, 0.37, 1.0, 2.5, 123.0):
                for min_scale in (1e-9, 1e-9 * 400.0 / 6400.0, 1e-3, 0.5):
                    got = halfline_edges(r_max, max_freq=max_freq, min_scale=min_scale)
                    expect = set_halfline_edges(r_max, max_freq=max_freq, min_scale=min_scale)
                    assert got.dtype == expect.dtype
                    assert got.tobytes() == expect.tobytes(), (r_max, max_freq, min_scale)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(r_max=-1.0)

    @pytest.mark.parametrize("kwargs", [{"r_max": math.nan}, {"r_max": math.inf},
                                        {"rel_tol": math.nan}, {"rel_tol": math.inf},
                                        {"rel_tol": 0.0}, {"rel_tol": -1e-8}])
    def test_refuses_non_finite_or_non_positive(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            QuadratureSpec(**kwargs)
