"""Panel quadrature building blocks."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from addlevy.quadrature import (
    QuadratureSpec,
    _gauss_legendre,
    halfline_edges,
    integrate_panels,
    panel_nodes,
    powerlaw_tail,
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


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(r_max=-1.0)
