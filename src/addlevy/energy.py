"""Energy functionals: real-side mutual energies and Fourier-side energies.

The Fourier-side energy of a measure mu against an exponent tuple is
``(2 pi)^-d int |mu_hat|^2 K dxi``; the real-side mutual energy of two
measures in a gauge kappa is the symmetrized double sum over atoms.  In
d = 1 the Fourier-side integral is taken on the half-line.  In d = 2 and 3
with a rotation-invariant K it is taken on the real side: by Parseval it
equals ``sum_ij w_i w_j v(x_i - x_j)`` with v the one-potential density,
one radial inversion per distinct pair distance and no phase matrix.  The
module also carries the Parseval-type identity checks and the sojourn
second-moment formula built from the Lambda kernel.

The d = 1 energy, the Fourier sides of both identity checks and the
sojourn moment are one half-line integral, _halfline: panels up to r and a
power-law tail beyond.  Its error, like that of the d = 2, 3 energies, is
the change of the value from r = r_max / 2 to r_max (_two_resolution): it
covers the truncation and the tail as far as halving r moves them, not the
panel rule.  The energy and both identity checks read |mu_hat|^2 from
``AtomicMeasure.power``: the phase of mu_hat cancels, so a discretized
grid, Cantor set or point pair gives the product of its squared real
factors, with no complex exponential.

The real sides form arrays over all atom pairs, and the half-line integral
arrays over its nodes; those that would exceed the 2 GiB budget of
measures._check_budget raise a ValueError before they are allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from addlevy.exponents import DimensionMismatchError, ExponentVector
from addlevy.kernels import Kernel, lambda_closed, potential_density_v, riesz_constant, riesz_kernel
from addlevy.measures import AtomicMeasure, _check_budget
from addlevy.quadrature import (QuadratureSpec, halfline_edges, integrate_panels, powerlaw_tail,
                                uniform_panel_count)

# bytes per node that a half-line integral holds at its peak: the nodes, the
# weights and the integrand's arrays; tracemalloc peaks at 97.6 per node in the
# energy of a grid, 106 in the identity check of a phase-matrix nu
_NODE_BYTES = 112


@dataclass(frozen=True)
class EnergyReport:
    value: float
    tail_estimate: float
    converged: bool


def mutual_energy_real(k: Kernel, mu: AtomicMeasure, nu: AtomicMeasure,
                       drop_diagonal: bool = False) -> float:
    """Symmetrized double sum  sum_ij w_i v_j (kappa(x_i-y_j)+kappa(y_j-x_i))/2.

    Coincident pairs with an infinite gauge value and positive weight make
    the energy infinite.  ``drop_diagonal=True`` switches to the
    continuum-approximation mode used by the identity checks: exact
    coincident-point pairs are excluded from the sum (an O(h^{1-s}) bias for
    an h-grid and a ||x||^-s gauge).
    """
    if mu.dim != nu.dim or mu.dim != k.dim:
        raise DimensionMismatchError("kernel and measures must share dim")
    # the differences, their negation and the gauge at both: (2 d + 3) arrays
    # of n x m values at the peak of a Riesz gauge
    n, m = mu.n_atoms, nu.n_atoms
    _check_budget(8 * n * m * (2 * mu.dim + 3), f"the {n} x {m} pair arrays")
    diffs = mu.points[:, None, :] - nu.points[None, :, :]
    vals = 0.5 * (k.eval(diffs) + k.eval(-diffs))
    wprod = np.outer(mu.weights, nu.weights)
    coincident = np.all(diffs == 0.0, axis=-1)  # x - y == 0 exactly iff x == y
    if drop_diagonal:
        wprod = np.where(coincident, 0.0, wprod)
    else:
        if np.any((~np.isfinite(vals)) & (wprod > 0.0)):
            return np.inf
    vals = np.where(wprod > 0.0, vals, 0.0)
    return float(np.sum(vals * wprod))


def _max_frequency(*measures: AtomicMeasure) -> float:
    """Largest pairwise coordinate span among the atoms (d=1 oscillation rate)."""
    spans = []
    for m in measures:
        pts = m.points[:, 0]
        spans.append(float(pts.max() - pts.min()))
    return max(spans + [0.0])


def _two_resolution(upto: Callable[[float], float], r_max: float) -> tuple[float, float]:
    """upto(r_max), with its distance to upto(r_max / 2) as its error."""
    value = upto(r_max)
    return value, abs(value - upto(r_max / 2.0))


def _halfline(f: Callable[[np.ndarray], np.ndarray], r_max: float, norm: float,
              max_freq: float = 0.0, decay: float = 0.0, amp: float = 0.0) -> tuple[float, float]:
    """norm * int_0^inf f and its error, for an f ~ amp (s / r_max)^-decay beyond r_max.

    The panels are period-matched to max_freq.  amp = 0 adds no tail; a tail
    with decay <= 1 is not integrable and gives value and error inf.  Nodes
    that would take more than the 2 GiB budget of measures._check_budget,
    or are not finite in number, are a ValueError before any is allocated.
    """
    if amp and decay <= 1.0:
        return np.inf, np.inf
    # 12 nodes per panel; the cascade toward 0 adds fewer than 32 panels
    nodes = 12.0 * (float(uniform_panel_count(r_max, max_freq)) + 32.0)
    if not math.isfinite(nodes):
        raise ValueError(f"the half-line panels up to {r_max:g} at frequency {max_freq:g} "
                         f"are not finite in number")
    _check_budget(_NODE_BYTES * nodes, f"the {nodes:.4g} half-line nodes")

    def upto(r):
        tail = powerlaw_tail(amp * (r_max / r) ** decay, r, decay) if amp else 0.0
        return norm * (integrate_panels(f, halfline_edges(r, max_freq=max_freq)) + tail)

    return _two_resolution(upto, r_max)


def energy_fourier(psi: ExponentVector, mu: AtomicMeasure,
                   quad: Optional[QuadratureSpec] = None) -> EnergyReport:
    """Fourier-side energy (2 pi)^-d int |mu_hat|^2 K dxi of an atomic measure.

    Atomic measures carry a persistent |mu_hat|^2 amplitude (sum of squared
    weights), so the energy is finite exactly when K is integrable; the
    analytic tail-exponent rule certifies divergence without quadrature.
    The value is computed again at r_max / 2 and the difference, the
    reported error, is held to ``quad.rel_tol``.  A direction-dependent K
    in d >= 2 has no radial route and reports nan, unconverged.
    """
    if mu.dim != psi.dim:
        raise DimensionMismatchError("measure and exponent dims differ")
    if quad is None:
        quad = QuadratureSpec(r_max=400.0, rel_tol=1e-6)
    d = psi.dim
    decay = psi.kernel_decay_exponent()
    if decay is not None and decay <= d:
        return EnergyReport(value=np.inf, tail_estimate=np.inf, converged=False)
    if d == 1:
        def f(s):
            return mu.power(s) * psi.kernel_values(s)

        # the mean |mu_hat|^2 at large xi, times K at r_max
        amp = float(np.sum(mu.weights ** 2)) * float(psi.kernel_values(np.array([quad.r_max]))[0])
        value, error = _halfline(f, quad.r_max, 1.0 / math.pi, _max_frequency(mu), decay, amp)
    elif d > 3:
        raise ValueError("energy supports d <= 3")
    elif decay is None:
        return EnergyReport(value=np.nan, tail_estimate=np.inf, converged=False)
    else:
        # the n x n x d differences and four n x n arrays: potential_density_v holds
        # two at a time, its weight matrices (per distinct radius) 1.6 more in a 40^2
        # grid; tracemalloc peaks at 5.93 x 8 n^2 bytes there, 5.25 in a 12^3 grid
        n = mu.n_atoms
        _check_budget(8 * n * n * (d + 4), f"the {n} x {n} pair arrays")
        diffs = mu.points[:, None, :] - mu.points[None, :, :]

        def upto(r):
            v = potential_density_v(psi, diffs, QuadratureSpec(r_max=r, rel_tol=quad.rel_tol))
            return float(mu.weights @ v @ mu.weights)

        value, error = _two_resolution(upto, quad.r_max)
    return EnergyReport(value=value, tail_estimate=error,
                        converged=error <= quad.rel_tol * max(abs(value), 1e-300))


def energy_identity_check(k: Kernel, nu: AtomicMeasure,
                          mu: AtomicMeasure) -> tuple[float, float, float]:
    """Both sides of the convolved-gauge identity; returns (real, fourier, error).

    Real side: mutual energy of mu against itself in the convolved gauge
    (kappa * nu)(x) = sum_k w_k kappa(x - y_k).  Fourier side:
    (2 pi)^-d int kappa_hat Re(nu_hat) |mu_hat|^2 dxi up to 2000, plus a
    power-law tail whose decay is read off kappa_hat over the last octave;
    error is the Fourier side's (_halfline).  A transform decaying no faster
    than 1/xi gives an infinite Fourier side and error.
    """
    if k.fourier is None:
        raise ValueError("kernel must carry a Fourier transform")
    if k.dim != 1:
        raise ValueError("identity check supports d=1 in v1")
    # real side: the shifted differences, their negation and the gauge at
    # both, 5 arrays of n x n x m values in d = 1
    n, m = mu.n_atoms, nu.n_atoms
    _check_budget(40 * n * n * m, f"the {n} x {n} x {m} convolved pair arrays")
    diffs = mu.points[:, None, :] - mu.points[None, :, :]          # (n, n, d)
    shifted = diffs[:, :, None, :] - nu.points[None, None, :, :]   # (n, n, m, d)
    conv = np.tensordot(0.5 * (k.eval(shifted) + k.eval(-shifted)),
                        nu.weights, axes=([2], [0]))
    real_side = float(mu.weights @ conv @ mu.weights)

    # fourier side (even integrand in d=1 for symmetric kernels)
    def f(s):
        return k.fourier(s) * np.real(nu.fourier(s)) * mu.power(s)

    r_max = 2000.0
    k_mid, k_end = (float(v) for v in np.atleast_1d(k.fourier(np.array([r_max / 2.0, r_max]))))
    amp = decay = 0.0
    if k_end > 0.0 and k_mid > 0.0:
        amp = float(np.sum(mu.weights ** 2)) * k_end
        decay = math.log(k_mid / k_end) / math.log(2.0)
    fourier_side, error = _halfline(f, r_max, 1.0 / math.pi, _max_frequency(mu, nu), decay, amp)
    return real_side, fourier_side, error


def riesz_identity_sides(mu: AtomicMeasure, s: float) -> tuple[float, float, float]:
    """Both sides of the Riesz energy identity for a grid discretization.

    Real side drops exact-diagonal terms; the Fourier side integrates the
    atomic |mu_hat|^2 up to the grid Nyquist frequency pi/mu.cell (where the
    atomic transform tracks the continuum one) plus the tail of an
    interval's |mu_hat|^2 ~ 2 xi^-2.  Returns (real, fourier, error): both
    sides estimate the continuum energy ``int int ||x-y||^-s dmu dmu``, and
    error is the Fourier side's (_halfline).  mu.cell, the grid's cell
    width, must be positive.
    """
    d, cell = mu.dim, mu.cell
    if d != 1:
        raise ValueError("Riesz identity check supports d=1 in v1")
    if not cell > 0.0:
        raise ValueError(f"the measure's cell must be positive, got {cell}")
    alpha = d - s
    gauge = riesz_kernel(d, alpha)
    real_side = mutual_energy_real(gauge, mu, mu, drop_diagonal=True)
    # reinstate the diagonal with its exact within-cell double average
    # E |X - Y|^-s over one cell: 2 h^-s / ((1-s)(2-s))
    diag_avg = 2.0 * cell ** (-s) / ((1.0 - s) * (2.0 - s))
    real_side += diag_avg * float(np.sum(mu.weights ** 2))

    def f(x):
        return mu.power(x) * x ** (-s)

    cutoff = math.pi / cell
    fourier_side, error = _halfline(f, cutoff, riesz_constant(d, alpha) / math.pi,
                                    _max_frequency(mu), 2.0 + s, 2.0 * cutoff ** (-2.0 - s))
    return real_side, fourier_side, error


def sojourn_second_moment(psi: ExponentVector, fhat: Callable[[np.ndarray], np.ndarray],
                          sigma: float = 1.0) -> tuple[float, float]:
    """E|Sf|^2 = 4^-N (2 pi)^-d int |f_hat|^2 prod_j Lambda(Psi_j) dxi (d=1).

    fhat is the closed-form transform of the test function f, and sigma the
    width of f.  The integral is taken up to 60 / sigma with no tail, where
    |f_hat|^2 = exp(-sigma^2 xi^2) of a Gaussian f has fallen to e^-3600;
    returns (value, error), the error being the change from a cut at
    30 / sigma (_halfline).
    """
    if psi.dim != 1:
        raise ValueError("sojourn second moment supports d=1 in v1")

    def f(sgrid):
        prod = np.ones(np.shape(sgrid))
        for comp in psi.components:
            prod *= lambda_closed(comp(sgrid))
        return np.abs(np.asarray(fhat(sgrid))) ** 2 * prod

    return _halfline(f, 60.0 / sigma, 4.0 ** (-psi.n) / math.pi)
