"""Gauges: Riesz kernels, the Lambda sojourn kernel, one-potential densities.

A kernel is a nonnegative gauge on R^d, finite off the origin and possibly
infinite at 0, optionally carrying a closed-form Fourier transform.  The
symmetrized one-potential density v of an additive Levy process is computed
by radial Fourier inversion of the product kernel (v_hat = K), supported in
d = 1, 2 and 3, with K evaluated on the radii (ExponentVector.kernel_radial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from addlevy.exponents import ExponentVector, _as_points, _squared_radius
from addlevy.quadrature import (
    QuadratureError,
    QuadratureSpec,
    averaged_oscillatory_tail,
    halfline_edges,
    panel_nodes,
    powerlaw_tail,
    uniform_panel_count,
)


@dataclass(frozen=True)
class Kernel:
    """Nonnegative gauge with optional known Fourier transform.

    eval maps arrays of shape (..., d) to nonnegative values (np.inf is
    allowed at the origin); fourier, when present, maps frequencies to the
    nonnegative transform values ("kernel of positive type").  meta["riesz"]
    holds the d, alpha and constant of a Riesz kernel, for its closed forms.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    dim: int
    fourier: Optional[Callable[[np.ndarray], np.ndarray]] = None
    meta: dict = field(default_factory=dict)


def _radius(x: np.ndarray, dim: int) -> np.ndarray:
    """np.linalg.norm(x, axis=-1), bit for bit, with fewer temporaries."""
    pts, lead = _as_points(x, dim)
    q = _squared_radius(pts)
    return np.sqrt(q, out=q).reshape(lead)


def riesz_constant(d: int, alpha: float) -> float:
    """Constant c with kappa_alpha_hat = c * ||xi||^-alpha, in closed form.

    c = pi^(d/2) 2^alpha Gamma(alpha/2) / Gamma((d-alpha)/2), the Fourier
    transform of ||x||^(alpha-d) in R^d.
    """
    if not 0.0 < alpha < d:
        raise ValueError(f"alpha must lie in (0, {d}), got {alpha}")
    return (math.pi ** (d / 2.0) * 2.0 ** alpha
            * (math.gamma(alpha / 2.0) / math.gamma((d - alpha) / 2.0)))


def riesz_kernel(d: int, alpha: float) -> Kernel:
    """The Riesz kernel ||x||^(alpha-d) with transform c * ||xi||^-alpha."""
    c = riesz_constant(d, alpha)  # refuses an alpha outside (0, d)

    # both powers are negative, so r = 0 gives np.inf
    def ev(x):
        r = _radius(x, d)
        with np.errstate(divide="ignore"):
            return np.power(r, alpha - d, out=r)

    def four(xi):
        with np.errstate(divide="ignore"):
            return c * _radius(xi, d) ** (-alpha)

    return Kernel(eval=ev, dim=d, fourier=four,
                  meta={"riesz": {"d": d, "alpha": alpha, "constant": c}})


# ---------------------------------------------------------------------------
# the Lambda kernel
# ---------------------------------------------------------------------------

def lambda_closed(z):
    """Closed form of the double-exponential sojourn kernel.

    Lambda(z) = 2 Re(1/(1+z)) + 2 ((1+Re z)^2 - (Im z)^2) / |1+z|^4,
    valid for Re z >= 0.  Elementwise on arrays; a scalar gives a float.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < 0.0):
        raise ValueError(f"Re z must be >= 0, got {(z.item() if z.ndim == 0 else z)!r}")
    w = 1.0 + z
    aw = np.abs(w)
    out = 2.0 * (w.real / aw ** 2) + 2.0 * ((1.0 + z.real) ** 2 - z.imag ** 2) / aw ** 4
    return float(out) if out.ndim == 0 else out


def lambda_bruteforce(z: complex, quad: Optional[QuadratureSpec] = None) -> float:
    """The defining double integral of the Lambda kernel, by 2D quadrature.

    Integrates exp(-|t| - |s| - |t-s| sigma(z; t-s)) over [-T, T]^2, where
    sigma is z for t >= s and conj(z) otherwise.  By s <-> t symmetry Lambda
    is twice the real part of the integral over {s <= t}, whose three pieces
    (split along the axes) are taken in (u, t), u = t - s >= 0.  There the
    integrand is e^{-u(1+z)} times a factor of modulus at most 1 on the
    section at u: e^{2t} on [u - T, 0] (s <= t <= 0), 1 on
    [max(0, u - T), min(T, u)] (s <= 0 <= t), and e^{-2(t-u)} on [u, T]
    (0 <= s <= t); the first and last both integrate to
    int_0^{T-u} e^{-2r} dr.  In u the Gauss-Legendre panels are
    period-matched to |Im z| and refined toward 0, where the decay of
    e^{-u(1+z)} is fastest; the sections are panels between consecutive
    section lengths, summed cumulatively.  The difference between 8 and 12
    nodes per panel is held to ``quad.rel_tol``.
    """
    z = complex(z)
    if z.real < 0.0:
        raise ValueError(f"Re z must be >= 0, got {z!r}")
    if quad is None:
        quad = QuadratureSpec(r_max=40.0, rel_tol=1e-9)
    bigt = min(quad.r_max, 45.0)
    edges = halfline_edges(bigt, max_freq=abs(z.imag))
    estimates = []
    for n_nodes in (8, 12):
        u, wu = panel_nodes(edges, n_nodes)
        # u increases, so the section lengths T - u decrease
        lengths = (bigt - u)[::-1]
        r, wr = panel_nodes(np.concatenate(([0.0], lengths)), n_nodes)
        side = np.cumsum((wr * np.exp(-2.0 * r)).reshape(-1, n_nodes).sum(axis=1))[::-1]
        # the mixed piece at u <= T has a section of length u, at u + T one of T - u
        lower = (np.sum(wu * np.exp(-u * (1.0 + z)) * (2.0 * side + u))
                 + np.sum(wu * np.exp(-(u + bigt) * (1.0 + z)) * (bigt - u)))
        estimates.append(2.0 * lower.real)
    coarse, value = estimates
    bound = quad.rel_tol * max(abs(value), 1e-12)
    if abs(value - coarse) > bound:
        raise QuadratureError(
            f"quadrature error {abs(value - coarse):.3e} above tolerance at z={z}")
    tail_bound = 8.0 * math.exp(-bigt)
    if tail_bound > bound:
        raise QuadratureError(
            f"truncation tail {tail_bound:.3e} above tolerance at T={bigt}"
        )
    return float(value)


# ---------------------------------------------------------------------------
# one-potential densities by radial Fourier inversion
# ---------------------------------------------------------------------------

# J0 below _J0_TABLE_END: a polynomial of degree _J0_DEGREE on each piece
# [j - 1/2, j + 1/2] / _J0_PIECES_PER_UNIT, fitted at first use.
_J0_PIECES_PER_UNIT = 16
_J0_DEGREE = 6
_J0_TABLE_END = 512.0
_J0_HANKEL_FROM = 40.0  # the series' first omitted term is below 1e-20 there
# |a_k| = prod_{j <= k} (2j - 1)^2 / (8 j) of the Hankel expansion of J0
_HANKEL_A = np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8.0 * k) for k in range(1, 18)])


def _j0_hankel(x: np.ndarray) -> np.ndarray:
    """J0(x) for x >= _J0_HANKEL_FROM, by the Hankel asymptotic series.

    J0 = sqrt(2 / (pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)), with 9 terms
    each of P = sum_k (-1)^k |a_2k| x^-2k and Q = -sum_k (-1)^k |a_2k+1|
    x^-(2k+1), is evaluated as ((P + Q) cos x + (P - Q) sin x) / sqrt(pi x):
    the cosine and sine of x itself, so no rounding of x - pi/4 enters.
    """
    signs = (-1.0) ** np.arange(9)
    z = 1.0 / (x * x)
    p = np.polynomial.polynomial.polyval(z, signs * _HANKEL_A[0::2])
    q = -np.polynomial.polynomial.polyval(z, signs * _HANKEL_A[1::2]) / x
    return ((p + q) * np.cos(x) + (p - q) * np.sin(x)) / np.sqrt(np.pi * x)


@lru_cache(maxsize=None)
def _j0_table() -> np.ndarray:
    """Coefficients (degree + 1, pieces) of J0 on each piece j, in the
    variable t = _J0_PIECES_PER_UNIT x - j of [-1/2, 1/2].

    Piece j interpolates at the Chebyshev points of t, rounded to multiples
    of 2^-24 so that each abscissa x is exact.  The middle one is t = 0, and
    c_0 is set to the value there, which only rounding separates from the
    fit: each piece takes its centre value exactly, J0(0) = 1 included.  The
    values below _J0_HANKEL_FROM come from the midpoint rule for
    (1/pi) int_0^pi cos(x sin u) du with 64 nodes, whose error is about
    2 J_128(x), taken on the half [0, pi/2] by symmetry; above, from
    _j0_hankel.  Built once, on the first call, and read-only.
    """
    k = np.arange(_J0_DEGREE + 1)
    t = np.ldexp(np.round(np.ldexp(0.5 * np.cos(np.pi * (k + 0.5) / k.size), 24)), -24)
    pieces = np.arange(_J0_TABLE_END * _J0_PIECES_PER_UNIT + 1)
    x = np.abs(pieces[:, None] + t) / _J0_PIECES_PER_UNIT
    near = x < _J0_HANKEL_FROM
    values = np.empty_like(x)
    u = (np.arange(32) + 0.5) * (np.pi / 64)
    values[near] = np.cos(np.multiply.outer(x[near], np.sin(u))).mean(axis=-1)
    values[~near] = _j0_hankel(x[~near])
    coefs = np.linalg.solve(np.vander(t, increasing=True), values.T)
    coefs[0] = values[:, _J0_DEGREE // 2]
    coefs.setflags(write=False)
    return coefs


def _j0(x) -> np.ndarray:
    """The Bessel function J0, elementwise, for finite x.

    Below _J0_TABLE_END from the piecewise polynomials of _j0_table, beyond
    from _j0_hankel.  Against 30-digit values it is within 7e-16 below 40,
    where the midpoint rule rounds x sin u, and 5e-17 from there to 1e6; a
    value does not depend on the other elements of x.
    """
    shape = np.shape(x)
    x = np.abs(np.ravel(np.asarray(x, dtype=float)))
    coefs = _j0_table()
    u = np.fmin(x, _J0_TABLE_END) * _J0_PIECES_PER_UNIT
    piece = np.rint(u)
    t = u - piece  # exact: u is within a factor 2 of its nearest integer, or that is 0
    piece = piece.astype(np.intp)
    out = coefs[-1].take(piece)
    for c in coefs[-2::-1]:
        out *= t
        out += c.take(piece)
    near = x < _J0_TABLE_END  # False at NaN, which the series returns
    if not near.all():
        out[~near] = _j0_hankel(x[~near])
    return out.reshape(shape)


def _radial_weight(s, r, d: int) -> np.ndarray:
    """w(s, r) of the radial transform of v at radius r > 0: cos(s r) in
    d=1, s J0(s r) in d=2, s sin(s r) in d=3."""
    if d == 1:
        return np.cos(s * r)
    if d == 2:
        return s * _j0(s * r)
    return s * np.sin(s * r)


def _radial_norm(radii: np.ndarray, d: int):
    """c of v = int_0^inf w K ds / c: pi in d=1, 2 pi in d=2, 2 pi^2 r in
    d=3 (2 pi^2 at r=0)."""
    if d == 3:
        return 2.0 * math.pi ** 2 * np.where(radii > 0.0, radii, 1.0)
    return d * math.pi


def _min_scale(r_max: float) -> float:
    """Depth of the cascade toward 0, relative to r_max.  K bends near 0 on
    its own scale, not on r_max's: beyond r_max = 400 the cascade still stops
    at the 4e-7 it reaches at r_max = 400."""
    return 1e-9 * min(1.0, 400.0 / r_max)


def _radial_inverse(psis, y: np.ndarray, quad: QuadratureSpec, shells: int = 1) -> np.ndarray:
    """Row [i, k], k < shells: v of psis[i] at the radii 2^-k y (y >= 0),
    inverted with r_max = 2^k quad.r_max.

    The exponent vectors psis share one dimension d.  v(r) is the radial
    transform int_0^inf w(s) K(s) ds / c, with w and c from _radial_weight
    and _radial_norm, and w(s) = s^(d-1) at r = 0.  With s = 2^k t, shell
    k's transform up to its r_max is 2^(k p) int_0^quad.r_max w(t) K(2^k t) dt
    at the radius y, p = 1 in d=1 and 2 in d=2, 3 (ds and the factor s of w;
    d=3 keeps its 1/r in the norm), and p = d at y = 0: one node set in t and
    one weight matrix serve every shell of every exponent, and only K
    differs.

    The node set of y is that of its octave top 2^ceil(log2 y), whose
    uniform panels are no wider than y's own, with the cascade toward 0 as
    deep as the last shell's.  The radii whose tops share a panel count
    share it.  It depends on y alone, and each row is reduced on its own, so
    a value does not depend on the other radii or exponents of the call.
    Beyond r_max the tail is a power law at y = 0 and the averaged
    oscillatory tail elsewhere, which also sums the growing envelopes of d=2
    and d=3 when K decays slowly; the tails of all rows of an exponent run
    in one call, each from its own r_max.
    """
    d = psis[0].dim
    scales = 2.0 ** np.arange(shells)
    pos = y > 0.0
    # v(0) is finite only when the analytic tail rule makes K integrable
    decays = [None if pos.all() else psi.kernel_decay_exponent() for psi in psis]
    finite = np.array([pos | (decay is not None and decay > d) for decay in decays])
    mantissa, exponent = np.frexp(y)  # y = m 2^e, m in [1/2, 1); 0 at y = 0
    top = np.ldexp(np.ceil(2.0 * mantissa), exponent - 1)
    counts = uniform_panel_count(quad.r_max, top)
    min_scale = _min_scale(quad.r_max * scales[-1])
    main = np.zeros((len(psis), shells, y.size))
    wanted = finite.any(axis=0)
    for count in np.unique(counts[wanted]):
        group = np.flatnonzero(wanted & (counts == count))
        nodes, weights = panel_nodes(
            halfline_edges(quad.r_max, max_freq=top[group[0]], min_scale=min_scale))
        w = weights * np.where(pos[group, None], _radial_weight(nodes, y[group, None], d),
                               nodes ** (d - 1))
        for i, psi in enumerate(psis):
            for k, c in enumerate(scales):
                # row by row: a matrix product would round each row by the group's size
                main[i, k, group] = np.einsum("ij,j->i", w, psi.kernel_radial(c * nodes))
    main *= scales[:, None] ** np.where(pos, min(d, 2), d)
    radii = y / scales[:, None]
    ends = quad.r_max * scales
    tail = np.zeros_like(main)
    for psi, decay, part, rows in zip(psis, decays, main, tail):
        rows[:, pos] = averaged_oscillatory_tail(
            lambda s, r: _radial_weight(s, r, d) * psi.kernel_radial(s), ends[:, None],
            radii[:, pos], rel_tol=quad.rel_tol, scale=np.maximum(np.abs(part[:, pos]), 1.0))
        if decay is not None and decay > d:
            rows[:, ~pos] = powerlaw_tail(ends ** (d - 1) * psi.kernel_radial(ends), ends,
                                          decay - (d - 1))[:, None]
    return np.where(finite[:, None, :], (main + tail) / _radial_norm(radii, d), np.inf)


def potential_density_v(psi: ExponentVector, x, quad: Optional[QuadratureSpec] = None):
    """Symmetrized one-potential density v(x) of the additive field, d <= 3.

    v is the inverse Fourier transform of the product kernel K:
    v(x) = (2 pi)^-d int cos(xi.x) K(xi) dxi, reduced to a radial transform
    (see _radial_inverse).  v is np.inf at the origin when the analytic tail
    test certifies that K is not integrable.  In d >= 2 that reduction needs
    a rotation-invariant K, one with an analytic tail exponent: a
    direction-dependent K, such as a drift's, is a ValueError.

    x is one point or an array of points (..., d).  Radii are rounded to 14
    significant digits and v is computed once per distinct rounded radius,
    at that radius, so a value does not depend on the other points of the
    call.  A single point gives a float, an array of points an array of
    their shape.
    """
    if psi.dim not in (1, 2, 3):
        raise ValueError("numeric inversion supports d in {1, 2, 3} only")
    if psi.dim > 1 and psi.kernel_decay_exponent() is None:
        raise ValueError(f"no radial inversion of a direction-dependent kernel in d = {psi.dim}")
    if quad is None:
        quad = QuadratureSpec(r_max=400.0, rel_tol=1e-8)
    # in place: besides x, two arrays of the radii's size at a time
    r = _radius(x, psi.dim)
    unit = np.where(r > 0.0, r, 1.0)
    np.floor(np.log10(unit, out=unit), out=unit)
    unit -= 13.0
    np.power(10.0, unit, out=unit)
    np.round(np.divide(r, unit, out=r), out=r)
    r *= unit
    del unit
    radii = np.unique(r)
    inverse = np.searchsorted(radii, r)
    del r
    out = _radial_inverse((psi,), radii, quad)[0, 0, inverse]
    return float(out) if out.ndim == 0 else out


@dataclass
class PotentialDensity:
    """The symmetrized one-potential density of ``source`` as a callable gauge."""

    source: ExponentVector

    def __call__(self, x):
        return potential_density_v(self.source, x)

    def as_kernel(self) -> Kernel:
        """Expose v as a gauge with fourier = K (the defining transform)."""
        return Kernel(eval=self, dim=self.source.dim,
                      fourier=lambda xi: self.source.kernel_values(xi))


def kernel_sup_check(k: Kernel, samples) -> bool:
    """True iff the kernel value at the origin dominates all sampled values, to 1e-9.

    Kernels of positive type achieve their supremum at the origin; this is
    the numeric check of that statement on a finite sample.
    """
    origin = float(k.eval(np.zeros((1, k.dim)))[0])
    if math.isinf(origin):
        return True
    vals = k.eval(np.atleast_2d(np.asarray(samples, dtype=float)))
    return bool(origin >= np.max(vals) - 1e-9)
