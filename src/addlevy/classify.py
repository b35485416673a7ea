"""Hitting, intersection, and dimension classifiers.

Stable families and the point test admit closed forms by tail-exponent
arithmetic; the point test and the planar angle average read each
component's real part R_j and drift b_j off the exponent (``_radial``, ``drift``).
The numeric probes decide the defining integral tests from partial
integrals over dyadic shells and the log-log slope of their increments:
the intersection-dimension test on the real side, through the
one-potential densities of the stable components (d <= 3), and the planar
point test from the angle average of the product kernel, taken by a 1-D
rule in the angle graded toward the ridges of the drifts.  Boundary
(equality) cases follow the strict inequalities of the theory: equality
means a negative verdict, and logarithmically divergent criterion
integrals are classified Divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from addlevy.exponents import ExponentVector, IsotropicStable
from addlevy.kernels import _radial_inverse
from addlevy.quadrature import QuadratureSpec, panel_nodes

# Dyadic shells [2^-k-1, 2^-k], k < _PROBE_SHELLS, of the real-side
# dimension probe: the slope transients are series in r^(d - alpha) and
# r^alpha, which shrink slowly when alpha is near 0 or near d.
_PROBE_SHELLS = 36
_SLOPE_SPAN = 4  # shells per block slope, and the offset of the second depth
_SLOPE_BAND = 0.03  # half-width of the slope region left Inconclusive


class InconclusiveError(RuntimeError):
    """A numeric probe could not reach a verdict."""


@dataclass(frozen=True)
class StableSystem:
    """N independent isotropic stable processes in R^d with indices alphas."""

    alphas: tuple
    d: int

    def __post_init__(self):
        alphas = tuple(float(a) for a in np.atleast_1d(self.alphas))
        if not alphas:
            raise ValueError("need at least one stability index")
        for a in alphas:
            if not 0.0 < a <= 2.0:
                raise ValueError(f"stability index must lie in (0, 2], got {a}")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        object.__setattr__(self, "alphas", alphas)

    @property
    def n(self) -> int:
        return len(self.alphas)


def _potential_shells(sys: StableSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and prod_j u_j(x) on the dyadic shells, one row each.

    Row k holds an 8-node Gauss-Legendre rule on [2^-k-1, 2^-k] and the
    product of the one-potential densities u_j of the components at its
    nodes, inverted with r_max = 400 * 2^k so that every shell sees the
    same number of oscillations.  Row k's nodes are 2^-k times row 0's,
    bit for bit, so one radial inversion (kernels._radial_inverse) of row
    0's nodes serves all shells of all distinct alphas: the nodes lie in
    one octave, (1/2, 1), so they share one node set, and under s = 2^k t
    one weight matrix, and only K(2^k t) differs by shell and alpha.
    """
    edges = 2.0 ** -np.arange(_PROBE_SHELLS, -1.0, -1.0)
    x, w = (a.reshape(_PROBE_SHELLS, -1)[::-1] for a in panel_nodes(edges, 8))
    alphas = sorted(set(sys.alphas))
    psis = [ExponentVector((IsotropicStable(alpha=a, dim=sys.d),)) for a in alphas]
    u = _radial_inverse(psis, x[0], QuadratureSpec(r_max=400.0), shells=_PROBE_SHELLS)
    density = np.ones_like(x)
    for alpha, u_alpha in zip(alphas, u):
        density *= u_alpha ** sys.alphas.count(alpha)
    return x, w, density


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of a numeric integral-convergence probe with its evidence."""

    kind: str  # "Convergent", "Divergent", "Inconclusive"
    slope: Optional[float] = None
    partials: tuple = ()
    error: Optional[float] = None  # of the slope, from two depths

    def __post_init__(self):
        if self.kind not in ("Convergent", "Divergent", "Inconclusive"):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.kind == "Divergent" and self.slope is None:
            raise ValueError("Divergent verdict must carry a growth exponent estimate")


# ---------------------------------------------------------------------------
# analytic classifiers (tail-exponent arithmetic for stable systems)
# ---------------------------------------------------------------------------

def range_has_positive_measure(sys: StableSystem) -> bool:
    """Expected Lebesgue measure of the additive range is positive iff
    sum(alpha) > d (integrability of the product kernel over R^d)."""
    return sum(sys.alphas) > sys.d


def range_dimension(sys: StableSystem) -> float:
    """Hausdorff dimension of the additive range: min(d, sum(alpha))."""
    return min(float(sys.d), sum(sys.alphas))


def _range_dimension_sum(sys: StableSystem) -> float:
    """sum_j min(alpha_j, d), the dimensions of the N ranges: a range with
    alpha_j > d (only d = 1) has positive measure and dimension d, and the
    codimensions d - min(alpha_j, d) add (Hawkes, "Intersections of Markov
    random sets", 1977; Khoshnevisan-Xiao-Zhong 2003)."""
    return sum(min(a, sys.d) for a in sys.alphas)


def intersections_exist(sys: StableSystem) -> bool:
    """N trajectories intersect with positive probability iff
    (N-1) d < sum_j min(alpha_j, d); equality fails (strict inequality)."""
    return (sys.n - 1) * sys.d < _range_dimension_sum(sys)


def intersection_dimension(sys: StableSystem) -> float:
    """dim of the mutual intersection set: max(0, sum_j min(alpha_j, d) -
    (N-1) d), capped at d because the set lies in R^d."""
    return min(float(sys.d), max(0.0, _range_dimension_sum(sys) - (sys.n - 1) * sys.d))


def multiple_points_allowed(alpha: float, d: int, N: int) -> bool:
    """N-multiple points of one stable process: u ~ ||x||^(alpha-d) must be
    locally L^N, i.e. N (d - alpha) < d; always true when alpha >= d."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"stability index must lie in (0, 2], got {alpha}")
    if alpha >= d:
        return True
    return N * (d - alpha) < d


def subordinator_meet(alpha1: float, alpha2: float) -> bool:
    """Two stable subordinators meet with positive probability iff
    alpha1 + alpha2 > 1 (local integrability of y^(a1-1) y^(a2-1) at 0;
    the boundary case diverges logarithmically and fails)."""
    for a in (alpha1, alpha2):
        if not 0.0 < a < 1.0:
            raise ValueError(f"subordinator index must lie in (0, 1), got {a}")
    return alpha1 + alpha2 > 1.0


# ---------------------------------------------------------------------------
# numeric convergence probes
# ---------------------------------------------------------------------------

def _extrapolated_slope(log_radii: np.ndarray, log_inc: np.ndarray) -> float:
    """Limit of the log-log slope of increments against their radii.

    Slopes are taken over blocks of _SLOPE_SPAN increments.  They approach
    their limit with a geometrically shrinking transient, so a final Aitken
    delta-squared step on the last three blocks removes most of it; wider
    blocks damp the quadrature noise that the step amplifies.
    """
    span = _SLOPE_SPAN
    local = (log_inc[span:] - log_inc[:-span]) / (log_radii[span:] - log_radii[:-span])
    a, b, c = local[-1 - 2 * span], local[-1 - span], local[-1]
    denom = (c - b) - (b - a)
    if abs(denom) < 1e-12 or abs((c - b) ** 2 / denom) > 0.5:
        return float(c)
    return float(c - (c - b) ** 2 / denom)


def _shell_verdict(radii: np.ndarray, increments: np.ndarray) -> ConvergenceVerdict:
    """Classify a sum of positive shell increments by their growth in radii.

    The increments grow like radii^slope; the extrapolated log-log slope is
    taken at two depths, the last shell and _SLOPE_SPAN shells before it,
    and their difference is its error.  The verdict is Convergent
    (slope < 0) or Divergent only when |slope| - error clears _SLOPE_BAND.
    """
    log_r, log_inc = np.log(radii), np.log(increments)
    slope = _extrapolated_slope(log_r, log_inc)
    error = abs(slope - _extrapolated_slope(log_r[:-_SLOPE_SPAN], log_inc[:-_SLOPE_SPAN]))
    kind = "Inconclusive"
    if abs(slope) - error > _SLOPE_BAND:  # False for a NaN slope
        kind = "Convergent" if slope < 0.0 else "Divergent"
    return ConvergenceVerdict(kind=kind, slope=slope, error=error,
                              partials=tuple(np.cumsum(increments).tolist()))


def probe_intersection_dimension_test(sys: StableSystem, s: float) -> ConvergenceVerdict:
    """Numeric convergence verdict of the intersection-dimension test at s.

    By Parseval the Fourier test integral is finite exactly when
    r^(d-1-s) prod_j u_j(r) is integrable at 0, with u_j the one-potential
    density of the alpha_j-stable process.  Its integrals over the dyadic
    shells [2^-k-1, 2^-k] grow like 2^(k (s - s*)), so the extrapolated
    log-log slope against 2^k estimates s - s* (see _shell_verdict).  The
    one-potential densities are inverted only in d <= 3; in higher d the
    analytic intersection_dimension decides.
    """
    if not 0.0 <= s < sys.d:
        raise ValueError(f"test order s must lie in [0, d), got {s}")
    if sys.d > 3:
        raise ValueError("numeric probe needs d <= 3; use the analytic route")
    x, w, density = _potential_shells(sys)
    increments = np.sum(w * x ** (sys.d - 1 - s) * density, axis=1)
    radii = 2.0 ** np.arange(1.0, len(increments) + 1.0)  # 1 / inner radius of each shell
    return _shell_verdict(radii, increments)


def _ridge_rule(ridges: np.ndarray, width: np.ndarray):
    """Gauss-Legendre rule on the half circle [0, pi), graded toward ridges.

    ridges holds distinct sorted angles in [0, pi), width (rows,) the
    narrowest panel width of each row.  The circle of period pi is cut
    midway between neighbouring ridges; the arc of each ridge has panel edges
    at its ends, at the ridge and at +-width * 2^k from it.  Node n of a row
    lies at angle ridges[home[n]] + offsets[row, n]: offsets from the ridge
    keep their precision however close to it.  Returns (home, offsets,
    weights).
    """
    right = 0.5 * np.diff(np.append(ridges, ridges[0] + np.pi))
    left = np.roll(right, 1)
    levels = max(1, math.ceil(math.log2(np.pi / min(width.min(), np.pi))))
    grid = width[:, None] * 2.0 ** np.arange(levels)
    home, offsets, weights = [], [], []
    for i in range(ridges.size):
        ends = np.broadcast_to([-left[i], 0.0, right[i]], (width.size, 3))
        edges = np.sort(np.clip(np.concatenate((-grid, ends, grid), axis=1),
                                -left[i], right[i]), axis=1)
        x, w = panel_nodes(edges, 16)
        home.append(np.full(x.shape[1], i))
        offsets.append(x)
        weights.append(w)
    return np.concatenate(home), np.concatenate(offsets, axis=1), np.concatenate(weights, axis=1)


def planar_averaged_kernel(psi: ExponentVector, r: np.ndarray) -> np.ndarray:
    """The average of K over the circle of radius r, for each r, in d = 2.

    Component j, Psi_j(xi) = R_j(|xi|) - i b_j . xi, contributes
    A_j / (A_j^2 + r^2 |b_j|^2 sin^2(theta - t_j)) at angle theta, with
    A_j = 1 + R_j and t_j normal to b_j: a ridge of width about
    1 / (|b_j| r).  Components without drift factor out; the ridge-graded
    rule averages the others, with panels down to 1 / (max_j |b_j| r).
    """
    out = np.ones(r.size)
    moving = []
    for c in psi.components:
        a = 1.0 + c._radial(r * r)
        b = c.drift
        if np.any(b):
            moving.append((a, math.hypot(*b), (math.atan2(b[1], b[0]) + 0.5 * math.pi) % math.pi))
        else:
            out /= a
    if not moving:
        return out
    ridges = np.unique([t for _, _, t in moving])
    home, offsets, weights = _ridge_rule(ridges, 1.0 / (max(m[1] for m in moving) * r))
    values = np.ones_like(offsets)
    for a, speed, t in moving:
        delta = ridges[home] - t
        sine = np.sin(delta) * np.cos(offsets) + np.cos(delta) * np.sin(offsets)
        values *= a[:, None] / (a[:, None] ** 2 + (speed * r[:, None] * sine) ** 2)
    return out * np.sum(weights * values, axis=1) / math.pi


def probe_planar_point_test(psi: ExponentVector) -> ConvergenceVerdict:
    """Numeric verdict on int K over the plane, from its angle average.

    int K = 2 pi int_0^inf r Kbar(r) dr with Kbar = planar_averaged_kernel.
    The integral over [0, 1] and the dyadic shells [2^k, 2^k+1], k <
    _PROBE_SHELLS, each take an 8-node Gauss-Legendre rule in r; the
    increments grow like 2^(k (2 - p)) when Kbar decays like r^-p, and
    _shell_verdict classifies them against the outer radii of the shells.
    """
    if psi.dim != 2:
        raise ValueError("the planar point probe needs d = 2")
    edges = 2.0 ** np.arange(-1.0, _PROBE_SHELLS + 1.0)
    edges[0] = 0.0
    x, w = (a.reshape(-1, 8) for a in panel_nodes(edges, 8))
    increments = np.array([np.sum(wk * xk * planar_averaged_kernel(psi, xk))
                           for xk, wk in zip(x, w)])
    return _shell_verdict(edges[1:], increments)


def point_capacity_test(psi: ExponentVector) -> bool:
    """True iff the additive field hits points: the product kernel is integrable.

    The point mass is the only probability measure on a singleton, and its
    energy is the integral of K, which depends only on the average Kbar(r) of
    K over spheres: points are hit iff Kbar decays faster than r^-d
    (equality is the log-divergent boundary).  A rotation-invariant K decays
    by its analytic tail exponent.  In d >= 2, Psi_j = R_j(|xi|) - i b_j.xi;
    a component without drift is the factor 1 / (1 + R_j), of decay g_j, the
    growth of R_j (0 when R_j = 0).  One drifting component averages to
    (A^2 + B^2)^-1/2 in d = 2 and arctan(B/A) / B in d = 3 (A = 1 + R,
    B = |b| r), a decay of max(g, 1) in any d >= 2, and the decays add.  Two
    or more drifting components are probed numerically in d = 2 and raise
    InconclusiveError in d >= 3, or when the probe cannot classify.
    """
    decay = psi.kernel_decay_exponent()
    d = psi.dim
    if decay is not None:
        return decay > d
    moving = [c for c in psi.components if np.any(c.drift)]
    if len(moving) <= 1:
        return (sum(max(0.0, c._growth()) for c in psi.components if not np.any(c.drift))
                + sum(max(c._growth(), 1.0) for c in moving) > d)
    if d > 2:
        raise InconclusiveError(f"no point test for {len(moving)} drifting components in "
                                f"d = {d}: the angle average is computed only in d = 2")
    verdict = probe_planar_point_test(psi)
    if verdict.kind == "Inconclusive":
        raise InconclusiveError("numeric probe could not classify the kernel integral")
    return verdict.kind == "Convergent"


def numeric_intersection_dimension(sys: StableSystem,
                                   tol: float | None = None) -> tuple[float, float]:
    """The intersection dimension s* and its error, from one probe at s = 0.

    Shell k's nodes are 2^-k times shell 0's, bit for bit, so the factor
    x^-s of the test integrand adds exactly k s log 2 to the log of shell
    k's increment: the probe's slope at s is s - s* plus transients that do
    not depend on s, and the slope at s = 0 estimates -s*.  The value is
    clamped to [0, d]; the error is the probe's two-depth slope difference.
    Where some alpha_j = d, u_j carries a log factor and the slope
    converges only like 1/k: the value then reads low, by up to about 0.05,
    and the error can under-report the miss by an order of magnitude.
    InconclusiveError when the slope is not finite, or when a tolerance tol
    is given and the error is not finite or exceeds it.
    """
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    verdict = probe_intersection_dimension_test(sys, 0.0)
    if not math.isfinite(verdict.slope):
        raise InconclusiveError(f"the dimension probe's slope is {verdict.slope}")
    if tol is not None and not verdict.error <= tol:  # False for a NaN error
        raise InconclusiveError(f"error {verdict.error} exceeds tol {tol}")
    return min(float(sys.d), max(0.0, -verdict.slope)), verdict.error
