"""Hitting, intersection, and dimension classifiers.

Stable families admit closed-form answers via tail-exponent arithmetic.
The numeric probes decide the defining integral tests from partial
integrals over dyadic shells and the log-log slope of their increments:
the intersection-dimension test on the real side, through the
one-potential densities of the stable components (d <= 3), and general
kernel integrals on the Fourier side by a tensor rule.  Boundary
(equality) cases follow the strict inequalities of the theory: equality
means a negative verdict, and logarithmically divergent criterion
integrals are classified Divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from addlevy.exponents import ExponentVector, IsotropicStable
from addlevy.kernels import _axis_points, potential_density_v
from addlevy.quadrature import QuadratureSpec, panel_nodes, tensor_nodes

# Dyadic shells [2^-k-1, 2^-k], k < _PROBE_SHELLS, of the real-side
# dimension probe: the slope transients are series in r^(d - alpha) and
# r^alpha, which shrink slowly when alpha is near 0 or near d.
_PROBE_SHELLS = 36
_SLOPE_SPAN = 4  # shells per block slope, and the offset of the second depth
_SLOPE_BAND = 0.03  # half-width of the slope region left Inconclusive


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

    @cached_property
    def _potential_shells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, weights and prod_j u_j(x) on the dyadic shells, one row each.

        Row k holds an 8-node Gauss-Legendre rule on [2^-k-1, 2^-k] and the
        product of the one-potential densities u_j of the components at its
        nodes, inverted with r_max = 400 * 2^k so that every shell sees the
        same number of oscillations.  It does not depend on the test order
        s, so it is built once per system and once per distinct alpha, and
        lives as long as the system.
        """
        edges = 2.0 ** -np.arange(_PROBE_SHELLS, -1.0, -1.0)
        x, w = (a.reshape(_PROBE_SHELLS, -1)[::-1] for a in panel_nodes(edges, 8))
        density = np.ones_like(x)
        for k in range(_PROBE_SHELLS):
            quad = QuadratureSpec(r_max=400.0 * 2.0 ** k)
            for alpha in sorted(set(self.alphas)):
                psi = ExponentVector((IsotropicStable(alpha=alpha, dim=self.d),))
                u = potential_density_v(psi, _axis_points(x[k], self.d), quad)
                density[k] *= u ** self.alphas.count(alpha)
        return x, w, density


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of a numeric integral-convergence probe with its evidence."""

    kind: str  # "Convergent", "Divergent", "Inconclusive"
    slope: Optional[float] = None
    radii: tuple = ()
    partials: tuple = ()

    def __post_init__(self):
        if self.kind not in ("Convergent", "Divergent", "Inconclusive"):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.kind == "Divergent" and self.slope is None:
            raise ValueError("Divergent verdict must carry a growth exponent estimate")

    def to_json(self):
        return {"kind": self.kind, "slope": self.slope,
                "radii": list(self.radii), "partials": list(self.partials)}


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


def intersections_exist(sys: StableSystem) -> bool:
    """N trajectories intersect with positive probability iff
    (N-1) d < sum(alpha); equality fails (strict inequality)."""
    return (sys.n - 1) * sys.d < sum(sys.alphas)


def intersection_dimension(sys: StableSystem) -> float:
    """dim of the mutual intersection set: max(0, sum(alpha) - (N-1) d),
    capped at d because the set lies in R^d."""
    return min(float(sys.d), max(0.0, sum(sys.alphas) - (sys.n - 1) * sys.d))


def multiple_points_allowed(alpha: float, d: int, N: int) -> bool:
    """N-multiple points of one stable process: u ~ ||x||^(alpha-d) must be
    locally L^N, i.e. N (d - alpha) < d; always true when alpha >= d."""
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
# numeric convergence probe
# ---------------------------------------------------------------------------

def _shell_boxes(dim: int, r: float) -> list[list[tuple[float, float]]]:
    """Exact decomposition of {r < max|x_i| <= 2r} into axis-aligned boxes."""
    outer, inner = 2.0 * r, r
    if dim == 1:
        return [[(inner, outer)], [(-outer, -inner)]]
    boxes = [[(inner, outer)] + [(-outer, outer)] * (dim - 1),
             [(-outer, -inner)] + [(-outer, outer)] * (dim - 1)]
    for sub in _shell_boxes(dim - 1, r):
        boxes.append([(-inner, inner)] + sub)
    return boxes


def _box_integral(f, box: list[tuple[float, float]], nodes_per_axis: int) -> float:
    n_panels = max(1, nodes_per_axis // 8)
    pts, wts = tensor_nodes([panel_nodes(np.linspace(a, b, n_panels + 1), 8)
                             for (a, b) in box])
    return float(np.sum(wts * np.asarray(f(pts))))


def _extrapolated_slope(log_radii: np.ndarray, log_inc: np.ndarray, span: int = 1) -> float:
    """Limit of the log-log slope of increments against their radii.

    Slopes are taken over blocks of ``span`` increments.  They approach
    their limit with a geometrically shrinking transient, so a final Aitken
    delta-squared step on the last three blocks removes most of it; wider
    blocks damp the quadrature noise that the step amplifies.
    """
    local = (log_inc[span:] - log_inc[:-span]) / (log_radii[span:] - log_radii[:-span])
    if local.size < 2 * span + 1:
        return float(local[-1]) if local.size else 0.0
    a, b, c = local[-1 - 2 * span], local[-1 - span], local[-1]
    denom = (c - b) - (b - a)
    if abs(denom) < 1e-12 or abs((c - b) ** 2 / denom) > 0.5:
        return float(c)
    return float(c - (c - b) ** 2 / denom)


def numeric_convergence_probe(integrand: Callable[[np.ndarray], np.ndarray],
                              total_dim: int,
                              radii: Optional[Sequence[float]] = None,
                              growth_bound: float = 1e3) -> ConvergenceVerdict:
    """Classify int over R^D of a nonnegative integrand by dyadic partial sums.

    Partial integrals I(R) are accumulated over the core box [-r0, r0]^D and
    dyadic shells; the log-log slope of the increments decides: below -0.1
    Convergent, above +0.1 Divergent.  Near-zero slopes follow the
    log-divergence rule: if the increments do not decay (or the total grows
    beyond ``growth_bound``) the verdict is Divergent, otherwise
    Inconclusive.
    """
    if total_dim > 4:
        raise ValueError("tensor probe supports total dimension <= 4")
    if radii is None:
        radii = [2.0 ** m for m in range(10 - total_dim)]
    radii = sorted(float(r) for r in radii)
    nodes_per_axis = {1: 128, 2: 64, 3: 24, 4: 16}[total_dim]
    core_box = [(-radii[0], radii[0])] * total_dim
    try:
        total = _box_integral(integrand, core_box, nodes_per_axis)
        increments = []
        partials = [total]
        for r in radii[:-1]:
            shell = sum(_box_integral(integrand, box, nodes_per_axis)
                        for box in _shell_boxes(total_dim, r))
            increments.append(max(shell, 0.0))
            total += shell
            partials.append(total)
    except (ValueError, FloatingPointError):
        return ConvergenceVerdict(kind="Inconclusive", radii=tuple(radii))
    inc = np.array(increments)
    evidence = {"radii": tuple(radii), "partials": tuple(partials)}
    if np.any(inc <= 0.0):
        # increments already at roundoff: the tail is gone
        return ConvergenceVerdict(kind="Convergent", **evidence)
    slope = _extrapolated_slope(np.log(np.array(radii[1:])), np.log(inc))
    if slope < -0.1:
        return ConvergenceVerdict(kind="Convergent", slope=slope, **evidence)
    if slope > 0.1 or partials[-1] > growth_bound or inc[-1] >= 0.999 * inc[-2]:
        return ConvergenceVerdict(kind="Divergent", slope=slope, **evidence)
    return ConvergenceVerdict(kind="Inconclusive", slope=slope, **evidence)


def stable_intersection_integrand(sys: StableSystem, s: float) -> Callable[[np.ndarray], np.ndarray]:
    """The global Fourier integrand whose finiteness marks dimension >= s.

    Over (R^d)^N:  prod_j (1 + ||xi_j||^alpha_j)^-1 / (1 + ||sum xi_j||^(d-s)).
    The tensor probe integrates it for d >= 4, where no radial inversion of
    the one-potential densities is available.
    """
    d, alphas = sys.d, sys.alphas

    def f(pts: np.ndarray) -> np.ndarray:
        out = np.ones(pts.shape[0])
        acc = np.zeros((pts.shape[0], d))
        for j, a in enumerate(alphas):
            block = pts[:, j * d:(j + 1) * d]
            out /= 1.0 + np.linalg.norm(block, axis=-1) ** a
            acc += block
        return out / (1.0 + np.linalg.norm(acc, axis=-1) ** (d - s))

    return f


def probe_intersection_dimension_test(sys: StableSystem, s: float) -> ConvergenceVerdict:
    """Numeric convergence verdict of the intersection-dimension test at s.

    By Parseval the Fourier test integral is finite exactly when
    r^(d-1-s) prod_j u_j(r) is integrable at 0, with u_j the one-potential
    density of the alpha_j-stable process.  Its integrals over the dyadic
    shells [2^-k-1, 2^-k] grow like 2^(k (s - s*)), so the extrapolated
    log-log slope against 2^k estimates s - s*.  The slope is extrapolated at
    two depths, the last shell and four shells before it; their difference
    is its error, and the verdict is Convergent (slope < 0) or Divergent only
    when |slope| - error clears the band.  In d >= 4 the tensor probe
    integrates the Fourier side, limited to N*d <= 4.
    """
    if not 0.0 <= s < sys.d:
        raise ValueError(f"test order s must lie in [0, d), got {s}")
    if sys.d > 3:
        if sys.n * sys.d > 4:
            raise ValueError("probe limited to N*d <= 4 in d >= 4; use the analytic route")
        return numeric_convergence_probe(stable_intersection_integrand(sys, s),
                                         total_dim=sys.n * sys.d)
    x, w, density = sys._potential_shells
    increments = np.sum(w * x ** (sys.d - 1 - s) * density, axis=1)
    radii = 2.0 ** np.arange(1.0, len(increments) + 1.0)  # 1 / inner radius of each shell
    log_r, log_inc = np.log(radii), np.log(increments)
    slope = _extrapolated_slope(log_r, log_inc, _SLOPE_SPAN)
    error = abs(slope - _extrapolated_slope(log_r[:-_SLOPE_SPAN], log_inc[:-_SLOPE_SPAN],
                                            _SLOPE_SPAN))
    kind = "Inconclusive"
    if abs(slope) - error > _SLOPE_BAND:  # False for a NaN slope
        kind = "Convergent" if slope < 0.0 else "Divergent"
    return ConvergenceVerdict(kind=kind, slope=slope, radii=tuple(radii.tolist()),
                              partials=tuple(np.cumsum(increments).tolist()))


def probe_intersections_exist(sys: StableSystem) -> ConvergenceVerdict:
    """Existence probe: the dimension test at s just above 0.

    Convergence there means some measure of positive energy lives on the
    intersection set, i.e. the processes meet.
    """
    return probe_intersection_dimension_test(sys, 1e-3)


def dimension_by_bisection(test: Callable[[float], ConvergenceVerdict],
                           lo: float, hi: float, tol: float = 0.05) -> float:
    """sup of s with a Convergent verdict, by bisection.

    The test must be monotone (Convergent below the threshold, Divergent
    above); a Convergent verdict above a Divergent one raises.  Inconclusive
    verdicts shrink the bracket conservatively toward the midpoint and are
    tolerated as long as a conclusive verdict eventually lands.  Each s is
    probed once: a shrink can leave the midpoint where it was, and the
    verdict there is remembered.
    """
    if hi <= lo:
        raise ValueError("need lo < hi")
    max_convergent = -math.inf
    min_divergent = math.inf
    inconclusive = 0
    verdicts = {}
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid not in verdicts:
            verdicts[mid] = test(mid)
        verdict = verdicts[mid]
        if verdict.kind == "Convergent":
            max_convergent = max(max_convergent, mid)
            lo = mid
        elif verdict.kind == "Divergent":
            min_divergent = min(min_divergent, mid)
            hi = mid
        else:
            inconclusive += 1
            lo = lo + 0.25 * (mid - lo)
            hi = hi - 0.25 * (hi - mid)
            if inconclusive > 20:
                break
        if max_convergent > min_divergent:
            raise ValueError(
                f"non-monotone verdicts: Convergent at s={max_convergent} "
                f"above Divergent at s={min_divergent}"
            )
    return lo
