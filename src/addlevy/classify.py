"""Hitting, intersection, and dimension classifiers.

Stable families admit closed-form answers via tail-exponent arithmetic;
everything else goes through a numeric convergence probe of the defining
integral test (partial integrals over dyadic shells and a log-log slope
fit of the increments).  Boundary (equality) cases follow the strict
inequalities of the theory: equality means a negative verdict, and
logarithmically divergent criterion integrals are classified Divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from addlevy.quadrature import panel_nodes, tensor_nodes


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
    """dim of the mutual intersection set: max(0, sum(alpha) - (N-1) d)."""
    return max(0.0, sum(sys.alphas) - (sys.n - 1) * sys.d)


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


def _extrapolated_slope(log_radii: np.ndarray, inc: np.ndarray) -> float:
    """Limit of the local log-log increment slope.

    The local slopes approach their limit with a geometrically shrinking
    transient, so a final Aitken delta-squared step removes most of it.
    """
    local = np.diff(np.log(inc)) / np.diff(log_radii[1:])
    if local.size < 3:
        return float(local[-1]) if local.size else 0.0
    a, b, c = local[-3], local[-2], local[-1]
    denom = (c - b) - (b - a)
    if abs(denom) < 1e-12 or abs((c - b) ** 2 / denom) > 0.5:
        return float(c)
    return float(c - (c - b) ** 2 / denom)


def _verdict_from_increments(radii, increments, partials, growth_bound: float,
                             band: float = 0.1) -> ConvergenceVerdict:
    """Slope rule shared by all probes; see numeric_convergence_probe.

    ``band`` is the half-width of the ambiguous slope region; the pair
    probe narrows it because its extrapolated slopes are accurate to ~0.01.
    Inside the band the log-divergence rule applies: non-decaying
    increments (or totals past growth_bound) mean Divergent, anything else
    Inconclusive.
    """
    inc = np.array(increments)
    partials = tuple(partials)
    if np.any(inc <= 0.0):
        # increments already at roundoff: the tail is gone
        return ConvergenceVerdict(kind="Convergent", slope=None,
                                  radii=tuple(radii), partials=partials)
    slope = _extrapolated_slope(np.log(np.array(radii)), inc)
    if slope < -band:
        return ConvergenceVerdict(kind="Convergent", slope=slope,
                                  radii=tuple(radii), partials=partials)
    if (slope > band or partials[-1] > growth_bound
            or inc[-1] >= 0.999 * inc[-2]):
        return ConvergenceVerdict(kind="Divergent", slope=slope,
                                  radii=tuple(radii), partials=partials)
    return ConvergenceVerdict(kind="Inconclusive", slope=slope,
                              radii=tuple(radii), partials=partials)


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
    return _verdict_from_increments(radii, increments, partials, growth_bound)


def stable_intersection_integrand(sys: StableSystem, s: float) -> Callable[[np.ndarray], np.ndarray]:
    """The global Fourier integrand whose finiteness marks dimension >= s.

    Over (R^d)^N:  prod_j (1 + ||xi_j||^alpha_j)^-1 / (1 + ||sum xi_j||^(d-s)).
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


def _graded_panels(lo: float, hi: float, scale: float) -> np.ndarray:
    """Panel edges on [lo, hi] geometrically refined toward lo at `scale`."""
    edges = [lo]
    w = min(scale, hi - lo)
    while edges[-1] + w < hi:
        edges.append(edges[-1] + w)
        w *= 2.0
    edges.append(hi)
    return np.array(edges)


def _graded_rule(lo: float, hi: float, scale: float, n_nodes: int = 5,
                 side: str = "lo"):
    edges = _graded_panels(lo, hi, scale)
    if side == "hi":
        edges = (lo + hi) - edges[::-1]
    return panel_nodes(edges, n_nodes)


def _multi_graded_rule(points, scale: float, n_nodes: int = 5):
    """Composite rule over [points[0], points[-1]] refined toward each
    listed point from both sides."""
    nodes, wts = [], []
    for lo, hi in zip(points[:-1], points[1:]):
        mid = 0.5 * (lo + hi)
        for a, b, side in ((lo, mid, "lo"), (mid, hi, "hi")):
            x, w = _graded_rule(a, b, scale, n_nodes, side)
            nodes.append(x)
            wts.append(w)
    return np.concatenate(nodes), np.concatenate(wts)


def _stable_pair_partials(alphas, d: int, s: float, radii) -> list:
    """Partial integrals of the two-process dimension test at dyadic radii.

    After substituting the total frequency eta = xi_1 + xi_2 the integrand is
    f1(||xi||) f2(||eta - xi||) g(||eta||) with g(r) = (1 + r^(d-s))^-1.  It
    reduces exactly to radii (r1, r2) and the angle phi between the blocks,
    and a further rotation p = (r1 + r2)/2, r1 = p(1+t), r2 = p(1-t) makes
    the sharp features axis-aligned: f2 concentrates at (t, phi) near 0 and
    the one-scale structure of f1 and g sits at t = -/+1, all of width
    O(1/p), handled by geometrically graded panels.  The truncation domain
    is {r1 + r2 <= 2 r_max}, an exhausting family, and every partial is a
    running sum over disjoint p-panels, so increments carry no cancellation
    error.
    """
    a1, a2 = alphas

    def f1(r):
        return 1.0 / (1.0 + r ** a1)

    def f2(r):
        return 1.0 / (1.0 + r ** a2)

    def g(r):
        return 1.0 / (1.0 + r ** (d - s))

    radii = sorted(float(r) for r in radii)
    total = 0.0
    out = []
    # dyadic panel edges aligned with the requested radii
    p_edges = [0.0]
    v = 1.0
    while v < radii[-1]:
        p_edges.append(v)
        v *= 2.0
    p_edges.append(radii[-1])
    p_edges = np.array(p_edges)
    p_nodes, p_weights = panel_nodes(p_edges, 6)
    next_r = 0
    for p_hi, p, wp in zip(p_edges[1:], p_nodes.reshape(-1, 6), p_weights.reshape(-1, 6)):
        feature = min(1.0, 1.0 / max(p_hi, 1e-12))
        t, wt = _multi_graded_rule((-1.0, 0.0, 1.0), feature)
        if d == 1:
            phi = np.array([0.0, math.pi])
            wphi = np.array([1.0, 1.0])
            const = 2.0
        else:
            phi, wphi = _graded_rule(0.0, math.pi, feature)
            const = 4.0 * math.pi if d == 2 else 8.0 * math.pi ** 2
        pp, tt, ff = np.meshgrid(p, t, phi, indexing="ij")
        ww = (wp[:, None, None] * wt[None, :, None] * wphi[None, None, :])
        r1 = pp * (1.0 + tt)
        r2 = pp * (1.0 - tt)
        w12 = np.sqrt(np.maximum(r1 ** 2 + r2 ** 2 - 2.0 * r1 * r2 * np.cos(ff), 0.0))
        vals = f1(r1) * f2(w12) * g(r2)
        if d >= 2:
            vals = vals * (r1 * r2) ** (d - 1)
            if d == 3:
                vals = vals * np.sin(ff)
        # jacobian dq = 2p dt
        total += const * float(np.sum(ww * vals * 2.0 * pp))
        while next_r < len(radii) and p_hi >= radii[next_r]:
            out.append(total)
            next_r += 1
    while len(out) < len(radii):
        out.append(total)
    return out


def probe_intersection_dimension_test(sys: StableSystem, s: float,
                                      growth_bound: float = 1e3) -> ConvergenceVerdict:
    """Numeric convergence verdict of the intersection-dimension test at s.

    Pairs (N = 2) run the exact radial reduction of the test integral (any
    d <= 3); larger systems fall back to the tensor probe in the original
    coordinates, limited to N*d <= 4.
    """
    if not 0.0 <= s < sys.d:
        raise ValueError(f"test order s must lie in [0, d), got {s}")
    if sys.n == 2 and sys.d <= 3:
        radii = [4.0 ** m for m in range(13)]
        partials = _stable_pair_partials(sys.alphas, sys.d, s, radii)
        increments = [b - a for a, b in zip(partials, partials[1:])]
        return _verdict_from_increments(radii, increments, partials,
                                        growth_bound, band=0.03)
    if sys.n * sys.d > 4:
        raise ValueError("probe limited to N*d <= 4; use the analytic route")
    return numeric_convergence_probe(stable_intersection_integrand(sys, s),
                                     total_dim=sys.n * sys.d,
                                     growth_bound=growth_bound)


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
    tolerated as long as a conclusive verdict eventually lands.
    """
    if hi <= lo:
        raise ValueError("need lo < hi")
    max_convergent = -math.inf
    min_divergent = math.inf
    inconclusive = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        verdict = test(mid)
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
