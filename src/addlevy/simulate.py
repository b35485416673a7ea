"""Monte Carlo oracles: stable samplers, hitting/intersection frequencies,
box-counting dimension, and sojourn-moment estimators.

One-dimensional stable variates come from the Chambers-Mallows-Stuck
transform; isotropic stable vectors in d >= 2 from Brownian subordination
by a positive (alpha/2)-stable variate.  Both are exact in distribution, so
the only discretization is the time grid.  All estimators are deterministic
functions of (config, seed): per-trial streams are spawned from the master
seed, so trial order and parallelism cannot change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from addlevy.classify import StableSystem
from addlevy.measures import AtomicMeasure, SetDiscretization, discretize


class BudgetError(RuntimeError):
    """Requested grid size x trials exceeds the configured budget."""


@dataclass(frozen=True)
class MCConfig:
    trials: int = 1000
    time_horizon: float = 1.0
    n_steps: int = 200
    epsilon: float = 0.1
    seed: int = 0
    box_scales: tuple = tuple(2.0 ** (-k) for k in range(8, 15))

    def __post_init__(self):
        if self.trials < 100:
            raise ValueError("at least 100 trials are required for any estimate")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")

    def to_json(self):
        return {"trials": self.trials, "time_horizon": self.time_horizon,
                "n_steps": self.n_steps, "epsilon": self.epsilon,
                "seed": self.seed, "box_scales": list(self.box_scales)}


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    trials: int

    def to_json(self):
        return {"value": self.value, "stderr": self.stderr, "trials": self.trials}


def _estimate(samples: np.ndarray) -> MCEstimate:
    n = samples.size
    return MCEstimate(value=float(np.mean(samples)),
                      stderr=float(np.std(samples, ddof=1) / math.sqrt(n)),
                      trials=n)


def _trial_rngs(seed: int, trials: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(trials)]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_stable_increment(alpha: float, beta: float = 0.0, scale: float = 1.0,
                            dt: float = 1.0, rng: Optional[np.random.Generator] = None,
                            size=None):
    """One (or `size`) increment(s) of the 1D stable law over time dt.

    Chambers-Mallows-Stuck transform in the parameterization with exponent
    (scale |xi|)^alpha (1 - i beta sgn(xi) tan(pi alpha / 2)); alpha = 1
    with nonzero skew is unsupported.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if not -1.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [-1, 1]")
    if alpha == 1.0 and beta != 0.0:
        raise ValueError("alpha=1 with nonzero skew is unsupported")
    if rng is None:
        rng = np.random.default_rng()
    if alpha == 2.0:
        return rng.normal(0.0, scale * math.sqrt(2.0 * dt), size=size)
    if alpha == 1.0:
        return scale * dt * rng.standard_cauchy(size=size)
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    w = rng.exponential(1.0, size=size)
    if beta == 0.0:
        x = (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
             * (np.cos(v - alpha * v) / w) ** ((1.0 - alpha) / alpha))
    else:
        tan_half = math.tan(math.pi * alpha / 2.0)
        b = math.atan(beta * tan_half) / alpha
        s = (1.0 + beta ** 2 * tan_half ** 2) ** (1.0 / (2.0 * alpha))
        x = (s * np.sin(alpha * (v + b)) / np.cos(v) ** (1.0 / alpha)
             * (np.cos(v - alpha * (v + b)) / w) ** ((1.0 - alpha) / alpha))
    return scale * dt ** (1.0 / alpha) * x


def _positive_stable(alpha_half: float, dt: float, rng: np.random.Generator, size):
    """Subordinator increment tau with E exp(-l tau) = exp(-dt (2l)^{a/2}) scaling
    chosen so the subordinated Brownian increment is isotropic alpha-stable."""
    s = sample_stable_increment(alpha_half, beta=1.0, scale=1.0, dt=1.0, rng=rng, size=size)
    k = 2.0 * (dt * math.cos(math.pi * alpha_half / 2.0)) ** (1.0 / alpha_half)
    return k * s


def sample_isotropic_stable_path(alpha: float, d: int, T: float, n_steps: int,
                                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Path of the isotropic stable process (exponent ||xi||^alpha), from 0.

    Returns positions of shape (n_steps + 1, d) at the uniform time grid on
    [0, T].  alpha = 2 is Brownian motion; alpha < 2 in d >= 2 is Brownian
    motion subordinated by a positive (alpha/2)-stable clock.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if d < 1 or n_steps < 1:
        raise ValueError("need d >= 1 and n_steps >= 1")
    if rng is None:
        rng = np.random.default_rng()
    dt = T / n_steps
    if alpha == 2.0:
        steps = rng.normal(0.0, math.sqrt(2.0 * dt), size=(n_steps, d))
    elif d == 1:
        steps = sample_stable_increment(alpha, 0.0, 1.0, dt, rng,
                                        size=(n_steps, 1))
    else:
        tau = _positive_stable(alpha / 2.0, dt, rng, size=n_steps)
        steps = rng.normal(0.0, 1.0, size=(n_steps, d)) * np.sqrt(tau)[:, None]
    path = np.zeros((n_steps + 1, d))
    path[1:] = np.cumsum(steps, axis=0)
    return path


# ---------------------------------------------------------------------------
# frequency estimators
# ---------------------------------------------------------------------------

_GRID_BUDGET = 5e8


def hitting_frequency(sys: StableSystem, target: SetDiscretization,
                      cfg: MCConfig) -> MCEstimate:
    """Fraction of trials where the additive field enters the epsilon
    neighborhood of the target cloud over the [0, T]^N time grid."""
    if sys.n > 2:
        raise ValueError("time grids beyond N=2 are out of scope in v1")
    target_mu = discretize(target)
    grid_size = cfg.n_steps ** sys.n
    if grid_size * cfg.trials * max(1, target_mu.n_atoms // 100) > _GRID_BUDGET:
        raise BudgetError("grid size x trials exceeds the budget")
    tree = cKDTree(target_mu.points)
    hits = np.empty(cfg.trials)
    for i, rng in enumerate(_trial_rngs(cfg.seed, cfg.trials)):
        paths = [sample_isotropic_stable_path(a, sys.d, cfg.time_horizon,
                                              cfg.n_steps, rng)[1:]
                 for a in sys.alphas]
        if sys.n == 1:
            pts = paths[0]
        else:
            pts = (paths[0][:, None, :] + paths[1][None, :, :]).reshape(-1, sys.d)
        dmin = tree.query(pts, k=1)[0].min()
        hits[i] = 1.0 if dmin < cfg.epsilon else 0.0
    return _estimate(hits)


def intersection_frequency(alpha1: float, alpha2: float, d: int,
                           cfg: MCConfig) -> MCEstimate:
    """Fraction of trials where two independent paths pass within epsilon."""
    if cfg.n_steps ** 2 * cfg.trials > _GRID_BUDGET:
        raise BudgetError("grid size x trials exceeds the budget")
    hits = np.empty(cfg.trials)
    for i, rng in enumerate(_trial_rngs(cfg.seed, cfg.trials)):
        p1 = sample_isotropic_stable_path(alpha1, d, cfg.time_horizon, cfg.n_steps, rng)[1:]
        p2 = sample_isotropic_stable_path(alpha2, d, cfg.time_horizon, cfg.n_steps, rng)[1:]
        dmin = cKDTree(p1).query(p2, k=1)[0].min()
        hits[i] = 1.0 if dmin < cfg.epsilon else 0.0
    return _estimate(hits)


def box_dimension_estimate(points: np.ndarray, scales) -> float:
    """Least-squares slope of log(occupied boxes) against log(1/scale)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scales = sorted(float(s) for s in scales)
    if pts.shape[0] < 2 or np.all(pts == pts[0]):
        return 0.0
    if len(scales) < 4:
        raise ValueError("need at least 4 scales")
    counts = []
    for s in scales:
        cells = np.floor(pts / s).astype(np.int64)
        counts.append(np.unique(cells, axis=0).shape[0])
    x = np.log(1.0 / np.array(scales))
    y = np.log(np.array(counts, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# sojourn moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianDensitySpec:
    """Test density mass * N(center, sigma^2) for the sojourn estimators."""

    sigma: float = 1.0
    center: float = 0.0
    mass: float = 1.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x) - self.center) / self.sigma
        return self.mass * np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def fourier(self, xi: np.ndarray) -> np.ndarray:
        """f_hat(xi) = mass * exp(i xi center - sigma^2 xi^2 / 2)."""
        xi = np.asarray(xi)
        return self.mass * np.exp(1j * xi * self.center - 0.5 * (self.sigma * xi) ** 2)

    def tail_mass_beyond(self, x: float) -> float:
        """Mass outside [-x, x]."""
        scale = self.sigma * math.sqrt(2.0)
        return self.mass * 0.5 * (math.erfc((x - self.center) / scale)
                                  + math.erfc((x + self.center) / scale))


def sojourn_mc(alpha: float, f: GaussianDensitySpec, cfg: MCConfig,
               half_width: float = 10.0,
               time_span: float = 10.0) -> tuple[MCEstimate, MCEstimate]:
    """Estimate the first two moments of the sojourn functional (d=1, N=1).

    The two-sided path is built from two independent one-sided paths
    (negative times run the reflected second path).  Each trial draws the
    start point uniformly on [-L, L] and weighs by 2L; the sojourn value is
    the exponentially weighted time integral of f along the shifted path,
    by trapezoid quadrature on the simulation grid.  Returns (first moment,
    second moment) estimates.
    """
    if f.tail_mass_beyond(0.9 * half_width) > 1e-3:
        raise ValueError("half_width too small: test density has mass near the edge")
    n = cfg.n_steps
    dt = time_span / n
    tgrid = dt * np.arange(n + 1)
    wts = np.exp(-tgrid) * dt
    wts[0] *= 0.5
    wts[-1] *= 0.5
    first = np.empty(cfg.trials)
    second = np.empty(cfg.trials)
    for i, rng in enumerate(_trial_rngs(cfg.seed, cfg.trials)):
        x0 = rng.uniform(-half_width, half_width)
        pos_path = sample_isotropic_stable_path(alpha, 1, time_span, n, rng)[:, 0]
        neg_path = -sample_isotropic_stable_path(alpha, 1, time_span, n, rng)[:, 0]
        sf = 0.5 * (np.sum(f(x0 + pos_path) * wts)
                    + np.sum(f(x0 + neg_path) * wts))
        first[i] = 2.0 * half_width * sf
        second[i] = 2.0 * half_width * sf * sf
    return _estimate(first), _estimate(second)
