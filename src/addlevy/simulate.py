"""Monte Carlo oracles: stable samplers, hitting/intersection frequencies,
box-counting dimension, and sojourn-moment estimators.

One-dimensional stable variates come from the Chambers-Mallows-Stuck
transform; isotropic stable vectors in d >= 2 from Brownian subordination
by a positive (alpha/2)-stable variate.  Both are exact in distribution, so
the only discretization is the time grid.

All estimators are deterministic functions of (config, seed).  Each
estimator seeds one generator, and every trial reads the same fixed number
K of uniforms, which depends only on the stable indices, d and the number of
steps (plus one for a sojourn's start point): trial i reads uniforms
[iK, (i+1)K) of the stream.  A block of trials is one draw of (count, K)
uniforms, consumed row by row, so the block size cannot change a result.
The uniforms become variates by exact transforms: v = pi (u - 1/2) and
w = -log1p(-u) for the CMS pair, Box-Muller for normals, and
tan(pi (u - 1/2)) for the d = 1 Cauchy step.

An estimator call allocates its block arrays once (_Scratch): uniforms,
transform intermediates, paths and search buffers are carved from one
arena and reused by every block, so no block allocates, frees and faults
its pages in again.

The tangent is the only trigonometric function these transforms call: the
CMS sine comes from its half-angle tangent and each cosine from the secant
sqrt(1 + tan^2), and Box-Muller takes (cos, sin)(2 pi u) from t = tan(pi u)
as (1 - t^2, 2 t) / (1 + t^2).  numpy evaluates float64 tan with SIMD code,
several times faster than its sin and cos, which may run scalar libm (on
AVX-512, about 4 against 15 ns per value).  So the bits of a variate follow
numpy's SIMD dispatch of tan and log1p: results are deterministic on one
machine and numpy build, and may differ in the last bits on another.

Hitting and intersection need only whether some pair of points is closer
than epsilon, and no KD-tree is built.  In d = 1 a target shared by every
trial, of at most _SWEEP_POINTS points, is swept point by point; any other
set takes one sort per row.  In d >= 2 one side of a block of trials is
hashed into epsilon-cells, with the 3^d neighbour cells of each point, and
sorted once; each point of the other side looks up its own cell there with
searchsorted.
Only the pairs so found have their distances computed, by the KD-tree's own
float expression, so every hit flag is the one a tree would give.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from addlevy.classify import StableSystem
from addlevy.measures import SetDiscretization, discretize


# Box sizes of the box-counting dimension of a sampled path.
BOX_SCALES = tuple(2.0 ** (-k) for k in range(8, 15))


class BudgetError(RuntimeError):
    """Requested work (query points over all trials) exceeds the budget."""


@dataclass(frozen=True)
class MCConfig:
    trials: int = 1000
    time_horizon: float = 1.0
    n_steps: int = 200
    epsilon: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.trials < 100:
            raise ValueError("at least 100 trials are required for any estimate")
        for name in ("epsilon", "time_horizon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")


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


# Path values (trials x paths x steps x d) sampled and tested per block: big
# enough to amortise numpy's per-call cost, small enough to keep peak memory
# near that of one trial at a time.
_BLOCK_VALUES = 2 ** 14


def _block_trials(n_paths: int, n_steps: int, d: int) -> int:
    return max(1, _BLOCK_VALUES // max(1, n_paths * n_steps * d))


class _Scratch:
    """The work arrays of one estimator call, carved from one allocation.

    take(name, shape) returns the array kept under `name`, an uninitialised
    float array of `shape`.  It is carved at its first use and reused by
    every later block, which takes its leading rows, since a call's blocks
    only shrink.  So a call allocates once, not once per block, and glibc
    does not trim and fault the pages back in between blocks.  An array
    that does not fit what is left of the arena is allocated on its own.
    """

    def __init__(self, floats: int = 0):
        self._free = np.empty(floats)
        self._arrays = {}

    def take(self, name, shape) -> np.ndarray:
        buf = self._arrays.get(name)
        if buf is None or buf.shape[0] < shape[0] or buf.shape[1:] != tuple(shape[1:]):
            size = math.prod(shape)
            if size <= self._free.size:
                buf, self._free = self._free[:size].reshape(shape), self._free[size:]
            else:
                buf = np.empty(shape)
            self._arrays[name] = buf
        return buf[:shape[0]]


def _blocks(cfg: MCConfig, alphas, d: int, time_horizon: float, extra: int = 0,
            work: int = 0):
    """Yield (trials, uniforms, paths, scratch) per block of trials, all from
    one generator seeded by cfg.seed.

    A trial reads K uniforms, `extra` of its own and then its paths'; row r
    of a block is trial first + r's, the stream's [(first + r) K,
    (first + r + 1) K).  `trials` is the block's slice of trial indices,
    `paths` its paths (_sample_paths), one per alpha, and `scratch` the
    call's _Scratch, which every block reuses.  The uniforms are drawn into
    it with rng.random(out=...), which reads the stream as
    rng.random((count, K)) does.  Its arena holds per trial the uniforms,
    the paths, the paths' intermediates (at most twice their uniforms, see
    _increments) and `work` floats for the caller.
    """
    width = extra + _trial_width(alphas, d, cfg.n_steps)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    size = _block_trials(len(alphas), cfg.n_steps, d)
    per_trial = 3 * width + len(alphas) * (cfg.n_steps + 1) * d + work
    scratch = _Scratch(min(size, cfg.trials) * per_trial)
    for start in range(0, cfg.trials, size):
        count = min(size, cfg.trials - start)
        u = rng.random(out=scratch.take("uniforms", (count, width)))
        paths = _sample_paths(alphas, d, time_horizon, cfg.n_steps, u[:, extra:], scratch)
        yield slice(start, start + count), u, paths, scratch


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _secant(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """sec x = sqrt(1 + tan(x)^2) for x in (-pi/2, pi/2), into `out`."""
    x = np.tan(x, out=out)
    x *= x
    x += 1.0
    return np.sqrt(x, out=x)


def _cms(alpha: float, beta: float, v: np.ndarray, w: np.ndarray,
         scratch: _Scratch) -> np.ndarray:
    """Chambers-Mallows-Stuck transform of v uniform on (-pi/2, pi/2) and w
    standard exponential into unit stable variates.

    With theta = alpha (v + b) and r = v - theta the transform is
    S sin(theta) cos(v)^(-1/alpha) (cos(r) / w)^((1 - alpha) / alpha).  It
    is evaluated from tangents alone: sin(theta) = 2 t / (1 + t^2) with
    t = tan(theta / 2), and each cosine as 1 / sec, since v and r lie in
    (-pi/2, pi/2) for every alpha in (0, 2] and beta in [-1, 1].  As
    1/alpha = 1 + (1 - alpha)/alpha, one power remains:
    S sin(theta) sec(v) (sec(v) / (sec(r) w))^((1 - alpha) / alpha).

    The transform runs in place: v and w are overwritten, the variates
    are returned in w, and theta and r take two arrays of the scratch.
    """
    theta = scratch.take("theta", v.shape)
    if beta == 0.0:
        s = 1.0
        np.multiply(v, alpha, out=theta)
    else:
        tan_half = math.tan(math.pi * alpha / 2.0)
        s = (1.0 + beta ** 2 * tan_half ** 2) ** (1.0 / (2.0 * alpha))
        np.add(v, math.atan(beta * tan_half) / alpha, out=theta)
        theta *= alpha
    r = np.subtract(v, theta, out=scratch.take("r", v.shape))
    _secant(r, out=r)
    sec_v = _secant(v, out=v)
    w *= r
    np.divide(sec_v, w, out=w)
    np.power(w, (1.0 - alpha) / alpha, out=w)
    w *= sec_v
    theta *= 0.5
    t = np.tan(theta, out=theta)
    np.multiply(t, t, out=sec_v)
    sec_v += 1.0
    t /= sec_v
    t *= 2.0 * s
    w *= t
    return w


def sample_stable_increment(alpha: float, beta: float = 0.0, scale: float = 1.0,
                            dt: float = 1.0, rng: Optional[np.random.Generator] = None,
                            size=None):
    """One (or `size`) increment(s) of the 1D stable law over time dt.

    Chambers-Mallows-Stuck transform in the parameterization with exponent
    (scale |xi|)^alpha (1 - i beta sgn(xi) tan(pi alpha / 2)), of the pair
    v = pi (u - 1/2), w = -log1p(-u): `size` uniforms of rng.random for v,
    then `size` for w, as a d = 1 path with alpha other than 1 and 2 reads
    its row.  alpha = 2 gives N(0, 2 scale^2 dt) and alpha = 1 the Cauchy
    law tan(v), from the same pairs, where paths read Box-Muller pairs and
    one uniform per Cauchy step.  alpha = 1 with nonzero skew is
    unsupported, and dt and scale must be finite and positive.  size=None
    returns one float.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if not -1.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [-1, 1]")
    if alpha == 1.0 and beta != 0.0:
        raise ValueError("alpha=1 with nonzero skew is unsupported")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    if rng is None:
        rng = np.random.default_rng()
    shape = 1 if size is None else size  # rng.random(1) reads what rng.random() does
    v = math.pi * (rng.random(shape) - 0.5)
    w = -np.log1p(-rng.random(shape))
    x = scale * dt ** (1.0 / alpha) * _cms(alpha, beta, v, w, _Scratch())
    return float(x[0]) if size is None else x


def _path_width(alpha: float, d: int, n_steps: int) -> int:
    """Uniforms one path reads: a CMS pair (v, w) per step, or one per d = 1
    Cauchy step, and in d >= 2 or for alpha = 2 the Box-Muller pairs of its
    n_steps * d normals."""
    normals = 2 * -(-n_steps * d // 2)
    if alpha == 2.0:
        return normals
    if d == 1:
        return n_steps if alpha == 1.0 else 2 * n_steps
    return 2 * n_steps + normals


def _trial_width(alphas, d: int, n_steps: int) -> int:
    """Uniforms the paths of one trial read, one path per alpha."""
    for alpha in alphas:
        if not 0.0 < alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if d < 1 or n_steps < 1:
        raise ValueError("need d >= 1 and n_steps >= 1")
    return sum(_path_width(alpha, d, n_steps) for alpha in alphas)


def _normals(u: np.ndarray, count: int, scratch: _Scratch) -> np.ndarray:
    """Box-Muller: the first `count` standard normals of each row of an even
    number of uniforms, radii from the first half and angles 2 pi u from the
    second, each (cos, sin) pair from t = tan(pi u) as
    ((1 - t^2), 2 t) / (1 + t^2), all in scratch arrays."""
    half = u.shape[1] // 2
    z = scratch.take("normals", (u.shape[0], 2 * half))
    cos, sin = z[:, :half], z[:, half:]
    radius = np.negative(u[:, :half], out=scratch.take("radius", (u.shape[0], half)))
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    t = np.multiply(u[:, half:], math.pi, out=scratch.take("t", (u.shape[0], half)))
    np.tan(t, out=t)
    np.multiply(t, t, out=cos)
    np.add(cos, 1.0, out=sin)
    radius /= sin
    np.subtract(1.0, cos, out=cos)
    cos *= radius
    np.multiply(t, 2.0, out=sin)
    sin *= radius
    return z[:, :count]


def _increments(alpha: float, d: int, dt: float, n_steps: int, u: np.ndarray,
                scratch: _Scratch) -> np.ndarray:
    """Increments (rows, n_steps, d) of one path per row of uniforms, in
    scratch arrays.

    The first operation on each run of columns of u writes a contiguous
    scratch array, and the rest work there in place: an operation on a
    column view runs row by row, 30-70% slower, and one that reads a view
    of u while writing another copies its input first, since numpy cannot
    tell that they are disjoint.  The scratch arrays hold at most twice
    the path's uniforms: v, w, theta and r of n_steps each against 2 n_steps
    CMS uniforms, and the normals, radii and tangents of Box-Muller twice
    theirs.

    For alpha < 2 in d >= 2 the clock tau has E exp(-l tau) =
    exp(-dt (2l)^{alpha/2}), so sqrt(tau) times a standard normal vector is
    an isotropic alpha-stable increment.
    """
    rows = u.shape[0]
    if alpha == 2.0:
        z = _normals(u, n_steps * d, scratch).reshape(rows, n_steps, d)
        z *= math.sqrt(2.0 * dt)
        return z
    shape = (rows, n_steps)
    if d == 1 and alpha == 1.0:
        x = np.subtract(u, 0.5, out=scratch.take("v", shape))
        x *= math.pi
        np.tan(x, out=x)
        x *= dt
        return x[..., None]
    v = np.subtract(u[:, :n_steps], 0.5, out=scratch.take("v", shape))
    v *= math.pi
    w = np.negative(u[:, n_steps:2 * n_steps], out=scratch.take("w", shape))
    np.log1p(w, out=w)
    np.negative(w, out=w)
    if d == 1:
        x = _cms(alpha, 0.0, v, w, scratch)
        x *= dt ** (1.0 / alpha)
        return x[..., None]
    alpha_half = alpha / 2.0
    tau = _cms(alpha_half, 1.0, v, w, scratch)
    tau *= 2.0 * (dt * math.cos(math.pi * alpha_half / 2.0)) ** (1.0 / alpha_half)
    np.sqrt(tau, out=tau)
    z = _normals(u[:, 2 * n_steps:], n_steps * d, scratch).reshape(rows, n_steps, d)
    z *= tau[..., None]
    return z


def _sample_paths(alphas, d: int, T: float, n_steps: int, u: np.ndarray,
                  scratch: _Scratch) -> list:
    """Independent isotropic stable paths from 0, one per alpha, for a block
    of trials: arrays of shape (len(u), n_steps + 1, d).

    Row t of u holds trial t's uniforms, read path by path in the order of
    alphas; the transforms and cumulative sums run once per block.  The
    paths and every intermediate are arrays of `scratch`, reused by the
    next block of the call.
    """
    dt = T / n_steps
    paths = []
    offset = 0
    for i, alpha in enumerate(alphas):
        width = _path_width(alpha, d, n_steps)
        path = scratch.take(("path", i), (u.shape[0], n_steps + 1, d))
        path[:, 0] = 0.0
        np.cumsum(_increments(alpha, d, dt, n_steps, u[:, offset:offset + width], scratch),
                  axis=1, out=path[:, 1:])
        paths.append(path)
        offset += width
    return paths


def sample_isotropic_stable_path(alpha: float, d: int, T: float, n_steps: int,
                                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Path of the isotropic stable process (exponent ||xi||^alpha), from 0.

    Returns positions of shape (n_steps + 1, d) at the uniform time grid on
    [0, T].  alpha = 2 is Brownian motion; alpha < 2 in d >= 2 is Brownian
    motion subordinated by a positive (alpha/2)-stable clock.
    """
    if rng is None:
        rng = np.random.default_rng()
    u = rng.random((1, _trial_width((alpha,), d, n_steps)))
    return _sample_paths((alpha,), d, T, n_steps, u, _Scratch())[0][0]


# ---------------------------------------------------------------------------
# frequency estimators
# ---------------------------------------------------------------------------

_QUERY_BUDGET = 500_000_000


def _check_budget(query_points: int) -> None:
    if query_points > _QUERY_BUDGET:
        raise BudgetError(f"{query_points:,} nearest-neighbour queries over all trials "
                          f"exceed the budget of {_QUERY_BUDGET:,}")


def _min_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise min |a_i - b_j| of d = 1 points a (rows, p, 1) and b, either
    per row (rows, q, 1) or one (q, 1) set shared by every row.

    A sort answers it: the closest pair is adjacent in its row's sorted
    concatenation, one value from each side.  The order of tied values does
    not matter, since a run of ties with both sides in it has an adjacent
    pair at distance 0.  Each gap is the float difference of the pair:
    bitwise what a KD-tree returns, except that the tree's squared gap
    underflows below about 1e-154 and overflows above about 1e154.
    """
    rows, p, _ = a.shape
    both = np.concatenate((a[..., 0], np.broadcast_to(b[..., 0], (rows, b.shape[-2]))), axis=1)
    order = np.argsort(both, axis=1)
    side = order >= p
    gaps = np.where(side[:, 1:] != side[:, :-1],
                    np.diff(np.take_along_axis(both, order, axis=1), axis=1), np.inf)
    return np.abs(gaps.min(axis=1))  # -0.0 - 0.0 is the only negative gap


# A shared d = 1 target of at most this many points is swept point by point
# (_sweep_distance); a larger one goes through the row sort of _min_distance.
# On one 81 x 200 block (2-vCPU Xeon VM, AVX-512, min of 300 calls) the sweep
# took about 30 us per target point and the sort 500-720 us in all: they
# cross between q = 20 (574 against 674 us) and q = 24 (754 against 675).
_SWEEP_POINTS = 16


def _sweep_distance(a: np.ndarray, b: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """Row-wise min |a_i - b_j| of d = 1 points a (rows, p, 1) and one (q, 1)
    set b shared by every row, one point of b at a time, in scratch arrays.

    Float subtraction rounds monotonically, so no gap is less than that of
    the nearest pair adjacent in sorted order, and the least of all gaps is
    bitwise _min_distance's.
    """
    x = a[..., 0]
    gap = scratch.take("gap", x.shape)
    best = scratch.take("best", x.shape[:1])
    least = scratch.take("least", x.shape[:1])
    best.fill(np.inf)
    with np.errstate(over="ignore"):  # a gap beyond the float range: inf, as in the sort
        for y in b[:, 0]:
            np.subtract(x, y, out=gap)
            np.abs(gap, out=gap)
            np.min(gap, axis=1, out=least)
            np.minimum(best, least, out=best)
    return best


# Cells are this much wider than epsilon, and cell indices are clipped to
# +-_CELL_CLIP.  Rounding x / width moves a point by at most
# ulp(_CELL_CLIP) / 2 = 2^-11 of a cell, less than the 2^-10 the widening
# leaves, so a pair the distance test can pass never lies two cells apart.
_CELL_WIDENING = 1.0 + 2.0 ** -10
_CELL_CLIP = 2.0 ** 42
# Cells are at least this wide: below it a squared gap is subnormal, and the
# distance test may round a gap wider than epsilon to a hit.
_MIN_CELL = 2.0 ** -500
# Cells cover the first _CELL_AXES coordinates only, so a point has at most
# 27 neighbour cells; in higher d the distance test alone reads the others.
_CELL_AXES = 3
# The cell hash is linear, with odd 32-bit multipliers (one per cell axis,
# then the row) shifted into the high half of an int64.  A key is the hash
# plus the point's index in the low 32 bits, so one np.sort orders the keys
# and carries the indices along.
_HASH = (np.array([0x9E3779B9, 0x85EBCA6B, 0xC2B2AE35, 0x27D4EB2F], dtype=np.uint64)
         << np.uint64(32)).view(np.int64)
_INDEX_MASK = np.int64(2 ** 32 - 1)


@functools.cache
def _neighbour_offsets(axes: int) -> np.ndarray:
    """Hash offsets of the 3^axes cells around a cell, itself included."""
    steps = np.stack(np.meshgrid(*([np.array([-1, 0, 1])] * axes), indexing="ij"), axis=-1)
    return steps.reshape(-1, axes) @ _HASH[:axes]


class _Cells:
    """Points hashed into epsilon-cells and sorted once, to find the points
    of another set that lie within epsilon of them.

    The points are (rows, q, d), one set per row of trials, or (q, d), one
    set shared by every row.  A point's hash is a linear function of its
    cell floor(x / width), width a hair over epsilon, and of its row.  So the
    hashes of a cell's 3^d neighbours (3^3 in d > 3) are its own plus
    constant offsets.  The side with fewer points carries those offsets:
    these points if they are at most `probe_points`, the number a probe will
    bring, or else the probe's.  Collisions of the hash only add candidate
    pairs; the exact distances decide.
    """

    def __init__(self, points: np.ndarray, epsilon: float, probe_points: int):
        self.epsilon = epsilon
        self.scale = 1.0 / (max(epsilon, _MIN_CELL) * _CELL_WIDENING)
        self.group = points.shape[1] if points.ndim == 3 else None  # points per row
        self.coords = _coordinates(points)
        self.expand = self.coords.shape[1] <= probe_points
        self.keys = self._sorted_keys(points, self.expand)

    def _sorted_keys(self, points: np.ndarray, expand: bool) -> np.ndarray:
        """Sorted keys of points (rows, n, d) or (n, d), or of their 3^d
        neighbour cells if `expand`."""
        axes = min(points.shape[-1], _CELL_AXES)
        with np.errstate(over="ignore"):  # clipped: |x| / width may exceed the float range
            cells = np.clip(points[..., :axes] * self.scale, -_CELL_CLIP, _CELL_CLIP)
        cells = np.floor(cells, out=cells).astype(np.int64)
        keys = cells[..., 0] * _HASH[0]
        for axis in range(1, axes):
            keys += cells[..., axis] * _HASH[axis]
        if self.group is not None:
            keys += (np.arange(points.shape[0]) * _HASH[-1])[:, None]
        keys = keys.ravel()
        keys |= np.arange(keys.size)
        if expand:
            offsets = _neighbour_offsets(axes)
            expanded = np.empty((offsets.size, keys.size), dtype=np.int64)
            for row, offset in zip(expanded, offsets):
                np.add(keys, offset, out=row)
            keys = expanded.ravel()
        keys.sort()
        return keys

    def near(self, probe: np.ndarray) -> np.ndarray:
        """Hit flag per row of probe (rows, p, d): does some point of the
        row lie within epsilon of this set (of the row's own set, if per row)?

        Each probe key does one pair of searchsorted calls on the sorted keys;
        the candidate pairs are then tested, _BLOCK_VALUES at a time, by the
        distance a KD-tree computes, sqrt(sum_k (a_k - b_k)^2) summed in
        coordinate order, so every flag is the tree's `distance < epsilon`.
        """
        rows, p, _ = probe.shape
        coords = _coordinates(probe)
        needles = self._sorted_keys(probe, not self.expand)
        owners = needles & _INDEX_MASK
        needles -= owners
        lo = np.searchsorted(self.keys, needles, side="left")
        counts = np.searchsorted(self.keys, needles | _INDEX_MASK, side="right") - lo
        keep = np.flatnonzero(counts)
        owners, counts = owners[keep], counts[keep]
        ends = np.cumsum(counts)
        shift = lo[keep] - (ends - counts)  # candidate c of owner k is keys[c + shift[k]]
        hit = np.zeros(rows, dtype=bool)
        total = int(ends[-1]) if ends.size else 0
        for start in range(0, total, _BLOCK_VALUES):
            c = np.arange(start, min(start + _BLOCK_VALUES, total))
            k = np.searchsorted(ends, c, side="right")
            i, j = owners[k], self.keys[c + shift[k]] & _INDEX_MASK
            with np.errstate(over="ignore"):  # far candidate pairs: inf, as in the tree
                sq = np.zeros(c.size)
                for x, y in zip(coords, self.coords):
                    gap = x[i] - y[j]
                    sq += gap * gap
            row = i // p
            close = np.sqrt(sq) < self.epsilon
            if self.group is not None:
                close &= j // self.group == row  # a hash collision across rows
            hit[row[close]] = True
        return hit


def _coordinates(points: np.ndarray) -> np.ndarray:
    """(d, n) coordinate arrays of points (..., d), checked finite."""
    coords = points.reshape(-1, points.shape[-1]).T.copy()
    if not np.isfinite(coords).all():
        raise ValueError("points must be finite, got nan or inf")
    return coords


def _near(a: np.ndarray, b, epsilon: float,
          scratch: Optional[_Scratch] = None) -> np.ndarray:
    """Hit flag per row: does some point of a (rows, p, d) lie within
    epsilon of b, the row's own points (rows, q, d), one (q, d) set shared by
    every row, or a shared set already hashed into _Cells?

    Every flag is `min distance < epsilon` as a KD-tree computes it.  In
    d = 1 a shared set of at most _SWEEP_POINTS points is swept point by
    point (_sweep_distance, in `scratch` arrays), and any other set takes
    one sort per row (_min_distance); in d >= 2 the epsilon-cells of _Cells
    answer.
    """
    if isinstance(b, _Cells):
        return b.near(a)
    if a.shape[-1] == 1:
        if b.ndim == 2 and b.shape[0] <= _SWEEP_POINTS:
            return np.less(_sweep_distance(a, b, scratch or _Scratch()), epsilon)
        return np.less(_min_distance(a, b), epsilon)
    return _Cells(b, epsilon, a.shape[0] * a.shape[1]).near(a)


def hitting_frequency(sys: StableSystem, target: SetDiscretization,
                      cfg: MCConfig) -> MCEstimate:
    """Fraction of trials where the additive field enters the epsilon
    neighborhood of the target cloud over the [0, T]^N time grid.

    For N = 2 the n^2 field values X1(i) + X2(j) are never formed: since
    |X1(i) + X2(j) - y| = |X2(j) - (y - X1(i))|, X2's n points are matched
    against the m n points y_k - X1(i), for m target atoms.
    """
    if sys.n > 2:
        raise ValueError("time grids beyond N=2 are out of scope in v1")
    target_pts = discretize(target).points
    if target_pts.shape[1] != sys.d:
        raise ValueError(f"target points lie in R^{target_pts.shape[1]}, "
                         f"the field in R^{sys.d}")
    _check_budget(cfg.trials * cfg.n_steps * (target_pts.shape[0] if sys.n == 2 else 1))
    target = target_pts
    if sys.n == 1 and sys.d > 1:  # hashed once, not once per block
        block_points = _block_trials(1, cfg.n_steps, sys.d) * cfg.n_steps
        target = _Cells(target_pts, cfg.epsilon, block_points)
    hits = np.empty(cfg.trials)
    # per trial, the shifted target (N = 2) or the sweep's gaps (_sweep_distance)
    work = cfg.n_steps * (target_pts.size if sys.n == 2 else 1) + 2
    for trials, u, paths, scratch in _blocks(cfg, sys.alphas, sys.d, cfg.time_horizon,
                                             work=work):
        paths = [p[:, 1:] for p in paths]
        if sys.n == 1:
            hits[trials] = _near(paths[0], target, cfg.epsilon, scratch)
        else:
            x1, x2 = paths
            shifted = scratch.take("shifted", (len(u), target_pts.shape[0]) + x1.shape[1:])
            np.subtract(target_pts[:, None, :], x1[:, None, :, :], out=shifted)
            hits[trials] = _near(shifted.reshape(len(u), -1, sys.d), x2, cfg.epsilon)
    return _estimate(hits)


def intersection_frequency(alpha1: float, alpha2: float, d: int,
                           cfg: MCConfig) -> MCEstimate:
    """Fraction of trials where two independent paths pass within epsilon."""
    _check_budget(cfg.trials * cfg.n_steps)
    hits = np.empty(cfg.trials)
    for trials, _, (p1, p2), _ in _blocks(cfg, (alpha1, alpha2), d, cfg.time_horizon):
        hits[trials] = _near(p1[:, 1:], p2[:, 1:], cfg.epsilon)
    return _estimate(hits)


def _distinct_rows(cells: np.ndarray) -> int:
    """Number of distinct rows of a 2-D integer array: one lexsort, then a
    comparison of neighbouring rows."""
    if cells.shape[0] == 0:
        return 0
    ordered = cells[np.lexsort(cells.T)]
    return 1 + int(np.count_nonzero(np.any(ordered[1:] != ordered[:-1], axis=1)))


def box_dimension_estimate(points: np.ndarray, scales) -> float:
    """Least-squares slope of log(occupied boxes) against log(1/scale)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scales = sorted(float(s) for s in scales)
    if pts.shape[0] < 2 or np.all(pts == pts[0]):
        return 0.0
    if len(scales) < 4:
        raise ValueError("need at least 4 scales")
    counts = [_distinct_rows(np.floor(pts / s).astype(np.int64)) for s in scales]
    x = np.log(1.0 / np.array(scales))
    y = np.log(np.array(counts, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# sojourn moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianDensitySpec:
    """Test density mass * N(0, sigma^2) for the sojourn estimators."""

    sigma: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        z = np.asarray(x) / self.sigma
        return self.mass * np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def fourier(self, xi: np.ndarray) -> np.ndarray:
        """f_hat(xi) = mass * exp(-sigma^2 xi^2 / 2)."""
        return self.mass * np.exp(-0.5 * (self.sigma * np.asarray(xi)) ** 2)

    def tail_mass_beyond(self, x: float) -> float:
        """Mass outside [-x, x]."""
        return self.mass * math.erfc(x / (self.sigma * math.sqrt(2.0)))


# Sojourn paths run over times [0, 10]; the e^-t weight beyond is e^-10 = 4.5e-5.
_SOJOURN_SPAN = 10.0


def sojourn_mc(alpha: float, f: GaussianDensitySpec, cfg: MCConfig,
               half_width: float = 10.0) -> tuple[MCEstimate, MCEstimate]:
    """Estimate the first two moments of the sojourn functional (d=1, N=1).

    The two-sided path is built from two independent one-sided paths
    (negative times run the reflected second path).  Each trial draws the
    start point uniformly on [-L, L] and weighs by 2L; the sojourn value is
    the exponentially weighted time integral of f along the shifted path
    over times up to _SOJOURN_SPAN, by trapezoid quadrature on the
    simulation grid.  Returns (first moment, second moment) estimates.
    """
    if f.tail_mass_beyond(0.9 * half_width) > 1e-3:
        raise ValueError("half_width too small: test density has mass near the edge")
    n = cfg.n_steps
    dt = _SOJOURN_SPAN / n
    tgrid = dt * np.arange(n + 1)
    wts = np.exp(-tgrid) * dt
    wts[0] *= 0.5
    wts[-1] *= 0.5
    first = np.empty(cfg.trials)
    second = np.empty(cfg.trials)
    for trials, u, (pos, neg), _ in _blocks(cfg, (alpha, alpha), 1, _SOJOURN_SPAN, extra=1):
        x0 = -half_width + 2.0 * half_width * u[:, :1]
        sf = 0.5 * (np.sum(f(x0 + pos[:, :, 0]) * wts, axis=1)
                    + np.sum(f(x0 - neg[:, :, 0]) * wts, axis=1))
        first[trials] = 2.0 * half_width * sf
        second[trials] = 2.0 * half_width * sf * sf
    return _estimate(first), _estimate(second)
