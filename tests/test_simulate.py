"""Monte Carlo: stable samplers, paths, hitting, box counting, sojourns."""
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats
from scipy.spatial import cKDTree

from addlevy import (
    MCConfig,
    StableSystem,
    box_dimension_estimate,
    hitting_frequency,
    intersection_frequency,
    sample_isotropic_stable_path,
    sample_stable_increment,
    sojourn_mc,
)
from addlevy import simulate
from addlevy.simulate import BudgetError, GaussianDensitySpec
from addlevy.measures import cube_grid, discretize, two_point


# ---------------------------------------------------------------------------
# references: one path and one trial at a time, each trial reading its K
# uniforms from one generator with rng.random(K)
# ---------------------------------------------------------------------------

def reference_width(alpha, d, n_steps):
    """Uniforms of one path: normals come in Box-Muller pairs, a CMS step
    takes a pair (v, w), a d = 1 Cauchy step one uniform."""
    normal_pairs = (n_steps * d + 1) // 2
    if alpha == 2.0:
        return 2 * normal_pairs
    if d == 1:
        return n_steps if alpha == 1.0 else 2 * n_steps
    return 2 * n_steps + 2 * normal_pairs


def trial_uniforms(seed, trials, width):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [rng.random(width) for _ in range(trials)]


def reference_path(alpha, d, T, n_steps, u):
    """Per-path sampler: transforms one path's uniforms u (1-D)."""
    dt = T / n_steps

    def normals(uu):
        half = uu.size // 2
        radius = np.sqrt(-2.0 * np.log1p(-uu[:half]))
        # half-angle Box-Muller: t = tan(pi u), (cos, sin)(2 pi u) = (1 - t^2, 2 t) / (1 + t^2)
        t = np.tan(math.pi * uu[half:])
        q = radius / (1.0 + t * t)
        z = np.concatenate(((1.0 - t * t) * q, 2.0 * t * q))
        return z[:n_steps * d].reshape(n_steps, d)

    if alpha == 2.0:
        steps = math.sqrt(2.0 * dt) * normals(u)
    elif d == 1 and alpha == 1.0:
        steps = (dt * np.tan(math.pi * (u - 0.5)))[:, None]
    else:
        v = math.pi * (u[:n_steps] - 0.5)
        w = -np.log1p(-u[n_steps:2 * n_steps])
        if d == 1:
            x = simulate._cms(alpha, 0.0, v, w, simulate._Scratch())
            steps = (dt ** (1.0 / alpha) * x)[:, None]
        else:
            alpha_half = alpha / 2.0
            tau = (2.0 * (dt * math.cos(math.pi * alpha_half / 2.0)) ** (1.0 / alpha_half)
                   * simulate._cms(alpha_half, 1.0, v, w, simulate._Scratch()))
            steps = normals(u[2 * n_steps:]) * np.sqrt(tau)[:, None]
    path = np.zeros((n_steps + 1, d))
    path[1:] = np.cumsum(steps, axis=0)
    return path


def reference_paths(alphas, d, T, n_steps, u):
    """The paths of one trial, read from its uniforms in the order of alphas."""
    paths, offset = [], 0
    for a in alphas:
        width = reference_width(a, d, n_steps)
        paths.append(reference_path(a, d, T, n_steps, u[offset:offset + width]))
        offset += width
    assert offset == u.size
    return paths


def reference_hitting(sys_, target, cfg):
    """All n^N field values of each trial against a tree on the target."""
    tree = cKDTree(discretize(target).points)
    width = sum(reference_width(a, sys_.d, cfg.n_steps) for a in sys_.alphas)
    hits = np.empty(cfg.trials)
    for i, u in enumerate(trial_uniforms(cfg.seed, cfg.trials, width)):
        paths = [p[1:] for p in reference_paths(sys_.alphas, sys_.d, cfg.time_horizon,
                                                cfg.n_steps, u)]
        if sys_.n == 1:
            pts = paths[0]
        else:
            pts = (paths[0][:, None, :] + paths[1][None, :, :]).reshape(-1, sys_.d)
        hits[i] = 1.0 if tree.query(pts, k=1)[0].min() < cfg.epsilon else 0.0
    return simulate._estimate(hits)


def reference_intersection(alpha1, alpha2, d, cfg):
    width = reference_width(alpha1, d, cfg.n_steps) + reference_width(alpha2, d, cfg.n_steps)
    hits = np.empty(cfg.trials)
    for i, u in enumerate(trial_uniforms(cfg.seed, cfg.trials, width)):
        p1, p2 = reference_paths((alpha1, alpha2), d, cfg.time_horizon, cfg.n_steps, u)
        hits[i] = 1.0 if cKDTree(p1[1:]).query(p2[1:], k=1)[0].min() < cfg.epsilon else 0.0
    return simulate._estimate(hits)


def reference_sojourn(alpha, f, cfg, half_width=10.0, time_span=10.0):
    n = cfg.n_steps
    dt = time_span / n
    wts = np.exp(-dt * np.arange(n + 1)) * dt
    wts[0] *= 0.5
    wts[-1] *= 0.5
    first = np.empty(cfg.trials)
    second = np.empty(cfg.trials)
    width = 1 + 2 * reference_width(alpha, 1, n)
    for i, u in enumerate(trial_uniforms(cfg.seed, cfg.trials, width)):
        x0 = -half_width + 2.0 * half_width * u[0]
        pos_path, neg_path = (p[:, 0] for p in reference_paths((alpha, alpha), 1, time_span,
                                                                n, u[1:]))
        sf = 0.5 * (np.sum(f(x0 + pos_path) * wts) + np.sum(f(x0 - neg_path) * wts))
        first[i] = 2.0 * half_width * sf
        second[i] = 2.0 * half_width * sf * sf
    return simulate._estimate(first), simulate._estimate(second)


def reference_box_dimension(points, scales):
    """Distinct cells by np.unique over rows."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scales = sorted(float(s) for s in scales)
    counts = [np.unique(np.floor(pts / s).astype(np.int64), axis=0).shape[0]
              for s in scales]
    return float(np.polyfit(np.log(1.0 / np.array(scales)),
                            np.log(np.array(counts, dtype=float)), 1)[0])


# named indices plus drawn ones; below 0.4 the heavy tails overflow to inf
ALPHA = st.one_of(st.sampled_from((0.5, 1.0, 1.5, 2.0)), st.floats(0.4, 2.0))


def cms_oracle(alpha, beta, v, w):
    """The Chambers-Mallows-Stuck transform as written in the paper, with
    sin and cos."""
    tan_half = math.tan(math.pi * alpha / 2.0)
    b = math.atan(beta * tan_half) / alpha
    s = (1.0 + beta ** 2 * tan_half ** 2) ** (1.0 / (2.0 * alpha))
    return (s * np.sin(alpha * (v + b)) / np.cos(v) ** (1.0 / alpha)
            * (np.cos(v - alpha * (v + b)) / w) ** ((1.0 - alpha) / alpha))


# v = pi (u - 1/2) and w = -log1p(-u) for u = k 2^-53, the values the
# sampler makes, but for w = 0 (u = 0)
U_STEP = 2.0 ** -53
V_EDGE = math.pi * (0.5 - U_STEP)
W_MIN = -math.log1p(-U_STEP)
W_MAX = -math.log1p(-(1.0 - U_STEP))
CMS_V = st.integers(0, 2 ** 53 - 1).map(lambda k: math.pi * (k * U_STEP - 0.5))
CMS_W = st.integers(1, 2 ** 53 - 1).map(lambda k: -math.log1p(-k * U_STEP))
CMS_PAIRS = st.lists(st.tuples(CMS_V, CMS_W), min_size=1, max_size=16)


class TestStableSampler:
    def test_gaussian_reduction(self):
        # [DERIVED] alpha = 2 is N(0, 2 scale^2 dt)
        rng = np.random.default_rng(1)
        x = sample_stable_increment(2.0, scale=1.0, dt=1.0, rng=rng, size=100_000)
        assert np.var(x) == pytest.approx(2.0, rel=0.05)

    def test_cauchy_median(self):
        # [TRIVIAL] symmetric: median at 0
        rng = np.random.default_rng(2)
        x = sample_stable_increment(1.0, rng=rng, size=100_000)
        # median stderr ~ 1/(2 f(0) sqrt(n)) = pi/(2 sqrt(n)) for unit Cauchy
        assert abs(np.median(x)) < 3.0 * math.pi / (2.0 * math.sqrt(x.size))

    def test_subordinator_positive(self):
        # [DERIVED] totally skewed alpha < 1 increments are strictly positive
        rng = np.random.default_rng(3)
        x = sample_stable_increment(0.7, beta=1.0, rng=rng, size=50_000)
        assert np.min(x) > 0.0

    def test_characteristic_function(self):
        # [DERIVED] empirical CF matches exp(-|xi|^alpha) for alpha = 1.5
        rng = np.random.default_rng(4)
        x = sample_stable_increment(1.5, rng=rng, size=200_000)
        for xi in (0.5, 1.0, 2.0):
            emp = np.mean(np.exp(1j * xi * x))
            assert emp.real == pytest.approx(math.exp(-xi ** 1.5), abs=0.01)
            assert abs(emp.imag) < 0.01

    def test_alpha_one_skew_rejected(self):
        with pytest.raises(ValueError):
            sample_stable_increment(1.0, beta=0.5, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("alpha, beta", [(1.5, 0.5), (1.5, -1.0), (0.7, 0.5), (1.2, 1.0)])
    def test_skewed_characteristic_function(self, alpha, beta):
        # [DERIVED] E exp(i xi X) = exp(-|xi|^alpha (1 - i beta sgn(xi) tan(pi alpha / 2)))
        rng = np.random.default_rng(40)
        x = sample_stable_increment(alpha, beta=beta, rng=rng, size=400_000)
        for xi in (-1.0, 0.5, 1.3):
            emp = np.mean(np.exp(1j * xi * x))
            expected = np.exp(-abs(xi) ** alpha
                              * (1.0 - 1j * beta * math.copysign(1.0, xi)
                                 * math.tan(math.pi * alpha / 2.0)))
            assert abs(emp - expected) < 0.01, (alpha, beta, xi)

    @pytest.mark.parametrize("kwargs", [{"dt": -1.0}, {"dt": 0.0}, {"dt": float("nan")},
                                        {"dt": float("inf")}, {"scale": -1.0, "beta": 1.0},
                                        {"scale": 0.0}, {"scale": float("nan")},
                                        {"scale": float("inf")}])
    def test_bad_dt_and_scale_rejected(self, kwargs):
        # dt < 0 gave complex variates, scale < 0 negative subordinator steps
        with pytest.raises(ValueError):
            sample_stable_increment(0.7, rng=np.random.default_rng(0), size=10, **kwargs)

    def test_scalar_draw(self):
        # [TRIVIAL] size=None is one finite float, the first of the size-1 draw
        for alpha, beta in ((0.7, 1.0), (1.0, 0.0), (1.5, -0.5), (2.0, 0.0)):
            x = sample_stable_increment(alpha, beta=beta, rng=np.random.default_rng(41))
            assert isinstance(x, float) and math.isfinite(x)
            same = sample_stable_increment(alpha, beta=beta, rng=np.random.default_rng(41), size=1)
            assert x == same[0]

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(0.4, 2.0), beta=st.floats(-1.0, 1.0), pairs=CMS_PAIRS)
    @example(alpha=0.4, beta=1.0, pairs=[(-V_EDGE, W_MIN), (V_EDGE, W_MIN), (0.0, W_MIN)])
    @example(alpha=0.4, beta=-1.0, pairs=[(-V_EDGE, W_MAX), (V_EDGE, W_MIN)])
    @example(alpha=2.0, beta=1.0, pairs=[(-V_EDGE, W_MIN), (V_EDGE, W_MAX)])
    @example(alpha=1.0, beta=0.0, pairs=[(-V_EDGE, W_MIN), (V_EDGE, W_MAX), (0.0, 1.0)])
    @example(alpha=1.25, beta=-1.0, pairs=[(V_EDGE, W_MIN), (-V_EDGE, W_MIN)])
    @example(alpha=1.5, beta=1.0, pairs=[(-math.pi / 2, W_MIN), (V_EDGE, W_MAX)])
    @example(alpha=0.7, beta=0.5, pairs=[(math.pi * U_STEP, W_MAX), (-math.pi * U_STEP, W_MIN)])
    def test_tangent_transform_matches_sin_cos_oracle(self, alpha, beta, pairs):
        # [DERIVED] the tangent-only transform is the sin/cos one to rounding
        if alpha == 1.0:
            beta = 0.0
        v, w = (np.array(c) for c in zip(*pairs))
        # a subnormal angle alpha (v + b) loses bits when either form rounds it
        theta = alpha * (v + math.atan(beta * math.tan(math.pi * alpha / 2.0)) / alpha)
        assume(np.all((theta == 0.0) | (np.abs(theta) >= np.finfo(float).tiny)))
        got = simulate._cms(alpha, beta, v.copy(), w.copy(), simulate._Scratch())
        with np.errstate(invalid="ignore"):
            want = cms_oracle(alpha, beta, v, w)
        # at an edge of v with |beta| = 1, r = v - theta may round past
        # +-pi/2: the oracle's cos(r) turns negative and its power nan, while
        # the secant stays positive
        past = np.abs(v - theta) > math.pi / 2
        assert np.all(np.isfinite(got[past]))
        got, want = got[~past], want[~past]
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * np.abs(want[finite]))


class TestStablePath:
    def test_starts_at_origin(self):
        # [TRIVIAL]
        path = sample_isotropic_stable_path(1.5, 2, 1.0, 100,
                                            np.random.default_rng(0))
        assert path.shape == (101, 2)
        assert np.all(path[0] == 0.0)

    def test_brownian_mean_square_displacement(self):
        # [DERIVED] diffusive scaling: E||X(T)||^2 = 2 d' T per coordinate
        # convention Var = 2 dt for scale 1 in d = 1
        rng = np.random.default_rng(5)
        ends = np.array([sample_isotropic_stable_path(2.0, 1, 1.0, 50, rng)[-1, 0]
                         for _ in range(4000)])
        assert np.mean(ends ** 2) == pytest.approx(2.0, rel=0.05)

    def test_planar_cauchy_isotropy(self):
        # [DERIVED] angular histogram of increments is uniform (chi-square)
        rng = np.random.default_rng(6)
        path = sample_isotropic_stable_path(1.0, 2, 1.0, 20_000, rng)
        steps = np.diff(path, axis=0)
        angles = np.arctan2(steps[:, 1], steps[:, 0])
        counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
        assert stats.chisquare(counts).pvalue > 0.01


class TestHitting:
    def test_containing_ball_hit_always(self):
        # [TRIVIAL] a huge target epsilon-ball is always reached
        cfg = MCConfig(trials=100, time_horizon=0.05, n_steps=20, epsilon=50.0, seed=0)
        sys_ = StableSystem(alphas=(2.0,), d=1)
        est = hitting_frequency(sys_, two_point(0.1), cfg)
        assert est.value == 1.0

    def test_determinism(self):
        # [TRIVIAL] identical seeds give identical estimates
        cfg = MCConfig(trials=150, time_horizon=1.0, n_steps=100, epsilon=0.2, seed=9)
        sys_ = StableSystem(alphas=(1.5,), d=1)
        a = hitting_frequency(sys_, two_point(0.5), cfg)
        b = hitting_frequency(sys_, two_point(0.5), cfg)
        assert a == b

    def test_intersection_dimension_trend(self):
        # planar pairs intersect easily; in d = 4 they effectively never do
        cfg = MCConfig(trials=200, time_horizon=1.0, n_steps=150, epsilon=0.3, seed=11)
        close = intersection_frequency(2.0, 2.0, 2, cfg)
        far = intersection_frequency(2.0, 2.0, 4, cfg)
        assert close.value > far.value


class TestBoxDimension:
    SCALES = tuple(2.0 ** -k for k in range(4, 11))

    def test_uniform_interval(self):
        # [TRIVIAL] a filled interval has box dimension 1
        pts = np.random.default_rng(0).uniform(size=(10_000, 1))
        assert box_dimension_estimate(pts, self.SCALES) == pytest.approx(1.0, abs=0.1)

    def test_single_point(self):
        # [TRIVIAL]
        pts = np.zeros((500, 1))
        assert box_dimension_estimate(pts, self.SCALES) == 0.0

    def test_needs_enough_scales(self):
        with pytest.raises(ValueError):
            box_dimension_estimate(np.random.default_rng(0).uniform(size=(10, 1)),
                                   (0.5, 0.25))


class TestSojourn:
    def test_half_mass_linearity(self):
        # [TRIVIAL] S is linear, so halving the density halves the first
        # moment trial by trial at a fixed seed
        cfg = MCConfig(trials=200, n_steps=400, seed=21)
        full, _ = sojourn_mc(1.5, GaussianDensitySpec(mass=1.0), cfg)
        half, _ = sojourn_mc(1.5, GaussianDensitySpec(mass=0.5), cfg)
        assert half.value == pytest.approx(0.5 * full.value, rel=1e-12)

    def test_first_moment_near_one(self):
        # mean-one property at modest trial count (wide 3-sigma band)
        cfg = MCConfig(trials=800, n_steps=400, seed=22)
        first, second = sojourn_mc(1.5, GaussianDensitySpec(), cfg)
        assert abs(first.value - 1.0) < max(3.0 * first.stderr, 0.1)
        assert second.value > 0.0

    def test_wide_density_rejected(self):
        # densities leaking past the sampling window are refused
        cfg = MCConfig(trials=100, seed=0)
        with pytest.raises(ValueError):
            sojourn_mc(1.5, GaussianDensitySpec(sigma=20.0), cfg, half_width=5.0)


class TestMCConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MCConfig(trials=10)
        with pytest.raises(ValueError):
            MCConfig(epsilon=0.0)

    @pytest.mark.parametrize("field", ["epsilon", "time_horizon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MCConfig(trials=100, **{field: value})

    @pytest.mark.parametrize("kwargs", [{"time_horizon": -1.0}, {"time_horizon": 0.0},
                                        {"time_horizon": float("nan")}, {"n_steps": 0},
                                        {"n_steps": -5}])
    def test_empty_time_grid_rejected(self, kwargs):
        # a negative horizon made dt ** (1/alpha) complex and kept its real part
        with pytest.raises(ValueError):
            MCConfig(trials=100, **kwargs)


class TestBlockSampler:
    @settings(max_examples=40, deadline=None)
    @given(alphas=st.lists(ALPHA, min_size=1, max_size=2), d=st.sampled_from((1, 2, 3)),
           n_steps=st.integers(1, 60), trials=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_block_paths_equal_per_path_sampler(self, alphas, d, n_steps, trials, seed):
        # [DERIVED] same uniforms, same transforms: the block's paths are
        # bitwise those of one path at a time
        width = sum(reference_width(a, d, n_steps) for a in alphas)
        assert simulate._trial_width(alphas, d, n_steps) == width
        u = trial_uniforms(seed, trials, width)
        paths = simulate._sample_paths(alphas, d, 1.3, n_steps, np.stack(u), simulate._Scratch())
        for t in range(trials):
            refs = reference_paths(alphas, d, 1.3, n_steps, u[t])
            for block, ref in zip(paths, refs):
                assert block[t].tobytes() == ref.tobytes()

    def test_single_path_is_the_one_generator_block(self):
        # [TRIVIAL]
        for alpha, d in ((0.7, 1), (1.0, 1), (1.0, 2), (2.0, 3)):
            path = sample_isotropic_stable_path(alpha, d, 1.0, 501, np.random.default_rng(4))
            u = np.random.default_rng(4).random(reference_width(alpha, d, 501))
            assert path.tobytes() == reference_path(alpha, d, 1.0, 501, u).tobytes()


class TestUniformTransforms:
    # [DERIVED] the paths no longer reuse numpy's own variates, so the laws
    # of the transformed uniforms are checked directly

    def test_box_muller_normals_with_odd_count(self):
        # 3 x 10001 normals: the last Box-Muller pair gives only its cosine
        n_steps, d = 10_001, 3
        path = sample_isotropic_stable_path(2.0, d, float(n_steps), n_steps,
                                            np.random.default_rng(30))
        z = np.diff(path, axis=0).ravel() / math.sqrt(2.0)
        assert z.size == n_steps * d and z.size % 2 == 1
        assert stats.kstest(z, "norm").pvalue > 0.01

    def test_cms_pair_laws(self, monkeypatch):
        # v uniform on (-pi/2, pi/2) and w standard exponential, as the
        # sampler hands them to the CMS transform
        seen = []
        cms = simulate._cms

        def recording(alpha, beta, v, w, scratch):
            seen.append((v.copy(), w.copy()))
            return cms(alpha, beta, v, w, scratch)

        monkeypatch.setattr(simulate, "_cms", recording)
        sample_isotropic_stable_path(1.5, 1, 1.0, 50_000, np.random.default_rng(31))
        ((v, w),) = seen
        assert stats.kstest(w.ravel(), "expon").pvalue > 0.01
        assert stats.kstest(v.ravel(), "uniform", args=(-math.pi / 2, math.pi)).pvalue > 0.01

    @pytest.mark.parametrize("d", (1, 2))
    @pytest.mark.parametrize("alpha", (0.7, 1.0, 1.5, 2.0))
    def test_increment_characteristic_function(self, alpha, d):
        # E exp(i xi . X(dt)) = exp(-dt ||xi||^alpha) for one long path
        n_steps, dt = 200_000, 0.5
        path = sample_isotropic_stable_path(alpha, d, dt * n_steps, n_steps,
                                            np.random.default_rng(32))
        steps = np.diff(path, axis=0)
        for xi in (np.array([0.5, -1.0]), np.array([1.0, 0.0]), np.array([1.2, 0.9])):
            xi = xi[:d]
            emp = np.mean(np.exp(1j * (steps @ xi)))
            expected = math.exp(-dt * np.linalg.norm(xi) ** alpha)
            assert abs(emp.real - expected) < 0.01, (alpha, d, xi)
            assert abs(emp.imag) < 0.01, (alpha, d, xi)


ROWS = st.shared(st.integers(1, 4), key="rows")
# a tree squares each gap, so gaps below 1e-154 would underflow there
GAP_VALUES = st.one_of(st.integers(-6, 6).map(lambda k: 0.25 * k), st.sampled_from((0.0, -0.0)),
                       st.floats(-1e3, 1e3).filter(lambda x: x == 0.0 or abs(x) > 1e-100))
# far outside the other values, and huge: near +-1e300 the tree's squared gap
# overflows to inf, and across +-1.7e308 the gap itself does
FAR_VALUES = st.sampled_from((1e9, -1e12, 1e300, -1e300, 1.7e308, -1.7e308))


def gap_rows(width, values=GAP_VALUES):
    return ROWS.flatmap(lambda rows: st.lists(
        st.lists(values, min_size=width, max_size=width), min_size=rows, max_size=rows))


class TestNearestDistance:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=st.integers(1, 30), q=st.integers(1, 30), shared=st.booleans(),
           far=st.booleans(), eps=st.sampled_from((1e-3, 0.1, 0.25, 1.0)))
    def test_d1_equals_kd_tree_bitwise(self, data, p, q, shared, far, eps):
        # [DERIVED] ties (+-0.0 among them), repeated values and one-point
        # targets included.  q spans _SWEEP_POINTS, so _near sends shared
        # targets through both the sweep and the sort; each search is also
        # checked on its own.
        assert 1 <= simulate._SWEEP_POINTS < 30
        values = st.one_of(GAP_VALUES, FAR_VALUES) if far else GAP_VALUES
        a = np.array(data.draw(gap_rows(p, values)))[..., None]
        b = np.array(data.draw(gap_rows(q, values)))[..., None]
        if shared:
            b = b[0]
            tree = cKDTree(b)
            want = np.array([tree.query(row, k=1)[0].min() for row in a])
            got = (simulate._min_distance(a, b),
                   simulate._sweep_distance(a, b, simulate._Scratch()))
        else:
            want = np.array([cKDTree(brow).query(arow, k=1)[0].min() for arow, brow in zip(a, b)])
            got = (simulate._min_distance(a, b),)
        overflow = np.isinf(want)  # the tree's squared gap overflowed
        for dist in got:
            assert np.all(dist[overflow] > 1e154)
            assert np.where(overflow, np.inf, dist).tobytes() == want.tobytes()
        assert np.array_equal(simulate._near(a, b, eps), want < eps)

    def test_estimators_build_no_tree(self, monkeypatch):
        import scipy.spatial

        class NoTree:
            def __init__(self, *args, **kwargs):
                raise AssertionError("built a KD-tree")

        monkeypatch.setattr(scipy.spatial, "cKDTree", NoTree)
        cfg = MCConfig(trials=100, n_steps=50, epsilon=0.1, seed=3)
        for d in (1, 2, 3):
            for alphas in ((1.5,), (1.5, 1.2)):
                hitting_frequency(StableSystem(alphas=alphas, d=d), two_point(1.0, d), cfg)
            intersection_frequency(1.5, 1.2, d, cfg)


def tree_flags(a, b, eps):
    """The KD-tree oracle: min distance < eps per row."""
    if b.ndim == 2:
        tree = cKDTree(b)
        return np.array([tree.query(row, k=1)[0].min() < eps for row in a])
    return np.array([cKDTree(brow).query(arow, k=1)[0].min() < eps for arow, brow in zip(a, b)])


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = np.nextafter(x, math.copysign(math.inf, ulps))
    return float(x)


CELL_EPS = st.sampled_from((0.1, 0.3, 1.0, 2.0 ** -7, 1e-3))
HUGE = (1e200, -1e200, 1.5e200, -3e199, 1e200 * (1 + 2 ** -52))


@st.composite
def cell_clouds(draw, d, rows, count, eps):
    """(rows, count, d) coordinates: cell boundaries k eps (negative ones
    too) nudged by up to one ulp, free floats, huge values, or one cluster
    of points sharing a cell."""
    lattice = st.tuples(st.integers(-6, 6), st.integers(-1, 1)).map(
        lambda t: nudged(t[0] * eps, t[1]))
    coord = st.one_of(lattice, st.floats(-3.0, 3.0), st.sampled_from(HUGE))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.lists(st.lists(coord, min_size=d, max_size=d),
                                                min_size=count, max_size=count),
                                       min_size=rows, max_size=rows)))
    centre = np.array(draw(st.lists(lattice, min_size=d, max_size=d)))
    spread = draw(st.floats(0.0, 0.25)) * eps
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return centre + np.random.default_rng(seed).uniform(-spread, spread, (rows, count, d))


# directions of pairs set at distance (about) eps: an axis, a diagonal, or drawn
DIRECTIONS = st.one_of(
    st.sampled_from(((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 1.0, 1.0),
                     (1.0, 1.0, 0.0), (-1.0, 1.0, 1.0))),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: v[0] ** 2 + v[1] ** 2 > 1e-6))


class TestCellPairs:
    # [DERIVED] the epsilon-cell test decides every row as the KD-tree does

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), d=st.sampled_from((2, 3)), rows=st.integers(1, 4),
           p=st.integers(1, 12), q=st.integers(1, 12), shared=st.booleans(), eps=CELL_EPS)
    def test_equals_kd_tree(self, data, d, rows, p, q, shared, eps):
        a = data.draw(cell_clouds(d, rows, p, eps))
        b = data.draw(cell_clouds(d, 1 if shared else rows, q, eps))
        # move some points of b to about eps from a point of a, one ulp either side
        for _ in range(data.draw(st.integers(0, 4))):
            r = data.draw(st.integers(0, b.shape[0] - 1))
            i, j = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, q - 1))
            direction = np.array(data.draw(DIRECTIONS)[:d])
            length = nudged(eps, data.draw(st.integers(-2, 2)))
            step = length * direction / np.sqrt(np.sum(direction * direction))
            b[r, j] = a[data.draw(st.integers(0, rows - 1)) if shared else r, i] + step
        b = b[0] if shared else b
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simulate._near(a, b, eps)
        assert got.tolist() == tree_flags(a, b, eps).tolist()

    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("eps", (0.1, 0.3, 1e-3))
    def test_pairs_at_epsilon(self, d, eps):
        # pairs eps apart along an axis, and one ulp either side, from points
        # on a cell boundary (negative ones too), one ulp off it, or off the grid
        width = eps * simulate._CELL_WIDENING
        starts = [nudged(k * width, ulps) for k in range(-3, 3) for ulps in (-1, 0, 1)]
        for x0 in starts + [0.37, -2.5]:
            for gap in (nudged(eps, -1), eps, nudged(eps, 1), -eps):
                a = np.zeros((1, 1, d))
                a[0, 0, 0] = x0
                b = a.copy()
                b[0, 0, 0] = x0 + gap
                for bb in (b, b[0]):
                    assert (simulate._near(a, bb, eps).tolist()
                            == tree_flags(a, bb, eps).tolist()), (x0, gap)

    @pytest.mark.parametrize("d", (2, 3))
    def test_tiny_epsilon_reads_underflowing_gaps_as_the_tree(self, d):
        # a gap of 1e-165 squares to 0, so the tree sees distance 0 < 1e-170
        a = np.zeros((2, 1, d))
        b = a.copy()
        b[0, 0, 0] = 1e-165
        b[1, 0, 0] = 1e-150
        assert tree_flags(a, b, 1e-170).tolist() == [True, False]
        assert simulate._near(a, b, 1e-170).tolist() == [True, False]

    @pytest.mark.parametrize("d", (2, 3))
    def test_hash_collisions_only_add_candidates(self, monkeypatch, d):
        # with every multiplier 0 all points of all rows share one hash, so
        # each pair is a candidate: the distances and rows alone must decide
        monkeypatch.setattr(simulate, "_HASH", np.zeros(4, dtype=np.int64))
        simulate._neighbour_offsets.cache_clear()
        try:
            rng = np.random.default_rng(5)
            a = rng.uniform(-1.0, 1.0, (5, 8, d))
            b = a[::-1] + rng.uniform(-0.01, 0.01, a.shape)  # near pairs lie in other rows
            for bb in (b, b[2], b[:, :5]):
                assert simulate._near(a, bb, 0.05).tolist() == tree_flags(a, bb, 0.05).tolist()
        finally:
            simulate._neighbour_offsets.cache_clear()

    def test_cells_beyond_three_axes(self):
        # in d = 5 cells cover three axes; the last two must still count
        rng = np.random.default_rng(8)
        a = rng.uniform(-0.3, 0.3, (6, 20, 5))
        b = a + rng.normal(0.0, 0.02, a.shape)
        b[::2, :, 4] += 1.0  # far apart along the fifth axis only
        flags = tree_flags(a, b, 0.1)
        assert flags[1::2].all() and not flags[::2].any()
        assert simulate._near(a, b, 0.1).tolist() == flags.tolist()
        assert simulate._near(a, b[0], 0.1).tolist() == tree_flags(a, b[0], 0.1).tolist()

    @pytest.mark.parametrize("d", (2, 3))
    def test_huge_coordinates_overflow_to_no_hit(self, d):
        # squared gaps overflow: the tree reads inf, so no hit, and no warning
        a = np.full((2, 3, d), 1e200)
        a[1] *= -1.0
        b = a * (1.0 + 2.0 ** -40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simulate._near(a, b, 0.1)
            shared = simulate._near(a, b[0], 0.1)
        assert got.tolist() == [False, False] == tree_flags(a, b, 0.1).tolist()
        assert shared.tolist() == [False, False] == tree_flags(a, b[0], 0.1).tolist()
        assert simulate._near(a, a.copy(), 0.1).tolist() == [True, True]

    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_points_raise(self, d, bad):
        a = np.zeros((2, 3, d))
        b = np.ones((2, 4, d))
        for side in ("a", "b"):
            x, y = a.copy(), b.copy()
            (x if side == "a" else y)[1, 2, 0] = bad
            for yy in (y, y[1]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="finite"):
                        simulate._near(x, yy, 0.1)

    @pytest.mark.parametrize("d, n_per_axis, n_steps, peak_mib", [(2, 200, 50, 16),
                                                                   (3, 60, 20, 32)])
    def test_dense_target_equals_tree_in_bounded_memory(self, d, n_per_axis, n_steps,
                                                        peak_mib):
        # hundreds of target atoms per epsilon-cell: candidate pairs number
        # millions, and are tested a block's worth at a time
        target = cube_grid([[-0.5, 0.5]] * d, n_per_axis)
        cfg = MCConfig(trials=100, n_steps=n_steps, epsilon=0.1, seed=11)
        sys_ = StableSystem(alphas=(1.5,), d=d)
        tracemalloc.start()
        try:
            est = hitting_frequency(sys_, target, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est == reference_hitting(sys_, target, cfg)
        assert peak < peak_mib * 2 ** 20


class TestOneGenerator:
    def test_each_estimator_builds_one_generator(self, monkeypatch):
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        # 300 trials span several blocks of every estimator
        cfg = MCConfig(trials=300, n_steps=400, epsilon=0.1, seed=4)
        runs = (lambda: hitting_frequency(StableSystem(alphas=(1.5,), d=1), two_point(1.0), cfg),
                lambda: hitting_frequency(StableSystem(alphas=(1.5, 1.5), d=2),
                                          two_point(1.0, 2), cfg),
                lambda: intersection_frequency(1.5, 1.5, 2, cfg),
                lambda: sojourn_mc(1.5, GaussianDensitySpec(), cfg))
        for run in runs:
            built.clear()
            run()
            assert len(built) == 1


def _steps_for_block(n_paths, d, draw_steps):
    """n_steps giving blocks of 101..595 trials, so that block - 1, block and
    block + 1 are all valid trial counts of at most a few hundred trials."""
    lo = -(-simulate._BLOCK_VALUES // (596 * n_paths * d))
    hi = simulate._BLOCK_VALUES // (101 * n_paths * d)
    return draw_steps(st.integers(lo, hi))


class TestBlockEstimators:
    # [DERIVED] every estimator equals its one-trial-at-a-time reference
    # exactly, across a block boundary

    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), alphas=st.lists(ALPHA, min_size=1, max_size=2),
           d=st.sampled_from((1, 2, 3)), offset=st.sampled_from((-1, 0, 1)),
           seed=st.integers(0, 2 ** 31))
    def test_hitting(self, data, alphas, d, offset, seed):
        n_steps = _steps_for_block(len(alphas), d, data.draw)
        trials = simulate._block_trials(len(alphas), n_steps, d) + offset
        cfg = MCConfig(trials=trials, n_steps=n_steps, epsilon=0.15, seed=seed)
        sys_ = StableSystem(alphas=tuple(alphas), d=d)
        target = two_point(1.0, d)
        assert hitting_frequency(sys_, target, cfg) == reference_hitting(sys_, target, cfg)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), alpha1=ALPHA, alpha2=ALPHA, d=st.sampled_from((1, 2, 3)),
           offset=st.sampled_from((-1, 0, 1)), seed=st.integers(0, 2 ** 31))
    def test_intersection(self, data, alpha1, alpha2, d, offset, seed):
        n_steps = _steps_for_block(2, d, data.draw)
        trials = simulate._block_trials(2, n_steps, d) + offset
        cfg = MCConfig(trials=trials, n_steps=n_steps, epsilon=0.1, seed=seed)
        assert (intersection_frequency(alpha1, alpha2, d, cfg)
                == reference_intersection(alpha1, alpha2, d, cfg))

    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), alpha=ALPHA, offset=st.sampled_from((-1, 0, 1)),
           seed=st.integers(0, 2 ** 31))
    def test_sojourn(self, data, alpha, offset, seed):
        n_steps = _steps_for_block(2, 1, data.draw)
        trials = simulate._block_trials(2, n_steps, 1) + offset
        cfg = MCConfig(trials=trials, n_steps=n_steps, seed=seed)
        f = GaussianDensitySpec(sigma=0.8, mass=1.3)
        assert sojourn_mc(alpha, f, cfg) == reference_sojourn(alpha, f, cfg)

    @pytest.mark.parametrize("above", (0, 1, 8))
    def test_d1_grid_targets_on_both_sides_of_the_sweep(self, above):
        # a shared d = 1 target of _SWEEP_POINTS + above points: swept, or sorted per row
        q = simulate._SWEEP_POINTS + above
        cfg = MCConfig(trials=130, n_steps=150, epsilon=0.005, seed=23 + above)
        sys_ = StableSystem(alphas=(1.2,), d=1)
        target = cube_grid([(0.5, 3.0)], q)
        assert discretize(target).points.shape == (q, 1)
        est = hitting_frequency(sys_, target, cfg)
        assert 0.0 < est.value < 1.0
        assert est == reference_hitting(sys_, target, cfg)

    @pytest.mark.parametrize("estimator", ("hit N=1 d=1", "hit N=1 d=1 grid", "hit N=1 d=2",
                                           "hit N=2 d=1", "hit N=2 d=2", "intersection d=1",
                                           "intersection d=2", "sojourn"))
    def test_partial_block_after_a_full_one_equals_one_trial_blocks(self, monkeypatch,
                                                                    estimator):
        # [DERIVED] the per-call buffers carry nothing from one block into
        # the next: a full block, then a partial one, give bitwise what
        # blocks of one trial give
        n_steps = 50
        runs = {
            "hit N=1 d=1": ((1.5,), 1, lambda cfg: hitting_frequency(
                StableSystem(alphas=(1.5,), d=1), two_point(0.5), cfg)),
            "hit N=1 d=1 grid": ((1.5,), 1, lambda cfg: hitting_frequency(
                StableSystem(alphas=(1.5,), d=1), cube_grid([(-1.0, 1.0)], 40), cfg)),
            "hit N=1 d=2": ((1.5,), 2, lambda cfg: hitting_frequency(
                StableSystem(alphas=(1.5,), d=2), two_point(0.5, 2), cfg)),
            "hit N=2 d=1": ((1.5, 1.2), 1, lambda cfg: hitting_frequency(
                StableSystem(alphas=(1.5, 1.2), d=1), two_point(1.0), cfg)),
            "hit N=2 d=2": ((2.0, 1.5), 2, lambda cfg: hitting_frequency(
                StableSystem(alphas=(2.0, 1.5), d=2), two_point(1.0, 2), cfg)),
            "intersection d=1": ((1.0, 1.8), 1,
                                 lambda cfg: intersection_frequency(1.0, 1.8, 1, cfg)),
            "intersection d=2": ((1.5, 2.0), 2,
                                 lambda cfg: intersection_frequency(1.5, 2.0, 2, cfg)),
            "sojourn": ((1.5, 1.5), 1, lambda cfg: sojourn_mc(1.5, GaussianDensitySpec(), cfg)),
        }
        alphas, d, run = runs[estimator]
        size = simulate._block_trials(len(alphas), n_steps, d)
        cfg = MCConfig(trials=size + size // 2, n_steps=n_steps, epsilon=0.05, seed=29)
        assert cfg.trials % size and cfg.trials > size
        blocked = run(cfg)
        monkeypatch.setattr(simulate, "_block_trials", lambda *args: 1)
        assert blocked == run(cfg)

    def test_workload_sized_hitting_pair(self):
        # the benchmark's N = 2 shape: X2 against the m n shifted target points, not n^2 points
        cfg = MCConfig(trials=150, n_steps=200, epsilon=0.1, seed=17)
        sys_ = StableSystem(alphas=(1.5, 1.5), d=1)
        est = hitting_frequency(sys_, two_point(4.0), cfg)
        assert 0.0 < est.value < 1.0
        assert est == reference_hitting(sys_, two_point(4.0), cfg)


class TestBudget:
    def test_pair_grid_once_refused_now_runs(self):
        # n_steps^2 x trials = 6e8 tripped the old budget; the m n queries
        # per trial are 6e5 in all
        cfg = MCConfig(trials=150, n_steps=2000, epsilon=0.1, seed=2)
        t0 = time.perf_counter()
        est = hitting_frequency(StableSystem(alphas=(1.5, 1.5), d=1), two_point(4.0), cfg)
        assert time.perf_counter() - t0 < 5.0
        assert est.trials == 150 and 0.0 <= est.value <= 1.0

    @pytest.mark.parametrize("alphas, queries", [((1.5,), "1,000,000,000"),
                                                 ((1.5, 1.5), "2,000,000,000")])
    def test_oversize_refused_before_sampling(self, monkeypatch, alphas, queries):
        # trials x n_steps, times the 2 target atoms for N = 2
        def no_sampling(*args):
            raise AssertionError("sampled paths before checking the budget")
        monkeypatch.setattr(simulate, "_sample_paths", no_sampling)
        cfg = MCConfig(trials=1000, n_steps=1_000_000, seed=0)
        with pytest.raises(BudgetError, match=queries + r" .* 500,000,000"):
            hitting_frequency(StableSystem(alphas=alphas, d=1), two_point(1.0), cfg)
        with pytest.raises(BudgetError, match=r"1,000,000,000 .* 500,000,000"):
            intersection_frequency(1.5, 1.5, 1, cfg)

    def test_target_dimension_must_match(self):
        cfg = MCConfig(trials=100, n_steps=10, seed=0)
        with pytest.raises(ValueError, match="R\\^1"):
            hitting_frequency(StableSystem(alphas=(1.5,), d=2), two_point(1.0, 1), cfg)


class TestBoxCount:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(("random", "duplicated", "constant")),
           d=st.sampled_from((1, 2, 3)), n=st.integers(1, 300), span=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_distinct_rows_match_unique(self, kind, d, n, span, seed):
        rng = np.random.default_rng(seed)
        cells = rng.integers(-span, span + 1, size=(n, d))
        if kind == "duplicated":
            cells = cells[rng.integers(0, max(1, n // 4), size=n)]
        elif kind == "constant":
            cells = np.broadcast_to(cells[:1], (n, d)).copy()
        assert simulate._distinct_rows(cells) == np.unique(cells, axis=0).shape[0]

    def test_seeded_path_dimension_unchanged(self):
        # [DERIVED] integer counts, so the slope is the same float
        path = sample_isotropic_stable_path(0.7, 1, 1.0, 10_000, np.random.default_rng(5))
        scales = simulate.BOX_SCALES
        assert box_dimension_estimate(path, scales) == reference_box_dimension(path, scales)
