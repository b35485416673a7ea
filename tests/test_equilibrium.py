"""Energy matrices, the simplex minimizer, capacities, and the point test."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from addlevy import (
    EnergyMatrix,
    ExponentVector,
    IsotropicStable,
    BrownianIsotropic,
    PureDrift,
    Skewed1DStable,
    SumOf,
    assemble_matrix,
    bessel_riesz_capacity,
    point_capacity_test,
    riesz_kernel,
    solve_equilibrium,
)
from addlevy.equilibrium import InconclusiveError, _cell_average, _frank_wolfe, _kkt_start
from addlevy.kernels import Kernel, PotentialDensity
from addlevy.measures import cantor_product, circle, cube_grid, discretize, two_point


class TestAssembleMatrix:
    def test_two_point_riesz_entries(self):
        # [DERIVED] separation 1: off-diagonal |x-y|^{-1/2} = 1;
        # diagonal is the cell average (h/2)^{-s}/(1-s) with h = 1, s = 1/2
        m = assemble_matrix(riesz_kernel(1, 0.5), two_point(1.0))
        assert m.entries[0, 1] == pytest.approx(1.0)
        assert m.entries[1, 0] == pytest.approx(1.0)
        expected_diag = (0.5) ** (-0.5) / 0.5
        assert m.entries[0, 0] == pytest.approx(expected_diag)
        assert m.entries[1, 1] == pytest.approx(expected_diag)

    def test_exact_symmetry(self):
        # [TRIVIAL] entries[i][j] == entries[j][i] exactly
        m = assemble_matrix(riesz_kernel(1, 0.5), cube_grid([(0.0, 1.0)], 16))
        assert np.array_equal(m.entries, m.entries.T)

    def test_cube_grid_matches_direct_evaluation(self):
        # [DERIVED] off-diagonals are plain gauge evaluations at the centers
        spec = cube_grid([(0.0, 1.0)], 4)
        m = assemble_matrix(riesz_kernel(1, 0.5), spec)
        pts = discretize(spec).points[:, 0]
        for i in range(4):
            for j in range(4):
                if i != j:
                    direct = abs(pts[i] - pts[j]) ** -0.5
                    assert m.entries[i, j] == pytest.approx(direct, rel=1e-12)

    def test_potential_gauge_accepted(self):
        psi = ExponentVector((IsotropicStable(alpha=1.5, dim=1),))
        m = assemble_matrix(psi, cube_grid([(0.0, 1.0)], 8))
        assert np.all(np.isfinite(m.entries))
        assert np.array_equal(m.entries, m.entries.T)

    @pytest.mark.parametrize("gauge, disc", [
        (lambda: tilted_kernel(1), lambda: cube_grid([(0.0, 1.0)], 17)),
        (lambda: tilted_kernel(1), lambda: cantor_product(0.3, 3, 1)),
        (lambda: tilted_kernel(2), lambda: cube_grid([(0.0, 1.0), (-1.0, 0.5)], 6)),
        (lambda: tilted_kernel(2), lambda: circle(1.5, 24)),
        (lambda: riesz_kernel(2, 0.8), lambda: cube_grid([(0.0, 1.0), (0.0, 1.0)], 5)),
        (lambda: ExponentVector((IsotropicStable(alpha=1.5, dim=1),)),
         lambda: cube_grid([(0.0, 1.0)], 8)),
    ], ids=["tilted-grid", "tilted-cantor", "tilted-grid2d", "tilted-circle", "riesz-grid2d",
            "potential-grid"])
    def test_one_evaluation_equals_double_evaluation(self, gauge, disc):
        # the transpose of kappa(x_i - x_j) is kappa(x_j - x_i), so averaging
        # with it is the same as evaluating the gauge again at -diffs
        m = assemble_matrix(gauge(), disc())
        assert np.array_equal(m.entries, double_evaluation_matrix(gauge(), disc()))

    @pytest.mark.parametrize("d, s", [(1, 0.3), (1, 0.5), (2, 0.5), (2, 1.5), (3, 1.0),
                                      (3, 2.5)])
    def test_riesz_cell_average_closed_form(self, d, s):
        # [DERIVED] the mean of ||x||^-s over the ball of radius h/2 is
        # d (h/2)^-s / (d - s); the radial quadrature of the same gauge agrees
        # while d - s >= 1/2 (it loses the mass below its finest panel)
        k = riesz_kernel(d, d - s)
        h = 0.05
        quadrature = Kernel(eval=k.eval, dim=d)
        assert _cell_average(k, h) == pytest.approx(_cell_average(quadrature, h), rel=1e-7)
        if d == 1:  # bitwise the earlier d = 1 formula
            s = 1.0 - k.meta["riesz"]["alpha"]
            assert _cell_average(k, h) == (h / 2.0) ** (-s) / (1.0 - s)


def tilted_kernel(d):
    """A gauge that is not even: kappa(x) != kappa(-x)."""
    return Kernel(eval=lambda x: np.exp(-np.linalg.norm(x, axis=-1)) * (1.5 + np.tanh(x[..., 0])),
                  dim=d)


def double_evaluation_matrix(gauge, disc):
    """Reference assembly: the gauge evaluated at diffs and again at -diffs."""
    if isinstance(gauge, ExponentVector):
        gauge = PotentialDensity(gauge).as_kernel()
    mu = discretize(disc)
    diffs = mu.points[:, None, :] - mu.points[None, :, :]
    vals = 0.5 * (gauge.eval(diffs) + gauge.eval(-diffs))
    np.fill_diagonal(vals, _cell_average(gauge, mu.cell))
    return 0.5 * (vals + vals.T)


# A branch decision that cleared its threshold by less than this, relative to
# the energy, may be decided by roundoff: the carried M w of the solver and
# the fresh products of the reference differ by about 1e-15 relative.
DECISION_MARGIN = 1e-12


def dense_equilibrium(mat, tol=1e-8, max_iter=50000):
    """Reference away-step Frank-Wolfe: the original dense loop, which forms
    the full gradient and the curvature from n x n products at every step.

    Two additions: a drop step zeroes the dropped weight exactly, as
    ``solve_equilibrium`` does, and ``margin`` is the smallest relative
    distance by which any branch decision (convergence, FW and away
    vertices, FW versus away, clipped or interior step) cleared its
    threshold.  Returns (weights, energy, iterations, converged, margin).
    """
    n = mat.shape[0]
    w = np.full(n, 1.0 / n)
    energy = float(w @ mat @ w)
    margin = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        grad = 2.0 * (mat @ w)
        scale = max(abs(energy), 1e-300)
        i_fw = int(np.argmin(grad))
        fw_gap = float(grad @ w - grad[i_fw])
        rel_gap = fw_gap / scale
        margin = min(margin, abs(rel_gap - tol))
        if rel_gap < tol:
            return w, energy, it - 1, True, margin
        active = np.flatnonzero(w > 0.0)
        i_aw = int(active[np.argmax(grad[active])])
        away_gap = float(grad[i_aw] - grad @ w)
        if n > 1:
            lo = np.partition(grad, 1)
            margin = min(margin, (lo[1] - lo[0]) / scale)
        if active.size > 1:
            hi = np.partition(grad[active], -2)
            margin = min(margin, (hi[-1] - hi[-2]) / scale)
        margin = min(margin, abs(fw_gap - away_gap) / scale)
        if fw_gap >= away_gap:
            direction = -w.copy()
            direction[i_fw] += 1.0
            gamma_max = 1.0
        else:
            direction = w.copy()
            direction[i_aw] -= 1.0
            denom = 1.0 - w[i_aw]
            gamma_max = w[i_aw] / denom if denom > 0.0 else 0.0
        slope = float(grad @ direction)
        curv = float(direction @ mat @ direction)
        if curv > 0.0:
            gamma = min(max(-slope / (2.0 * curv), 0.0), gamma_max)
            if gamma_max > 0.0:
                margin = min(margin, abs(-slope / (2.0 * curv) - gamma_max) / gamma_max)
        else:
            gamma = gamma_max if slope < 0.0 else 0.0
        drop = fw_gap < away_gap and gamma == gamma_max
        if gamma == 0.0:
            drop = False
            direction = -w.copy()
            direction[i_fw] += 1.0
            slope = float(grad @ direction)
            curv = float(direction @ mat @ direction)
            gamma = min(max(-slope / (2.0 * curv), 0.0), 1.0) if curv > 0.0 else 0.0
            if gamma == 0.0:
                break
        w = w + gamma * direction
        if drop:
            w[i_aw] = 0.0
        w = np.maximum(w, 0.0)
        w /= w.sum()
        energy = float(w @ mat @ w)
    return w, energy, it, False, margin


def exact_rel_gap(mat, w):
    g = mat @ w
    energy = w @ g
    return 2.0 * (energy - g.min()) / energy


def toy(entries):
    return EnergyMatrix(entries=np.array(entries, dtype=float))


def random_spd(n, seed, positive, shift):
    """A symmetric positive definite matrix, entrywise positive when ``positive``."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) if positive else rng.standard_normal((n, n))
    mat = a @ a.T / n + shift * np.eye(n)
    return 0.5 * (mat + mat.T)


def fw_from_uniform(m, tol=1e-8, max_iter=50000):
    """The Frank-Wolfe loop of ``solve_equilibrium`` started from uniform weights."""
    n = m.entries.shape[0]
    return _frank_wolfe(m.entries, np.full(n, 1.0 / n), tol, max_iter)


class TestSolveEquilibrium:
    def test_two_atom_symmetric(self):
        # [TRIVIAL] symmetry + uniqueness pin the split at (1/2, 1/2)
        mat = EnergyMatrix(entries=np.array([[2.0, 1.0], [1.0, 2.0]]))
        res = solve_equilibrium(mat)
        assert res.converged
        assert res.weights == pytest.approx([0.5, 0.5], abs=1e-8)
        assert res.energy == pytest.approx(1.5, rel=1e-8)

    def test_circle_uniform(self):
        # [DERIVED] rotational symmetry + uniqueness give uniform weights
        res = bessel_riesz_capacity(circle(1.0, 64), 0.5)
        assert res.converged
        assert res.weights == pytest.approx(np.full(64, 1.0 / 64), abs=1e-6)

    def test_energy_monotone_and_gap(self):
        # [TRIVIAL] solver contract: nonincreasing energy, final gap below tol
        res = bessel_riesz_capacity(cube_grid([(0.0, 1.0)], 32), 0.5, tol=1e-8)
        assert res.converged
        assert res.fw_gap < 1e-8
        trace = np.asarray(res.energy_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        # the direct start leaves Frank-Wolfe no step to take here; from the
        # uniform start the loop takes many, and each lowers the energy
        plain = fw_from_uniform(assemble_matrix(riesz_kernel(1, 0.5), cube_grid([(0.0, 1.0)], 32)))
        assert plain.converged and len(plain.energy_trace) > 100
        assert np.all(np.diff(plain.energy_trace) <= 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
           positive=st.booleans(), shift=st.floats(0.05, 1.0),
           max_iter=st.sampled_from([1, 3, 20, 50000]))
    def test_matches_dense_reference(self, n, seed, positive, shift, max_iter):
        # [DERIVED] the O(n) steps take the dense loop's branches: same
        # iterations, weights and energy up to roundoff, wherever no branch
        # decision of the reference was within roundoff of its threshold
        mat = random_spd(n, seed, positive, shift)
        res = fw_from_uniform(toy(mat), max_iter=max_iter)
        w, energy, iterations, converged, margin = dense_equilibrium(mat, max_iter=max_iter)
        assert res.fw_gap == pytest.approx(exact_rel_gap(mat, res.weights), rel=1e-9, abs=1e-14)
        assert res.energy == pytest.approx(res.weights @ mat @ res.weights, rel=1e-14)
        assert res.capacity == 1.0 / res.energy
        assert res.converged == (res.fw_gap < 1e-8)
        if converged and res.converged:
            # a relative gap below tol puts each energy within tol of the minimum
            assert res.energy == pytest.approx(energy, rel=2e-8)
        if margin > DECISION_MARGIN:
            # the reference's flag is False on every max_iter exit, even at a minimizer
            assert res.converged or not converged
            assert res.iterations == iterations
            assert np.max(np.abs(res.weights - w)) <= 1e-12
            assert abs(res.energy - energy) <= 1e-12 * energy

    def test_away_step_closed_form(self):
        # [DERIVED] M = diag(1, 1, 2): the minimizer is proportional to
        # 1/M_ii, (2/5, 2/5, 1/5) with energy 2/5.  From the uniform start
        # g = (1/3, 1/3, 2/3) and w'g = 4/9, so the away gap 2/9 beats the FW
        # gap 1/9; the line search gives gamma = 1/5 < gamma_max = 1/2 and
        # lands on the minimizer in one step.  A FW step toward e_0 could not.
        res = fw_from_uniform(toy([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
        assert res.converged and res.iterations == 1
        assert res.weights == pytest.approx([0.4, 0.4, 0.2], abs=1e-15)
        assert res.energy == pytest.approx(0.4, rel=1e-15)

    def test_drop_step_closed_form(self):
        # [DERIVED] the minimizer is (1/2, 1/2, 0) with energy 3/4: there
        # g = (3/4, 3/4, 2), so g is equal on the support and larger off it
        # (KKT).  The uniform start prefers the away step from atom 2, whose
        # line search is clipped at gamma_max = 1/2: a drop step.
        mat = [[1, 0.5, 2], [0.5, 1, 2], [2, 2, 5]]
        res = fw_from_uniform(toy(mat))
        assert res.converged and res.iterations == 1
        assert res.weights[2] == 0.0
        assert res.weights == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
        assert res.energy == pytest.approx(0.75, rel=1e-15)

    def test_blocked_step_exits_with_exact_certificate(self):
        # [DERIVED] M = [[1, 2], [2, 5]]: the minimizer is the vertex e_0
        # (g = (1, 2)), reached by one full FW step.  With tol = 0 the gap 0
        # never counts as converged, so the next step is blocked both ways
        # and the loop stops at the minimizer with its exact gap.
        res = fw_from_uniform(toy([[1, 2], [2, 5]]), tol=0.0)
        assert res.iterations == 2 and not res.converged
        assert res.weights.tolist() == [1.0, 0.0]
        assert res.energy == 1.0 and res.fw_gap == 0.0

    def test_max_iter_exit_reports_returned_weights(self):
        # [DERIVED] one drop step reaches the minimizer of the matrix above;
        # the gap, energy and capacity are those of the returned weights,
        # not of the uniform start (whose relative gap is 11/16)
        res = fw_from_uniform(toy([[1, 0.5, 2], [0.5, 1, 2], [2, 2, 5]]), max_iter=1)
        assert res.iterations == 1
        assert res.fw_gap == 0.0 and res.converged
        assert res.energy == pytest.approx(0.75, rel=1e-15)
        assert res.capacity == pytest.approx(4.0 / 3.0, rel=1e-15)
        # M = diag(1, 2, 4): the away step from atom 2 (away gap 5/9 against
        # FW gap 4/9) has gamma = 5/19 and stops at w = (8, 8, 3)/19, where
        # g = (8, 16, 12)/19, w'g = 12/19 and the relative gap is 2/3; the
        # uniform start's is 8/7
        res = fw_from_uniform(toy(np.diag([1.0, 2.0, 4.0])), max_iter=1)
        assert res.iterations == 1 and not res.converged
        assert res.weights == pytest.approx(np.array([8, 8, 3]) / 19, abs=1e-15)
        assert res.energy == pytest.approx(12 / 19, rel=1e-15)
        assert res.fw_gap == pytest.approx(2 / 3, rel=1e-14)

    def test_riesz_grid_matches_dense_reference(self):
        # [DERIVED] a kernel matrix of the kind the CLI solves
        m = assemble_matrix(riesz_kernel(1, 0.5), cube_grid([(0.0, 1.0)], 64))
        res = fw_from_uniform(m)
        w, energy, iterations, converged, margin = dense_equilibrium(m.entries)
        assert converged and res.converged
        assert res.iterations == iterations
        assert res.energy == pytest.approx(energy, rel=1e-12)
        assert np.max(np.abs(res.weights - w)) <= 1e-10

    def test_direct_start_is_certified_at_iteration_zero(self):
        # [DERIVED] M = diag(1, 1, 2): M x = 1 on full support gives x = (1, 1, 1/2),
        # so w = (2/5, 2/5, 1/5) with equal potentials g = 2/5; the first
        # exact check certifies it before any Frank-Wolfe step
        mat = np.diag([1.0, 1.0, 2.0])
        res = solve_equilibrium(toy(mat))
        assert res.converged and res.iterations == 0
        assert res.weights == pytest.approx([0.4, 0.4, 0.2], abs=1e-15)
        assert res.energy == pytest.approx(0.4, rel=1e-15)
        assert res.fw_gap == pytest.approx(exact_rel_gap(mat, res.weights), abs=1e-15)

    def test_direct_start_drops_an_atom_exactly(self):
        # [DERIVED] the minimizer is (1/2, 1/2, 0).  M x = 1 gives x = (-6, -6, 5)
        # on {0, 1, 2}, then e_2, where g_0 = 2 < 5 adds atom 0; x = (3, -1) on
        # {0, 2} leaves e_0, where g_1 = 1/2 < 1 adds atom 1; on {0, 1} the
        # potentials g = (3/4, 3/4, 2) are lowest on the support (KKT)
        mat = [[1, 0.5, 2], [0.5, 1, 2], [2, 2, 5]]
        w0 = _kkt_start(np.array(mat, dtype=float))
        assert w0[2] == 0.0 and w0 == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
        res = solve_equilibrium(toy(mat))
        assert res.converged and res.iterations == 0
        assert res.weights[2] == 0.0
        assert res.weights == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
        assert res.energy == pytest.approx(0.75, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
           positive=st.booleans(), shift=st.floats(0.05, 1.0))
    def test_direct_start_certified_and_no_worse_than_uniform_start(self, n, seed, positive,
                                                                   shift):
        # [DERIVED] the direct start changes where Frank-Wolfe begins, not what
        # it certifies: the gap is exact on the returned weights, and the
        # energy is within the tolerance of the uniform start's minimum
        mat = random_spd(n, seed, positive, shift)
        res = solve_equilibrium(toy(mat))
        assert res.converged
        assert res.fw_gap == pytest.approx(exact_rel_gap(mat, res.weights), rel=1e-9, abs=1e-14)
        assert res.energy <= fw_from_uniform(toy(mat)).energy * (1.0 + 2e-8)

    @pytest.mark.parametrize("entries", [
        [[1, 1, 2], [1, 1, 2], [2, 2, 1]],  # singular: the solve raises
        [[1, -2], [-2, 1]],  # M x = 1 gives x = (-1, -1): no atom to keep
    ], ids=["singular", "no-positive-atom"])
    def test_indefinite_matrix_falls_back_to_uniform_start(self, entries):
        # [DERIVED] symmetric, indefinite, positive diagonal: the direct start
        # gives up and Frank-Wolfe runs from uniform weights, still reporting
        # the exact gap of the weights it returns
        mat = np.array(entries, dtype=float)
        n = mat.shape[0]
        assert np.linalg.eigvalsh(mat).min() < 0.0 < np.diagonal(mat).min()
        assert np.array_equal(_kkt_start(mat), np.full(n, 1.0 / n))
        res = solve_equilibrium(toy(mat))
        plain = fw_from_uniform(toy(mat))
        assert res.iterations == plain.iterations
        assert np.array_equal(res.weights, plain.weights)
        assert res.fw_gap == pytest.approx(exact_rel_gap(mat, res.weights), abs=1e-14)

    def test_indefinite_stationary_point_not_converged(self):
        # [DERIVED] M = [[1, 2], [2, 1]]: (1/2, 1/2) is stationary (g = (3/2,
        # 3/2), gap 0) with energy 3/2, but each vertex has energy 1, so no
        # minimizer sits there; a zero gap certifies a minimum only for PSD M
        res = solve_equilibrium(toy([[1, 2], [2, 1]]))
        assert res.weights == pytest.approx([0.5, 0.5], abs=1e-15)
        assert res.energy == pytest.approx(1.5, rel=1e-15)
        assert res.fw_gap < 1e-8
        assert not res.converged

    def test_infinite_entries_zero_capacity(self):
        mat = EnergyMatrix(entries=np.array([[np.inf, 1.0], [1.0, np.inf]]))
        res = solve_equilibrium(mat)
        assert res.capacity == 0.0


class TestBrownianInterval:
    def test_equilibrium_approaches_closed_form_at_order_one_over_n(self):
        # [DERIVED] the Brownian one-potential density is v(x) = e^{-sqrt2 |x|} / sqrt2;
        # on [0, 1] its equilibrium measure is a flat density C = 1 / (1 + sqrt2)
        # plus an atom C / sqrt2 at each end, and the capacity is 1 + sqrt2
        psi = ExponentVector((BrownianIsotropic(dim=1),))
        c = 1.0 / (1.0 + math.sqrt(2.0))
        errors = []
        for n in (100, 200, 400):
            res = solve_equilibrium(assemble_matrix(psi, cube_grid([(0.0, 1.0)], n)))
            assert res.converged
            w = np.asarray(res.weights)
            errors.append([res.capacity / (1.0 + math.sqrt(2.0)) - 1.0,
                           n * w[n // 2] / c - 1.0,  # the density at the midpoint
                           w[:n // 20].sum() / (c / math.sqrt(2.0) + c / 20.0) - 1.0])
            assert np.all(np.abs(errors[-1]) <= 0.4 / n), (n, errors[-1])
        assert np.all(np.diff(np.abs(errors), axis=0) < 0.0), errors


class TestBesselRieszCapacity:
    def test_interval_positive(self):
        # s < d with nonvoid interior gives positive capacity
        res = bessel_riesz_capacity(cube_grid([(0.0, 1.0)], 64), 0.5)
        assert res.converged
        assert res.capacity > 0.0

    def test_cantor_capacity_decays_past_critical(self):
        # [DERIVED] for s above the similarity dimension log2/log3 the
        # capacity estimates decay toward zero as the level grows
        s = 0.8
        caps = [bessel_riesz_capacity(cantor_product(1.0 / 3.0, lvl), s).capacity
                for lvl in (2, 3, 4)]
        assert caps[0] > caps[1] > caps[2]

    def test_small_s_capacity_near_one(self):
        # [DERIVED] gauge -> 1 on bounded sets as s -> 0, so energy -> 1
        res = bessel_riesz_capacity(cube_grid([(0.0, 1.0)], 32), 0.01)
        assert res.capacity == pytest.approx(1.0, rel=0.1)

    def test_s_out_of_range(self):
        with pytest.raises(ValueError):
            bessel_riesz_capacity(cube_grid([(0.0, 1.0)], 8), 1.5)


class TestPointCapacity:
    def test_stable_above_one_hits_points(self):
        # [DERIVED] int dxi/(1+|xi|^1.5) < infinity
        psi = ExponentVector((IsotropicStable(alpha=1.5, dim=1),))
        assert point_capacity_test(psi)

    def test_cauchy_boundary_misses(self):
        # [DERIVED] logarithmic divergence at alpha = 1
        psi = ExponentVector((IsotropicStable(alpha=1.0, dim=1),))
        assert not point_capacity_test(psi)

    def test_planar_brownian_misses(self):
        # [DERIVED] int dxi/(1+||xi||^2) over R^2 diverges logarithmically
        psi = ExponentVector((BrownianIsotropic(dim=2),))
        assert not point_capacity_test(psi)

    def test_double_brownian_space_hits(self):
        # [DERIVED] two Brownian factors: tail exponent 4 > 3
        psi = ExponentVector((BrownianIsotropic(dim=3), BrownianIsotropic(dim=3)))
        assert point_capacity_test(psi)

    @pytest.mark.parametrize("alpha, beta, hits", [(1.2, 1.0, True), (1.2, -1.0, True),
                                                   (0.8, 1.0, False)])
    def test_skewed_stable(self, alpha, beta, hits):
        # [DERIVED] |Psi| grows like |xi|^alpha whatever the skew, so K decays
        # like |xi|^-alpha: a totally skewed alpha = 1.2 process hits points,
        # and the alpha = 0.8 subordinator does not
        psi = ExponentVector((Skewed1DStable(alpha=alpha, beta=beta),))
        assert point_capacity_test(psi) is hits


def planar_drift(theta, speed=1.0):
    return PureDrift(b=(speed * math.cos(theta), speed * math.sin(theta)))


class TestDriftPointCapacity:
    """A drift factor adds max(g, 1) to the decay of the angle-averaged kernel."""

    @pytest.mark.parametrize("alpha", [None, 0.5, 0.7, 1.3, 1.6])
    def test_planar_drift_at_one_direction(self, alpha):
        # [DERIVED] drift + alpha-stable in the plane hits points iff alpha > 1
        comps = [planar_drift(4.417201438521419)]
        if alpha is not None:
            comps.append(IsotropicStable(alpha=alpha, dim=2))
        assert point_capacity_test(ExponentVector(tuple(comps))) == (alpha is not None
                                                                     and alpha > 1.0)

    def test_random_planar_drifts_decide_alpha_above_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta, speed = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.1, 10.0)
            alpha = float(rng.choice([0.5, 0.7, 1.3, 1.6]))
            psi = ExponentVector((planar_drift(theta, speed), IsotropicStable(alpha=alpha, dim=2)))
            assert point_capacity_test(psi) == (alpha > 1.0), (theta, speed, alpha)

    def test_drift_and_brownian_in_space_miss(self):
        # [DERIVED] decay 1 + 2 = 3 = d: the log-divergent boundary
        psi = ExponentVector((PureDrift(b=(0.2, -1.0, 0.5)), BrownianIsotropic(dim=3)))
        assert not point_capacity_test(psi)

    def test_drift_and_two_brownians_in_space_hit(self):
        # [DERIVED] decay 1 + 2 + 2 = 5 > 3
        psi = ExponentVector((PureDrift(b=(0.2, -1.0, 0.5)), BrownianIsotropic(dim=3),
                              BrownianIsotropic(dim=3)))
        assert point_capacity_test(psi)

    def test_drift_inside_a_sum_adds_its_growth(self):
        # [DERIVED] (b + Brownian) decays like r^-max(2, 1), then alpha = 1.5:
        # 2 + 1.5 > 3 in space
        moving = SumOf(components=(PureDrift(b=(0.0, 3.0, 0.0)), BrownianIsotropic(dim=3)))
        assert point_capacity_test(ExponentVector((moving, IsotropicStable(alpha=1.5, dim=3))))
        assert not point_capacity_test(ExponentVector((moving,)))

    def test_zero_drift(self):
        # [DERIVED] a bare zero drift is K = 1; with a real part it is 1 / (1 + R)
        assert not point_capacity_test(ExponentVector((PureDrift(b=(0.0,)),)))
        assert point_capacity_test(ExponentVector((PureDrift(b=(0.5,)),)))
        # opposite drifts in d = 1 add to Psi = 0 before any growth is taken
        opposite = SumOf(components=(PureDrift(b=(1.0,)), PureDrift(b=(-1.0,))))
        assert not point_capacity_test(ExponentVector((opposite,)))
        zero = PureDrift(b=(0.0, 0.0))
        assert not point_capacity_test(ExponentVector((zero,)))
        assert not point_capacity_test(ExponentVector((zero, IsotropicStable(alpha=1.5, dim=2))))
        assert point_capacity_test(ExponentVector((zero, IsotropicStable(alpha=1.5, dim=2),
                                                   IsotropicStable(alpha=1.5, dim=2))))
        cancelled = SumOf(components=(PureDrift(b=(1.0, 2.0)), PureDrift(b=(-1.0, -2.0)),
                                      BrownianIsotropic(dim=2)))
        assert not point_capacity_test(ExponentVector((cancelled,)))
        assert point_capacity_test(ExponentVector((cancelled, cancelled)))

    def test_two_planar_drifts(self):
        # [DERIVED] int K = pi^2 / |det(b1, b2)| when the drifts are not
        # parallel; parallel ones leave K constant along their common ridge
        assert point_capacity_test(ExponentVector((planar_drift(0.3), planar_drift(1.9, 4.0))))
        assert not point_capacity_test(ExponentVector((planar_drift(0.3),
                                                       planar_drift(0.3 + np.pi, 2.0))))

    def test_two_drifts_in_space_are_not_decided(self):
        psi = ExponentVector((PureDrift(b=(1.0, 0.0, 0.0)), PureDrift(b=(0.0, 1.0, 0.0))))
        with pytest.raises(InconclusiveError, match="d = 3"):
            point_capacity_test(psi)
