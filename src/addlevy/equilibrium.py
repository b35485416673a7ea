"""Energy minimization over probability measures on a discretized set.

Assembles the pairwise energy matrix of a gauge on a point cloud, or on a
grid the (multilevel) Toeplitz generator of one value per lattice offset,
and minimizes the quadratic form over the simplex.  The minimizer, the
discrete equilibrium measure, has constant potential M w on its support
and no lower potential off it, so it solves M_S w_S = lambda 1 on its
support S: a direct solve on an active support gives the starting
weights, and away-step Frank-Wolfe (exact line search on the quadratic)
certifies them with its duality gap, or polishes them, or starts over
from uniform weights when the direct solve fails.  The reciprocal of the
minimal energy is the capacity estimate.  The energies of the energy
module are quadratic forms w'Mw of the same matrix (_energy_matrix,
_operator), the one assembly of a pair energy matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from addlevy.exponents import ExponentVector
from addlevy.kernels import _CHUNK_BYTES, Kernel, PotentialDensity, riesz_kernel
from addlevy.measures import AtomicMeasure, SetDiscretization, _check_budget, _product, discretize
from addlevy.quadrature import halfline_edges, integrate_panels


# atoms from which a grid's matrix is solved as an operator (FFT products and
# PCG) in d = 1, 2 and 3 or more; below, its dense matrix is gathered and
# solved by LAPACK.  Each sits where the operator starts to win most
# interleaved Riesz solves on a 2-vCPU machine (BENCH_toeplitz.json).
_LATTICE_FROM = (224, 300, 400)
_PCG_RTOL = 1e-14  # residual of the KKT solve relative to that of x = 0
_PCG_MAX_ITER = 200
# bytes charged per atom pair or lattice embedding point: a potential gauge peaks
# at 370 a pair on random atoms (a radius per pair), 306 a point in d = 1
_POINT_BYTES = 448


class EnergyMatrix:
    """Symmetric pairwise-energy matrix over the atoms of a discretization.

    Built from dense ``entries``, checked square and exactly symmetric.  A
    grid's matrix (``_energy_matrix``) is kept as the ``generator`` of a
    (multilevel) Toeplitz matrix instead: for n_k atoms per axis it has
    shape (2 n_k - 1, ...) and holds the entry at each lattice offset, so
    row i (multi-index i_k) is the block generator[n_k - 1 - i_k : 2 n_k -
    1 - i_k, ...]; it is centrally symmetric by construction, and its
    ``entries`` are gathered on first read.
    """

    generator = None

    def __init__(self, entries):
        e = np.asarray(entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be square")
        if not np.array_equal(e, e.T):
            raise ValueError("entries must be exactly symmetric")
        self._entries, self.shape = e, e.shape

    @classmethod
    def _of_generator(cls, gen: np.ndarray) -> EnergyMatrix:
        m = cls.__new__(cls)
        m.generator, m._entries = gen, None
        m.shape = (math.prod((k + 1) // 2 for k in gen.shape),) * 2
        return m

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            n = self.shape[0]
            _check_budget(8 * n * n, f"the {n} x {n} energy matrix")
            self._entries = _rows(self.generator).reshape(n, n)
        return self._entries


def _rows(gen: np.ndarray) -> np.ndarray:
    """View of shape (n_1, ..., n_d, n_1, ..., n_d) whose [i, j] is entry (i, j),
    gen[n - 1 - i + j], of the C-contiguous generator gen."""
    grid = tuple((k + 1) // 2 for k in gen.shape)
    return np.ndarray(grid * 2, gen.dtype, buffer=gen,
                      offset=sum((m - 1) * s for m, s in zip(grid, gen.strides)),
                      strides=tuple(-s for s in gen.strides) + gen.strides)


def _fft_size(m: int) -> int:
    """The least 2^a 3^b 5^c >= m, a length that pocketfft transforms fast."""
    size = m
    while True:
        k = size
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return size
        size += 1


class _Lattice:
    """A grid's energy matrix as an operator, from its generator.

    ``M @ w`` is a product with a circulant embedding of 5-smooth size
    >= 2 n_k - 1 per axis, by real FFTs; ``M[i]`` is a slice of the
    generator; ``solve`` runs conjugate gradients on a support,
    preconditioned with T. Chan's optimal circulant.
    """

    def __init__(self, gen: np.ndarray):
        from numpy import fft

        self._fft, self._rows = fft, _rows(gen)
        self.grid = tuple((k + 1) // 2 for k in gen.shape)
        n, d = math.prod(self.grid), gen.ndim
        self.shape, self._axes = (n, n), tuple(range(d))
        self._size = tuple(_fft_size(k) for k in gen.shape)
        self._centre = gen[tuple(m - 1 for m in self.grid)]
        # offset o of the generator at index o mod size: a centrally symmetric
        # array, whose spectrum is real
        wrapped = np.zeros(self._size)
        wrapped[tuple(map(slice, gen.shape))] = gen
        wrapped = np.roll(wrapped, [1 - m for m in self.grid], axis=self._axes)
        self._spectrum = fft.rfftn(wrapped).real
        # T. Chan's circulant, axis by axis: c_k = ((n - k) t_k + k t_(k - n)) / n
        chan = gen
        for axis, m in enumerate(self.grid):
            t = np.moveaxis(chan, axis, 0)
            k = np.arange(m).reshape((m,) + (1,) * (d - 1))
            wrap = np.concatenate([np.zeros_like(t[:1]), t[:m - 1]])
            chan = np.moveaxis(((m - k) * t[m - 1:] + k * wrap) / m, 0, axis)
        self._chan = fft.rfftn(chan).real

    def diagonal(self) -> np.ndarray:
        return np.full(self.shape[0], self._centre)

    def __getitem__(self, i) -> np.ndarray:
        return self._rows[np.unravel_index(i, self.grid)].ravel()

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        f = self._fft.rfftn(w.reshape(self.grid), self._size, self._axes)
        f *= self._spectrum
        return self._fft.irfftn(f, self._size, self._axes)[tuple(map(slice, self.grid))].ravel()

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        f = self._fft.rfftn(r.reshape(self.grid))
        f /= self._chan
        return self._fft.irfftn(f, self.grid, self._axes).ravel()

    def solve(self, idx: np.ndarray) -> np.ndarray:
        """x with (M x)_i = 1 for i in idx and x zero elsewhere, on idx.

        Preconditioned conjugate gradients on M restricted to idx, until the
        residual is below _PCG_RTOL times that of x = 0.  A preconditioner or
        a restriction that is not positive definite, or no convergence in
        _PCG_MAX_ITER steps, is a LinAlgError, as a singular dense solve.
        """
        if not self._chan.min() > 0.0:
            raise np.linalg.LinAlgError("the circulant preconditioner is not positive definite")
        mask = np.zeros(self.shape[0])
        mask[idx] = 1.0
        x, r = np.zeros_like(mask), mask.copy()
        z = mask * self._precondition(r)
        p, rz = z.copy(), r.dot(z)
        bound = _PCG_RTOL * math.sqrt(idx.size)
        for _ in range(_PCG_MAX_ITER):
            q = mask * (self @ p)
            curv = p.dot(q)
            if not curv > 0.0:
                raise np.linalg.LinAlgError("the matrix is not positive definite on the support")
            step = rz / curv
            x += step * p
            r -= step * q
            if math.sqrt(r.dot(r)) <= bound:
                return x[idx]
            z = mask * self._precondition(r)
            rz, rz_old = r.dot(z), rz
            p *= rz / rz_old
            p += z
        raise np.linalg.LinAlgError(f"PCG did not converge in {_PCG_MAX_ITER} steps")


@dataclass(frozen=True)
class EquilibriumResult:
    weights: np.ndarray
    energy: float
    capacity: float
    iterations: int
    fw_gap: float
    converged: bool
    energy_trace: tuple = ()

    def to_json(self):
        return {"weights": [float(w) for w in self.weights], "energy": self.energy,
                "capacity": self.capacity, "iterations": self.iterations,
                "fw_gap": self.fw_gap, "converged": self.converged}


def _cell_average(k: Kernel, h: float) -> float:
    """Average of the gauge over the ball of diameter h around the origin.

    Closed form d (h/2)^-s / (d - s) for the Riesz gauge ||x||^-s; a radial
    quadrature along the first axis otherwise.  At h = 0 it is the limit,
    the gauge at the origin (np.inf for the Riesz gauge).
    """
    meta, d = k.meta.get("riesz"), k.dim
    if h == 0.0:
        return float(k.eval(np.zeros((1, d)))[0])
    half = h / 2.0
    if meta is not None:
        s = d - meta["alpha"]
        return d * half ** (-s) / (d - s)

    def radial(r):
        return np.nan_to_num(k.eval(r[:, None] * np.eye(1, d)), posinf=0.0) * r ** (d - 1)

    return float(d * integrate_panels(radial, halfline_edges(half, min_scale=1e-12)) / half ** d)


def assemble_matrix(gauge: Union[Kernel, ExponentVector, PotentialDensity],
                    disc: SetDiscretization) -> EnergyMatrix:
    """Pairwise symmetrized gauge values at the atoms of ``discretize(disc)``.

    Entry (i, j) is the mean of the gauge at x_i - x_j and at x_j - x_i; the
    diagonal is the gauge averaged over one cell.
    """
    if isinstance(gauge, ExponentVector):
        gauge = PotentialDensity(gauge)
    if isinstance(gauge, PotentialDensity):
        gauge = gauge.as_kernel()
    mu = discretize(disc)
    return _energy_matrix(gauge, mu, _cell_average(gauge, mu.cell))


def _energy_matrix(gauge: Kernel, mu: AtomicMeasure, diagonal: Optional[float]) -> EnergyMatrix:
    """The energy matrix over the atoms of mu: entry (i, j) is the mean of the
    gauge at x_i - x_j and x_j - x_i, and the diagonal is the caller's value
    (a capacity's _cell_average), or with None the gauge's own at 0.

    On a grid (``mu.lattice``) the gauge is evaluated once per lattice
    offset, prod(2 n_k - 1) points, and averaged with its reflection: the
    matrix's generator.  Any other measure evaluates it at all n^2
    differences and averages with the transpose.  The budget is charged
    first: _POINT_BYTES per pair or lattice embedding point, and one row
    chunk of a potential gauge's inversion (kernels._CHUNK_BYTES).
    """
    if mu.lattice is not None:
        grid, _ = zip(*mu.lattice)
        _check_budget(_POINT_BYTES * math.prod(_fft_size(2 * m - 1) for m in grid) + _CHUNK_BYTES,
                      f"the energy matrix of the {'x'.join(map(str, grid))} lattice")
        vals = gauge.eval(_product([h * np.arange(1 - m, m) for m, h in mu.lattice])).reshape(
            [2 * m - 1 for m in grid])
        gen = vals + np.flip(vals)
        gen *= 0.5
        if diagonal is not None:
            gen[tuple(m - 1 for m in grid)] = diagonal
        return EnergyMatrix._of_generator(gen)
    n = mu.n_atoms
    _check_budget(_POINT_BYTES * n * n + _CHUNK_BYTES, f"the {n} x {n} energy matrix")
    vals = gauge.eval(mu.points[:, None, :] - mu.points[None, :, :])
    if diagonal is not None:
        np.fill_diagonal(vals, diagonal)
    # x_j - x_i is exactly -(x_i - x_j), so the transpose holds the gauge at
    # the negated differences; halving in place keeps two n x n arrays alive
    entries = vals + vals.T
    entries *= 0.5
    return EnergyMatrix(entries=entries)


def _operator(m: EnergyMatrix):
    """M as it is applied: a _Lattice from _LATTICE_FROM grid atoms, else the entries."""
    gen = m.generator
    if gen is not None and m.shape[0] >= _LATTICE_FROM[min(gen.ndim, len(_LATTICE_FROM)) - 1]:
        return _Lattice(gen)
    return m.entries


def _step_length(slope: float, curv: float, gamma_max: float) -> float:
    """Exact line search of slope*t + curv*t^2 over [0, gamma_max]."""
    if curv > 0.0:
        return min(max(-slope / (2.0 * curv), 0.0), gamma_max)
    return gamma_max if slope < 0.0 else 0.0


def _fw_state(w: np.ndarray, g: np.ndarray):
    """Energy w'g, FW vertex argmin g, and FW gap relative to the energy, for g = M w."""
    energy = float(w.dot(g))
    i_fw = int(g.argmin())
    return energy, i_fw, 2.0 * (energy - g[i_fw]) / max(abs(energy), 1e-300)


def _result(w, energy, iterations, rel_gap, tol, trace, vertex) -> EquilibriumResult:
    """The result at weights w; ``vertex`` is min_i M_ii, the least vertex energy.

    Every minimizer over the simplex has energy at most ``vertex``, and one
    certified by a gap below tol at most ``vertex + tol |energy|``.
    """
    converged = rel_gap < tol and energy - vertex <= tol * abs(energy)
    return EquilibriumResult(weights=w, energy=energy, capacity=1.0 / energy,
                             iterations=iterations, fw_gap=float(rel_gap),
                             converged=bool(converged), energy_trace=tuple(trace))


def _kkt_start(mat) -> tuple[np.ndarray, np.ndarray]:
    """Starting weights w and g = M w from the KKT system M_S x = 1 on an active support S.

    ``mat`` is an array, solved by LAPACK, or a _Lattice, solved by PCG
    masked to S.  Starts from every atom.  Each round solves on S; the
    atoms with x <= 0 leave S and the next round solves again.  Once x > 0
    on all of S, the weights are w = x / sum(x).  When some atom off S has a potential
    (M w)_i below the energy w'M w, the lowest one joins S and the next
    round solves again; otherwise w and that M w are returned.  After 2n
    rounds, or on a singular, unconverged or non-finite solve, the uniform
    weights and their M w are returned instead.
    """
    n = mat.shape[0]
    support = np.ones(n, dtype=bool)
    for _ in range(2 * n):
        idx = np.flatnonzero(support)
        try:
            if isinstance(mat, _Lattice):
                x = mat.solve(idx)
            else:
                x = np.linalg.solve(mat if idx.size == n else mat[np.ix_(idx, idx)],
                                    np.ones(idx.size))
        except np.linalg.LinAlgError:
            break
        keep = x > 0.0
        if not (np.isfinite(x).all() and keep.any()):
            break
        if not keep.all():
            support[idx[~keep]] = False
            continue
        w = np.zeros(n)
        w[idx] = x / x.sum()
        g = mat @ w
        i = int(np.where(support, np.inf, g).argmin())
        if support[i] or g[i] >= w.dot(g):
            return w, g
        support[i] = True
    w = np.full(n, 1.0 / n)
    return w, mat @ w


def solve_equilibrium(m: EnergyMatrix, tol: float = 1e-8,
                      max_iter: int = 50000) -> EquilibriumResult:
    """Minimize w' M w over the probability simplex.

    A direct solve of the KKT system on an active support (``_kkt_start``)
    gives the starting weights, and away-step Frank-Wolfe runs from them:
    it stops when the duality gap falls below ``tol`` relative to the
    energy, which it checks before its first step on the exact M w that the
    direct solve formed for its last join test, so a right direct solve
    returns with ``iterations == 0`` after one product M w.  ``iterations``
    counts the Frank-Wolfe steps after the direct start; when the direct
    solve fails, the start is uniform and the loop runs as a plain
    Frank-Wolfe solve.  The reported ``fw_gap``, ``energy`` and
    ``capacity`` are those of the returned weights, and ``converged``
    means that gap is below ``tol`` and the energy is no higher than that of
    the best vertex e_i, M_ii, by more than ``tol`` relative.  The gap
    certifies a minimum only for positive semidefinite M, and the vertex
    test is a necessary condition for a minimum, not a certificate that M
    is PSD: it refuses the stationary point (1/2, 1/2) of [[1, 2], [2, 1]].
    ``tol`` must be positive and finite, ``max_iter`` nonnegative.  M is
    applied as _operator chooses: by FFTs on a large grid, else dense.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    n, gen = m.shape[0], m.generator
    if not np.all(np.isfinite(m.entries if gen is None else gen)):
        # any probability vector puts weight on an infinite entry pair
        return EquilibriumResult(weights=np.full(n, 1.0 / n), energy=np.inf,
                                 capacity=0.0, iterations=0, fw_gap=0.0, converged=True)
    mat = _operator(m)
    return _frank_wolfe(mat, *_kkt_start(mat), tol, max_iter)


def _frank_wolfe(mat, w: np.ndarray, g: np.ndarray, tol: float,
                 max_iter: int) -> EquilibriumResult:
    """Away-step Frank-Wolfe from probability vector w and g = M w, updated in place.

    Exact line search on the quadratic; the energy is monotone
    nonincreasing across iterations.  Each step moves toward or away from
    one vertex e_i, so g is carried along with row i of M (equal to column
    i, M being exactly symmetric) and a step costs O(n).  Once a step has
    been taken, g is recomputed exactly at the exit and before a converged
    verdict is accepted; before any step the given g is exact already.
    """
    diag = mat.diagonal()
    energy, i_fw, rel_gap = _fw_state(w, g)
    trace = [energy]  # one energy per step taken, after the start's
    it = 0
    for it in range(1, max_iter + 1):
        if rel_gap < tol:
            if len(trace) > 1:
                # the carried g may have drifted by roundoff: decide on an exact M w
                g = mat @ w
                energy, i_fw, rel_gap = _fw_state(w, g)
            if rel_gap < tol:
                return _result(w, energy, it - 1, rel_gap, tol, trace, diag.min())
        i_aw = int(np.where(w > 0.0, g, -np.inf).argmax())
        if energy - g[i_fw] >= g[i_aw] - energy:
            i, sign, gamma_max = i_fw, 1.0, 1.0
        else:
            denom = 1.0 - w[i_aw]
            i, sign, gamma_max = i_aw, -1.0, (w[i_aw] / denom if denom > 0.0 else 0.0)
        # along sign * (e_i - w): slope 2 sign (g_i - w'g), curvature M_ii - 2 g_i + w'g
        gamma = _step_length(2.0 * sign * (g[i] - energy), diag[i] - 2.0 * g[i] + energy,
                             gamma_max)
        if gamma == 0.0:
            # blocked away step; fall back to the plain FW direction
            i, sign = i_fw, 1.0
            curv = diag[i] - 2.0 * g[i] + energy
            gamma = _step_length(2.0 * (g[i] - energy), curv, 1.0) if curv > 0.0 else 0.0
            if gamma == 0.0:
                break
        step = sign * gamma
        w *= 1.0 - step
        w[i] += step
        if sign < 0.0 and (gamma == gamma_max or w[i] < 0.0):
            w[i] = 0.0  # drop step: remove the atom exactly, with no roundoff residue
        g *= 1.0 - step
        g += step * mat[i]
        total = w.sum()
        w /= total
        g /= total
        energy, i_fw, rel_gap = _fw_state(w, g)
        trace.append(energy)
    if len(trace) > 1:
        g = mat @ w
        energy, _, rel_gap = _fw_state(w, g)
    return _result(w, energy, it, rel_gap, tol, trace, diag.min())


def bessel_riesz_capacity(disc: SetDiscretization, s: float, tol: float = 1e-8,
                          max_iter: int = 50000) -> EquilibriumResult:
    """Capacity with gauge ||x-y||^-s: assemble the Riesz matrix and solve."""
    mu = discretize(disc)
    d = mu.dim
    if not 0.0 < s < d:
        raise ValueError(f"s must lie in (0, {d}), got {s}")
    gauge = riesz_kernel(d, d - s)
    mat = _energy_matrix(gauge, mu, _cell_average(gauge, mu.cell))
    return solve_equilibrium(mat, tol=tol, max_iter=max_iter)

