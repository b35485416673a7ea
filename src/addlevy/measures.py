"""Finitely supported probability measures and discretizers of compact sets.

An :class:`AtomicMeasure` stands in for a compactly supported probability
measure; discretizers turn simple set descriptions (cube grids, Cantor
products, point pairs, circles) into equal-weight atomic measures supported
inside the set, with the closed-form transform where one exists.

A closed form is a centre c and one real factor per axis,
mu_hat(xi) = exp(i xi . c) prod_k f_k(xi_k): ``fourier`` reads all of it,
``power``, |mu_hat|^2, only the squared factors, so the energies take no
complex exponential.  The grid's factor, the Dirichlet kernel, is formed
from half-angle tangents.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from addlevy.exponents import _as_points

_WEIGHT_TOL = 1e-12
_PHASE_BLOCK = 2 ** 18  # elements of one block of the phase matrix in fourier
# the parameters each kind of set reads, all of them required
_SET_PARAMS = {
    "CubeGrid": {"bounds", "n_per_axis"},
    "CantorProduct": {"ratio", "level", "d"},
    "TwoPoint": {"separation", "d"},
    "Circle": {"radius", "n"},
}
_COUNTS = {"n_per_axis", "level", "d", "n"}  # the parameters that must be integral
# bytes that the arrays of one energy matrix may take, its n x n entries, its
# lattice's FFT arrays or the pair arrays of an energy; more is refused
# before it is allocated
_BYTES_BUDGET = 2 ** 31


def _check_budget(size: int, what: str) -> None:
    if size > _BYTES_BUDGET:
        raise ValueError(f"{what} would take {size / 2 ** 30:.3g} GiB, over the "
                         f"{_BYTES_BUDGET / 2 ** 30:.3g} GiB budget of an energy matrix")


@dataclass(frozen=True)
class ProductTransform:
    """The closed form exp(i xi . centre) prod_k f_k(xi_k) of a product of
    measures symmetric about ``centre``: ``factors`` holds the real
    transform f_k of each axis about its centre, None where the axis holds
    the centre alone (f_k = 1).  Both take frequencies (m, d)."""

    centre: tuple
    factors: tuple

    def _product(self, xi: np.ndarray, squared: bool) -> np.ndarray:
        out = np.ones(xi.shape[0])
        for k, f in enumerate(self.factors):
            if f is not None:
                v = f(xi[:, k])
                out *= v * v if squared else v
        return out

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        """mu_hat.  One complex product per value: numpy's complex multiply
        rounds differently by array length."""
        phase = sum(xi[:, k] * c for k, c in enumerate(self.centre))
        return np.exp(1j * phase) * self._product(xi, False)

    def power(self, xi: np.ndarray) -> np.ndarray:
        """|mu_hat|^2, the product of the squared factors: the phase cancels."""
        return self._product(xi, True)


@dataclass(frozen=True)
class AtomicMeasure:
    """Probability measure sum_k w_k * delta_{x_k}.

    ``transform``, when set, is mu_hat in closed form; ``discretize`` sets
    it for the sets that have one, and ``cell``, the linear cell size that
    the energy diagonals read.
    ``lattice``, set for a grid, holds the ``(n_k, h_k)`` of each axis: the
    atoms are the products of n_k points h_k apart, in C order, and every
    difference of two atoms is exactly a lattice offset (i - j) h.
    """

    points: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)
    transform: Optional[ProductTransform] = field(default=None, compare=False, repr=False)
    cell: float = field(default=0.0, compare=False, repr=False)
    lattice: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights must have equal length")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    def fourier(self, xi) -> np.ndarray:
        """mu_hat(xi) = sum_k w_k exp(i xi . x_k).

        One point gives a complex number, an array of points (..., d) an array.
        A measure that carries a closed-form ``transform`` (``discretize`` of
        a grid, a Cantor product or a point pair) evaluates it: a Dirichlet
        kernel per axis, a Riesz product of ``level`` cosines per axis, or
        one cosine, each elementwise in xi.  Any other measure forms the
        complex phase matrix of frequencies x atoms, in row blocks.
        """
        pts, lead = _as_points(xi, self.dim)
        if self.transform is not None:
            vals = self.transform(pts)
            return complex(vals[0]) if lead == () else vals.reshape(lead)
        return self._phase_sums(pts, lead)

    def power(self, xi) -> np.ndarray:
        """|mu_hat(xi)|^2, a float for one point, else an array of the lead shape.

        A closed-form ``transform`` gives the product of its squared real
        factors; any other measure squares the modulus of its phase sums,
        the bits of ``np.abs(fourier(xi)) ** 2``.
        """
        pts, lead = _as_points(xi, self.dim)
        if self.transform is None:
            return np.abs(self._phase_sums(pts, lead)) ** 2
        vals = self.transform.power(pts)
        return float(vals[0]) if lead == () else vals.reshape(lead)

    def _phase_sums(self, pts: np.ndarray, lead: tuple):
        if lead == ():
            phases = pts[0] @ self.points.T
            return complex(np.sum(self.weights * np.exp(1j * phases)))
        # blocks of at least two rows: a one-row product takes another BLAS
        # path, so its last bits would depend on where the blocks fall
        n_blocks = max(1, pts.shape[0] // max(2, _PHASE_BLOCK // self.n_atoms))
        vals = np.empty(pts.shape[0], dtype=complex)
        for block, out in zip(np.array_split(pts, n_blocks), np.array_split(vals, n_blocks)):
            out[:] = np.exp(1j * (block @ self.points.T)) @ self.weights
        return vals.reshape(lead)


def delta(x) -> AtomicMeasure:
    """Point mass at x."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    return AtomicMeasure(points=pt.reshape(1, -1), weights=np.array([1.0]))


@dataclass(frozen=True)
class SetDiscretization:
    """Description of a compact target set and how to discretize it.

    kind is one of "CubeGrid", "CantorProduct", "TwoPoint", "Circle"; the
    params dict carries the construction parameters (see the builders below).
    """

    kind: str
    params: dict


def cube_grid(bounds, n_per_axis: int) -> SetDiscretization:
    """Axis-aligned box split into n_per_axis cells per axis, cell centers."""
    bounds = [tuple(ab) for ab in np.atleast_2d(bounds).tolist()]
    return SetDiscretization("CubeGrid", {"bounds": bounds, "n_per_axis": n_per_axis})


def cantor_product(ratio: float, level: int, d: int = 1) -> SetDiscretization:
    return SetDiscretization("CantorProduct", {"ratio": ratio, "level": level, "d": d})


def two_point(separation: float, d: int = 1) -> SetDiscretization:
    return SetDiscretization("TwoPoint", {"separation": separation, "d": d})


def circle(radius: float, n: int) -> SetDiscretization:
    return SetDiscretization("Circle", {"radius": radius, "n": n})


def _cantor_intervals_1d(ratio: float, level: int) -> np.ndarray:
    """Midpoints of the level-`level` construction intervals on [0, 1]."""
    intervals = [(0.0, 1.0)]
    for _ in range(level):
        nxt = []
        for a, b in intervals:
            length = (b - a) * ratio
            nxt.append((a, a + length))
            nxt.append((b - length, b))
        intervals = nxt
    return np.array([(a + b) / 2.0 for a, b in intervals])


def _lattice_axis(a: float, b: float, n: int):
    """The n cell centres of [a, b] on an exact lattice, and their spacing h.

    h and the first centre are rounded to multiples of u, the ulp of
    max(|a|, |b|, b - a) at the top of its binade, so every centre and every
    difference of two centres is a multiple of u below 2^53 u: each is exact,
    and x_i - x_j == (i - j) * h bit for bit.  A centre moves by at most
    (n + 1) u / 2 from a + (i + 1/2)(b - a)/n.
    """
    u = math.ldexp(1.0, max(math.frexp(max(abs(a), abs(b), b - a))[1] - 53, -1074))
    h = round((b - a) / n / u) * u
    first = round((a + (b - a) / (2 * n)) / u) * u
    return first + h * np.arange(n), h


def _product(axes) -> np.ndarray:
    """The points of a product of 1-D point sets, (prod n_k, d) in C order."""
    d = len(axes)
    pts = np.empty(tuple(len(a) for a in axes) + (d,))
    for k, a in enumerate(axes):
        pts[..., k] = a.reshape((-1,) + (1,) * (d - 1 - k))
    return pts.reshape(-1, d)


def _dirichlet(a: float, b: float, n: int, x: np.ndarray) -> np.ndarray:
    """D_n(hx/2), the transform of n equal atoms at the cell centres of [a, b]
    about their centre (b + a)/2, with h = (b - a)/n.

    With m = rint(t / pi), t' = t - m pi, tau = tan(t'/2) and T = tan(nt'/2),
    the half-angle forms of both sines give
    D_n(t) = sin(nt) / (n sin t) = (-1)^(m(n-1)) T (1 + tau^2) / (n tau (1 + T^2)).
    |t'| <= pi/2 keeps |tau| <= 1, so no branch is needed at the poles of
    1/sin t.  Where |nt'/2| < 2^-27, 1 - (n^2 - 1) t'^2 / 6 rounds to 1 and
    D is set to it: the quotient would lose the bits of a subnormal t'.
    numpy's tan is vectorized where its sin calls libm per value.
    """
    t = x * ((b - a) / (2 * n))
    m = np.rint(t / np.pi)
    t -= m * np.pi
    half_nt = (0.5 * n) * t
    tau = np.tan(0.5 * t)
    big = np.tan(half_nt)
    out = np.divide(big * (1.0 + tau * tau), n * tau * (1.0 + big * big),
                    out=np.ones_like(t), where=np.abs(half_nt) >= 2.0 ** -27)
    if n % 2 == 0:  # m (n - 1) has the parity of m
        out *= 1.0 - 2.0 * np.square(m - 2.0 * np.rint(0.5 * m))
    return out


def _riesz_product(ratio: float, level: int, x: np.ndarray) -> np.ndarray:
    """prod_j cos(x (1-r) r^(j-1) / 2), the transform of the level-k Cantor
    midpoints 1/2 + sum_j +-(1-r) r^(j-1)/2 about 1/2."""
    out = np.ones_like(x)
    for j in range(level):
        out *= np.cos(x * ((1.0 - ratio) * ratio ** j / 2.0))
    return out


def _param(name: str, value):
    """A set parameter checked for its type: bounds as [a, b] pairs of
    numbers, a count as an int, anything else as a number."""
    def number(v):
        return isinstance(v, numbers.Real) and not isinstance(v, bool)

    if name == "bounds":
        if not (isinstance(value, (list, tuple)) and all(
                isinstance(ab, (list, tuple)) and len(ab) == 2 and all(map(number, ab))
                for ab in value)):
            raise ValueError(f"bounds must be a list of [a, b] pairs of numbers, got {value!r}")
        return value
    count = name in _COUNTS
    if not number(value) or (count and not float(value).is_integer()):
        raise ValueError(f"{name} must be {'an integer' if count else 'a number'}, got {value!r}")
    return int(value) if count else value


def discretize(spec: SetDiscretization) -> AtomicMeasure:
    """Deterministic equal-weight point cloud for the described set.

    Grids, Cantor products and point pairs carry their closed-form transform,
    every measure its linear cell size, and a grid its lattice, on which its
    atoms sit exactly (_lattice_axis).  A missing parameter, one the
    kind does not read, a non-numeric value, a fractional count or a
    negative radius is a ValueError.
    """
    kind, p = spec.kind, spec.params
    if not isinstance(kind, str) or kind not in _SET_PARAMS:
        raise ValueError(f"unknown discretization kind: {kind!r}")
    missing, extra = sorted(_SET_PARAMS[kind] - set(p)), sorted(set(p) - _SET_PARAMS[kind])
    if missing:
        raise ValueError(f"{kind} set needs {missing}")
    if extra:
        raise ValueError(f"{kind} set does not read {extra}")
    p = {name: _param(name, value) for name, value in p.items()}
    transform = lattice = None
    if kind == "CubeGrid":
        n, bounds = p["n_per_axis"], p["bounds"]
        if n < 1:
            raise ValueError("n_per_axis must be >= 1")
        # a == b is a point, and one cell is the only grid that keeps it one
        if len(bounds) < 1 or not all(a < b or (a == b and n == 1) for a, b in bounds):
            raise ValueError("bounds need a < b on every axis (a == b only with n_per_axis 1)")
        axes, steps = zip(*(_lattice_axis(a, b, n) for a, b in bounds))
        pts = _product(axes)
        cell = float(min((b - a) / n for a, b in bounds))
        lattice = tuple((n, h) for h in steps)
        transform = ProductTransform(tuple((a + b) / 2.0 for a, b in bounds),
                                     tuple(partial(_dirichlet, a, b, n) for a, b in bounds))
    elif kind == "CantorProduct":
        ratio, level, d = p["ratio"], p["level"], p["d"]
        if not 0.0 < ratio < 0.5:
            raise ValueError("ratio must lie in (0, 1/2)")
        if level < 0 or d < 1:
            raise ValueError("level must be >= 0 and d >= 1")
        pts = _product([_cantor_intervals_1d(ratio, level)] * d)
        cell = float(ratio ** level)
        transform = ProductTransform((0.5,) * d, (partial(_riesz_product, ratio, level),) * d)
    elif kind == "TwoPoint":
        sep, d = p["separation"], p["d"]
        if sep <= 0.0:
            raise ValueError("separation must be positive")
        if d < 1:
            raise ValueError("d must be >= 1")
        pts = np.zeros((2, d))
        pts[0, 0] = -sep / 2.0
        pts[1, 0] = sep / 2.0
        cell = float(sep)
        transform = ProductTransform((0.0,) * d,
                                     (lambda x: np.cos(x * (sep / 2.0)),) + (None,) * (d - 1))
    else:  # Circle
        radius, n = p["radius"], p["n"]
        if n < 1:
            raise ValueError("n must be >= 1")
        if radius < 0.0:
            raise ValueError("radius must be >= 0")
        theta = 2.0 * np.pi * np.arange(n) / n
        pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        cell = float(2.0 * np.pi * radius / n)
    n_pts = pts.shape[0]
    return AtomicMeasure(points=pts, weights=np.full(n_pts, 1.0 / n_pts), transform=transform,
                         cell=cell, lattice=lattice)
