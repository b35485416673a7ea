"""Deterministic quadrature plans and panel integrators.

Everything here is plumbing shared by the kernel and energy modules:
Gauss-Legendre panel rules, edge builders that refine geometrically toward
an endpoint singularity while staying period-matched against a known
maximum oscillation frequency, and averaged-tail summation for conditionally
convergent oscillatory half-line integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot meet its tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """A deterministic quadrature plan: truncation radius and tolerance."""

    r_max: float = 200.0
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.r_max <= 0.0:
            raise ValueError("r_max must be positive")


@lru_cache(maxsize=None)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], computed once per order.

    The arrays are shared by every caller, so they are read-only.
    """
    x, w = leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_nodes(edges: np.ndarray, n_nodes: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on each panel [edges[i], edges[i+1]]."""
    x, w = _gauss_legendre(n_nodes)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mids[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def tensor_nodes(rules) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of 1-D (nodes, weights) rules, one rule per axis.

    Returns points of shape (m, d), first axis slowest, and their weights.
    """
    node_grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    pts = np.stack([g.ravel() for g in node_grids], axis=-1)
    w_grids = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in w_grids], axis=-1), axis=-1)
    return pts, wts


def halfline_edges(r_max: float, max_freq: float = 0.0, min_scale: float = 1e-9) -> np.ndarray:
    """Panel edges on [0, r_max], period-matched and refined toward 0.

    Panels are at most half a period of the fastest oscillation wide, and a
    geometric cascade toward 0 keeps integrable endpoint singularities
    (e.g. |xi|^-s) resolved.
    """
    width = r_max / 16.0
    if max_freq > 0.0:
        width = min(width, np.pi / (2.0 * max_freq))
    n_uniform = int(np.ceil(r_max / width))
    edges = set(np.linspace(0.0, r_max, n_uniform + 1).tolist())
    # geometric cascade below the first uniform edge
    lo = r_max / n_uniform
    while lo > min_scale * r_max:
        lo /= 2.0
        edges.add(lo)
    return np.array(sorted(edges))


def integrate_panels(f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray,
                     n_nodes: int = 12) -> float:
    nodes, weights = panel_nodes(edges, n_nodes)
    return float(np.sum(weights * f(nodes)))


def powerlaw_tail(f_at_rmax: float, r_max: float, decay: float) -> float:
    """Tail of int_{r_max}^inf f assuming f ~ c r^-decay, matched at r_max."""
    if decay <= 1.0:
        return np.inf
    return abs(f_at_rmax) * r_max / (decay - 1.0)


def averaged_oscillatory_tail(f: Callable[[np.ndarray], np.ndarray], start: float,
                              omega: float, rel_tol: float = 1e-8,
                              max_half_periods: int = 4000, n_nodes: int = 8,
                              scale: float = 1.0) -> float:
    """Sum int_{start}^inf f by half-period panels with repeated averaging.

    f must oscillate with angular frequency omega (> 0); successive panel
    contributions then alternate in sign and iterated averaging of the
    partial sums accelerates the conditionally convergent series.  `scale`
    sets the magnitude against which the tolerance is judged.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    h = np.pi / omega
    x, w = _gauss_legendre(n_nodes)
    partial = []
    total = 0.0
    a = start
    for _ in range(max_half_periods):
        mid, half = a + h / 2.0, h / 2.0
        total += float(np.sum(half * w * f(mid + half * x)))
        partial.append(total)
        a += h
        if len(partial) >= 6:
            row = np.array(partial[-12:])
            for _ in range(min(6, len(row) - 1)):
                row = 0.5 * (row[1:] + row[:-1])
            if len(partial) >= 8:
                prev = np.array(partial[-13:-1]) if len(partial) > 12 else np.array(partial[:-1])
                for _ in range(min(6, len(prev) - 1)):
                    prev = 0.5 * (prev[1:] + prev[:-1])
                if abs(row[-1] - prev[-1]) <= rel_tol * max(abs(scale), 1e-300):
                    return float(row[-1])
    raise QuadratureError("oscillatory tail did not converge")
