"""Deterministic quadrature plans and panel integrators.

Everything here is plumbing shared by the kernel and energy modules:
Gauss-Legendre panel rules, edge builders that refine geometrically toward
an endpoint singularity while staying period-matched against a known
maximum oscillation frequency, and averaged-tail summation for conditionally
convergent oscillatory half-line integrals.
"""

from __future__ import annotations

import math
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
        for name in ("r_max", "rel_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")


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
    """Gauss-Legendre nodes/weights on each panel [edges[i], edges[i+1]].

    Edges of shape (..., m) give nodes and weights of shape
    (..., (m - 1) * n_nodes), one rule per row of edges.
    """
    x, w = _gauss_legendre(n_nodes)
    mids = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    nodes = mids[..., None] + half[..., None] * x
    weights = half[..., None] * w
    shape = edges.shape[:-1] + (-1,)
    return nodes.reshape(shape), weights.reshape(shape)


def uniform_panel_count(r_max: float, max_freq=0.0):
    """Number of uniform panels of ``halfline_edges(r_max, max_freq)``.

    Elementwise in max_freq; the edges depend on max_freq only through it.
    """
    with np.errstate(divide="ignore"):
        width = np.minimum(r_max / 16.0, np.pi / (2.0 * np.asarray(max_freq, dtype=float)))
    return np.ceil(r_max / width).astype(int)


def halfline_edges(r_max: float, max_freq: float = 0.0, min_scale: float = 1e-9) -> np.ndarray:
    """Panel edges on [0, r_max], period-matched and refined toward 0.

    Panels are at most half a period of the fastest oscillation wide, and a
    geometric cascade toward 0 keeps integrable endpoint singularities
    (e.g. |xi|^-s) resolved.
    """
    n_uniform = int(uniform_panel_count(r_max, max_freq))
    # geometric cascade below the first uniform edge
    cascade = []
    lo = r_max / n_uniform
    while lo > min_scale * r_max:
        lo /= 2.0
        cascade.append(lo)
    return np.unique(np.concatenate((np.linspace(0.0, r_max, n_uniform + 1), cascade)))


def integrate_panels(f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> float:
    nodes, weights = panel_nodes(edges)
    return float(np.sum(weights * f(nodes)))


def powerlaw_tail(f_at_rmax: float, r_max: float, decay: float) -> float:
    """Tail of int_{r_max}^inf f assuming f ~ c r^-decay, matched at r_max;
    elementwise in f_at_rmax and r_max."""
    if decay <= 1.0:
        return np.inf
    return abs(f_at_rmax) * r_max / (decay - 1.0)


def averaged_oscillatory_tail(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                              start, omega, rel_tol: float = 1e-8,
                              max_half_periods: int = 4000, scale=1.0) -> np.ndarray:
    """Sum int_{start_i}^inf f(s, omega_i) ds for every frequency omega_i.

    Each integrand must oscillate with its angular frequency omega_i (> 0);
    its half-period panels then alternate in sign, and iterated averaging of
    the partial sums accelerates the conditionally convergent series.  Round
    k integrates the k-th half period of every row still running with one
    call f(s, omega): s (rows, 8) holds an 8-node Gauss-Legendre rule per
    row, omega is (rows, 1).  A row stops when its averaged sum changes by
    at most rel_tol * scale_i in one round, so its value does not depend on
    the other rows.  start and scale broadcast against omega.  Returns an
    array of omega's shape.
    """
    omega = np.asarray(omega, dtype=float)
    shape = omega.shape
    omega = omega.ravel()
    if np.any(omega <= 0.0):
        raise ValueError("omega must be positive")
    out = np.empty(omega.size)
    if not omega.size:
        return out.reshape(shape)
    bound = rel_tol * np.maximum(np.abs(np.broadcast_to(scale, shape).ravel()), 1e-300)
    x, w = _gauss_legendre(8)
    # the state of the rows still running; row i of them is row rows[i] of out
    rows = np.arange(omega.size)
    h = np.pi / omega
    a = np.broadcast_to(start, shape).astype(float).ravel()
    total = np.zeros(omega.size)
    # the last 8 partial sums: 6 averagings of the last 7 give the newest
    # estimate, of the 7 before them the previous one
    partial = np.zeros((omega.size, 8))
    for k in range(1, max_half_periods + 1):
        half = h / 2.0
        s = (a + half)[:, None] + half[:, None] * x
        total += np.sum(half[:, None] * w * f(s, omega[rows, None]), axis=1)
        partial[:, :-1] = partial[:, 1:]
        partial[:, -1] = total
        a += h
        if k < 8:
            continue
        new, prev = partial[:, 1:], partial[:, :-1]
        for _ in range(6):
            new = 0.5 * (new[:, 1:] + new[:, :-1])
            prev = 0.5 * (prev[:, 1:] + prev[:, :-1])
        done = np.abs(new[:, -1] - prev[:, -1]) <= bound[rows]
        out[rows[done]] = new[done, -1]
        if done.all():
            return out.reshape(shape)
        keep = ~done
        rows, h, a, total, partial = rows[keep], h[keep], a[keep], total[keep], partial[keep]
    raise QuadratureError(f"oscillatory tail did not converge at {rows.size} of "
                          f"{omega.size} frequencies")
