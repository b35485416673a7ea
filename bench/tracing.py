"""In-memory span tracer that wraps the public functions of ``addlevy``.

The traced run replaces every public function of each ``addlevy`` module
(and three methods: ``AtomicMeasure.fourier``, ``ExponentVector.kernel_values``
and ``PotentialDensity.__call__``) with a wrapper that records a span
(name, start, end, parent, job id) and a few counts read from the call's
arguments and result.  Nothing under ``src/`` changes: the wrappers are set
on the module namespaces, including every module that bound the function
with ``from ... import``, and removed again by :meth:`Tracer.uninstall`.

Spans live in compact arrays until the run ends; :func:`self_times` turns
them into per-span self time (duration minus the part covered by child
spans).
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from array import array
from collections import defaultdict

MODULES = ("exponents", "measures", "quadrature", "kernels", "energy",
           "equilibrium", "classify", "simulate", "cli")

# Methods traced besides module-level functions: (module, class, method, span name).
METHODS = (
    ("measures", "AtomicMeasure", "fourier", "measures.fourier"),
    ("exponents", "ExponentVector", "kernel_values", "exponents.kernel_values"),
)
# Called once per matrix entry; counted only, so its time stays in the caller.
COUNTED = (("kernels", "PotentialDensity", "__call__", "kernels.PotentialDensity.__call__"),)

# Of the cli module only main is a span; the cmd_* bodies count as cli.main.
CLI_FUNCTIONS = ("main",)


def _counting(fn, counter, key):
    @functools.wraps(fn)
    def counted(*a, **k):
        counter[key] += 1
        return fn(*a, **k)
    return counted


class Tracer:
    """Records spans and per-name counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.current_job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the harness itself (one per job)."""
        idx = self.open(self._intern(name))
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, fn, name: str):
        tracer, name_id, counts = self, self._intern(name), self.counts[name]
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts["calls"] += 1
            if name in _ARG_HOOKS:
                args, kwargs = _ARG_HOOKS[name](counts, args, kwargs)
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts["errors"] += 1
                raise
            finally:
                tracer.close(idx)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"addlevy.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("addlevy")]
        originals = {}
        for short, mod in mods.items():
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if short == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                if isinstance(value, types.FunctionType) or hasattr(value, "cache_info"):
                    originals[id(value)] = (value, self._wrap(value, f"{short}.{attr}"))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(ns, attr, hit[1])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            self._patch(cls, meth, self._wrap(cls.__dict__[meth], name))
        for short, cls_name, meth, name in COUNTED:
            cls = getattr(mods[short], cls_name)
            self._patch(cls, meth, _counting(cls.__dict__[meth], self.counts[name], "calls"))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self):
        import numpy as np

        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "job": np.frombuffer(self.job, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# counts read from arguments and results
# ---------------------------------------------------------------------------

def _count_callable_arg(key):
    """Wrap the first callable argument so its calls are counted under key."""
    def hook(counts, args, kwargs):
        for i, a in enumerate(args):
            if callable(a):
                args = args[:i] + (_counting(a, counts, key),) + args[i + 1:]
                return args, kwargs
        for k, a in kwargs.items():
            if callable(a):
                return args, {**kwargs, k: _counting(a, counts, key)}
        return args, kwargs
    return hook


_ARG_HOOKS = {
    "quadrature.averaged_oscillatory_tail": _count_callable_arg("half_periods"),
    "classify.dimension_by_bisection": _count_callable_arg("probes"),
}


def _c_solve(counts, args, kwargs, res):
    counts["iterations"] += res.iterations
    counts["converged"] += bool(res.converged)


def _c_assemble(counts, args, kwargs, res):
    counts["entries"] += res.entries.size


def _c_integrate(counts, args, kwargs, res):
    edges = args[1] if len(args) > 1 else kwargs["edges"]
    n_nodes = args[2] if len(args) > 2 else kwargs.get("n_nodes", 12)
    counts["nodes"] += (len(edges) - 1) * n_nodes


def _c_kernel_values(counts, args, kwargs, res):
    counts["points"] += getattr(res, "size", 1)


def _c_fourier(counts, args, kwargs, res):
    elems = getattr(res, "size", 1) * args[0].n_atoms
    counts["phase_elems"] += elems
    counts["computed_bytes"] += 16 * elems  # complex128 phase matrix


def _c_probe(counts, args, kwargs, res):
    counts["inconclusive"] += res.kind == "Inconclusive"


def _c_mc(counts, args, kwargs, res):
    """Trials of the MCConfig argument."""
    counts["trials"] += next((v.trials for v in (*args, *kwargs.values())
                              if type(v).__name__ == "MCConfig"), 0)


_COUNTERS = {
    "equilibrium.solve_equilibrium": _c_solve,
    "equilibrium.assemble_matrix": _c_assemble,
    "quadrature.integrate_panels": _c_integrate,
    "exponents.kernel_values": _c_kernel_values,
    "measures.fourier": _c_fourier,
    "classify.probe_intersection_dimension_test": _c_probe,
    "simulate.hitting_frequency": _c_mc,
    "simulate.intersection_frequency": _c_mc,
    "simulate.sojourn_mc": _c_mc,
}


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def self_times(parent, start, end):
    """Per-span self time: duration minus the union of its children's
    intervals clipped to the span.  Arrays are indexed by span; parent is -1
    for a root.  Works for overlapping children as well as nested ones."""
    import numpy as np

    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return dur.copy()
    p = parent[child]
    base = start.min()
    lo = np.maximum(start[child], start[p]) - base
    hi = np.minimum(end[child], end[p]) - base
    order = np.lexsort((lo, p))
    p, lo, hi = p[order], lo[order], hi[order]
    # running maximum of child ends within each parent group
    first = np.r_[True, p[1:] != p[:-1]]
    group = np.cumsum(first) - 1
    shift = (hi.max() + 1.0) * group
    reach = np.maximum.accumulate(hi + shift) - shift
    prev_reach = np.where(first, -np.inf, np.r_[-np.inf, reach[:-1]])
    covered = np.clip(hi - np.maximum(lo, prev_reach), 0.0, None)
    return dur - np.bincount(p, weights=covered, minlength=dur.size)
