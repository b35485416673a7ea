#!/usr/bin/env python3
"""Benchmark of the addlevy CLI: seeded job mixes replayed in-process.

    python3 bench/run.py --workload capacity --seed 1 --seconds 26 --trace 0

One closed-loop client: jobs run back to back through
``addlevy.cli.main(argv, _exit=False)`` in this process, stdout is captured
and each JSON report is checked (``checks.py``).  The job list of a
workload (``workloads.py``) is one pass.  One untimed pass runs first, then
whole passes are replayed until the next one would end after ``--seconds``
(at least two passes).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every job
untraced and then with every public ``addlevy`` function wrapped
(``tracing.py``) and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.  The exit code
is 1 when a job fails its check other than as it did at the seed commit
(``Job.defect``), 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy and addlevy are imported only after load_program has timed the
# import of addlevy.cli (cli.import_s).
import checks
import workloads
from tracing import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
MIN_PASSES = 2
ENV = dict(os.environ)  # cli.main writes thread variables into os.environ

END_TO_END = (("throughput_jobs_per_s", "jobs/s"), ("job_p50_s", "s"), ("job_p90_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("success_ratio", "ratio"))


def _layer(name, *stats):
    units = {"self_s": "s", "calls": "count", "errors": "count", "iterations": "count",
             "s_per_iteration": "s", "converged_ratio": "ratio", "entries": "count",
             "hit_ratio": "ratio", "nodes": "count", "half_periods": "count",
             "points": "count", "phase_elems": "count", "computed_bytes": "bytes",
             "inconclusive_ratio": "ratio", "probes_per_call": "count", "import_s": "s",
             "trials": "count", "trials_per_s": "1/s", "job_wall_s": "s",
             "coverage_ratio": "ratio", "spans": "count", "untraced_jobs_per_s": "jobs/s",
             "traced_jobs_per_s": "jobs/s", "overhead_jobs_per_s": "jobs/s"}
    return tuple((f"{name}.{s}", units[s]) for s in stats)


LAYER_MODULES = ("exponents", "measures", "quadrature", "kernels", "energy", "equilibrium",
                 "classify", "simulate")

PER_LAYER = (
    _layer("cli.main", "self_s") + _layer("cli", "import_s")
    + _layer("equilibrium.solve_equilibrium", "self_s", "iterations", "s_per_iteration",
             "converged_ratio")
    + _layer("equilibrium.assemble_matrix", "self_s", "entries")
    + _layer("kernels.potential_density_v", "calls", "self_s", "errors")
    + _layer("kernels.potential_density", "hit_ratio")
    + _layer("kernels.lambda_bruteforce", "self_s") + _layer("kernels.riesz_constant", "self_s")
    + _layer("quadrature.integrate_panels", "calls", "nodes", "self_s")
    + _layer("quadrature.averaged_oscillatory_tail", "half_periods", "self_s", "errors")
    + _layer("exponents.kernel_values", "points", "self_s")
    + _layer("measures.fourier", "phase_elems", "computed_bytes", "self_s")
    + _layer("measures.discretize", "self_s")
    + _layer("energy.energy_fourier", "self_s", "calls")
    + _layer("energy.sojourn_second_moment", "self_s")
    + _layer("classify.probe_intersection_dimension_test", "calls", "self_s",
             "inconclusive_ratio")
    + _layer("classify.numeric_convergence_probe", "self_s")
    + _layer("classify.dimension_by_bisection", "probes_per_call")
    + _layer("simulate.sample_isotropic_stable_path", "calls", "self_s")
    + _layer("simulate.hitting_frequency", "self_s") + _layer("simulate.intersection_frequency", "self_s")
    + _layer("simulate.sojourn_mc", "self_s") + _layer("simulate.box_dimension_estimate", "self_s")
    + _layer("simulate", "trials", "trials_per_s")
    + sum((_layer(m, "self_s") for m in LAYER_MODULES), ())
    + _layer("trace", "job_wall_s", "coverage_ratio", "spans", "untraced_jobs_per_s",
             "traced_jobs_per_s", "overhead_jobs_per_s")
)
MC_ESTIMATORS = ("simulate.hitting_frequency", "simulate.intersection_frequency",
                 "simulate.sojourn_mc")


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_program():
    """Import addlevy.cli from this checkout's src/; return (module, seconds)."""
    if not (SRC / "addlevy" / "cli.py").is_file():
        raise SystemExit(f"bench: no addlevy sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import addlevy.cli as cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != SRC / "addlevy":
        raise SystemExit(f"bench: imported addlevy from {cli.__file__}, not {SRC}")
    return cli, import_s


def run_job(cli, job):
    """(exit code, stdout, seconds) of one CLI job; -1 if main raised."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(job.argv), _exit=False)
    except Exception as exc:  # a raising job is a failed job, not a harness crash
        code = -1
        buf.write(f"{type(exc).__name__}: {exc}")
    return code, buf.getvalue(), time.perf_counter() - t0


def replay(cli, jobs, seconds: float):
    """Replay whole passes; return (records, pass wall times, wall seconds)."""
    records = []
    pass_times = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        records += [(job, *run_job(cli, job)) for job in jobs]
        pass_times.append(time.perf_counter() - t_pass)
        elapsed = time.perf_counter() - t_start
        if len(pass_times) >= MIN_PASSES and elapsed + statistics.median(pass_times) > seconds:
            return records, pass_times, elapsed


def check_records(records):
    return [(job, err) for job, code, out, _ in records
            if (err := checks.check(job, code, out)) is not None]


def setup_seconds(workload: str) -> list[float]:
    """Wall time of fresh interpreters that import addlevy.cli and run the
    workload's warm-up jobs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload],
                       cwd=ROOT, env=ENV, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def warm_up(cli, workload: str):
    """Run one small job per kind; True if each exits 0 with a JSON report."""
    jobs = [dataclasses.replace(job, check="") for job in workloads.WARMUP[workload]()]
    failed = check_records([(job, *run_job(cli, job)) for job in jobs])
    for job, err in failed:
        print(f"warm-up job failed: {job.argv}: {err}", file=sys.stderr)
    return not failed


def _blas():
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        lib = ctypes.CDLL(libs[0])
        threads = lib.scipy_openblas_get_num_threads64_
        threads.restype = ctypes.c_int
        config = lib.scipy_openblas_get_config64_
        config.restype = ctypes.c_char_p
        return config().decode(), threads()
    except (OSError, IndexError, AttributeError):
        return "unknown", None


def environment(workload: str, seed: int, n_jobs: int) -> dict:
    import addlevy
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to report
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    blas, threads = _blas()
    return {"addlevy": addlevy.__version__, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": threads, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "git_commit": commit,
            "workload": workload, "seed": seed, "jobs_per_pass": n_jobs,
            "client": "1 closed-loop client, in-process",
            "cli_threads_flag": "not passed; it has no effect at the seed commit"}


def end_to_end(records, pass_times, setup: list[float], failed: int) -> dict:
    """Throughput is the median over passes (each the same job list) of
    jobs per second, so one slow stretch of the machine counts once."""
    lat = [dt for *_, dt in records]
    per_pass = len(records) // len(pass_times)
    return {"throughput_jobs_per_s": statistics.median(per_pass / t for t in pass_times),
            "job_p50_s": percentile(lat, 50), "job_p90_s": percentile(lat, 90),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": (len(records) - failed) / len(records)}


def per_layer(tracer, passes: int, import_s: float, untraced_tput: float, traced_tput: float):
    import numpy as np

    arr = tracer.arrays()
    own = self_times(arr["parent"], arr["start"], arr["end"])
    dur = arr["end"] - arr["start"]
    names = np.array(tracer.names)[arr["name_id"]]
    self_by, dur_by = {}, {}
    for name in tracer.names:
        sel = names == name
        self_by[name], dur_by[name] = float(own[sel].sum()), float(dur[sel].sum())
    counts = tracer.counts

    def c(name, key):
        return counts[name][key] if name in counts else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, _ in PER_LAYER:
        fn, stat = name.rsplit(".", 1)
        if stat == "self_s" and fn in LAYER_MODULES:
            m[name] = sum(v for k, v in self_by.items() if k.startswith(fn + ".")) / passes
        elif stat == "self_s":
            m[name] = self_by.get(fn, 0.0) / passes
        elif stat in ("calls", "errors", "nodes", "half_periods", "points", "phase_elems",
                      "computed_bytes", "iterations", "entries"):
            m[name] = c(fn, stat) / passes
    solve = "equilibrium.solve_equilibrium"
    m[f"{solve}.s_per_iteration"] = ratio(self_by.get(solve, 0.0), c(solve, "iterations"))
    m[f"{solve}.converged_ratio"] = ratio(c(solve, "converged"), c(solve, "calls"))
    m["kernels.potential_density.hit_ratio"] = (
        1.0 - ratio(c("kernels.potential_density_v", "calls"),
                    c("kernels.PotentialDensity.__call__", "calls"))
        if c("kernels.PotentialDensity.__call__", "calls") else 0.0)
    probe = "classify.probe_intersection_dimension_test"
    m[f"{probe}.inconclusive_ratio"] = ratio(c(probe, "inconclusive"), c(probe, "calls"))
    bis = "classify.dimension_by_bisection"
    m[f"{bis}.probes_per_call"] = ratio(c(bis, "probes"), c(bis, "calls"))
    trials = sum(c(n, "trials") for n in MC_ESTIMATORS)
    m["simulate.trials"] = trials / passes
    m["simulate.trials_per_s"] = ratio(trials, sum(dur_by.get(n, 0.0) for n in MC_ESTIMATORS))
    m["cli.import_s"] = import_s
    job_wall = dur_by.get("job", 0.0)
    layers = self_by.get("cli.main", 0.0) + sum(
        v for k, v in self_by.items() if k.split(".")[0] in LAYER_MODULES)
    m["trace.job_wall_s"] = job_wall / passes
    m["trace.coverage_ratio"] = ratio(layers, job_wall)
    m["trace.spans"] = len(own) / passes
    m["trace.untraced_jobs_per_s"] = untraced_tput
    m["trace.traced_jobs_per_s"] = traced_tput
    m["trace.overhead_jobs_per_s"] = untraced_tput - traced_tput
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        cli, _ = load_program()
        return 0 if warm_up(cli, args.workload) else 1

    if not (SRC / "addlevy" / "cli.py").is_file():
        print(f"bench: no addlevy sources under {SRC}", file=sys.stderr)
        return 2
    setup = setup_seconds(args.workload) if args.trace == 0 else []
    cli, import_s = load_program()
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    ok = warm_up(cli, args.workload)
    # One untimed pass: the first visit of each array size is slower than
    # the next ones (see README, "Load model"), and the timed passes should
    # all see the process in the state the replay settles into.
    for job in jobs:
        run_job(cli, job)
    env = environment(args.workload, args.seed, len(jobs))
    print("# env " + json.dumps(env))

    if args.trace == 0:
        records, pass_times, wall = replay(cli, jobs, args.seconds)
        failed = check_records(records)
        metrics = end_to_end(records, pass_times, setup, len(failed))
        units = dict(END_TO_END)
        lat = sorted(dt for *_, dt in records)
        notes = {"throughput_jobs_per_s": f"median of {len(pass_times)} passes of {len(jobs)} jobs ("
                                          + ", ".join(f"{t:.2f}" for t in pass_times) + " s)",
                 "job_p50_s": f"n={len(lat)}",
                 "job_p90_s": f"n={len(lat)}, {sum(x > metrics['job_p90_s'] for x in lat)} above",
                 "setup_s": f"median of {len(setup)}: " + ", ".join(f"{t:.2f}" for t in setup),
                 "peak_rss_mb": "ru_maxrss of this process",
                 "success_ratio": f"error_rate = {len(failed)}/{len(records)} = "
                                  f"{len(failed) / len(records):.4f}"}
    else:
        # Each job runs untraced and then traced, back to back, so the
        # machine's drift in speed cancels from the overhead figure.
        tracer = Tracer()
        untraced, traced, passes = [], [], 0
        t_start = time.perf_counter()
        while passes == 0 or (time.perf_counter() - t_start) * (passes + 1) / passes <= args.seconds:
            for job in jobs:
                untraced.append((job, *run_job(cli, job)))
                tracer.current_job = len(traced)
                tracer.install()
                try:
                    with tracer.span("job"):
                        traced.append((job, *run_job(cli, job)))
                finally:
                    tracer.uninstall()
            passes += 1
        tput_u, tput_t = (len(recs) / sum(dt for *_, dt in recs) for recs in (untraced, traced))
        metrics = per_layer(tracer, passes, import_s, tput_u, tput_t)
        records = untraced + traced
        failed = check_records(records)
        units = dict(PER_LAYER)
        notes = {"trace.job_wall_s": f"per pass; {passes} traced passes",
                 "trace.spans": f"per pass; {len(tracer.start)} spans in total"}
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")

    unexpected = 0
    for job, err in failed:
        unexpected += not job.defect
        label = f"FAILED (at the seed commit too: {job.defect})" if job.defect else "FAILED"
        print(f"{label} {job.kind}: {err}\n    argv: {job.argv}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:58s} {metrics[name]:14.6g} {unit:7s} {notes.get(name, '')}")
    result = {"correct": ok and not unexpected, "attempted": len(records), "failed": len(failed),
              "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, **result, "notes": notes}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
