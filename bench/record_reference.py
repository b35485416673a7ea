#!/usr/bin/env python3
"""Record the reference values that checks.py compares against.

    python3 bench/record_reference.py > bench/reference.json

Run at the commit whose outputs define "correct".  Deterministic jobs run
once on the untransformed sets (capacities, equilibrium and Fourier-side
energies); Monte Carlo frequencies run with REF_TRIALS_FACTOR times the
job's trials and a fixed seed, and are stored as [frequency, trials]; box
dimensions run on BOXDIM_PATHS seeded paths, stored as [mean, sd, paths].
"""

from __future__ import annotations

import json
import random
import statistics
import sys

import run
import workloads

REF_TRIALS_FACTOR = 10
REF_MIN_TRIALS = 4000
REF_SEED = 20070628
BOXDIM_PATHS = 200


def _set_flag(argv, flag, value):
    argv = list(argv)
    argv[argv.index(flag) + 1] = str(value)
    return argv


def main() -> int:
    cli, _ = run.load_program()
    ref = {"riesz": {}, "potential": {}, "energy": {}, "mc": {}, "boxdim": {}}
    jobs = (workloads.capacity(0, unit=True) + workloads.spectral(0, unit=True)
            + workloads.montecarlo(0))
    done = set()
    for job in jobs:
        if not job.ref or job.ref in done:
            continue
        done.add(job.ref)
        argv = job.argv
        if job.check == "box_dimension":
            rng = random.Random(REF_SEED)
            paths = [workloads.boxdim(job.params["alpha"], job.params["steps"], rng.randrange(2 ** 31))
                     for _ in range(BOXDIM_PATHS)]
            dims = [json.loads(run.run_job(cli, path)[1])["box_dimension"] for path in paths]
            ref["boxdim"][job.ref] = [statistics.mean(dims), statistics.stdev(dims), len(dims)]
            continue
        if job.check == "mc_frequency":
            trials = max(REF_TRIALS_FACTOR * job.params["trials"], REF_MIN_TRIALS)
            argv = _set_flag(_set_flag(argv, "--trials", trials), "--seed", REF_SEED)
        code, out, dt = run.run_job(cli, workloads.Job(job.kind, argv, ""))
        if code != 0:
            print(f"reference job failed ({code}): {argv}: {out}", file=sys.stderr)
            return 1
        rep = json.loads(out)
        print(f"{job.ref}: {dt:.2f} s", file=sys.stderr)
        if job.check == "mc_frequency":
            est = rep.get("hit_frequency") or rep["intersection_frequency"]
            ref["mc"][job.ref] = [est["value"], est["trials"]]
        elif job.check == "potential_equilibrium":
            ref["potential"][job.ref] = rep["energy"]
        elif job.check == "reference_energy":
            ref["energy"][job.ref] = rep["energy"]
        else:
            ref["riesz"][job.ref] = rep["capacity"]
    print(json.dumps(ref, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
