"""Batch command-line front end.

Every subcommand emits a single JSON report on stdout (and optionally to a
file) that embeds the fully resolved parameters and the seed, so a run can
be reproduced from its own report.  Exit codes: 0 success, 1 invalid input
(with a machine-readable error object on stdout) or a stdout closed by its
reader, 2 a solver or quadrature failed to converge.

A saved report or hand-written config can be replayed with

    addlevy run --config job.json

where the file holds {"command": ..., "params": {...}, "output_path": ...,
"seed": ...}; unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from addlevy.classify import (
    StableSystem,
    dimension_by_bisection,
    intersection_dimension,
    intersections_exist,
    multiple_points_allowed,
    probe_intersection_dimension_test,
    range_dimension,
    range_has_positive_measure,
    subordinator_meet,
)
from addlevy.energy import energy_fourier, sojourn_second_moment
from addlevy.equilibrium import (
    InconclusiveError,
    assemble_matrix,
    bessel_riesz_capacity,
    point_capacity_test,
    solve_equilibrium,
)
from addlevy.exponents import ExponentVector, IsotropicStable, exponent_from_json
from addlevy.kernels import PotentialDensity, lambda_bruteforce, lambda_closed, riesz_kernel
from addlevy.measures import SetDiscretization, discretize
from addlevy.quadrature import QuadratureError, QuadratureSpec
from addlevy.simulate import (
    BudgetError,
    GaussianDensitySpec,
    MCConfig,
    box_dimension_estimate,
    hitting_frequency,
    intersection_frequency,
    sample_isotropic_stable_path,
    sojourn_mc,
)


class CliError(ValueError):
    pass


class NotConverged(RuntimeError):
    pass


def _parse_floats(text: str) -> list:
    try:
        return [float(t) for t in text.replace(";", ",").split(",") if t.strip()]
    except ValueError:
        raise CliError(f"cannot parse float list from {text!r}")


def _load_json_arg(text: str):
    """Inline JSON, or @path to read it from a file."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON argument: {exc}")


def _exponent_arg(text: str) -> ExponentVector:
    data = _load_json_arg(text)
    if isinstance(data, dict):
        data = data.get("components", [data])
    if not isinstance(data, list) or not data:
        raise CliError("exponent spec must be a family object or a list of them")
    try:
        return ExponentVector(tuple(exponent_from_json(d) for d in data))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad exponent spec: {exc}")


def _set_arg(text: str) -> SetDiscretization:
    data = _load_json_arg(text)
    if not isinstance(data, dict) or "kind" not in data:
        raise CliError('set spec must be {"kind": ..., **params}')
    params = {k: v for k, v in data.items() if k != "kind"}
    try:
        return SetDiscretization(kind=data["kind"], params=params)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad set spec: {exc}")


def _write_report(report: dict, output_path, csv_rows=None, csv_path=None):
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text + "\n")
    if csv_path and csv_rows is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows(csv_rows)
    # last, so the files are written even when the reader closes stdout early
    print(text, flush=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_lambda(args) -> dict:
    if args.points:
        zs = []
        for pair in args.points.split(";"):
            re_im = _parse_floats(pair)
            if len(re_im) != 2:
                raise CliError("each point must be re,im")
            zs.append(complex(re_im[0], re_im[1]))
    else:
        res = np.linspace(0.0, args.re_max, args.n_grid)
        ims = np.linspace(-args.im_max, args.im_max, args.n_grid)
        zs = [complex(r, i) for r in res for i in ims]
    rows = [("re", "im", "lambda_closed")]
    values = {}
    for z in zs:
        v = lambda_closed(z)
        values[f"{z.real:g}{z.imag:+g}j"] = v
        rows.append((z.real, z.imag, v))
    report = {"command": "lambda", "n_points": len(zs), "values": values,
              "params": {"points": args.points, "re_max": args.re_max,
                         "im_max": args.im_max, "n_grid": args.n_grid}}
    if args.check:
        worst = 0.0
        for z in zs[: args.check]:
            worst = max(worst, abs(lambda_closed(z) - lambda_bruteforce(z)))
        report["bruteforce_max_abs_diff"] = worst
    return report, rows


def cmd_energy(args) -> dict:
    psi = _exponent_arg(args.psi)
    mu = discretize(_set_arg(args.set))
    quad = QuadratureSpec(r_max=args.r_max, rel_tol=args.rel_tol)
    rep = energy_fourier(psi, mu, quad)
    if not rep.converged:
        raise NotConverged("energy quadrature did not meet its tolerance")
    return {"command": "energy", "energy": rep.value,
            "tail_estimate": rep.tail_estimate, "converged": rep.converged,
            "params": {"psi": psi.to_json(), "set": _load_json_arg(args.set),
                       "r_max": args.r_max, "rel_tol": args.rel_tol}}, None


def _gauge_from_args(args):
    if args.gauge == "riesz":
        disc = _set_arg(args.set)
        d = len(np.atleast_2d(discretize(disc).points)[0])
        return riesz_kernel(d, d - args.s)
    if args.gauge == "potential":
        if not args.psi:
            raise CliError("--gauge potential needs --psi")
        psi = _exponent_arg(args.psi)
        return PotentialDensity(psi)
    raise CliError(f"unknown gauge {args.gauge!r}")


def cmd_equilibrium(args) -> dict:
    disc = _set_arg(args.set)
    gauge = _gauge_from_args(args)
    matrix = assemble_matrix(gauge, disc)
    result = solve_equilibrium(matrix, tol=args.tol, max_iter=args.max_iter)
    if not result.converged:
        raise NotConverged("energy minimizer did not reach the gap tolerance")
    report = {"command": "equilibrium", **result.to_json(),
              "params": {"set": _load_json_arg(args.set), "gauge": args.gauge,
                         "s": args.s, "psi": args.psi, "tol": args.tol,
                         "max_iter": args.max_iter}}
    rows = [("atom_index", "weight")] + [(i, w) for i, w in enumerate(result.weights)]
    if args.flat_check:
        n = len(result.weights)
        tv = 0.5 * float(np.abs(np.asarray(result.weights) - 1.0 / n).sum())
        report["flat_check"] = {
            "tv_to_uniform": tv,
            "flat": tv < 0.05,
            "note": ("weights are numerically flat, matching the "
                     "flat-equilibrium prediction for sets with interior"
                     if tv < 0.05 else
                     "documented discrepancy: the discretized pairwise "
                     "minimizer concentrates weight near the boundary, as "
                     "classical Riesz equilibrium on an interval does, and "
                     "does not reproduce the flat prediction at this "
                     "resolution; see the per-atom CSV"),
        }
    del report["weights"]
    report["weights"] = [float(w) for w in result.weights]
    return report, rows


def cmd_capacity(args) -> dict:
    if args.point_test:
        if not args.psi:
            raise CliError("--point-test needs --psi")
        psi = _exponent_arg(args.psi)
        try:
            hits = point_capacity_test(psi)
        except InconclusiveError as exc:
            raise NotConverged(str(exc))
        return {"command": "capacity", "points_are_polar": not hits,
                "singletons_hit": hits,
                "params": {"psi": psi.to_json(), "point_test": True}}, None
    if not args.set:
        raise CliError("capacity needs --set (or --point-test with --psi)")
    disc = _set_arg(args.set)
    result = bessel_riesz_capacity(disc, args.s, tol=args.tol, max_iter=args.max_iter)
    if not result.converged:
        raise NotConverged("capacity minimizer did not converge")
    return {"command": "capacity", "capacity": result.capacity,
            "energy": result.energy, "s": args.s,
            "params": {"set": _load_json_arg(args.set), "s": args.s,
                       "tol": args.tol, "max_iter": args.max_iter}}, None


def cmd_classify(args) -> dict:
    report = {"command": "classify", "params": {}}
    if args.stable:
        alphas = _parse_floats(args.stable)
        sys_ = StableSystem(alphas=tuple(alphas), d=args.dim)
        report["params"].update({"stable": args.stable, "dim": args.dim})
        report.update({
            "intersect": intersections_exist(sys_),
            "dimension": intersection_dimension(sys_),
            "range_dimension": range_dimension(sys_),
            "range_has_positive_measure": range_has_positive_measure(sys_),
        })
    if args.multiple:
        vals = _parse_floats(args.multiple)
        if len(vals) != 3:
            raise CliError("--multiple needs alpha,d,N")
        alpha, d, n = vals[0], int(vals[1]), int(vals[2])
        report["params"]["multiple"] = args.multiple
        report["multiple_points_allowed"] = multiple_points_allowed(alpha, d, n)
    if args.subordinators:
        vals = _parse_floats(args.subordinators)
        if len(vals) != 2:
            raise CliError("--subordinators needs alpha1,alpha2")
        report["params"]["subordinators"] = args.subordinators
        report["subordinator_ranges_meet"] = subordinator_meet(vals[0], vals[1])
    if len(report) == 2:
        raise CliError("classify: give at least one of --stable/--multiple/--subordinators")
    return report, None


def cmd_dimension(args) -> dict:
    alphas = _parse_floats(args.stable)
    sys_ = StableSystem(alphas=tuple(alphas), d=args.dim)
    report = {"command": "dimension",
              "analytic_dimension": intersection_dimension(sys_),
              "range_dimension": range_dimension(sys_),
              "params": {"stable": args.stable, "dim": args.dim,
                         "numeric": args.numeric}}
    if args.numeric:
        try:
            report["numeric_dimension"] = dimension_by_bisection(
                lambda s: probe_intersection_dimension_test(sys_, s),
                0.0, float(args.dim), tol=args.bisect_tol)
        except (ValueError, QuadratureError) as exc:
            raise NotConverged(f"numeric dimension probe failed: {exc}")
    return report, None


# The flags each simulate mode reads besides --mode, --stable and --seed, with
# their defaults.  A mode reports exactly these, so its report replays, and
# refuses any other simulate flag given explicitly.
_SIMULATE_FLAGS = {
    "hitting": {"dim": 1, "set": None, "trials": 1000, "time_horizon": 1.0,
                "n_steps": 200, "epsilon": 0.1},
    "intersection": {"dim": 1, "trials": 1000, "time_horizon": 1.0, "n_steps": 200,
                     "epsilon": 0.1},
    "boxdim": {"dim": 1, "time_horizon": 1.0, "n_steps": 200},
    "sojourn": {"trials": 1000, "n_steps": 200, "sigma": 1.0, "mass": 1.0,
                "half_width": 10.0},
}
_MC_FIELDS = ("trials", "time_horizon", "n_steps", "epsilon")


def cmd_simulate(args) -> dict:
    used = _SIMULATE_FLAGS[args.mode]
    for name in sorted(set().union(*_SIMULATE_FLAGS.values()) - set(used)):
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise CliError(f"simulate --mode {args.mode} does not use {flag}")
    opts = {name: default if getattr(args, name) is None else getattr(args, name)
            for name, default in used.items()}
    try:
        cfg = MCConfig(seed=args.seed, **{k: opts[k] for k in _MC_FIELDS if k in opts})
    except ValueError as exc:
        raise CliError(str(exc))
    alphas = _parse_floats(args.stable)
    if args.mode == "hitting":
        if opts["set"] is None:
            raise CliError("hitting mode needs --set")
        sys_ = StableSystem(alphas=tuple(alphas), d=opts["dim"])
        est = hitting_frequency(sys_, _set_arg(opts["set"]), cfg)
        opts["set"] = _load_json_arg(opts["set"])
        body = {"hit_frequency": est.to_json()}
    elif args.mode == "intersection":
        if len(alphas) != 2:
            raise CliError("intersection mode needs --stable alpha1,alpha2")
        est = intersection_frequency(alphas[0], alphas[1], opts["dim"], cfg)
        body = {"intersection_frequency": est.to_json()}
    elif args.mode == "boxdim":
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        path = sample_isotropic_stable_path(alphas[0], opts["dim"],
                                            cfg.time_horizon, cfg.n_steps, rng)
        dim_est = box_dimension_estimate(path, cfg.box_scales)
        body = {"box_dimension": dim_est, "scales": list(cfg.box_scales)}
    else:
        f = GaussianDensitySpec(sigma=opts["sigma"], mass=opts["mass"])
        first, second = sojourn_mc(alphas[0], f, cfg, half_width=opts["half_width"])
        psi = ExponentVector((IsotropicStable(alpha=alphas[0], dim=1),))
        predicted = sojourn_second_moment(psi, f.fourier)
        body = {"first_moment": first.to_json(),
                "second_moment": second.to_json(),
                "predicted_first_moment": f.mass,
                "predicted_second_moment": predicted}
    params = {"mode": args.mode, "stable": args.stable, "seed": cfg.seed, **opts}
    return {"command": "simulate", **body, "seed": cfg.seed, "params": params}, None


_COMMANDS = {
    "lambda": cmd_lambda,
    "energy": cmd_energy,
    "equilibrium": cmd_equilibrium,
    "capacity": cmd_capacity,
    "classify": cmd_classify,
    "dimension": cmd_dimension,
    "simulate": cmd_simulate,
}

_RUN_KEYS = {"command", "params", "output_path", "seed"}


def cmd_run(args) -> dict:
    with open(args.config) as fh:
        job = json.load(fh)
    extra = set(job) - _RUN_KEYS
    if extra:
        raise CliError(f"unknown config keys: {sorted(extra)}")
    command = job.get("command")
    if command not in _COMMANDS or command == "run":
        raise CliError(f"config command must be one of {sorted(_COMMANDS)}")
    params = job.get("params", {})
    if not isinstance(params, dict):
        raise CliError("config params must be an object")
    argv = [command]
    for key, value in params.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, (dict, list)):
            argv.extend([flag, json.dumps(value)])
        else:
            argv.extend([flag, str(value)])
    if "seed" in job and "seed" not in params:
        argv.extend(["--seed", str(job["seed"])])
    if job.get("output_path"):
        argv.extend(["--out", str(job["output_path"])])
    return main(argv, _exit=False)


@functools.cache  # parsing leaves it unchanged and every default is immutable
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addlevy",
        description="Energies, capacities, classifiers, and Monte Carlo "
                    "checks for additive Levy processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="also write the JSON report here")
        p.add_argument("--csv", default=None, help="write tabular output as CSV")

    p = sub.add_parser("lambda", help="evaluate the sojourn covariance kernel")
    p.add_argument("--points", default=None, help='semicolon list "re,im;re,im"')
    p.add_argument("--re-max", type=float, default=5.0)
    p.add_argument("--im-max", type=float, default=5.0)
    p.add_argument("--n-grid", type=int, default=8)
    p.add_argument("--check", type=int, default=0,
                   help="cross-check this many points against the defining integral")
    common(p)

    p = sub.add_parser("energy", help="Fourier-side energy of a discretized set")
    p.add_argument("--psi", required=True, help="exponent vector as JSON (or @file)")
    p.add_argument("--set", required=True, help="set discretization as JSON (or @file)")
    p.add_argument("--r-max", type=float, default=400.0)
    p.add_argument("--rel-tol", type=float, default=1e-4,
                   help="relative tolerance for the convergence certificate")
    common(p)

    p = sub.add_parser("equilibrium", help="minimize energy over probability measures")
    p.add_argument("--set", required=True)
    p.add_argument("--gauge", choices=["riesz", "potential"], default="riesz")
    p.add_argument("--s", type=float, default=0.5, help="Riesz energy order")
    p.add_argument("--psi", default=None, help="exponent vector for --gauge potential")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=50000)
    p.add_argument("--flat-check", action="store_true",
                   help="report total-variation distance of the minimizer to uniform")
    common(p)

    p = sub.add_parser("capacity", help="Riesz capacity, or the point-polarity test")
    p.add_argument("--set", default=None)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=50000)
    p.add_argument("--point-test", action="store_true",
                   help="decide whether singletons are hit (needs --psi)")
    p.add_argument("--psi", default=None)
    common(p)

    p = sub.add_parser("classify", help="analytic hitting/intersection criteria")
    p.add_argument("--stable", default=None, help="comma list of stability indices")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--multiple", default=None, help="alpha,d,N for N-multiple points")
    p.add_argument("--subordinators", default=None, help="alpha1,alpha2")
    common(p)

    p = sub.add_parser("dimension", help="intersection dimension, analytic and numeric")
    p.add_argument("--stable", required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--bisect-tol", type=float, default=0.05)
    common(p)

    p = sub.add_parser("simulate", help="Monte Carlo estimates")
    p.add_argument("--mode", required=True, choices=list(_SIMULATE_FLAGS))
    p.add_argument("--stable", required=True)
    p.add_argument("--seed", type=int, default=0)
    # defaults per mode in _SIMULATE_FLAGS; None marks a flag not given
    p.add_argument("--dim", type=int)
    p.add_argument("--set")
    p.add_argument("--trials", type=int)
    p.add_argument("--time-horizon", type=float)
    p.add_argument("--n-steps", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--mass", type=float)
    p.add_argument("--half-width", type=float)
    common(p)

    p = sub.add_parser("run", help="replay a saved JSON job config")
    p.add_argument("--config", required=True)

    return parser


def main(argv=None, _exit=True) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if _exit:
            raise
        raise CliError(f"argument parsing failed (exit {exc.code})")
    try:
        if args.command == "run":
            return cmd_run(args)
        result = _COMMANDS[args.command](args)
        report, rows = result
        _write_report(report, getattr(args, "out", None), rows,
                      getattr(args, "csv", None))
        code = 0
    except BrokenPipeError:
        # The reader closed stdout (`| head`): nothing more can reach it, and
        # pointing the descriptor at devnull keeps the flush at exit quiet.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        code = 1
    except (CliError, ValueError, OSError, json.JSONDecodeError, BudgetError) as exc:
        print(json.dumps({"error": str(exc), "kind": "invalid-input"}))
        code = 1
    except (NotConverged, QuadratureError) as exc:
        print(json.dumps({"error": str(exc), "kind": "not-converged"}))
        code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
