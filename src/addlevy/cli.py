"""Batch command-line front end.

Every subcommand emits a single JSON report on stdout (and optionally to a
file).  One table, ``_FLAGS``, lists for each variant of each subcommand the
flags it reads and their defaults.  A flag of the subcommand that its
variant does not read is refused; the report's ``params`` hold exactly the
resolved flags, defaults filled in, so a run can be reproduced from its own
report.  Exit codes: 0 success, 1 invalid input, a bad command line
included (with a machine-readable error object on stdout), or a stdout
closed by its reader, 2 a solver or quadrature failed to converge.

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
    InconclusiveError,
    StableSystem,
    intersection_dimension,
    intersections_exist,
    multiple_points_allowed,
    numeric_intersection_dimension,
    range_dimension,
    range_has_positive_measure,
    subordinator_meet,
)
from addlevy.energy import energy_fourier, sojourn_second_moment
from addlevy.equilibrium import (
    assemble_matrix,
    bessel_riesz_capacity,
    point_capacity_test,
    solve_equilibrium,
)
from addlevy.exponents import ExponentVector, IsotropicStable, exponent_from_json
from addlevy.kernels import lambda_bruteforce, lambda_closed
from addlevy.measures import SetDiscretization, discretize
from addlevy.quadrature import QuadratureError, QuadratureSpec
from addlevy.simulate import (
    BOX_SCALES,
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


class _Parser(argparse.ArgumentParser):
    """A bad command line is invalid input, exit 1, as any other."""

    def error(self, message):
        raise CliError(message)


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


def _exponent(data) -> ExponentVector:
    if isinstance(data, dict):
        data = data.get("components", [data])
    if not isinstance(data, list) or not data:
        raise CliError("exponent spec must be a family object or a list of them")
    try:
        return ExponentVector(tuple(exponent_from_json(d) for d in data))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad exponent spec: {exc}")


def _set(data) -> SetDiscretization:
    if not isinstance(data, dict) or "kind" not in data:
        raise CliError('set spec must be {"kind": ..., **params}')
    params = {k: v for k, v in data.items() if k != "kind"}
    return SetDiscretization(kind=data["kind"], params=params)


def _write_report(report: dict, output_path, csv_rows=None, csv_path=None):
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text + "\n")
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows(csv_rows)
    # last, so the files are written even when the reader closes stdout early
    print(text, flush=True)


# ---------------------------------------------------------------------------
# the flags each job reads
# ---------------------------------------------------------------------------

# For each subcommand: its selector flag (None for one variant) and, per
# variant, the flags the variant reads with their defaults.  The variant is
# the value of --gauge or --mode, or whether --points, --point-test, --stable
# or --numeric is given.  _REQUIRED marks a flag the variant cannot run
# without; a None default leaves the flag out of the job.
_REQUIRED = object()
_EQUILIBRIUM = {"set": _REQUIRED, "tol": 1e-8, "max_iter": 50000, "flat_check": False}
_MC = {"stable": _REQUIRED, "seed": 0, "n_steps": 200}
_MC_PATHS = {**_MC, "dim": 1, "time_horizon": 1.0}
_FLAGS = {
    "lambda": ("points", {
        True: {"points": _REQUIRED, "check": 0},
        False: {"re_max": 5.0, "im_max": 5.0, "n_grid": 8, "check": 0},
    }),
    "energy": (None, {
        None: {"psi": _REQUIRED, "set": _REQUIRED, "r_max": 400.0, "rel_tol": 1e-4},
    }),
    "equilibrium": ("gauge", {
        "riesz": {**_EQUILIBRIUM, "s": 0.5},
        "potential": {**_EQUILIBRIUM, "psi": _REQUIRED},
    }),
    "capacity": ("point_test", {
        True: {"psi": _REQUIRED},
        False: {"set": _REQUIRED, "s": 0.5, "tol": 1e-8, "max_iter": 50000},
    }),
    "classify": ("stable", {
        True: {"stable": _REQUIRED, "dim": 1, "multiple": None, "subordinators": None},
        False: {"multiple": None, "subordinators": None},
    }),
    "dimension": ("numeric", {
        True: {"stable": _REQUIRED, "dim": 1, "bisect_tol": 0.05},
        False: {"stable": _REQUIRED, "dim": 1},
    }),
    "simulate": ("mode", {
        "hitting": {**_MC_PATHS, "set": _REQUIRED, "trials": 1000, "epsilon": 0.1},
        "intersection": {**_MC_PATHS, "trials": 1000, "epsilon": 0.1},
        "boxdim": _MC_PATHS,
        "sojourn": {**_MC, "trials": 1000, "sigma": 1.0, "mass": 1.0, "half_width": 10.0},
    }),
}
_JSON_FLAGS = ("psi", "set")
_TABLES = ("lambda", "equilibrium")  # the subcommands with CSV rows
_MC_FIELDS = ("trials", "time_horizon", "n_steps", "epsilon")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _resolve(args) -> dict:
    """The job's params: the flags its variant reads, with defaults filled in.

    Refuses a flag of the subcommand that the variant does not read, or a
    required one that is missing.  --psi and --set are parsed here, once.
    """
    selector, variants = _FLAGS[args.command]
    value = getattr(args, selector) if selector else None
    key = value if value in variants else value is not None
    label = args.command
    if selector:
        flag = _flag(selector)
        label += {True: f" {flag}", False: f" without {flag}"}.get(key, f" {flag} {key}")
    used = variants[key]
    for name in sorted(set().union(*variants.values()) - set(used)):
        if getattr(args, name) is not None:
            raise CliError(f"{label} does not use {_flag(name)}")
    params = {} if value is None else {selector: value}
    for name, default in used.items():
        given = getattr(args, name)
        if given is None:
            if default is _REQUIRED:
                raise CliError(f"{label} needs {_flag(name)}")
            given = default
        elif name in _JSON_FLAGS:
            given = _load_json_arg(given)
        if given is not None:
            params[name] = given
    return params


# ---------------------------------------------------------------------------
# subcommands: each maps its resolved params to a report body and CSV rows;
# its docstring is its --help line
# ---------------------------------------------------------------------------

def cmd_lambda(p) -> tuple:
    """evaluate the sojourn covariance kernel"""
    if "points" in p:
        zs = []
        for pair in p["points"].split(";"):
            re_im = _parse_floats(pair)
            if len(re_im) != 2:
                raise CliError("each point must be re,im")
            zs.append(complex(re_im[0], re_im[1]))
    else:
        res = np.linspace(0.0, p["re_max"], p["n_grid"])
        ims = np.linspace(-p["im_max"], p["im_max"], p["n_grid"])
        zs = [complex(r, i) for r in res for i in ims]
    rows = [("re", "im", "lambda_closed")]
    values = {}
    for z in zs:
        v = lambda_closed(z)
        values[f"{z.real:g}{z.imag:+g}j"] = v
        rows.append((z.real, z.imag, v))
    report = {"n_points": len(zs), "values": values}
    if p["check"] < 0:
        raise CliError("--check must be >= 0")
    if p["check"]:
        worst = 0.0
        for z in zs[: p["check"]]:
            worst = max(worst, abs(lambda_closed(z) - lambda_bruteforce(z)))
        report["bruteforce_max_abs_diff"] = worst
    return report, rows


def cmd_energy(p) -> tuple:
    """Fourier-side energy of a discretized set"""
    mu = discretize(_set(p["set"]))
    quad = QuadratureSpec(r_max=p["r_max"], rel_tol=p["rel_tol"])
    rep = energy_fourier(_exponent(p["psi"]), mu, quad)
    if not rep.converged:
        raise NotConverged("energy quadrature did not meet its tolerance")
    return {"energy": rep.value, "tail_estimate": rep.tail_estimate,
            "converged": rep.converged}, None


def cmd_equilibrium(p) -> tuple:
    """minimize energy over probability measures"""
    disc = _set(p["set"])
    if p["gauge"] == "riesz":
        result = bessel_riesz_capacity(disc, p["s"], tol=p["tol"], max_iter=p["max_iter"])
    else:
        result = solve_equilibrium(assemble_matrix(_exponent(p["psi"]), disc),
                                   tol=p["tol"], max_iter=p["max_iter"])
    if not result.converged:
        raise NotConverged("energy minimizer did not reach the gap tolerance")
    report = result.to_json()
    rows = [("atom_index", "weight")] + [(i, w) for i, w in enumerate(result.weights)]
    if p["flat_check"]:
        n = len(result.weights)
        tv = 0.5 * float(np.abs(np.asarray(result.weights) - 1.0 / n).sum())
        report["flat_check"] = {
            "tv_to_uniform": tv,
            "flat": tv < 0.05,
            "note": ("weights are numerically flat: within 0.05 of uniform in "
                     "total variation" if tv < 0.05 else
                     "documented discrepancy: the continuum equilibrium measure "
                     "is itself not uniform, so a finer grid does not close the "
                     "gap: a bounded gauge (a potential gauge with alpha > d = 1) "
                     "puts atoms at the ends of an interval, and the distance to "
                     "uniform stays near 0.32 for alpha = 1.5 from n = 100 to "
                     "800; a Riesz gauge has a density that grows toward the "
                     "boundary; see the per-atom CSV"),
        }
    return report, rows


def cmd_capacity(p) -> tuple:
    """Riesz capacity, or the point-polarity test"""
    if p["point_test"]:
        try:
            hits = point_capacity_test(_exponent(p["psi"]))
        except InconclusiveError as exc:
            raise NotConverged(str(exc))
        return {"points_are_polar": not hits, "singletons_hit": hits}, None
    result = bessel_riesz_capacity(_set(p["set"]), p["s"], tol=p["tol"],
                                   max_iter=p["max_iter"])
    if not result.converged:
        raise NotConverged("capacity minimizer did not converge")
    return {"capacity": result.capacity, "energy": result.energy, "s": p["s"]}, None


def cmd_classify(p) -> tuple:
    """analytic hitting/intersection criteria"""
    report = {}
    if "stable" in p:
        sys_ = StableSystem(alphas=tuple(_parse_floats(p["stable"])), d=p["dim"])
        report.update({
            "intersect": intersections_exist(sys_),
            "dimension": intersection_dimension(sys_),
            "range_dimension": range_dimension(sys_),
            "range_has_positive_measure": range_has_positive_measure(sys_),
        })
    if "multiple" in p:
        vals = _parse_floats(p["multiple"])
        if len(vals) != 3:
            raise CliError("--multiple needs alpha,d,N")
        alpha, d, n = vals
        if not (d.is_integer() and d >= 1 and n.is_integer() and n >= 2):
            raise CliError("--multiple needs an integral d >= 1 and an integral N >= 2")
        report["multiple_points_allowed"] = multiple_points_allowed(alpha, int(d), int(n))
    if "subordinators" in p:
        vals = _parse_floats(p["subordinators"])
        if len(vals) != 2:
            raise CliError("--subordinators needs alpha1,alpha2")
        report["subordinator_ranges_meet"] = subordinator_meet(vals[0], vals[1])
    if not report:
        raise CliError("classify: give at least one of --stable/--multiple/--subordinators")
    return report, None


def cmd_dimension(p) -> tuple:
    """intersection dimension, analytic and numeric"""
    sys_ = StableSystem(alphas=tuple(_parse_floats(p["stable"])), d=p["dim"])
    report = {"analytic_dimension": intersection_dimension(sys_),
              "range_dimension": range_dimension(sys_)}
    if p["numeric"]:
        if p["dim"] > 3:
            raise CliError("--numeric needs --dim <= 3, where the probe is defined")
        try:
            value, error = numeric_intersection_dimension(sys_, tol=p["bisect_tol"])
        except (InconclusiveError, QuadratureError) as exc:
            raise NotConverged(f"numeric dimension: {exc}")
        report.update(numeric_dimension=value, numeric_dimension_error=error)
    return report, None


def cmd_simulate(p) -> tuple:
    """Monte Carlo estimates"""
    cfg = MCConfig(seed=p["seed"], **{k: p[k] for k in _MC_FIELDS if k in p})
    alphas = _parse_floats(p["stable"])
    if p["mode"] in ("boxdim", "sojourn") and len(alphas) != 1:
        raise CliError(f"{p['mode']} mode needs one --stable index")
    if p["mode"] == "hitting":
        sys_ = StableSystem(alphas=tuple(alphas), d=p["dim"])
        est = hitting_frequency(sys_, _set(p["set"]), cfg)
        body = {"hit_frequency": est.to_json()}
    elif p["mode"] == "intersection":
        if len(alphas) != 2:
            raise CliError("intersection mode needs --stable alpha1,alpha2")
        est = intersection_frequency(alphas[0], alphas[1], p["dim"], cfg)
        body = {"intersection_frequency": est.to_json()}
    elif p["mode"] == "boxdim":
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        path = sample_isotropic_stable_path(alphas[0], p["dim"],
                                            cfg.time_horizon, cfg.n_steps, rng)
        dim_est = box_dimension_estimate(path, BOX_SCALES)
        body = {"box_dimension": dim_est, "scales": list(BOX_SCALES)}
    else:
        f = GaussianDensitySpec(sigma=p["sigma"], mass=p["mass"])
        first, second = sojourn_mc(alphas[0], f, cfg, half_width=p["half_width"])
        psi = ExponentVector((IsotropicStable(alpha=alphas[0], dim=1),))
        predicted, predicted_error = sojourn_second_moment(psi, f.fourier, f.sigma)
        body = {"first_moment": first.to_json(),
                "second_moment": second.to_json(),
                "predicted_first_moment": f.mass,
                "predicted_second_moment": predicted,
                "predicted_second_moment_error": predicted_error}
    return {**body, "seed": cfg.seed}, None


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


def cmd_run(args) -> int:
    with open(args.config) as fh:
        job = json.load(fh)
    if not isinstance(job, dict):
        raise CliError("config must be a JSON object")
    extra = set(job) - _RUN_KEYS
    if extra:
        raise CliError(f"unknown config keys: {sorted(extra)}")
    command = job.get("command")
    if command not in _COMMANDS:
        raise CliError(f"config command must be one of {sorted(_COMMANDS)}")
    params = job.get("params", {})
    if not isinstance(params, dict):
        raise CliError("config params must be an object")
    argv = [command]
    for key, value in params.items():
        if isinstance(value, bool):
            if value:
                argv.append(_flag(key))
        elif isinstance(value, (dict, list)):
            argv.extend([_flag(key), json.dumps(value)])
        else:
            argv.extend([_flag(key), str(value)])
    if "seed" in job and "seed" not in params:
        argv.extend(["--seed", str(job["seed"])])
    if job.get("output_path"):
        argv.extend(["--out", str(job["output_path"])])
    return main(argv, _exit=False)


# Selectors that are not a flag of any variant, as argparse keywords.
_SELECTORS = {
    "gauge": {"choices": tuple(_FLAGS["equilibrium"][1]), "default": "riesz"},
    "point_test": {"action": "store_true"},
    "numeric": {"action": "store_true"},
    "mode": {"choices": tuple(_FLAGS["simulate"][1]), "required": True},
}
_HELP = {
    "points": 'semicolon list "re,im;re,im"',
    "check": "cross-check this many points against the defining integral",
    "psi": "exponent vector as JSON (or @file)",
    "set": "set discretization as JSON (or @file)",
    "rel_tol": "relative tolerance for the convergence certificate",
    "s": "Riesz energy order",
    "flat_check": "report total-variation distance of the minimizer to uniform",
    "point_test": "decide whether singletons are hit (needs --psi)",
    "stable": "comma list of stability indices",
    "multiple": "alpha,d,N for N-multiple points",
    "subordinators": "alpha1,alpha2",
}


@functools.cache  # parsing leaves it unchanged and every default is immutable
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every flag in _FLAGS; a flag not given parses as None."""
    parser = _Parser(
        prog="addlevy",
        description="Energies, capacities, classifiers, and Monte Carlo "
                    "checks for additive Levy processes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (selector, variants) in _FLAGS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        if selector in _SELECTORS:
            p.add_argument(_flag(selector), help=_HELP.get(selector), **_SELECTORS[selector])
        flags = {}
        for used in variants.values():
            flags.update(used)
        for name, default in flags.items():
            if isinstance(default, bool):
                kind = {"action": "store_true", "default": None}
            else:
                kind = {"type": type(default) if isinstance(default, (int, float)) else str}
            p.add_argument(_flag(name), help=_HELP.get(name), **kind)
        p.add_argument("--out", help="also write the JSON report here")
        if command in _TABLES:
            p.add_argument("--csv", help="write the report's table as CSV")
    p = sub.add_parser("run", help="replay a saved JSON job config")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None, _exit=True) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        params = _resolve(args)
        report, rows = _COMMANDS[args.command](params)
        report.update(command=args.command, params=params)
        _write_report(report, args.out, rows, getattr(args, "csv", None))
        code = 0
    except SystemExit as exc:  # --help: parse errors raise CliError
        if _exit:
            raise
        code = exc.code
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
