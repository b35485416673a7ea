"""Output checks, one per job kind.

Closed forms come first: classifier verdicts and dimensions, numeric
bisection against the analytic dimension, point-hitting verdicts, the
sojourn first moment (= mass), uniform circle weights, the Lambda kernel formula, and Fourier-side
energies of Brownian kernels, whose real side is a finite sum.  Jobs with
no closed form are compared with a value in ``reference.json`` recorded at
the seed commit (``record_reference.py``), with the tolerance stated here.

Each check returns None when the output is right and a message otherwise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# Relative tolerances against reference values.  Riesz capacities are exact
# under translation and scale like L^s; FW stops at a 1e-8 relative gap.
RIESZ_REL = 1e-6
# Potential-gauge energies move with the rounding of translated radii.
POTENTIAL_REL = 1e-5
# Fourier-side energies: the CLI's default rel_tol is 1e-4.
ENERGY_REL = 1e-3
CIRCLE_WEIGHT_REL = 1e-3
# Monte Carlo: |p - p_ref| within Z standard errors (job and reference run)
# plus an absolute allowance for time-grid bias.  A pass holds 79 Monte
# Carlo jobs and a benchmark session runs a few dozen seeds, some 2000
# checks: at Z = 3 about three would fail by chance, at Z = 4 one session
# in ten, at Z = 5 one in a thousand.
MC_Z = 5.0
MC_SLACK = 0.01
# The start point is uniform on [-L, L]; mass lost when the path leaves
# that interval biases the first moment low (4.3% at alpha = 1.2, L = 10).
SOJOURN_BIAS = 0.05
# Box dimensions of 10^4-step paths sit 0.02 to 0.07 below alpha with a
# standard deviation of 0.03 to 0.05 (200 seeds per alpha): every sampled
# path was within 0.15 of alpha, yet 0.2 to 0.6% of them would miss it, so
# each job is held to the seed-commit distribution instead.
LAMBDA_BRUTEFORCE_TOL = 1e-6


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _points_1d(set_spec: dict) -> list[float]:
    (a, b), n = set_spec["bounds"][0], set_spec["n_per_axis"]
    h = (b - a) / n
    return [a + h * (i + 0.5) for i in range(n)]


def riesz_capacity(job, rep):
    expected = REFERENCE["riesz"][job.ref] * job.params["scale"] ** job.params["s"]
    if _rel(rep["capacity"], expected) > RIESZ_REL:
        return f"capacity {rep['capacity']!r} != reference {expected!r}"


def circle_equilibrium(job, rep):
    n = len(rep["weights"])
    worst = max(abs(n * w - 1.0) for w in rep["weights"])
    if worst > CIRCLE_WEIGHT_REL:
        return f"circle weights not uniform: max |n w - 1| = {worst:.3g}"
    expected = REFERENCE["riesz"][job.ref] * job.params["scale"] ** job.params["s"]
    if _rel(rep["capacity"], expected) > RIESZ_REL:
        return f"capacity {rep['capacity']!r} != reference {expected!r}"


def potential_equilibrium(job, rep):
    expected = REFERENCE["potential"][job.ref]
    if not rep["converged"] or _rel(rep["energy"], expected) > POTENTIAL_REL:
        return f"energy {rep['energy']!r} != reference {expected!r}"


def brownian_energy(job, rep):
    """K = prod_j 1/(1 + xi^2/2) has inverse transform v in closed form:
    one factor e^{-|x|/a}/(2a), two factors (a+|x|) e^{-|x|/a}/(4a^2),
    a = 1/sqrt(2); the energy is sum_ij w_i w_j v(x_i - x_j)."""
    pts = _points_1d(job.params["set"])
    a = math.sqrt(0.5)
    n_comp = len(job.params["psi"])
    if n_comp == 1:
        def v(r):
            return math.exp(-r / a) / (2.0 * a)
    else:
        def v(r):
            return (a + r) * math.exp(-r / a) / (4.0 * a * a)
    w = 1.0 / len(pts)
    expected = sum(v(abs(x - y)) for x in pts for y in pts) * w * w
    if _rel(rep["energy"], expected) > ENERGY_REL:
        return f"energy {rep['energy']!r} != closed form {expected!r}"


def reference_energy(job, rep):
    expected = REFERENCE["energy"][job.ref]
    if _rel(rep["energy"], expected) > ENERGY_REL:
        return f"energy {rep['energy']!r} != reference {expected!r}"


def mc_frequency(job, rep):
    est = rep.get("hit_frequency") or rep["intersection_frequency"]
    p_ref, n_ref = REFERENCE["mc"][job.ref]
    p = min(max(p_ref, 0.01), 0.99)
    tol = MC_Z * math.sqrt(p * (1 - p) * (1.0 / est["trials"] + 1.0 / n_ref)) + MC_SLACK
    if abs(est["value"] - p_ref) > tol:
        return f"frequency {est['value']} vs reference {p_ref} (tol {tol:.3f})"


def sojourn_first_moment(job, rep):
    first = rep["first_moment"]
    tol = MC_Z * first["stderr"] + SOJOURN_BIAS * job.params["mass"]
    if abs(first["value"] - job.params["mass"]) > tol:
        return f"first moment {first['value']} +- {first['stderr']} vs mass {job.params['mass']}"


def box_dimension(job, rep):
    mean, sd, _ = REFERENCE["boxdim"][job.ref]
    if abs(rep["box_dimension"] - mean) > MC_Z * sd:
        return (f"box dimension {rep['box_dimension']} vs {mean:.3f} +- {sd:.3f} "
                f"(alpha {job.params['alpha']})")


def _analytic(alphas, d):
    n = len(alphas)
    return (n - 1) * d < sum(alphas), max(0.0, sum(alphas) - (n - 1) * d)


def numeric_dimension(job, rep):
    _, dim = _analytic(job.params["alphas"], job.params["d"])
    if abs(rep["analytic_dimension"] - dim) > 1e-12:
        return f"analytic dimension {rep['analytic_dimension']} != {dim}"
    if abs(rep["numeric_dimension"] - dim) > job.params["tol"]:
        return f"numeric dimension {rep['numeric_dimension']} vs analytic {dim}"


def point_verdict(job, rep):
    if rep["singletons_hit"] != job.params["hits"]:
        return f"singletons_hit {rep['singletons_hit']} != {job.params['hits']}"


def _lambda(z: complex) -> float:
    """Lambda(z) = 2 Re 1/(1+z) + 2 Re 1/(1+z)^2."""
    return 2.0 * (1.0 / (1.0 + z)).real + 2.0 * (1.0 / (1.0 + z) ** 2).real


def lambda_values(job, rep):
    if rep["bruteforce_max_abs_diff"] > LAMBDA_BRUTEFORCE_TOL:
        return f"brute-force gap {rep['bruteforce_max_abs_diff']}"
    zs = job.params["points"]
    if zs is None:  # the CLI's default grid: re in [0, 5], im in [-5, 5], 8 x 8
        axis = [i / 7.0 for i in range(8)]
        zs = [complex(5.0 * r, 10.0 * i - 5.0) for r in axis for i in axis]
    if len(rep["values"]) != len(zs):
        return f"{len(rep['values'])} values for {len(zs)} points"
    for z in zs:
        value = rep["values"][f"{z.real:g}{z.imag:+g}j"]
        if abs(value - _lambda(z)) > 1e-9 * max(1.0, abs(value)):
            return f"Lambda({z}) = {value} != {_lambda(z)}"


def classify_verdicts(job, rep):
    alphas, d = job.params["alphas"], job.params["d"]
    intersect, dim = _analytic(alphas, d)
    expected = {"intersect": intersect, "dimension": dim,
                "range_dimension": min(float(d), sum(alphas)),
                "range_has_positive_measure": sum(alphas) > d}
    for key, value in expected.items():
        if rep[key] != value and not (isinstance(value, float) and abs(rep[key] - value) < 1e-12):
            return f"{key} = {rep[key]} != {value}"


CHECKS = {f.__name__: f for f in (
    riesz_capacity, circle_equilibrium, potential_equilibrium, brownian_energy,
    reference_energy, mc_frequency, sojourn_first_moment, box_dimension,
    numeric_dimension, point_verdict, lambda_values, classify_verdicts)}


def check(job, code: int, stdout: str):
    """None if the job exited 0 and its report passes the job's check."""
    if code != 0:
        return f"exit code {code}: {stdout.strip()[:200]}"
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if not job.check:
        return None
    try:
        return CHECKS[job.check](job, rep)
    except (KeyError, TypeError, ValueError) as exc:
        return f"check {job.check} could not read the report: {exc!r}"
