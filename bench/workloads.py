"""Seeded job mixes for the benchmark.

A workload is a list of CLI jobs (one *pass*); the harness replays whole
passes.  The seed changes only what leaves the cost of a job unchanged:
translations of the target sets, scalings of the Riesz capacity sets, Monte
Carlo seeds, directions of drifts and the order of the jobs.  Sizes,
stability indices and trial counts are fixed per workload, so the work in a
pass, and with it the throughput and latency figures, do not depend on the
seed.

Every job carries an output check (see ``checks.py``).  Reference values for
jobs without a closed form are keyed by ``Job.ref`` in ``reference.json``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Largest array a generated job may make the program allocate: the
# (frequencies x atoms) complex phase matrix of AtomicMeasure.fourier, or
# the n x n energy matrix with its (n, n, d) difference array.
MEMORY_BUDGET_BYTES = 128 * 2 ** 20

R_MAX = 400.0  # the CLI's default --r-max for energy jobs


class BudgetExceeded(ValueError):
    pass


@dataclass
class Job:
    kind: str
    argv: list
    check: str
    params: dict = field(default_factory=dict)
    ref: str = ""
    defect: str = ""  # why the job fails its check at the seed commit, if it does


def _psi(*comps) -> str:
    return json.dumps(list(comps) if len(comps) > 1 else comps[0])


def stable(alpha: float, dim: int = 1) -> dict:
    return {"family": "IsotropicStable", "dim": dim, "params": {"alpha": alpha}}


def brownian(dim: int = 1) -> dict:
    return {"family": "BrownianIsotropic", "dim": dim, "params": {"diffusivity": 1.0}}


def grid(bounds, n: int) -> dict:
    return {"kind": "CubeGrid", "bounds": [list(b) for b in bounds], "n_per_axis": n}


# ---------------------------------------------------------------------------
# memory guard
# ---------------------------------------------------------------------------

def _atoms(set_spec: dict) -> tuple[int, int, float]:
    """(atoms, dimension, span of the first coordinate) of a set spec."""
    kind = set_spec["kind"]
    if kind == "CubeGrid":
        d = len(set_spec["bounds"])
        n = set_spec["n_per_axis"]
        a, b = set_spec["bounds"][0]
        return n ** d, d, (b - a) * (n - 1) / n
    if kind == "CantorProduct":
        return 2 ** (set_spec["level"] * set_spec["d"]), set_spec["d"], 1.0
    if kind == "TwoPoint":
        return 2, set_spec["d"], set_spec["separation"]
    if kind == "Circle":
        return set_spec["n"], 2, 2.0 * set_spec["radius"]
    raise ValueError(f"unknown set kind {kind!r}")


def frequency_points(d: int, span: float, r_max: float = R_MAX) -> int:
    """Frequencies at which energy_fourier evaluates mu_hat (its panel rules)."""
    if d == 1:
        width = r_max / 16.0
        if span > 0.0:
            width = min(width, math.pi / (2.0 * span))
        return 12 * (math.ceil(r_max / width) + 32)
    width = r_max / 8.0
    if span > 0.0:
        width = min(width, math.pi / (2.0 * span))
    panels = min(math.ceil(2.0 * r_max / width), 64 if d == 3 else 512)
    return (8 * panels) ** d


def job_bytes(job: Job) -> int:
    """Estimated size of the job's largest array."""
    spec = job.params.get("set")
    if spec is None:
        return 0
    n, d, span = _atoms(spec)
    if job.argv[0] == "energy":
        return 16 * n * frequency_points(d, span)
    if job.argv[0] in ("capacity", "equilibrium"):
        return 8 * n * n * (d + 1)
    return 0


def guard(jobs: list[Job]) -> list[Job]:
    for job in jobs:
        size = job_bytes(job)
        if size > MEMORY_BUDGET_BYTES:
            raise BudgetExceeded(
                f"{job.kind} job would allocate ~{size / 2**20:.0f} MiB, over the "
                f"{MEMORY_BUDGET_BYTES / 2**20:.0f} MiB budget: {job.argv}")
    return jobs


# ---------------------------------------------------------------------------
# job constructors
# ---------------------------------------------------------------------------

def riesz_capacity(set_spec: dict, s: float, ref: str, scale: float = 1.0) -> Job:
    kind = "cantor" if set_spec["kind"] == "CantorProduct" else f"grid{len(set_spec['bounds'])}d"
    return Job(f"riesz-{kind}",
               ["capacity", "--set", json.dumps(set_spec), "--s", repr(s)],
               "riesz_capacity", {"set": set_spec, "s": s, "scale": scale}, ref)


def riesz_circle(radius: float, n: int, s: float, ref: str) -> Job:
    spec = {"kind": "Circle", "radius": radius, "n": n}
    return Job("riesz-circle", ["equilibrium", "--set", json.dumps(spec), "--s", repr(s)],
               "circle_equilibrium", {"set": spec, "s": s, "scale": radius}, ref)


def potential_equilibrium(offset: float, n: int, alpha: float, ref: str) -> Job:
    spec = grid([(offset, offset + 1.0)], n)
    return Job("potential-equilibrium",
               ["equilibrium", "--set", json.dumps(spec), "--gauge", "potential",
                "--psi", _psi(stable(alpha))],
               "potential_equilibrium", {"set": spec}, ref)


def energy(psi: list, set_spec: dict, check: str, ref: str = "") -> Job:
    return Job(f"energy-d{psi[0]['dim']}", ["energy", "--psi", _psi(*psi), "--set", json.dumps(set_spec)],
               check, {"set": set_spec, "psi": psi}, ref)


def hitting(alphas, d: int, sep: float, trials: int, steps: int, seed: int, ref: str) -> Job:
    spec = {"kind": "TwoPoint", "separation": sep, "d": d}
    return Job(f"hitting-N{len(alphas)}-d{d}",
               ["simulate", "--mode", "hitting", "--stable", ",".join(map(repr, alphas)),
                "--dim", str(d), "--set", json.dumps(spec), "--trials", str(trials),
                "--n-steps", str(steps), "--seed", str(seed)],
               "mc_frequency", {"trials": trials}, ref)


def intersection(alphas, d: int, trials: int, eps: float, seed: int, ref: str) -> Job:
    return Job(f"intersection-d{d}",
               ["simulate", "--mode", "intersection", "--stable", ",".join(map(repr, alphas)),
                "--dim", str(d), "--trials", str(trials), "--epsilon", repr(eps),
                "--seed", str(seed)],
               "mc_frequency", {"trials": trials}, ref)


def sojourn(alpha: float, trials: int, steps: int, mass: float, seed: int) -> Job:
    return Job("sojourn", ["simulate", "--mode", "sojourn", "--stable", repr(alpha),
                           "--trials", str(trials), "--n-steps", str(steps),
                           "--mass", repr(mass), "--seed", str(seed)],
               "sojourn_first_moment", {"mass": mass})


def boxdim(alpha: float, steps: int, seed: int) -> Job:
    return Job("boxdim", ["simulate", "--mode", "boxdim", "--stable", repr(alpha),
                          "--n-steps", str(steps), "--seed", str(seed)],
               "box_dimension", {"alpha": alpha, "steps": steps}, f"boxdim:{alpha!r}:{steps}")


def numeric_dimension(alphas, d: int, defect: str = "") -> Job:
    return Job("dimension-numeric", ["dimension", "--stable", ",".join(map(repr, alphas)),
                                     "--dim", str(d), "--numeric"],
               "numeric_dimension", {"alphas": list(alphas), "d": d, "tol": 0.05}, defect=defect)


def point_test(psi: list, hits: bool, defect: str = "") -> Job:
    return Job("point-test", ["capacity", "--point-test", "--psi", _psi(*psi)],
               "point_verdict", {"hits": hits}, defect=defect)


def drift_point_test(theta: float, alpha, defect: str = "") -> Job:
    """A planar drift alone never hits points; with an isotropic alpha-stable
    component the kernel integral behaves like int r^-alpha dr at infinity,
    so points are hit iff alpha > 1."""
    drift = {"family": "PureDrift", "dim": 2, "params": {"b": [math.cos(theta), math.sin(theta)]}}
    return point_test([drift] + ([stable(alpha, 2)] if alpha else []),
                      alpha is not None and alpha > 1.0, defect)


def lambda_check(points, check: int) -> Job:
    """Lambda at the given points, or on the CLI's default 8 x 8 grid."""
    argv = ["lambda", "--check", str(check)]
    if points is not None:
        argv += ["--points", ";".join(f"{z.real!r},{z.imag!r}" for z in points)]
    return Job("lambda-check", argv, "lambda_values", {"points": points})


def classify(alphas, d: int) -> Job:
    return Job("classify", ["classify", "--stable", ",".join(map(repr, alphas)), "--dim", str(d)],
               "classify_verdicts", {"alphas": list(alphas), "d": d})


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Every pass has three cost classes.  Above 90% of the jobs sit a few heavy
# ones; just below, a plateau of about a dozen equal jobs; the rest are
# cheap.  On a shared 2-core machine one short job's latency varies by
# 20-30% from call to call, so job_p90_s must fall in the middle of many
# samples of one job size rather than between two sizes.

GRID1D_SIZES = (16, 24, 32, 48, 64, 80, 96, 128, 160, 192)
GRID1D_S = (0.3, 0.5, 0.7)
CIRCLES = ((24, 0.5), (48, 1.0), (96, 1.5))
CANTORS = ((0.25, 5, 1, 0.4), (0.3, 6, 1, 0.4), (0.35, 7, 1, 0.6), (0.3, 3, 2, 1.0))
GRID2D = ((8, 0.5), (12, 1.0), (16, 1.5))
CAPACITY_PLATEAU = (224, 0.5, 12)
# 384 and 448 fit the 2 MiB per-core L2 as 8-byte matrices (1.1, 1.5 MiB); 576 does not (2.5 MiB).
GRID1D_LARGE = ((384, 0.5), (448, 0.5), (576, 0.5))
POTENTIAL = ((100, 1.8), (128, 1.2))


def capacity(seed: int, unit: bool = False) -> list[Job]:
    """Riesz capacities and equilibria; ``unit`` gives the untransformed sets
    that reference values are recorded on."""
    rng = random.Random(seed)
    jobs = []

    def offset():
        return 0.0 if unit else rng.uniform(-5.0, 5.0)

    def scaled_interval():
        a, L = offset(), 1.0 if unit else rng.uniform(0.5, 2.0)
        return (a, a + L), L

    def grid1d(n, s):
        iv, L = scaled_interval()
        return riesz_capacity(grid([iv], n), s, f"grid1d:{n}:{s}", L)

    for n in GRID1D_SIZES:
        for s in GRID1D_S:
            jobs += [grid1d(n, s) for _ in range(2)]
    for n, s in CIRCLES:
        for _ in range(4):
            jobs.append(riesz_circle(1.0 if unit else rng.uniform(0.5, 2.0), n, s, f"circle:{n}:{s}"))
    for ratio, level, d, s in CANTORS:
        spec = {"kind": "CantorProduct", "ratio": ratio, "level": level, "d": d}
        jobs += [riesz_capacity(spec, s, f"cantor:{ratio}:{level}:{d}:{s}")] * 2
    for n, s in GRID2D:
        for _ in range(2):
            (a, b), L = scaled_interval()
            c = offset()
            jobs.append(riesz_capacity(grid([(a, b), (c, c + L)], n), s, f"grid2d:{n}:{s}", L))
    n, s, count = CAPACITY_PLATEAU
    jobs += [grid1d(n, s) for _ in range(count)]
    jobs += [grid1d(n, s) for n, s in GRID1D_LARGE]
    for n, alpha in POTENTIAL:
        jobs.append(potential_equilibrium(offset(), n, alpha, f"potential:{n}:{alpha}"))
    rng.shuffle(jobs)
    return guard(jobs)


HIT_N1 = ((1.2, 1, 2.0), (1.5, 1, 2.0), (1.8, 1, 2.0), (1.5, 1, 4.0), (1.5, 2, 1.0), (1.8, 2, 1.0))
INTERSECTIONS = (((1.5, 1.5), 1, 0.02), ((1.2, 1.8), 1, 0.02), ((1.5, 1.5), 2, 0.05))
BOXDIM_ALPHAS = (0.5, 0.6, 0.7, 0.8)
SOJOURN_PLATEAU = ((1.2, 1.5, 1.8), 4)
# Trials per job: a pass takes about 7 s, so the untimed pass and three
# timed passes fit one run.
HIT_TRIALS, INTERSECTION_TRIALS, SOJOURN_TRIALS, HIT_N2_D1_TRIALS = 350, 200, 700, 150


def mc_ref(job_kind: str, *params) -> str:
    return ":".join([job_kind] + [repr(p) for p in params])


def montecarlo(seed: int) -> list[Job]:
    rng = random.Random(seed)

    def mc_seed():
        return rng.randrange(2 ** 31)

    jobs = []
    for alpha, d, sep in HIT_N1:  # the plateau job_p50_s falls on
        for _ in range(6):
            jobs.append(hitting((alpha,), d, sep, HIT_TRIALS, 200, mc_seed(),
                                mc_ref("hit", (alpha,), d, sep, 200)))
    for alphas, d, eps in INTERSECTIONS:
        for _ in range(4):
            jobs.append(intersection(alphas, d, INTERSECTION_TRIALS, eps, mc_seed(),
                                     mc_ref("intersection", alphas, d, eps)))
    for alpha in BOXDIM_ALPHAS:
        jobs += [boxdim(alpha, 10000, mc_seed()) for _ in range(4)]
    alphas, count = SOJOURN_PLATEAU
    for alpha in alphas:
        jobs += [sojourn(alpha, SOJOURN_TRIALS, 400, 1.0, mc_seed()) for _ in range(count)]
    jobs.append(hitting((1.5, 1.5), 1, 4.0, HIT_N2_D1_TRIALS, 200, mc_seed(),
                        mc_ref("hit", (1.5, 1.5), 1, 4.0, 200)))
    for _ in range(2):
        jobs.append(hitting((1.5, 1.5), 2, 2.0, 100, 100, mc_seed(),
                            mc_ref("hit", (1.5, 1.5), 2, 2.0, 100)))
    rng.shuffle(jobs)
    return guard(jobs)


ENERGY_BROWNIAN_1 = (16, 32, 48, 64, 96, 128)
# The frequency grid of a d = 1 energy grows with the set's length (panel
# width pi / (2 L)), so lengths are fixed and the seed only translates.
ENERGY_LENGTHS = (1.0, 2.0)
ENERGY_BROWNIAN_2 = (16, 32, 64)
ENERGY_STABLE_PAIRS = ((1.5, 1.5), (1.2, 1.8))
ENERGY_STABLE_SIZES = (32, 64)
POINT_STABLE = (((1.5,), 1), ((0.8,), 1), ((1.2, 1.2), 2), ((0.6, 0.9), 2))
DRIFT_STABLE = (None, 1.3, 1.6, 0.5, 0.7)
# The planar point tests (30 to 37 ms) are the median's plateau: 41 of 96
# jobs.  Their time follows the machine's speed about as throughput does;
# the 10 to 30 ms energies slow down by up to half as much again.
DRIFT_COPIES = 8
# Drift directions are multiples of pi/12.  At the seed commit the numeric
# probe returns Inconclusive (exit 2) for about 7 in 100 random directions
# with alpha = 1.3, and for none of these; the failing direction below is
# kept as a job of its own.
DRIFT_DIRECTIONS = 24
DRIFT_DEFECT = (4.417201438521419, 1.3,
                "numeric probe is Inconclusive (exit 2) for this drift direction with alpha = 1.3")
CLASSIFY_SYSTEMS = (((1.5, 1.5), 2), ((0.5, 0.4), 1), ((1.8, 1.8, 1.8), 2),
                    ((1.0, 1.0), 2), ((0.7,), 1), ((2.0, 2.0, 2.0), 3))
# Brute-force Lambda integrals at fixed points, so the plateau's cost does
# not depend on the seed.
LAMBDA_PLATEAU = ((1 + 0j, 2 + 1j), 12)
DIMENSION_SYSTEMS = (
    ((1.5, 1.5), 2, ""),
    ((0.7, 0.8), 1, "pair probe turns Divergent below s = 0.5: bisection returns 0.445, "
                    "0.055 under the analytic 0.5"),
    ((1.2, 1.3), 2, ""),
    ((0.9, 0.9, 0.9), 1, "tensor probe (N d = 3) bisects to 0.103 against the analytic 0.7"),
)


def spectral(seed: int, unit: bool = False) -> list[Job]:
    """Fourier-side energies, numeric dimensions, point tests, Lambda and
    classifiers; ``unit`` as for :func:`capacity`."""
    rng = random.Random(seed)
    jobs = []

    def interval(L):
        a = 0.0 if unit else rng.uniform(-5.0, 5.0)
        return (a, a + L)

    for n in ENERGY_BROWNIAN_1:
        jobs += [energy([brownian()], grid([interval(L)], n), "brownian_energy")
                 for L in ENERGY_LENGTHS]
    for n in ENERGY_BROWNIAN_2:
        jobs += [energy([brownian(), brownian()], grid([interval(L)], n), "brownian_energy")
                 for L in ENERGY_LENGTHS]
    for pair in ENERGY_STABLE_PAIRS:
        for n in ENERGY_STABLE_SIZES:
            jobs += [energy([stable(a) for a in pair], grid([interval(1.0)], n),
                            "reference_energy", f"energy1d:{pair}:{n}") for _ in range(2)]
    # Isotropic stable fields hit points iff sum(alpha) > d.
    for alphas, d in POINT_STABLE:
        jobs.append(point_test([stable(a, d) for a in alphas], sum(alphas) > d))
    for alpha in DRIFT_STABLE:  # the plateau job_p50_s falls on
        for _ in range(DRIFT_COPIES):
            theta = rng.randrange(DRIFT_DIRECTIONS) * 2.0 * math.pi / DRIFT_DIRECTIONS
            jobs.append(drift_point_test(theta, alpha))
    jobs.append(drift_point_test(*DRIFT_DEFECT))
    for alphas, d in CLASSIFY_SYSTEMS:
        jobs.append(classify(alphas, d))
    fixed, count = LAMBDA_PLATEAU
    for _ in range(count):
        seeded = [complex(rng.uniform(0, 3), rng.uniform(-3, 3)) for _ in range(2)]
        jobs.append(lambda_check(list(fixed) + seeded, len(fixed)))
    jobs.append(lambda_check(None, 3))
    for alphas, d, defect in DIMENSION_SYSTEMS:
        jobs.append(numeric_dimension(alphas, d, defect))
    psi2 = [stable(1.5, 2), stable(1.5, 2)]
    jobs.append(energy(psi2, grid([interval(0.5), interval(0.5)], 2), "reference_energy",
                       "energy2d:grid2x2:0.5"))
    jobs.append(energy(psi2, {"kind": "TwoPoint", "separation": 0.25, "d": 2},
                       "reference_energy", "energy2d:twopoint:0.25"))
    rng.shuffle(jobs)
    return guard(jobs)


WORKLOADS = {"capacity": capacity, "montecarlo": montecarlo, "spectral": spectral}


# One small job per kind, run untimed before measuring (and inside setup_s).
WARMUP = {
    "capacity": lambda: [
        riesz_capacity(grid([(0.0, 1.0)], 16), 0.5, ""),
        riesz_circle(1.0, 8, 0.5, ""),
        riesz_capacity({"kind": "CantorProduct", "ratio": 0.3, "level": 2, "d": 1}, 0.4, ""),
        riesz_capacity(grid([(0.0, 1.0), (0.0, 1.0)], 4), 1.0, ""),
        potential_equilibrium(0.0, 8, 1.5, ""),
    ],
    "montecarlo": lambda: [
        hitting((1.5,), 1, 2.0, 100, 20, 1, ""),
        hitting((1.5,), 2, 1.0, 100, 20, 1, ""),
        hitting((1.5, 1.5), 1, 4.0, 100, 10, 1, ""),
        intersection((1.5, 1.5), 2, 100, 0.05, 1, ""),
        sojourn(1.5, 100, 20, 1.0, 1),
        boxdim(0.7, 1000, 1),
    ],
    "spectral": lambda: [
        energy([brownian()], grid([(0.0, 1.0)], 4), "brownian_energy"),
        energy([stable(1.5, 2), stable(1.5, 2)], {"kind": "TwoPoint", "separation": 0.01, "d": 2}, ""),
        Job("dimension-numeric", ["dimension", "--stable", "1.5,1.5", "--dim", "2", "--numeric",
                                  "--bisect-tol", "0.5"], ""),
        point_test([{"family": "PureDrift", "dim": 2, "params": {"b": [1.0, 0.0]}}], False),
        lambda_check([1 + 1j], 1),
        classify((1.5, 1.5), 2),
    ],
}
