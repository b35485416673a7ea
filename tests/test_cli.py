"""End-to-end CLI: subcommands, JSON/CSV reports, error codes, replay."""
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import addlevy
from addlevy import classify, measures
from addlevy import ExponentVector, IsotropicStable, potential_density_v, sojourn_second_moment
from addlevy.cli import main
from addlevy.simulate import GaussianDensitySpec

STABLE_PSI = '{"family":"IsotropicStable","dim":1,"params":{"alpha":1.5}}'
STABLE_2D = '{"family":"IsotropicStable","dim":2,"params":{"alpha":1.5}}'
TWO_POINT_2D = '{"kind":"TwoPoint","separation":0.25,"d":2}'
CUBE_64 = '{"kind":"CubeGrid","bounds":[[0.0,1.0]],"n_per_axis":64}'
CUBE_16 = '{"kind":"CubeGrid","bounds":[[0.0,1.0]],"n_per_axis":16}'
TWO_POINT_1D = '{"kind":"TwoPoint","separation":1.0,"d":1}'
DRIFT_2D = '{"family":"PureDrift","dim":2,"params":{"b":[1,0]}}'
CIRCLE_6 = '{"kind":"Circle","radius":1,"n":6}'


def run_cli(argv, capsys):
    code = main(argv, _exit=False)
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_replays(argv, capsys, tmp_path):
    """Replaying a report's {command, params, seed} prints the same bytes."""
    assert main(argv, _exit=False) == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({k: report[k] for k in ("command", "params", "seed")
                               if k in report}))
    assert main(["run", "--config", str(cfg)], _exit=False) == 0
    assert capsys.readouterr().out == first


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy adds to the start-up time of every subcommand, and the runtime
    # needs none of it: no scipy module at all may be loaded
    probe = ("import sys, addlevy.cli; "
             "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": str(Path(addlevy.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_import_leaves_numpy_fft_unloaded():
    # only a lattice's energy matrix takes FFTs, and it imports numpy.fft itself
    probe = "import sys, addlevy.cli; print('numpy.fft' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(addlevy.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    assert out.strip() == "False"


def test_lambda_check_and_potential_gauge_leave_scipy_integrate_unloaded():
    # the brute-force Lambda and the d = 1 potential gauge are Gauss-Legendre
    # panels of their own; running them must not import scipy.integrate
    psi = json.dumps({"family": "IsotropicStable", "dim": 1, "params": {"alpha": 1.5}})
    grid = json.dumps({"kind": "CubeGrid", "bounds": [[0.0, 1.0]], "n_per_axis": 16})
    jobs = [["lambda", "--check", "2"],
            ["equilibrium", "--set", grid, "--gauge", "potential", "--psi", psi]]
    probe = ("import contextlib, io, sys\n"
             "from addlevy.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    codes = [main(argv, _exit=False) for argv in {jobs!r}]\n"
             "print(codes, 'scipy.integrate' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(addlevy.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    assert out.strip() == "[0, 0] False"


def test_planar_monte_carlo_leaves_scipy_spatial_unloaded():
    # d >= 2 hitting and intersection decide hits by epsilon-cells, with no
    # KD-tree; running them must not import scipy.spatial
    mc = ["--trials", "100", "--n-steps", "50", "--seed", "3"]
    jobs = [["simulate", "--mode", "hitting", "--stable", "1.5", "--dim", "2",
             "--set", TWO_POINT_2D] + mc,
            ["simulate", "--mode", "hitting", "--stable", "1.5,1.2", "--dim", "2",
             "--set", TWO_POINT_2D] + mc,
            ["simulate", "--mode", "intersection", "--stable", "1.5,1.2", "--dim", "2"] + mc]
    probe = ("import contextlib, io, sys\n"
             "from addlevy.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    codes = [main(argv, _exit=False) for argv in {jobs!r}]\n"
             "print(codes, 'scipy.spatial' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(addlevy.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    assert out.strip() == "[0, 0, 0] False"


def test_planar_jobs_leave_scipy_unloaded():
    # J0, the d = 2 radial weight, is evaluated in the repository: the jobs
    # that invert in the plane must not import any scipy module
    psi = json.dumps([json.loads(STABLE_2D)] * 2)
    grid = json.dumps({"kind": "CubeGrid", "bounds": [[0.0, 1.0]] * 2, "n_per_axis": 3})
    drifts = json.dumps([{"family": "PureDrift", "dim": 2, "params": {"b": b}}
                         for b in ([1.0, 0.0], [0.0, 1.0])])
    jobs = [["energy", "--psi", psi, "--set", TWO_POINT_2D],
            ["dimension", "--stable", "1.5,1.5", "--dim", "2", "--numeric"],
            ["capacity", "--point-test", "--psi", STABLE_2D],
            ["capacity", "--point-test", "--psi", drifts],
            ["equilibrium", "--set", grid, "--gauge", "potential", "--psi", psi]]
    probe = ("import contextlib, io, sys\n"
             "from addlevy.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    codes = [main(argv, _exit=False) for argv in {jobs!r}]\n"
             "print(codes, [m for m in sys.modules if m.partition('.')[0] == 'scipy'])\n")
    env = {**os.environ, "PYTHONPATH": str(Path(addlevy.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    assert out.strip() == "[0, 0, 0, 0, 0] []"


def test_repeated_main_calls_print_what_fresh_processes_print(tmp_path):
    # the parser is built once per process; calls with different subcommands,
    # a refused one and a replay among them, must print the same bytes as
    # each call made in a process of its own
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"command": "classify", "params": {"stable": "0.7,0.8"}}))
    jobs = [["classify", "--stable", "1.5,1.5", "--dim", "2"],
            ["lambda", "--points", "1,0;0.5,2"],
            ["capacity", "--point-test", "--psi", STABLE_2D],
            ["classify"],
            ["dimension", "--stable", "1.0,1.0", "--dim", "3"],
            ["simulate", "--mode", "boxdim", "--stable", "1.5", "--n-steps", "50",
             "--seed", "3"],
            ["run", "--config", str(config)],
            ["classify", "--stable", "1.5,1.5", "--dim", "2"]]
    probe = ("import contextlib, io, json, sys\n"
             "from addlevy.cli import main\n"
             "outs = []\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    buf = io.StringIO()\n"
             "    with contextlib.redirect_stdout(buf):\n"
             "        code = main(argv, _exit=False)\n"
             "    outs.append([code, buf.getvalue()])\n"
             "print(json.dumps(outs))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(addlevy.__file__).parents[1])}

    def run(batch):
        out = subprocess.run([sys.executable, "-c", probe, json.dumps(batch)],
                             capture_output=True, text=True, env=env, check=True,
                             timeout=120).stdout
        return json.loads(out)

    together = run(jobs)
    alone = [run([argv])[0] for argv in jobs]
    assert together == alone
    assert [code for code, _ in together] == [0, 0, 0, 1, 0, 0, 0, 0]


def test_closed_stdout_exits_quietly(tmp_path):
    # a reader that stops early (`addlevy ... | head -c 20`) must not make the
    # CLI print tracebacks or lose the --out file; the report (~640 kB)
    # overfills the pipe, so the write is still blocked when the reader goes away
    env = {**os.environ, "PYTHONPATH": str(Path(addlevy.__file__).parents[1])}
    out = tmp_path / "report.json"
    proc = subprocess.Popen([sys.executable, "-m", "addlevy.cli", "lambda", "--n-grid", "120",
                             "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(20).startswith(b"{")
    proc.stdout.close()
    proc.wait(timeout=120)
    err = proc.stderr.read().decode()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert proc.returncode == 1
    assert json.loads(out.read_text())["command"] == "lambda"


class TestClassify:
    def test_stable_pair_plane(self, capsys):
        # [DERIVED] 1.5 + 1.5 > 2 with dimension 3 - 2 = 1
        code, rep = run_cli(["classify", "--stable", "1.5,1.5", "--dim", "2"], capsys)
        assert code == 0
        assert rep["intersect"] is True
        assert rep["dimension"] == pytest.approx(1.0)

    def test_invalid_alpha_exit_one(self, capsys):
        # [TRIVIAL] validation failure: exit 1 and an error naming the field
        code, rep = run_cli(["classify", "--stable", "3.0", "--dim", "1"], capsys)
        assert code == 1
        assert rep["kind"] == "invalid-input"
        assert "stability index" in rep["error"]

    @pytest.mark.parametrize("multiple", ["1.5,2.7,2.9", "1.5,2,2.5", "1.5,0,2", "1.5,2,1"])
    def test_multiple_needs_integral_d_and_n(self, multiple, capsys):
        # a fractional d or N was truncated; N = 1 or d = 0 asks nothing
        code, rep = run_cli(["classify", "--multiple", multiple], capsys)
        assert code == 1
        assert rep == {"error": "--multiple needs an integral d >= 1 and an integral N >= 2",
                       "kind": "invalid-input"}

    def test_subordinator_ranges_meet(self, capsys):
        # [DERIVED] 0.5 + 0.7 > 1
        code, rep = run_cli(["classify", "--subordinators", "0.5,0.7"], capsys)
        assert code == 0
        assert rep["subordinator_ranges_meet"] is True

    @pytest.mark.parametrize("argv, error", [
        (["--subordinators", "0.5,1.5"], "subordinator index must lie in (0, 1), got 1.5"),
        (["--subordinators", "0.5"], "--subordinators needs alpha1,alpha2"),
        (["--multiple", "1.5,2"], "--multiple needs alpha,d,N"),
        ([], "classify: give at least one of --stable/--multiple/--subordinators"),
    ])
    def test_refused_input_exit_one(self, argv, error, capsys):
        code, rep = run_cli(["classify", *argv], capsys)
        assert code == 1
        assert rep == {"error": error, "kind": "invalid-input"}

    def test_multiple_with_an_index_above_two_exit_one(self, capsys):
        code, rep = run_cli(["classify", "--multiple", "3.0,2,2"], capsys)
        assert code == 1
        assert rep == {"error": "stability index must lie in (0, 2], got 3.0",
                       "kind": "invalid-input"}


class TestLambda:
    def test_default_grid_agreement(self, capsys):
        # [DERIVED] closed form vs brute force on the sampled points
        code, rep = run_cli(["lambda", "--points", "0,0;1,0;0,1;2,1",
                             "--check", "4"], capsys)
        assert code == 0
        assert rep["bruteforce_max_abs_diff"] < 1e-6

    @pytest.mark.parametrize("argv, error", [
        (["--points", "1,2,3"], "each point must be re,im"),
        # a negative count checked all but the last |k| points
        (["--points", "1,1;2,2;3,3", "--check", "-1"], "--check must be >= 0"),
    ])
    def test_refused_input_exit_one(self, argv, error, capsys):
        code, rep = run_cli(["lambda", *argv], capsys)
        assert code == 1
        assert rep == {"error": error, "kind": "invalid-input"}

    def test_known_values(self, capsys):
        code, rep = run_cli(["lambda", "--points", "0,0;1,0;0,1"], capsys)
        vals = rep["values"]
        assert vals["0+0j"] == pytest.approx(4.0)
        assert vals["1+0j"] == pytest.approx(1.5)
        assert vals["0+1j"] == pytest.approx(1.0)


class TestEnergy:
    def test_brownian_cube(self, capsys):
        code, rep = run_cli([
            "energy", "--psi", '{"family":"BrownianIsotropic","dim":1,"params":{}}',
            "--set", CUBE_64], capsys)
        assert code == 0
        assert rep["converged"] is True
        assert rep["energy"] > 0.0

    def test_divergent_energy_exit_two(self, capsys):
        # Cauchy kernel is not integrable: not-converged, exit 2
        code, rep = run_cli([
            "energy", "--psi", '{"family":"IsotropicStable","dim":1,"params":{"alpha":1.0}}',
            "--set", '{"kind":"TwoPoint","separation":1.0,"d":1}'], capsys)
        assert code == 2
        assert rep["kind"] == "not-converged"

    @pytest.mark.parametrize("rel_tol,code", [("0.5", 0), ("1e-12", 2)])
    def test_rel_tol_certifies_planar_energy(self, capsys, rel_tol, code):
        # the d = 2 error estimate is the change from r_max/2 to r_max, and
        # --rel-tol decides whether it is small enough
        got, rep = run_cli(["energy", "--psi", f"[{STABLE_2D},{STABLE_2D}]",
                            "--set", TWO_POINT_2D, "--rel-tol", rel_tol], capsys)
        assert got == code
        if code == 0:
            assert rep["converged"] is True
            assert rep["tail_estimate"] <= 0.5 * rep["energy"]
        else:
            assert rep["kind"] == "not-converged"

    @pytest.mark.parametrize("flag, value, error", [
        ("--r-max", "nan", "r_max must be finite, got nan"),
        ("--r-max", "inf", "r_max must be finite, got inf"),
        ("--rel-tol", "nan", "rel_tol must be finite, got nan"),
        ("--rel-tol", "inf", "rel_tol must be finite, got inf"),
        ("--rel-tol", "0", "rel_tol must be positive"),
    ])
    def test_non_finite_quadrature_plan_exit_one(self, flag, value, error, capsys):
        # a nan or inf radius asked numpy for -2^63 panels; a nan tolerance
        # passed for a quadrature that never converged
        code, rep = run_cli(["energy", "--psi", STABLE_PSI, "--set", TWO_POINT_1D,
                             flag, value], capsys)
        assert code == 1
        assert rep == {"error": error, "kind": "invalid-input"}

    def test_planar_drift_energy_exit_two_without_quadrature(self, capsys):
        # a drift's kernel decays by direction: nothing certifies it, and
        # nothing is integrated before saying so
        drift = '{"family":"PureDrift","dim":2,"params":{"b":[1.0,0.0]}}'
        t0 = time.perf_counter()
        code, rep = run_cli(["energy", "--psi", f"[{drift},{STABLE_2D}]",
                             "--set", TWO_POINT_2D], capsys)
        assert time.perf_counter() - t0 < 0.1
        assert code == 2
        assert rep == {"error": "energy quadrature did not meet its tolerance",
                       "kind": "not-converged"}


    @pytest.mark.parametrize("spec, psi, error", [
        ('{"kind":"Circle","radius":1.0,"n":0}', STABLE_2D, "n must be >= 1"),
        ('{"kind":"CantorProduct","ratio":0.3,"level":-1,"d":1}', STABLE_PSI,
         "level must be >= 0 and d >= 1"),
        ('{"kind":"CantorProduct","ratio":0.3,"level":2,"d":0}', STABLE_PSI,
         "level must be >= 0 and d >= 1"),
        ('{"kind":"TwoPoint","separation":1.0,"d":0}', STABLE_PSI, "d must be >= 1"),
        ('{"kind":"CubeGrid","bounds":[[1.0,0.0]],"n_per_axis":64}', STABLE_PSI,
         "bounds need a < b on every axis (a == b only with n_per_axis 1)"),
        ('{"kind":"CubeGrid","bounds":[[0.0,0.0]],"n_per_axis":64}', STABLE_PSI,
         "bounds need a < b on every axis (a == b only with n_per_axis 1)"),
        # b - a overflowed to inf, and the lattice's round(inf) was an OverflowError
        ('{"kind":"CubeGrid","bounds":[[-1.5e308,1.5e308]],"n_per_axis":3}', STABLE_PSI,
         "bounds need a finite length b - a on every axis"),
        ('{"kind":"CubeGrid","bounds":[[0,1],[-Infinity,0]],"n_per_axis":3}', STABLE_2D,
         "bounds need a finite length b - a on every axis"),
        ('{"kind":"Circle","radius":1.0}', STABLE_2D, "Circle set needs ['n']"),
        ('{"kind":"CubeGrid","bounds":[[0.0,1.0]],"n_per_axis":4,"extra":1}', STABLE_PSI,
         "CubeGrid set does not read ['extra']"),
        ('{"kind":"TwoPoint","separation":"x","d":1}', STABLE_PSI,
         "separation must be a number, got 'x'"),
        ('{"kind":"CubeGrid","bounds":[0,1],"n_per_axis":4}', STABLE_PSI,
         "bounds must be a list of [a, b] pairs of numbers, got [0, 1]"),
        ('{"kind":"CubeGrid","bounds":[[0,"a"]],"n_per_axis":4}', STABLE_PSI,
         "bounds must be a list of [a, b] pairs of numbers, got [[0, 'a']]"),
        ('{"kind":"Circle","radius":-1,"n":6}', STABLE_2D, "radius must be >= 0"),
        ('{"kind":"CubeGrid","bounds":[[0,1]],"n_per_axis":2.5}', STABLE_PSI,
         "n_per_axis must be an integer, got 2.5"),
        ('{"kind":"CantorProduct","ratio":0.3,"level":2.7,"d":1}', STABLE_PSI,
         "level must be an integer, got 2.7"),
        ('{"kind":"Circle","radius":1,"n":6.5}', STABLE_2D, "n must be an integer, got 6.5"),
        ('{"kind":"TwoPoint","separation":1,"d":1.5}', STABLE_PSI, "d must be an integer, got 1.5"),
        ('{"kind":"TwoPoint","separation":true,"d":1}', STABLE_PSI,
         "separation must be a number, got True"),
        ('{"kind":"CubeGrid","bounds":[[0,1,2]],"n_per_axis":4}', STABLE_PSI,
         "bounds must be a list of [a, b] pairs of numbers, got [[0, 1, 2]]"),
        ('{"kind":"Circle","radius":1,"n":NaN}', STABLE_2D, "n must be an integer, got nan"),
        ('{"kind":["Circle"]}', STABLE_2D, "unknown discretization kind: ['Circle']"),
        ('{"kind":"CubeGrid","bounds":[[0,1]],"n_per_axis":0}', STABLE_PSI,
         "n_per_axis must be >= 1"),
        ('{"kind":"CantorProduct","ratio":0.6,"level":2,"d":1}', STABLE_PSI,
         "ratio must lie in (0, 1/2)"),
        ('{"kind":"TwoPoint","separation":-1,"d":1}', STABLE_PSI, "separation must be positive"),
    ])
    def test_bad_set_spec_exit_one(self, spec, psi, error, capsys):
        code, rep = run_cli(["energy", "--psi", psi, "--set", spec], capsys)
        assert code == 1
        assert rep == {"error": error, "kind": "invalid-input"}


class TestEquilibrium:
    POINT = '{"kind":"CubeGrid","bounds":[[0.5,0.5]],"n_per_axis":1}'

    @pytest.mark.parametrize("argv", [
        ["capacity", "--set", POINT],
        ["equilibrium", "--set", '{"kind":"Circle","radius":0.0,"n":4}'],
    ])
    def test_riesz_capacity_of_a_point_is_zero(self, argv, capsys):
        # [DERIVED] a cell of width 0 averages the gauge to its value at the
        # origin, infinite for the Riesz gauge
        code, rep = run_cli(argv, capsys)
        assert code == 0
        assert rep["capacity"] == 0.0 and rep["energy"] == math.inf

    @pytest.mark.parametrize("argv", [
        ["capacity", "--set", CUBE_16],
        ["equilibrium", "--set", CIRCLE_6],
        ["equilibrium", "--set", CUBE_16, "--gauge", "potential", "--psi", STABLE_PSI],
    ])
    def test_one_discretization_per_job(self, argv, capsys, monkeypatch):
        # the measure carries its cell, so assembly reads the set spec no more
        specs, discretize = [], measures.discretize

        def counting(spec):
            specs.append(spec)
            return discretize(spec)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("addlevy") and \
                    getattr(module, "discretize", None) is discretize:
                monkeypatch.setattr(module, "discretize", counting)
        code, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(specs) == 1

    @pytest.mark.parametrize("argv, error", [
        # the complex diagonal of a negative radius was a TypeError
        (["capacity", "--set", '{"kind":"Circle","radius":-1,"n":6}'], "radius must be >= 0"),
        (["capacity", "--set", CUBE_16, "--tol", "-1"], "tol must be positive and finite, got -1.0"),
        (["capacity", "--set", CUBE_16, "--tol", "0"], "tol must be positive and finite, got 0.0"),
        (["equilibrium", "--set", CUBE_16, "--tol", "nan"],
         "tol must be positive and finite, got nan"),
        (["equilibrium", "--set", CUBE_16, "--gauge", "potential", "--psi", STABLE_PSI,
          "--tol", "inf"], "tol must be positive and finite, got inf"),
        (["capacity", "--set", CUBE_16, "--max-iter", "-5"], "max_iter must be >= 0, got -5"),
        # a drift's kernel was inverted as if it were radial, to uniform weights
        (["equilibrium", "--gauge", "potential", "--psi", DRIFT_2D, "--set", CIRCLE_6],
         "no radial inversion of a direction-dependent kernel in d = 2"),
    ])
    def test_refused_input_exit_one(self, argv, error, capsys):
        code, rep = run_cli(argv, capsys)
        assert code == 1
        assert rep == {"error": error, "kind": "invalid-input"}

    def test_dense_matrix_over_the_budget_exit_one(self, capsys):
        # 60000 circle atoms, at 448 bytes a pair (what a potential gauge takes
        # at its peak), would take 1.5 TiB; the budget refuses them before
        # anything of that size is allocated
        code, rep = run_cli(["capacity", "--set", '{"kind":"Circle","radius":1,"n":60000}'],
                            capsys)
        assert code == 1
        assert rep == {"error": "the 60000 x 60000 energy matrix would take 1.5e+03 GiB, over "
                                "the 2 GiB budget of an energy matrix", "kind": "invalid-input"}

    def test_lattice_over_the_budget_exit_one(self, capsys, monkeypatch):
        # the same budget bounds a lattice's matrix; lowered to 16 MiB, a
        # 20000-cell grid (448 bytes at each of 40000 embedding points, and
        # 4 MiB for a chunk of the radial inversion) is over it
        monkeypatch.setattr(measures, "_BYTES_BUDGET", 2 ** 24)
        spec = '{"kind":"CubeGrid","bounds":[[0,1]],"n_per_axis":20000}'
        code, rep = run_cli(["capacity", "--set", spec], capsys)
        assert code == 1
        assert rep == {"error": "the energy matrix of the 20000 lattice would take 0.0206 GiB, "
                                "over the 0.0156 GiB budget of an energy matrix",
                       "kind": "invalid-input"}

    def test_energy_pair_arrays_over_the_budget_exit_one(self, capsys, monkeypatch):
        # the d = 2 energy of a circle is the form of its dense energy matrix:
        # 400 x 400 pairs at 448 bytes and a 4 MiB chunk, 76 MB, over a budget
        # lowered to 16 MiB
        monkeypatch.setattr(measures, "_BYTES_BUDGET", 2 ** 24)
        spec = '{"kind":"Circle","radius":1,"n":400}'
        code, rep = run_cli(["energy", "--psi", f"[{STABLE_2D},{STABLE_2D}]", "--set", spec],
                            capsys)
        assert code == 1
        assert rep == {"error": "the 400 x 400 energy matrix would take 0.0707 GiB, "
                                "over the 0.0156 GiB budget of an energy matrix",
                       "kind": "invalid-input"}

    def test_large_grid_energy_exit_zero(self, capsys):
        # a 100 x 100 grid: its 10^8 pair differences would take 4.5 GiB; the
        # lattice inverts v at its 199^2 offsets and applies the matrix by
        # FFTs, in about 0.7 s.  The energies of the 5, 10, 20, 50 and 100
        # grids of the square fall toward the continuum's (0.07490, 0.07413,
        # 0.07397, 0.073934, 0.073929)
        spec = '{"kind":"CubeGrid","bounds":[[0,1],[0,1]],"n_per_axis":%d}'
        code, rep = run_cli(["energy", "--psi", f"[{STABLE_2D},{STABLE_2D}]",
                             "--set", spec % 100], capsys)
        assert code == 0 and rep["converged"] is True
        _, coarse = run_cli(["energy", "--psi", f"[{STABLE_2D},{STABLE_2D}]",
                             "--set", spec % 20], capsys)
        assert 0.0 < rep["energy"] < coarse["energy"]

    @pytest.mark.parametrize("length, nodes, size", [(1e5, "2.037e+08", "21.2"),
                                                     (1e300, "2.037e+303", "2.12e+296")])
    def test_energy_halfline_nodes_over_the_budget_exit_one(self, length, nodes, size, capsys):
        # 3 cells of [0, L] span 2L/3: panels pi / (2 (2L/3)) wide up to 400, 12 nodes each
        spec = json.dumps({"kind": "CubeGrid", "bounds": [[0.0, length]], "n_per_axis": 3})
        code, rep = run_cli(["energy", "--psi", STABLE_PSI, "--set", spec], capsys)
        assert code == 1
        assert rep == {"error": f"the {nodes} half-line nodes would take {size} GiB, "
                                "over the 2 GiB budget of an energy matrix",
                       "kind": "invalid-input"}

    def test_potential_capacity_of_a_point(self, capsys):
        # [DERIVED] the point mass is the only measure on a point: energy v(0)
        code, rep = run_cli(["equilibrium", "--set", self.POINT, "--gauge", "potential",
                             "--psi", STABLE_PSI], capsys)
        assert code == 0
        psi = ExponentVector((IsotropicStable(alpha=1.5, dim=1),))
        assert rep["capacity"] == pytest.approx(1.0 / potential_density_v(psi, 0.0), rel=1e-12)

    def test_two_point_even_split(self, capsys):
        code, rep = run_cli([
            "equilibrium", "--set", '{"kind":"TwoPoint","separation":1.0,"d":1}',
            "--gauge", "riesz", "--s", "0.5"], capsys)
        assert code == 0
        assert rep["weights"] == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_flat_check_records_tv(self, capsys):
        code, rep = run_cli([
            "equilibrium", "--set", CUBE_64, "--gauge", "potential",
            "--psi", STABLE_PSI, "--flat-check"], capsys)
        assert code == 0
        fc = rep["flat_check"]
        assert 0.0 <= fc["tv_to_uniform"] <= 1.0
        assert isinstance(fc["flat"], bool)
        assert fc["note"]

    def test_csv_rows(self, capsys, tmp_path):
        csv_path = tmp_path / "weights.csv"
        code, _ = run_cli([
            "equilibrium", "--set", '{"kind":"Circle","radius":1.0,"n":8}',
            "--gauge", "riesz", "--s", "0.5", "--csv", str(csv_path)], capsys)
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "atom_index,weight"
        assert len(lines) == 9


class TestCsv:
    def test_lambda_rows(self, capsys, tmp_path):
        csv_path = tmp_path / "lambda.csv"
        code, rep = run_cli(["lambda", "--points", "0,0;1,0", "--csv", str(csv_path)], capsys)
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "re,im,lambda_closed" and len(lines) == 1 + rep["n_points"]

    @pytest.mark.parametrize("argv", [
        ["energy", "--psi", STABLE_PSI, "--set", TWO_POINT_1D],
        ["capacity", "--set", CUBE_16],
        ["classify", "--stable", "1.5,1.5"],
        ["dimension", "--stable", "1.5,1.5"],
        ["simulate", "--mode", "boxdim", "--stable", "0.7", "--n-steps", "100"],
    ])
    def test_refused_without_a_table(self, argv, capsys, tmp_path):
        # only lambda and equilibrium have rows to write
        csv_path = tmp_path / "out.csv"
        code, rep = run_cli([*argv, "--csv", str(csv_path)], capsys)
        assert code == 1
        assert rep["kind"] == "invalid-input" and "--csv" in rep["error"]
        assert not csv_path.exists()

    def test_command_line_error_exits_one(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(addlevy.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "addlevy.cli", "capacity", "--set", CUBE_16,
                               "--csv", str(tmp_path / "out.csv")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["kind"] == "invalid-input"


class TestCapacity:
    def test_point_test(self, capsys):
        code, rep = run_cli(["capacity", "--point-test", "--psi", STABLE_PSI], capsys)
        assert code == 0
        assert rep["singletons_hit"] is True

    @pytest.mark.parametrize("alpha, hits", [(1.3, True), (0.7, False)])
    def test_planar_drift_point_test(self, alpha, hits, capsys):
        # [DERIVED] drift + alpha-stable in the plane hits points iff alpha > 1
        theta = 4.417201438521419
        psi = json.dumps([{"family": "PureDrift", "dim": 2,
                           "params": {"b": [math.cos(theta), math.sin(theta)]}},
                          {"family": "IsotropicStable", "dim": 2, "params": {"alpha": alpha}}])
        code, rep = run_cli(["capacity", "--point-test", "--psi", psi], capsys)
        assert code == 0
        assert rep["singletons_hit"] is hits

    def test_two_drifts_in_space_exit_two(self, capsys):
        psi = json.dumps([{"family": "PureDrift", "dim": 3, "params": {"b": [1.0, 0.0, 0.0]}},
                          {"family": "PureDrift", "dim": 3, "params": {"b": [0.0, 1.0, 0.0]}}])
        code, rep = run_cli(["capacity", "--point-test", "--psi", psi], capsys)
        assert code == 2
        assert rep["kind"] == "not-converged"
        assert "d = 3" in rep["error"]

    def test_bessel_riesz(self, capsys):
        code, rep = run_cli(["capacity", "--set", CUBE_64, "--s", "0.5"], capsys)
        assert code == 0
        assert rep["capacity"] > 0.0


class TestDimension:
    def test_analytic(self, capsys):
        code, rep = run_cli(["dimension", "--stable", "1.0,1.0", "--dim", "3"], capsys)
        assert code == 0
        assert rep["analytic_dimension"] == pytest.approx(0.0)
        assert rep["range_dimension"] == pytest.approx(2.0)

    def test_numeric_beyond_three_dimensions_is_invalid_input(self, capsys):
        # the probe is defined in d <= 3 only: a refusal, not a failed probe
        code, rep = run_cli(["dimension", "--stable", "1.5,1.5", "--dim", "4", "--numeric"],
                            capsys)
        assert code == 1
        assert rep["kind"] == "invalid-input" and "--dim <= 3" in rep["error"]

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bisection_tolerance_must_be_positive_and_finite(self, tol, capsys):
        code, rep = run_cli(["dimension", "--stable", "1.5,1.5", "--dim", "2", "--numeric",
                             f"--bisect-tol={tol}"], capsys)
        assert code == 1
        assert rep["kind"] == "invalid-input" and "positive and finite" in rep["error"]

    def test_error_above_the_tolerance_is_not_converged(self, capsys):
        # the slope error of (1.5, 1.5) in the plane is about 4e-8
        code, rep = run_cli(["dimension", "--stable", "1.5,1.5", "--dim", "2", "--numeric",
                             "--bisect-tol", "1e-300"], capsys)
        assert code == 2
        assert rep["kind"] == "not-converged"
        assert rep["error"].startswith("numeric dimension: error ")
        assert rep["error"].endswith(" exceeds tol 1e-300")

    def test_stalled_bisection_is_not_converged(self, capsys, monkeypatch):
        # a probe whose slope is not finite gives no estimate to check
        verdict = addlevy.ConvergenceVerdict(kind="Inconclusive", slope=math.nan,
                                             error=math.nan)
        monkeypatch.setattr(classify, "probe_intersection_dimension_test", lambda *_: verdict)
        code, rep = run_cli(["dimension", "--stable", "1.5,1.5", "--dim", "2", "--numeric"],
                            capsys)
        assert code == 2
        assert rep == {"error": "numeric dimension: the dimension probe's slope is nan",
                       "kind": "not-converged"}

    def test_one_probe_per_job(self, capsys, monkeypatch):
        calls = []
        probe = classify.probe_intersection_dimension_test
        monkeypatch.setattr(classify, "probe_intersection_dimension_test",
                            lambda *args: calls.append(args) or probe(*args))
        code, rep = run_cli(["dimension", "--stable", "0.7,0.8", "--numeric"], capsys)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("stable, dim, expected, error", [
        ("1.5,1.5", 2, 0.999999997523658, 3.7106349326521126e-08),
        ("0.7,0.8", 1, 0.49975894577067426, 0.000315434442465401),
        ("1.2,1.3", 2, 0.499999997918794, 1.5086211779813397e-08),
        ("0.9,0.9,0.9", 1, 0.6938183910951959, 0.004761432572809143),
    ])
    def test_numeric_dimension_of_the_benchmark_systems(self, stable, dim, expected, error,
                                                        capsys):
        # rounding may move the shell densities by ~1e-12, and the slope by as
        # little; each value lies within 0.01 of the analytic dimension
        code, rep = run_cli(["dimension", "--stable", stable, "--dim", str(dim), "--numeric"],
                            capsys)
        assert code == 0
        assert rep["numeric_dimension"] == pytest.approx(expected, rel=0, abs=1e-9)
        assert rep["numeric_dimension_error"] == pytest.approx(error, rel=1e-3, abs=1e-9)
        assert abs(rep["numeric_dimension"] - rep["analytic_dimension"]) < 0.01


class TestSimulateAndRun:
    def test_boxdim_seeded(self, capsys):
        argv = ["simulate", "--mode", "boxdim", "--stable", "0.7",
                "--n-steps", "2000", "--seed", "5"]
        code, rep = run_cli(argv, capsys)
        assert code == 0
        assert 0.3 < rep["box_dimension"] < 1.1

    def test_negative_time_horizon_is_invalid_input(self, capsys):
        code, rep = run_cli(["simulate", "--mode", "hitting", "--stable", "1.5", "--dim", "1",
                             "--set", '{"kind":"TwoPoint","separation":1.0,"d":1}',
                             "--trials", "100", "--n-steps", "50", "--time-horizon", "-1"],
                            capsys)
        assert code == 1
        assert rep == {"error": "time_horizon must be positive", "kind": "invalid-input"}

    @pytest.mark.parametrize("flag, value", [("epsilon", "nan"), ("epsilon", "inf"),
                                             ("time_horizon", "inf"), ("time_horizon", "nan")])
    def test_non_finite_mc_config_is_invalid_input(self, flag, value, capsys):
        # a nan epsilon reported a frequency of 0.0 and a bare NaN, which is
        # not JSON; an inf epsilon hit every time, an inf horizon ran on
        code, rep = run_cli(["simulate", "--mode", "hitting", "--stable", "1.5",
                             "--set", TWO_POINT_1D, "--trials", "100", "--n-steps", "20",
                             f"--{flag.replace('_', '-')}", value], capsys)
        assert code == 1
        assert rep == {"error": f"{flag} must be finite, got {value}", "kind": "invalid-input"}

    def test_sojourn_reports_the_error_of_its_prediction(self, capsys):
        code, rep = run_cli(["simulate", "--mode", "sojourn", "--stable", "1.5", "--trials",
                             "100", "--n-steps", "20", "--sigma", "0.02", "--half-width", "1.0"],
                            capsys)
        assert code == 0
        psi = ExponentVector((IsotropicStable(alpha=1.5, dim=1),))
        f = GaussianDensitySpec(sigma=0.02)
        value, error = sojourn_second_moment(psi, f.fourier, 0.02)
        assert (rep["predicted_second_moment"], rep["predicted_second_moment_error"]) == (value,
                                                                                          error)
        # the cut at 60 / sigma keeps the 0.22% that a cut at 60 loses here
        assert sojourn_second_moment(psi, f.fourier)[0] < (1.0 - 0.002) * value
        assert 0.0 <= error < 1e-9 * value

    def test_oversize_job_is_invalid_input(self, capsys):
        # [TRIVIAL] a budget refusal is an error report, not a traceback
        code, rep = run_cli(["simulate", "--mode", "intersection", "--stable", "1.5,1.5",
                             "--trials", "1000", "--n-steps", "1000000"], capsys)
        assert code == 1
        assert rep["kind"] == "invalid-input"
        assert "1,000,000,000" in rep["error"] and "500,000,000" in rep["error"]

    def test_run_replay_bitwise(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        out = tmp_path / "report.json"
        cfg.write_text(json.dumps({
            "command": "simulate",
            "params": {"mode": "boxdim", "stable": "0.7", "n_steps": 2000},
            "seed": 5,
            "output_path": str(out),
        }))
        code = main(["run", "--config", str(cfg)], _exit=False)
        first_stdout = capsys.readouterr().out
        first_file = out.read_text()
        assert code == 0
        code = main(["run", "--config", str(cfg)], _exit=False)
        second_stdout = capsys.readouterr().out
        assert code == 0
        # [TRIVIAL] bitwise reproducibility of seeded runs
        assert second_stdout == first_stdout
        assert out.read_text() == first_file
        assert json.loads(first_file) == json.loads(first_stdout)

    @pytest.mark.parametrize("argv", [
        ["--mode", "hitting", "--stable", "1.5,1.2", "--set",
         '{"kind":"TwoPoint","separation":2.0,"d":1}', "--trials", "120", "--n-steps", "40",
         "--time-horizon", "0.5", "--epsilon", "0.2", "--seed", "3"],
        ["--mode", "intersection", "--stable", "1.5,1.5", "--dim", "2", "--trials", "100",
         "--n-steps", "30", "--seed", "4"],
        ["--mode", "boxdim", "--stable", "0.7", "--n-steps", "1500", "--time-horizon", "2.0",
         "--seed", "5"],
        ["--mode", "sojourn", "--stable", "1.5", "--trials", "100", "--n-steps", "40",
         "--sigma", "0.8", "--mass", "1.5", "--half-width", "8.0", "--seed", "6"],
    ])
    def test_every_mode_replays_from_its_report(self, argv, capsys, tmp_path):
        # a report names only the flags its mode reads, so replaying its
        # {command, params, seed} runs the same job
        assert_replays(["simulate", *argv], capsys, tmp_path)

    @pytest.mark.parametrize("mode, flag", [
        ("sojourn", ["--time-horizon", "3.0"]), ("sojourn", ["--dim", "1"]),
        ("sojourn", ["--epsilon", "0.2"]), ("boxdim", ["--trials", "5"]),
        ("boxdim", ["--epsilon", "0.2"]), ("intersection", ["--sigma", "2.0"]),
        ("hitting", ["--half-width", "4.0"]), ("intersection", ["--set", CUBE_64]),
    ])
    def test_flag_the_mode_ignores_is_refused(self, mode, flag, capsys):
        code, rep = run_cli(["simulate", "--mode", mode, "--stable", "1.5,1.5", *flag], capsys)
        assert code == 1
        assert rep == {"error": f"simulate --mode {mode} does not use {flag[0]}",
                       "kind": "invalid-input"}

    @pytest.mark.parametrize("flag, value", [("sigma", "0"), ("sigma", "-1"), ("mass", "-1")])
    def test_sojourn_density_must_be_positive(self, flag, value, capsys):
        # refused up front: sigma = 0 divides by zero, sigma < 0 fails the
        # half-width check with the wrong reason, mass < 0 is no density
        code, rep = run_cli(["simulate", "--mode", "sojourn", "--stable", "1.5", "--trials", "100",
                             "--n-steps", "40", f"--{flag}", value], capsys)
        assert code == 1
        assert rep == {"error": f"{flag} must be positive", "kind": "invalid-input"}

    def test_intersection_needs_two_indices(self, capsys):
        code, rep = run_cli(["simulate", "--mode", "intersection", "--stable", "1.5"], capsys)
        assert code == 1
        assert rep == {"error": "intersection mode needs --stable alpha1,alpha2",
                       "kind": "invalid-input"}

    @pytest.mark.parametrize("argv, error", [
        (["--mode", "hitting", "--stable", "1.5,1.5,1.5", "--set", TWO_POINT_1D],
         "time grids beyond N=2 are out of scope in v1"),
        (["--mode", "intersection", "--stable", "2.5,1.5"], "alpha must lie in (0, 2], got 2.5"),
        (["--mode", "intersection", "--stable", "1.5,1.5", "--dim", "0"],
         "need d >= 1 and n_steps >= 1"),
    ])
    def test_refused_system_exits_one(self, argv, error, capsys):
        code, rep = run_cli(["simulate", *argv], capsys)
        assert code == 1
        assert rep == {"error": error, "kind": "invalid-input"}

    @pytest.mark.parametrize("mode", ["boxdim", "sojourn"])
    def test_one_index_modes_refuse_two(self, mode, capsys):
        # only the first index ran, while the report named both
        code, rep = run_cli(["simulate", "--mode", mode, "--stable", "0.7,1.9"], capsys)
        assert code == 1
        assert rep == {"error": f"{mode} mode needs one --stable index", "kind": "invalid-input"}

    def test_run_rejects_unknown_keys(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"command": "classify", "params": {},
                                   "bogus": 1}))
        code, rep = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 1
        assert "bogus" in rep["error"]

    @pytest.mark.parametrize("job", [[{"command": "classify"}], "classify"])
    def test_run_refuses_a_config_that_is_not_an_object(self, job, capsys, tmp_path):
        # a list was a TypeError, a string an "unknown config key" per letter
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(job))
        code, rep = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 1
        assert rep == {"error": "config must be a JSON object", "kind": "invalid-input"}


class TestFlagTable:
    """Every subcommand reports exactly the flags its variant reads."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["lambda"], id="lambda-grid"),
        pytest.param(["lambda", "--points", "1,0;0.5,2"], id="lambda-points"),
        pytest.param(["lambda", "--n-grid", "2", "--re-max", "1.5", "--check", "2"],
                     id="lambda-check"),
        pytest.param(["energy", "--psi", STABLE_PSI, "--set", TWO_POINT_1D,
                      "--rel-tol", "1e-3"], id="energy"),
        pytest.param(["equilibrium", "--set", CUBE_16, "--s", "0.3"], id="equilibrium-riesz"),
        pytest.param(["equilibrium", "--set", CUBE_16, "--gauge", "potential",
                      "--psi", STABLE_PSI, "--tol", "1e-9"], id="equilibrium-potential"),
        pytest.param(["equilibrium", "--set", CUBE_16, "--flat-check"],
                     id="equilibrium-flat-check"),
        pytest.param(["capacity", "--set", CUBE_16, "--s", "0.7"], id="capacity-riesz"),
        pytest.param(["capacity", "--point-test", "--psi", STABLE_2D], id="capacity-point-test"),
        pytest.param(["classify", "--stable", "1.5,1.2", "--dim", "2",
                      "--multiple", "1.5,2,2"], id="classify"),
        pytest.param(["dimension", "--stable", "1.0,1.0", "--dim", "3"], id="dimension"),
        pytest.param(["dimension", "--stable", "1.5,1.5", "--dim", "2", "--numeric"],
                     id="dimension-numeric"),
        pytest.param(["dimension", "--stable", "1.5,1.5", "--dim", "2", "--numeric",
                      "--bisect-tol", "0.5"], id="dimension-bisect-tol"),
        pytest.param(["simulate", "--mode", "hitting", "--stable", "1.5", "--set", TWO_POINT_1D,
                      "--trials", "100", "--n-steps", "20", "--seed", "3"], id="simulate-hitting"),
        pytest.param(["simulate", "--mode", "intersection", "--stable", "1.5,1.5",
                      "--trials", "100", "--n-steps", "20"], id="simulate-intersection"),
        pytest.param(["simulate", "--mode", "boxdim", "--stable", "0.7", "--n-steps", "500",
                      "--seed", "5"], id="simulate-boxdim"),
        pytest.param(["simulate", "--mode", "sojourn", "--stable", "1.5", "--trials", "100",
                      "--n-steps", "20", "--seed", "6"], id="simulate-sojourn"),
    ])
    def test_every_variant_replays_from_its_report(self, argv, capsys, tmp_path):
        assert_replays(argv, capsys, tmp_path)

    @pytest.mark.parametrize("argv, flag", [
        (["equilibrium", "--set", CUBE_16, "--gauge", "potential", "--psi", STABLE_PSI,
          "--s", "0.9"], "--s"),
        (["equilibrium", "--set", CUBE_16, "--psi", STABLE_PSI], "--psi"),
        (["capacity", "--point-test", "--psi", STABLE_PSI, "--set", CUBE_16], "--set"),
        (["capacity", "--point-test", "--psi", STABLE_PSI, "--s", "0.5"], "--s"),
        (["capacity", "--point-test", "--psi", STABLE_PSI, "--tol", "1e-6"], "--tol"),
        (["capacity", "--point-test", "--psi", STABLE_PSI, "--max-iter", "10"], "--max-iter"),
        (["capacity", "--set", CUBE_16, "--psi", STABLE_PSI], "--psi"),
        (["dimension", "--stable", "1.5,1.5", "--dim", "2", "--bisect-tol", "0.5"],
         "--bisect-tol"),
        (["lambda", "--points", "1,0", "--re-max", "2"], "--re-max"),
        (["lambda", "--points", "1,0", "--im-max", "2"], "--im-max"),
        (["lambda", "--points", "1,0", "--n-grid", "3"], "--n-grid"),
        (["classify", "--dim", "2", "--subordinators", "0.5,0.6"], "--dim"),
    ])
    def test_flag_the_variant_ignores_is_refused(self, argv, flag, capsys):
        code, rep = run_cli(argv, capsys)
        assert code == 1
        assert rep["kind"] == "invalid-input"
        assert rep["error"].endswith(f" does not use {flag}")

    @pytest.mark.parametrize("argv, flag", [
        (["capacity", "--point-test"], "--psi"),
        (["capacity", "--s", "0.5"], "--set"),
        (["equilibrium", "--set", CUBE_16, "--gauge", "potential"], "--psi"),
        (["simulate", "--mode", "hitting", "--stable", "1.5"], "--set"),
    ])
    def test_missing_flag_the_variant_needs(self, argv, flag, capsys):
        code, rep = run_cli(argv, capsys)
        assert code == 1
        assert rep["kind"] == "invalid-input"
        assert rep["error"].endswith(f" needs {flag}")

    def test_params_hold_the_defaults_and_parsed_json(self, capsys):
        code, rep = run_cli(["capacity", "--set", CUBE_16], capsys)
        assert code == 0
        assert rep["params"] == {"point_test": False, "set": json.loads(CUBE_16), "s": 0.5,
                                 "tol": 1e-8, "max_iter": 50000}


class TestExponentSpec:
    @pytest.mark.parametrize("psi, error", [
        ("[]", "exponent spec must be a family object or a list of them"),
        ('{"family":"Nope","dim":1,"params":{}}', "bad exponent spec: unknown exponent family: 'Nope'"),
        ('{"family":"PureDrift","dim":1,"params":{}}',
         "bad exponent spec: PureDrift needs params['b']"),
        ('{"family":"SumOf","dim":1,"params":{}}',
         "bad exponent spec: SumOf needs params['components']"),
        ('{"family":"IsotropicStable","dim":2.5,"params":{"alpha":1.5}}',
         "bad exponent spec: IsotropicStable dim must be an integer >= 1, got 2.5"),
        ('{"family":"IsotropicStable","dim":true,"params":{"alpha":1.5}}',
         "bad exponent spec: IsotropicStable dim must be an integer >= 1, got True"),
        ('{"family":"IsotropicStable","dim":0,"params":{"alpha":1.5}}',
         "bad exponent spec: IsotropicStable dim must be an integer >= 1, got 0"),
        ('{"family":"PureDrift","dim":2,"params":{"b":[1]}}',
         "bad exponent spec: PureDrift takes dim 1 from its params, not the given 2"),
        ('[1]', "bad exponent spec: an exponent must be a family object, got 1"),
        ('{"family":"SumOf","params":{"components":["x"]}}',
         "bad exponent spec: an exponent must be a family object, got 'x'"),
        ('{"family":"Skewed1DStable","dim":2,"params":{"alpha":1.5}}',
         "bad exponent spec: Skewed1DStable requires dim=1"),
        ('{"family":"Skewed1DStable","dim":1,"params":{"alpha":1.0,"beta":0.5}}',
         "bad exponent spec: alpha=1 with nonzero skew is unsupported"),
        # a drift reads only b, and no family reads a key beside family, params, dim
        ('{"family":"PureDrift","params":{"b":[1],"scale":7}}',
         "bad exponent spec: PureDrift does not read params ['scale']"),
        ('{"family":"IsotropicStable","params":{"alpha":1.5},"extra":1}',
         "bad exponent spec: an exponent does not read ['extra']"),
        # a parameter is a finite number: NaN and inf are not, nor is a bool
        ('[{"family":"IsotropicStable","dim":2,"params":{"alpha":1.5}},'
         '{"family":"IsotropicStable","dim":2,"params":{"alpha":1.5,"scale":NaN}}]',
         "bad exponent spec: scale must be a finite number, got nan"),
        ('{"family":"IsotropicStable","dim":2,"params":{"alpha":true}}',
         "bad exponent spec: alpha must be a finite number, got True"),
        ('{"family":"BrownianIsotropic","params":{"diffusivity":Infinity}}',
         "bad exponent spec: diffusivity must be a finite number, got inf"),
        ('{"family":"Skewed1DStable","params":{"alpha":1.5,"scale":-Infinity}}',
         "bad exponent spec: scale must be a finite number, got -inf"),
        ('{"family":"Skewed1DStable","params":{"alpha":1.5,"beta":false}}',
         "bad exponent spec: beta must be a finite number, got False"),
        ('{"family":"PureDrift","params":{"b":[Infinity]}}',
         "bad exponent spec: b must be a finite number, got inf"),
        ('[{"family":"PureDrift","params":{"b":[NaN,0]}},{"family":"PureDrift","params":{"b":[1,1]}}]',
         "bad exponent spec: b must be a finite number, got nan"),
        ('{"family":"PureDrift","params":{"b":[true]}}',
         "bad exponent spec: b must be a finite number, got True"),
    ])
    def test_bad_exponent_spec_exit_one(self, psi, error, capsys):
        code, rep = run_cli(["capacity", "--point-test", "--psi", psi], capsys)
        assert code == 1
        assert rep == {"error": error, "kind": "invalid-input"}

    @pytest.mark.parametrize("psi, hits", [
        ('{"family":"IsotropicStable","dim":2.0,"params":{"alpha":1.5}}', False),
        ('{"family":"PureDrift","dim":2,"params":{"b":[1,0]}}', False),
        ('{"family":"PureDrift","params":{"b":[1]}}', True),
    ])
    def test_integral_or_matching_dim_is_accepted(self, psi, hits, capsys):
        # 2.0 counts as 2; a drift without dim takes it from b
        code, rep = run_cli(["capacity", "--point-test", "--psi", psi], capsys)
        assert code == 0
        assert rep["singletons_hit"] is hits

    def test_invalid_json_exit_one(self, capsys):
        code, rep = run_cli(["capacity", "--point-test", "--psi", "{bad"], capsys)
        assert code == 1
        assert rep["kind"] == "invalid-input"
        assert rep["error"].startswith("invalid JSON argument: ")


class TestArgin:
    def test_set_from_file(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(CUBE_64)
        code, rep = run_cli(["capacity", "--set", "@" + str(path),
                             "--s", "0.5"], capsys)
        assert code == 0
        assert rep["capacity"] > 0.0
