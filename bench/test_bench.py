"""Unit tests of the benchmark's own arithmetic and guards.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import statistics
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer, self_times


def test_self_time_on_a_synthetic_span_tree():
    # 0 root [0, 10]; children 1 [1, 3] and 2 [2, 5] overlap, 3 [8, 12] runs
    # past the root's end; 4 [1.5, 2.5] is a grandchild under 1.
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    own = self_times(parent, start, end)
    # root: 10 minus the union [1, 5] u [8, 10] = 10 - 6
    assert own.tolist() == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_times_of_sequential_children_sum_to_the_root():
    parent = [-1, 0, 0, 1, -1]
    start = [100.0, 100.5, 102.0, 100.6, 200.0]
    end = [104.0, 101.5, 103.0, 100.9, 201.0]
    own = self_times(parent, start, end)
    assert own.tolist() == pytest.approx([2.0, 0.7, 1.0, 0.3, 1.0])
    assert own[:4].sum() == pytest.approx(end[0] - start[0])


def test_percentile_matches_the_inclusive_quantile_method():
    values = [0.3, 0.1, 0.9, 0.4, 0.7, 0.2, 1.0, 0.5, 0.6, 0.8]
    assert run.percentile(values, 50) == pytest.approx(statistics.median(values))
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    assert run.percentile(values, 90) == pytest.approx(deciles[8])
    assert run.percentile(values, 90) == pytest.approx(0.91)
    assert run.percentile([2.0], 90) == 2.0


def test_memory_guard_refuses_oversized_energy_jobs():
    psi = [workloads.stable(1.5, 2), workloads.stable(1.5, 2)]
    fits = workloads.energy(psi, workloads.grid([(0, 0.5), (0, 0.5)], 2), "")
    assert workloads.guard([fits]) == [fits]
    for bounds, n in ((((0, 1), (0, 1)), 2), (((0, 1), (0, 1)), 16)):
        job = workloads.energy(psi, workloads.grid(bounds, n), "")
        with pytest.raises(workloads.BudgetExceeded):
            workloads.guard([job])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_mixes_are_seeded_and_within_budget(name):
    make = workloads.WORKLOADS[name]
    first = [job.argv for job in make(3)]
    assert first == [job.argv for job in make(3)]
    assert first != [job.argv for job in make(4)]
    assert sorted(j.kind for j in make(3)) == sorted(j.kind for j in make(4))


def test_seed_translates_energy_grids_but_keeps_their_lengths():
    # The frequency grid, and so the cost, of an energy job grows with the
    # set's length; only its position may depend on the seed.
    def lengths(jobs):
        return sorted(round(b - a, 9) for job in jobs if job.argv[0] == "energy"
                      for a, b in job.params["set"].get("bounds", []))

    assert lengths(workloads.spectral(3)) == lengths(workloads.spectral(4))


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_tracer_counts_calls_and_restores_the_modules():
    cli, _ = run.load_program()
    import addlevy.quadrature as quadrature
    import addlevy.energy as energy

    original = quadrature.integrate_panels
    tracer = Tracer()
    tracer.install()
    try:
        assert energy.integrate_panels is quadrature.integrate_panels is not original
        code, out, _ = run.run_job(cli, workloads.WARMUP["spectral"]()[0])
    finally:
        tracer.uninstall()
    assert code == 0
    assert energy.integrate_panels is quadrature.integrate_panels is original
    assert tracer.counts["quadrature.integrate_panels"]["calls"] >= 1
    assert tracer.counts["cli.main"]["calls"] == 1
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "cli.main" and tracer.parent[0] == -1
