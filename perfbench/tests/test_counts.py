"""Tests of the benchmark itself, at the reduced workload sizes.

Work counts are what later changes may cite, so two traced runs at one
seed must give exactly the same counts.  Run with

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

worker.import_qdlab()

SEED = 3
# only the full-size orbit workload reaches the 1024-cell grid scan
FULL_SIZE_ONLY = {
    "equidistribution.discrepancy_box.grid.calls",
    "equidistribution.orbit_grid_counts.busy_s",
    "kernels.grid_discrepancy_2d.band_cells",
}


def traced_pass(workload, outdir):
    configs = worker.setup(workload, SEED, small=True)
    tracer = Tracer()
    tracer.install()
    try:
        wall, ops = worker.run_pass(configs, outdir, tracer)
    finally:
        tracer.uninstall()
    per_layer = worker.traced_metrics(tracer, wall, [wall], 0.0)
    return per_layer, ops


def work_counts(per_layer):
    return {name: value for name, value in per_layer.items()
            if name.rpartition(".")[2] in metrics.WORK_COUNTERS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_work_counts_repeat_exactly(workload, tmp_path):
    first, ops_a = traced_pass(workload, tmp_path / "a")
    second, ops_b = traced_pass(workload, tmp_path / "b")
    assert work_counts(first) == work_counts(second)
    assert [op.get("digest") for op in ops_a] == \
        [op.get("digest") for op in ops_b]
    zero = [name for name in metrics.EXERCISED[workload]
            if not first[name] and name not in FULL_SIZE_ONLY]
    assert zero == []


def test_cocycle_counts_match_the_configs(tmp_path):
    per_layer, _ = traced_pass("cocycle_scan", tmp_path)
    params = workloads.make_configs("cocycle_scan", SEED,
                                    small=True)[0]["params"]
    energies, n, phases = params["energies"][2], params["n"], \
        params["phases"]
    # random and grid phase batches for every energy
    assert per_layer["kernels.cocycle_batch.steps"] == \
        2 * energies * n * phases


def test_uninstall_restores_the_package():
    import qdlab.backend
    import qdlab.cocycle
    import qdlab.torus

    kernel = qdlab.backend.kernels.cheb_apply
    tracer = Tracer()
    tracer.install()
    assert qdlab.cocycle.step_array is not qdlab.torus.step_array
    tracer.uninstall()
    assert qdlab.cocycle.step_array is qdlab.torus.step_array
    assert qdlab.backend.kernels.cheb_apply is kernel


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == metrics.PER_LAYER
