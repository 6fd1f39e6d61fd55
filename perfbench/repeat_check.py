"""The benchmark's own tests (slow: they run real workloads, a few minutes).

Run from the checkout root with ``python3 -m pytest perfbench/repeat_check.py``.
The file name keeps it out of the repository's default test collection.

* Deterministic counters repeat exactly across two same-seed runs:
  ``oracle.*``, ``kernels.dispatches`` and ``verify.*`` counts on
  build-vft; ``dynamic.*`` and ``spanner_edges`` on serve-churn.
* A different seed changes every workload's inputs.
* Layers a workload bypasses read 0 in its traced run (the "no change"
  side of the predictions in ``README.md``); layers it exercises have a
  busy time above 0, so a timer whose entry point is no longer called
  shows up here instead of folding its time into the parent layer.
* Without ``src/`` the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.require_sources()

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402

#: Long enough for serve-churn's depth-1 reader to reach the 1,000 reads a
#: p99 needs; build-vft then runs its minimum of three instances.
SECONDS = 8

#: Busy times each workload's traced run must see above 0.
EXERCISED = {
    "build-vft": ("oracle.busy_s", "build.busy_s", "verify.busy_s",
                  "kernels.busy_s", "csr.busy_s"),
    "serve-zipf": ("engine.busy_s", "kernels.busy_s", "protocol.busy_s",
                   "csr.busy_s", "snapshot.load_s"),
    "serve-churn": ("oracle.busy_s", "engine.busy_s", "kernels.busy_s",
                    "protocol.busy_s", "csr.busy_s", "snapshot.load_s"),
}


def traced_pass(workload: str, seed: int, tmp_path: Path) -> common.Outcome:
    workdir = tmp_path / f"{workload}-{seed}"
    workdir.mkdir(parents=True)
    ctx = run.RunContext(seed=seed, seconds=SECONDS, workdir=workdir)
    outcome = run.runners()[workload](ctx, True)
    assert outcome.failed == 0 and not outcome.problems, outcome.problems
    for name in EXERCISED[workload]:
        assert outcome.layers[name] > 0, f"{name} never timed on {workload}"
    assert 0 < outcome.wrapper_s < outcome.measured_s
    assert set(outcome.end_to_end) == set(run.declared_units("end_to_end"))
    assert all(value > 0 for value in outcome.end_to_end.values())
    return outcome


@pytest.mark.parametrize("workload,extra", [
    ("build-vft", ("spanner_edges",)),
    ("serve-churn", ("spanner_edges",)),
])
def test_deterministic_counters_repeat(workload, extra, tmp_path):
    first = traced_pass(workload, 7, tmp_path / "a")
    second = traced_pass(workload, 7, tmp_path / "b")
    for name in layers.DETERMINISTIC[workload]:
        assert first.layers[name] == second.layers[name], name
        assert first.layers[name] > 0, f"{name} never moved on {workload}"
    for name in extra:
        assert first.end_to_end[name] == second.end_to_end[name], name


def test_bypassed_layers_read_zero(tmp_path):
    build = traced_pass("build-vft", 3, tmp_path)
    for name in ("engine.kernel_calls", "coalesce.batches", "dynamic.repairs",
                 "churn.reads_behind_update", "daemon.rejected"):
        assert build.layers[name] == 0, name
    zipf = traced_pass("serve-zipf", 3, tmp_path)
    for name in ("oracle.queries", "verify.fault_sets_checked",
                 "dynamic.repairs", "engine.cache_invalidations",
                 "daemon.rejected"):
        assert zipf.layers[name] == 0, name
    assert zipf.layers["coalesce.mean_occupancy"] > 1.0


def _edges(graph):
    return sorted(graph.edges())


def test_different_seed_changes_inputs():
    one, two = inputs.build_corpus(1, SECONDS), inputs.build_corpus(2, SECONDS)
    assert [_edges(i.graph) for i in one] != [_edges(i.graph) for i in two]
    assert [_edges(i.graph) for i in one] == [
        _edges(i.graph) for i in inputs.build_corpus(1, SECONDS)]
    graph_one = inputs.serve_graph(1, 60, 150)
    graph_two = inputs.serve_graph(2, 60, 150)
    assert _edges(graph_one) != _edges(graph_two)
    assert (inputs.zipf_queries(1, graph_one)
            != inputs.zipf_queries(2, graph_one))
    assert (inputs.churn_queries(1, graph_one, 50)
            != inputs.churn_queries(2, graph_one, 50))
    assert (list(inputs.churn_journal(1, graph_one, SECONDS))
            != list(inputs.churn_journal(2, graph_one, SECONDS)))


def test_metric_names_match_benchmark_json():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    assert set(common.latency_metrics([1.0], 1.0)) < end_to_end
    assert set(run.runners()) == {w["name"] for w in spec["workloads"]}
    produced = set(layers.layer_metrics(lambda *a, **k: 0.0, None, None, {}))
    assert produced | {"trace.overhead_pct"} == per_layer


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-vft",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_reads_behind_updates_counts_overlaps():
    updates = [(1.0, 2.0, True), (5.0, 6.0, True)]
    reads = [(0.0, 0.5, True), (0.5, 1.5, True), (1.2, 1.8, True),
             (2.5, 3.0, True), (5.9, 7.0, True)]
    assert serving.reads_behind_updates(reads, updates) == 3
