"""Serving-layer benchmark: batched query engine vs one Dijkstra per query.

The engine's pitch is that real query traffic repeats itself — skewed
sources, a bounded set of concurrently failed elements — so grouping by
``(source, fault set)`` plus caching distance vectors beats answering each
query with its own masked Dijkstra.  This benchmark measures exactly that
claim on the synthetic traffic shapes of :mod:`repro.engine.workload`:

* **naive** — the pre-engine serving loop: one
  :func:`~repro.paths.kernels.bounded_dijkstra_csr` call per query with a
  freshly built fault mask (what a caller without the engine would write);
* **engine** — :class:`~repro.engine.engine.QueryEngine` fed the same
  queries in service-sized batches.

Answers are asserted identical before timing.  Running as a script records
the comparison in ``BENCH_engine.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick]

The ``--quick`` mode is the CI smoke configuration (seconds, small graph);
the default mode is larger.  The recorded ``speedup`` on the Zipf workload
is the headline serving number and is expected to stay >= 3x.
"""

import argparse
import json
import math
import pathlib

import pytest

from repro.engine.engine import QueryEngine
from repro.engine.snapshot import SpannerSnapshot
from repro.engine.workload import (
    fault_churn_sessions,
    split_batches,
    uniform_workload,
    zipf_workload,
)
from repro.faults.models import get_fault_model
from repro.graph import generators
from repro.graph.csr import csr_snapshot
from repro.paths.kernels import bounded_dijkstra_csr
from repro.spanners.greedy import greedy_spanner
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.utils.timing import best_of

BATCH_SIZE = 256


def _serving_case(n: int, m: int, num_queries: int, *, shape: str = "zipf",
                  max_faults: int = 2, seed: int = 2025):
    """A spanner snapshot plus a query stream of the given traffic shape."""
    graph = generators.gnm(n, m, rng=seed, connected=True, weighted=True)
    result = greedy_spanner(graph, 3)
    snapshot = SpannerSnapshot.from_result(result)
    snapshot.max_faults = max_faults
    if shape == "zipf":
        queries = zipf_workload(snapshot.spanner, num_queries, skew=1.3,
                                max_faults=max_faults, fault_pool=4, rng=seed)
    elif shape == "churn":
        # Long sessions: the paper's serving regime, faults churn slowly
        # relative to the query rate.
        sessions = max(1, num_queries // 1000)
        queries = fault_churn_sessions(snapshot.spanner, sessions,
                                       num_queries // sessions,
                                       max_faults=max_faults, rng=seed)
    else:
        queries = uniform_workload(snapshot.spanner, num_queries,
                                   max_faults=max_faults, rng=seed)
    return snapshot, queries


def _run_naive(snapshot, queries):
    """One masked single-target Dijkstra per query, fresh mask every time."""
    csr = csr_snapshot(snapshot.spanner)
    model = get_fault_model(snapshot.fault_model)
    index_of = csr.index_of
    answers = []
    for query in queries:
        mask = model.new_mask(csr)
        for index in model.mask_indices(csr, query.faults):
            mask[index] = 1
        vertex_mask, edge_mask = model.kernel_masks(mask)
        answers.append(bounded_dijkstra_csr(
            csr, index_of[query.source], index_of[query.target], math.inf,
            vertex_mask, edge_mask))
    return answers


def _run_engine(snapshot, queries, *, cache_size=1024):
    """The same queries through a fresh engine in service-sized batches."""
    engine = QueryEngine(snapshot, cache_size=cache_size)
    answers = []
    for batch in split_batches(queries, BATCH_SIZE):
        answers.extend(engine.distances_batch(batch))
    return answers, engine


# ---------------------------------------------------------------------------
# pytest-benchmark entries (regression tracking)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def serving_case():
    return _serving_case(200, 1400, 2000)


@pytest.mark.benchmark(group="engine")
def test_naive_per_query_loop(benchmark, serving_case):
    snapshot, queries = serving_case
    answers = benchmark(lambda: _run_naive(snapshot, queries))
    assert len(answers) == len(queries)


@pytest.mark.benchmark(group="engine")
def test_batched_engine(benchmark, serving_case):
    snapshot, queries = serving_case
    expected = _run_naive(snapshot, queries)
    answers = benchmark(lambda: _run_engine(snapshot, queries)[0])
    assert answers == expected  # batching must never change an answer


# ---------------------------------------------------------------------------
# Script mode: record the comparison in BENCH_engine.json
# ---------------------------------------------------------------------------

def measure_instrumentation_costs() -> dict:
    """Per-operation cost of the metrics/tracing hot-path primitives.

    Measured on a throwaway registry and a *disabled* tracer — exactly what
    an instrumented-but-idle run pays per site.
    """
    registry = MetricsRegistry()
    counter = registry.counter("bench.inc")
    histogram = registry.histogram("bench.observe")
    tracer = get_tracer()
    assert not tracer.enabled, "overhead is measured with tracing disabled"
    rounds = 50_000

    def incs():
        for _ in range(rounds):
            counter.inc()

    def observes():
        for _ in range(rounds):
            histogram.observe(0.001)

    def spans():
        for _ in range(rounds):
            with tracer.span("bench.span"):
                pass

    return {
        "counter_inc_ns": best_of(incs, repeats=3) / rounds * 1e9,
        "histogram_observe_ns": best_of(observes, repeats=3) / rounds * 1e9,
        "idle_span_ns": best_of(spans, repeats=3) / rounds * 1e9,
    }


def instrumentation_overhead_pct(stats: dict, engine_s: float,
                                 costs: dict) -> float:
    """Estimated share of ``engine_s`` spent on idle instrumentation.

    Counts the metric operations the engine performs for the measured run
    from its own stats — per batch: three counter bumps, one histogram
    observation, one idle span; per kernel run: one bump and one
    observation; plus one cache-counter bump per group and per fused
    sweep — and prices them at the measured per-op costs.
    """
    batches = stats["batches_planned"]
    kernel_runs = stats["kernel_calls"] + stats["fused_sweeps"]
    incs = 3 * batches + kernel_runs + stats["groups_executed"] \
        + stats["fused_sweeps"]
    observes = batches + kernel_runs
    overhead_s = (incs * costs["counter_inc_ns"]
                  + observes * costs["histogram_observe_ns"]
                  + batches * costs["idle_span_ns"]) * 1e-9
    return overhead_s / engine_s * 100.0


def record_engine_vs_naive(path=None, *, quick: bool = False) -> dict:
    """Measure the engine against the naive loop; write BENCH_engine.json."""
    if path is None:
        path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    if quick:
        configs = [("zipf", 200, 1400, 4000), ("churn", 200, 1400, 4000)]
    else:
        configs = [("zipf", 400, 3200, 10000), ("churn", 400, 3200, 10000),
                   ("uniform", 400, 3200, 4000)]
    report = {
        "benchmark": "batched query engine vs one-Dijkstra-per-query serving loop",
        "naive": "bounded_dijkstra_csr per query, fresh fault mask per query",
        "engine": f"QueryEngine.distances_batch (batch={BATCH_SIZE}, LRU cache)",
        "quick": quick,
        "instrumentation_costs": measure_instrumentation_costs(),
        "cases": [],
    }
    for shape, n, m, num_queries in configs:
        snapshot, queries = _serving_case(n, m, num_queries, shape=shape)
        expected = _run_naive(snapshot, queries)
        answers, engine = _run_engine(snapshot, queries)
        assert answers == expected, f"engine answers diverged on {shape}"
        naive_s = best_of(lambda: _run_naive(snapshot, queries), repeats=3)
        engine_s = best_of(lambda: _run_engine(snapshot, queries)[0],
                           repeats=3)
        stats = engine.stats()
        report["cases"].append({
            "workload": shape,
            "n": n, "m": m,
            "spanner_edges": snapshot.spanner.number_of_edges(),
            "queries": num_queries,
            "naive_ms": round(naive_s * 1e3, 3),
            "engine_ms": round(engine_s * 1e3, 3),
            "naive_qps": round(num_queries / naive_s),
            "engine_qps": round(num_queries / engine_s),
            "speedup": round(naive_s / engine_s, 2),
            "kernel_calls": stats["kernel_calls"],
            "kernel_calls_saved": stats["kernel_calls_saved"],
            "cache_hit_rate": round(stats["cache"]["hit_rate"], 4),
            "instrumentation_overhead_pct": round(
                instrumentation_overhead_pct(
                    stats, engine_s, report["instrumentation_costs"]), 4),
        })
    headline = next(c for c in report["cases"] if c["workload"] == "zipf")
    report["speedup"] = headline["speedup"]
    report["instrumentation_overhead_pct"] = max(
        case["instrumentation_overhead_pct"] for case in report["cases"])
    # Both gates are wall-clock ratios, so the report is written before
    # either is enforced: a failing run still leaves its numbers behind.
    report["gates"] = {
        "zipf speedup >= 3x": {"value": report["speedup"],
                               "passed": report["speedup"] >= 3.0},
        "idle instrumentation overhead <= 2%": {
            "value": report["instrumentation_overhead_pct"],
            "passed": report["instrumentation_overhead_pct"] <= 2.0},
    }
    pathlib.Path(path).write_text(json.dumps(report, indent=2) + "\n")
    failed = [f"{name} (got {gate['value']})"
              for name, gate in report["gates"].items() if not gate["passed"]]
    assert not failed, "engine gates failed: " + "; ".join(failed)
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke configuration (small graph, seconds)")
    parser.add_argument("--output", default=None,
                        help="where to write BENCH_engine.json")
    args = parser.parse_args()
    outcome = record_engine_vs_naive(args.output, quick=args.quick)
    for case in outcome["cases"]:
        print(f"{case['workload']:8s} n={case['n']} queries={case['queries']}: "
              f"naive {case['naive_ms']}ms ({case['naive_qps']}/s) "
              f"engine {case['engine_ms']}ms ({case['engine_qps']}/s) "
              f"-> {case['speedup']}x (cache hit {case['cache_hit_rate']:.1%}, "
              f"{case['kernel_calls_saved']} kernel calls saved)")
    print(f"headline (zipf) speedup: {outcome['speedup']}x")
    print(f"idle instrumentation overhead: "
          f"{outcome['instrumentation_overhead_pct']}% (budget 2%)")
