"""Verification-runtime benchmark: sharded ``is_ft_spanner`` vs the serial scan.

The exhaustive fault-tolerance check is the library's ground truth and its
exponential bottleneck: every fault set of size ``<= f`` costs a full
stretch sweep.  PR 3's runtime layer shards that sweep over a process pool
(:class:`repro.runtime.ProcessPoolBackend`) with the CSR snapshots shipped
once per worker; this benchmark measures the wall-clock win and — more
importantly — asserts that the parallel run is **bit-identical** to the
serial one: same verdict, same worst stretch, same ``fault_sets_checked``
counter, and the same witness fault set on refuted spanners, for both fault
models.

Running as a script records the comparison in ``BENCH_verify.json`` at the
repository root::

    PYTHONPATH=src python benchmarks/bench_verify.py [--quick] [--workers N]

The ``--quick`` mode is the CI smoke configuration (seconds, small graphs).
The headline number is the exhaustive vertex-fault case at ``f=2`` on 4
workers, expected to stay >= 2x; the assertion is gated on the machine
actually having >= 4 usable cores (the recorded ``cores`` /
``speedup_asserted`` fields say whether the gate was armed), because on a
single-core container a process pool cannot beat the serial scan no matter
how the work is sharded.

The machine-independent companion is ``kernel_dispatches_per_fault_set``:
the ``kernels.dispatch`` counter delta of the serial run divided by its
fault sets.  Each fault set costs at most one early-exit search in
``H \\ F`` per source (the all-pairs sweep it replaced paid two full SSSPs
per source), so the value must stay ``<= n`` on any machine.  With the
verify memo (:func:`repro.faults.adversarial.source_trees`) a fault set
searches only the sources whose recorded paths it touches, so the value
must also stay below half the planned sources (the sources with G edges
left to check; a sweep without the memo searches all but at most ``f`` of
them per fault set).  A memo that silently stopped working fails that
gate on any machine.  The memo's own build resolves the kernel backend
once, so it adds one dispatch per run.

Every timed run verifies a fresh copy of the spanner, so it compiles the
CSR snapshot and builds the memo cold, as a first verification of a graph
does.
"""

import argparse
import json
import pathlib
import time

import pytest

from repro.faults.adversarial import source_trees
from repro.faults.models import get_fault_model
from repro.graph import generators
from repro.graph.csr import csr_snapshot
from repro.obs.metrics import get_registry
from repro.runtime import ProcessPoolBackend, SerialBackend, usable_cpu_count
from repro.spanners.ft_greedy import ft_greedy_spanner
from repro.spanners.greedy import greedy_spanner
from repro.spanners.verify import is_ft_spanner

#: The exhaustive check must stay >= this much faster on >= MIN_CORES cores.
SPEEDUP_FLOOR = 2.0
MIN_CORES = 4


def _verification_case(n: int, m: int, *, fault_model: str, seed: int = 2025):
    """A graph plus an FT spanner (verifies OK) and a plain one (refuted)."""
    graph = generators.gnm(n, m, rng=seed, connected=True, weighted=True)
    ft = ft_greedy_spanner(graph, 3, 2, fault_model=fault_model).spanner
    plain = greedy_spanner(graph, 3).spanner
    return graph, ft, plain


def _planned_sources(graph, spanner, fault_model: str) -> int:
    """Sources with G edges left to check: a memo-less sweep's search count."""
    memo = source_trees(csr_snapshot(graph), csr_snapshot(spanner),
                        get_fault_model(fault_model), "loop")
    return sum(row is not None for row in memo.ratios)


def _report_fields(report) -> dict:
    return {
        "ok": report.ok,
        "worst_stretch": report.worst_stretch,
        "fault_sets_checked": report.fault_sets_checked,
        # `is not None`: an empty-fault-set witness is real and must stay
        # distinguishable from "no witness" in the identity assertion.
        "witness": (sorted(report.violating_fault_set, key=repr)
                    if report.violating_fault_set is not None else None),
    }


def _kernel_dispatches(delta: dict) -> float:
    """Total ``kernels.dispatch`` movement over every backend label."""
    return sum(value for name, value in delta.items()
               if name.split("{")[0] == "kernels.dispatch")


def _time_best_of(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def record_verify_parallel(path=None, *, quick: bool = False,
                           workers: int = 4) -> dict:
    """Measure sharded vs serial verification; write ``BENCH_verify.json``."""
    if path is None:
        path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_verify.json"
    if quick:
        # Big enough that a 4-worker pool amortises its startup well past
        # the 2x floor on a 4-core machine, small enough for a CI smoke.
        # The memo made each fault set cheap, so these are larger than the
        # full cases, which stay fixed for comparison across changes.
        configs = [("vertex", 64, 256), ("edge", 32, 96)]
    else:
        configs = [("vertex", 48, 180), ("edge", 24, 60)]
    cores = usable_cpu_count()
    serial = SerialBackend()
    pooled = ProcessPoolBackend(workers)
    report = {
        "benchmark": "sharded exhaustive is_ft_spanner (f=2) vs serial scan",
        "serial": "SerialBackend: one process scans every fault set in order",
        "parallel": f"ProcessPoolBackend({workers}): contiguous chunks, "
                    "CSR context shipped once per worker, ordered merge",
        "quick": quick,
        "workers": workers,
        "cores": cores,
        "cases": [],
    }
    for fault_model, n, m in configs:
        graph, ft, plain = _verification_case(n, m, fault_model=fault_model)

        def run(backend, spanner=ft):
            # A fresh copy: a cold snapshot and memo, built inside the run.
            return is_ft_spanner(graph, spanner.copy(), 3, 2, fault_model,
                                 method="exhaustive", backend=backend)

        planned = _planned_sources(graph, ft, fault_model)
        before = get_registry().counters()
        serial_report = run(serial)
        dispatches_per_set = (
            _kernel_dispatches(get_registry().counters_delta(before))
            / serial_report.fault_sets_checked)
        assert dispatches_per_set <= n, (
            f"{fault_model}: {dispatches_per_set} kernel dispatches per fault "
            f"set exceed one search per source ({n})")
        assert dispatches_per_set < planned / 2, (
            f"{fault_model}: {dispatches_per_set} kernel dispatches per fault "
            f"set: the verify memo no longer spares untouched sources "
            f"({planned} planned)")
        pooled_report = run(pooled)
        assert _report_fields(pooled_report) == _report_fields(serial_report), (
            f"parallel verification diverged from serial on {fault_model}"
        )
        assert serial_report.ok, "benchmark spanner must verify clean (full scan)"
        # Refuted spanners must agree on the exact witness fault set too.
        serial_refuted = run(serial, plain)
        pooled_refuted = run(pooled, plain)
        assert not serial_refuted.ok
        assert _report_fields(pooled_refuted) == _report_fields(serial_refuted), (
            f"parallel witness diverged from serial on {fault_model}"
        )
        serial_s = _time_best_of(lambda: run(serial))
        pooled_s = _time_best_of(lambda: run(pooled))
        report["cases"].append({
            "fault_model": fault_model,
            "n": n, "m": m, "max_faults": 2,
            "spanner_edges": ft.number_of_edges(),
            "fault_sets": serial_report.fault_sets_checked,
            "planned_sources": planned,
            "kernel_dispatches_per_fault_set": round(dispatches_per_set, 2),
            "serial_s": round(serial_s, 3),
            "parallel_s": round(pooled_s, 3),
            "speedup": round(serial_s / pooled_s, 2),
            "verdicts_identical": True,
            "witnesses_identical": True,
        })
    headline = next(c for c in report["cases"] if c["fault_model"] == "vertex")
    report["speedup"] = headline["speedup"]
    # A 1-core container cannot demonstrate parallel speedup; the identity
    # checks above still hold there, and the speedup gate arms whenever the
    # machine can actually run the workers concurrently (e.g. CI).
    report["speedup_asserted"] = cores >= MIN_CORES and workers >= MIN_CORES
    if report["speedup_asserted"]:
        assert report["speedup"] >= SPEEDUP_FLOOR, (
            f"sharded verification speedup regressed below "
            f"{SPEEDUP_FLOOR}x: {report['speedup']}x"
        )
    pathlib.Path(path).write_text(json.dumps(report, indent=2) + "\n")
    return report


# ---------------------------------------------------------------------------
# pytest entries (verdict identity as part of the tier-1 run)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_case():
    return _verification_case(18, 64, fault_model="vertex")


@pytest.mark.benchmark(group="verify")
def test_serial_exhaustive_verify(benchmark, small_case):
    graph, ft, _ = small_case
    report = benchmark(lambda: is_ft_spanner(graph, ft, 3, 2, "vertex",
                                             method="exhaustive"))
    assert report.exhaustive


@pytest.mark.benchmark(group="verify")
def test_sharded_exhaustive_verify(benchmark, small_case):
    graph, ft, _ = small_case
    expected = is_ft_spanner(graph, ft, 3, 2, "vertex", method="exhaustive")
    report = benchmark(lambda: is_ft_spanner(graph, ft, 3, 2, "vertex",
                                             method="exhaustive", workers=2))
    assert _report_fields(report) == _report_fields(expected)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke configuration (small graphs, seconds)")
    parser.add_argument("--workers", type=int, default=4,
                        help="process-pool size for the parallel side")
    parser.add_argument("--output", default=None,
                        help="where to write BENCH_verify.json")
    args = parser.parse_args()
    outcome = record_verify_parallel(args.output, quick=args.quick,
                                     workers=args.workers)
    for case in outcome["cases"]:
        print(f"{case['fault_model']:6s} n={case['n']} m={case['m']} "
              f"({case['fault_sets']} fault sets, "
              f"{case['kernel_dispatches_per_fault_set']} dispatches/set): "
              f"serial {case['serial_s']}s, "
              f"{outcome['workers']} workers {case['parallel_s']}s "
              f"-> {case['speedup']}x (verdicts+witnesses identical)")
    gate = ("asserted >= 2x" if outcome["speedup_asserted"]
            else f"not asserted: {outcome['cores']} core(s) available")
    print(f"headline (vertex, f=2) speedup: {outcome['speedup']}x [{gate}]")
