"""Micro-benchmarks of the library's inner kernels.

Not tied to a specific experiment table; these track the primitives whose
performance determines every experiment's wall clock: bounded Dijkstra,
the branch-and-bound fault check, a full FT greedy construction, blocking-set
extraction + Lemma 4 sampling, and girth computation.  Useful for spotting
performance regressions when the library is modified.

The ``csr-vs-dict`` group pits the CSR kernels (:mod:`repro.paths.kernels`,
fault masks) against the dict-based reference path (``ExclusionView`` + the
view fallback in :mod:`repro.paths.dijkstra`) on bounded Dijkstra queries
under vertex fault masks — the exact shape of the fault-check oracle's inner
loop.  The ``decision_queries`` case times the tiered oracle's yes/no
distance question on an FT spanner, forward kernel against the
bidirectional one (verdicts asserted identical, band fallbacks counted).
The ``serving_crossover`` table times loop against numpy per serving call
kind, graph size and group count; the ``auto`` backend's serving
thresholds (``repro.paths.registry.SERVING_NODE_THRESHOLDS``) are read off
it.  Running this file as a script records the comparisons (and the
measured speedups) in ``BENCH_kernels.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import json
import pathlib

import pytest

from repro.graph import generators
from repro.graph.csr import csr_snapshot
from repro.graph.views import ExclusionView
from repro.paths.dijkstra import bounded_distance
from repro.paths.kernels import bounded_dijkstra_csr
from repro.spanners.blocking import extract_blocking_set, lemma4_subsample
from repro.spanners.fault_check import BranchAndBoundOracle
from repro.spanners.ft_greedy import ft_greedy_spanner
from repro.spanners.greedy import greedy_spanner
from repro.utils.timing import best_of
from repro.graph.girth import girth


@pytest.fixture(scope="module")
def kernel_graph():
    """A medium dense instance shared by the kernel benchmarks."""
    return generators.gnm(80, 1200, rng=2024, connected=True)


@pytest.mark.benchmark(group="kernels")
def test_bounded_dijkstra(benchmark, kernel_graph):
    nodes = list(kernel_graph.nodes())
    pairs = [(nodes[i], nodes[-1 - i]) for i in range(10)]

    def run():
        return [bounded_distance(kernel_graph, u, v, 3.0) for u, v in pairs]

    results = benchmark(run)
    assert len(results) == 10


@pytest.mark.benchmark(group="kernels")
def test_fault_check_oracle(benchmark, kernel_graph):
    oracle = BranchAndBoundOracle()
    nodes = list(kernel_graph.nodes())
    pairs = [(nodes[i], nodes[-1 - i]) for i in range(5)]

    def run():
        return [
            oracle.find_breaking_fault_set(kernel_graph, u, v, 3.0, 2, "vertex")
            for u, v in pairs
        ]

    results = benchmark(run)
    assert len(results) == 5


@pytest.mark.benchmark(group="kernels")
def test_greedy_construction(benchmark, kernel_graph):
    result = benchmark(lambda: greedy_spanner(kernel_graph, 3))
    assert result.size < kernel_graph.number_of_edges()


@pytest.mark.benchmark(group="kernels")
def test_ft_greedy_construction(benchmark, kernel_graph):
    holder = {}

    def run():
        holder["result"] = ft_greedy_spanner(kernel_graph, 3, 1)
        return holder["result"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert holder["result"].size < kernel_graph.number_of_edges()


@pytest.mark.benchmark(group="kernels")
def test_blocking_extraction_and_lemma4(benchmark, kernel_graph):
    result = ft_greedy_spanner(kernel_graph, 3, 2)

    def run():
        blocking = extract_blocking_set(result)
        return lemma4_subsample(result.spanner, blocking, 2, rng=0, trials=3)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.benchmark(group="kernels")
def test_girth_computation(benchmark, kernel_graph):
    spanner = greedy_spanner(kernel_graph, 3).spanner
    value = benchmark(lambda: girth(spanner, cutoff=6))
    assert value > 4


# ---------------------------------------------------------------------------
# CSR kernels vs the dict/view reference path
# ---------------------------------------------------------------------------

def _masked_query_case(n: int, m: int, *, num_pairs: int = 25, num_faults: int = 4,
                       budget: float = 25.0):
    """A masked bounded-Dijkstra workload shaped like the oracle hot loop."""
    graph = generators.gnm(n, m, rng=99, connected=True, weighted=True)
    nodes = list(graph.nodes())
    pairs = [(nodes[i], nodes[-1 - i]) for i in range(num_pairs)]
    faults = [nodes[(7 * i) % n] for i in range(num_faults)]
    return graph, pairs, faults, budget


def _run_view(graph, pairs, faults, budget):
    # A fresh view per query, as the oracles built one per candidate fault set.
    return [
        bounded_distance(ExclusionView(graph, excluded_nodes=faults), u, v, budget)
        for u, v in pairs
    ]


def _run_csr(graph, pairs, faults, budget):
    csr = csr_snapshot(graph)
    vmask = csr.vertex_fault_mask(faults)
    index_of = csr.index_of
    return [
        bounded_dijkstra_csr(csr, index_of[u], index_of[v], budget, vmask)
        for u, v in pairs
    ]


@pytest.fixture(scope="module")
def masked_case():
    return _masked_query_case(600, 4800)


@pytest.mark.benchmark(group="csr-vs-dict")
def test_bounded_dijkstra_masked_dict_view(benchmark, masked_case):
    graph, pairs, faults, budget = masked_case
    results = benchmark(lambda: _run_view(graph, pairs, faults, budget))
    assert len(results) == len(pairs)


@pytest.mark.benchmark(group="csr-vs-dict")
def test_bounded_dijkstra_masked_csr_kernel(benchmark, masked_case):
    graph, pairs, faults, budget = masked_case
    expected = _run_view(graph, pairs, faults, budget)
    results = benchmark(lambda: _run_csr(graph, pairs, faults, budget))
    assert results == expected  # masks must replicate the view semantics


# ---------------------------------------------------------------------------
# Loop vs numpy kernel backends (the registry's 100k-node gate)
# ---------------------------------------------------------------------------

#: The numpy backend must beat the loop backend by at least this factor on
#: the 100k-node SSSP workload (asserted only when the gate arms).
BACKEND_SPEEDUP_FLOOR = 5.0
#: Arm the speedup assertion only when the loop run does real work — on a
#: machine too fast/noisy to measure, the identity check still holds.
_BACKEND_MIN_LOOP_SECONDS = 0.1


def _spine_leaf_graph(num_hosts: int, num_leaves: int, num_spines: int):
    """A spine-leaf fabric: hosts dual-homed to leaves, leaves to every spine.

    The shape behind the registry's 100k-node threshold: huge and shallow
    (diameter ~4), so the vectorized frontier sweep runs a handful of dense
    array passes where the loop kernel pays per-arc Python overhead.
    """
    from repro.graph.core import Graph

    graph = Graph(name=f"spine-leaf(h={num_hosts},l={num_leaves},s={num_spines})")
    for s in range(num_spines):
        graph.add_node(("spine", s))
    for l in range(num_leaves):
        graph.add_node(("leaf", l))
        for s in range(num_spines):
            graph.add_edge(("leaf", l), ("spine", s),
                           1.0 + ((l * 7 + s) % 5) * 0.25)
    for h in range(num_hosts):
        a = h % num_leaves
        b = (h * 13 + 1) % num_leaves
        if b == a:
            b = (b + 1) % num_leaves
        graph.add_edge(("host", h), ("leaf", a), 1.0 + (h % 3) * 0.5)
        graph.add_edge(("host", h), ("leaf", b), 1.0 + (h % 4) * 0.5)
    return graph


def record_loop_vs_numpy(path: "pathlib.Path | str" = None,
                         num_hosts: int = 99_600, num_leaves: int = 400,
                         num_spines: int = 32) -> dict:
    """Time loop vs numpy SSSP on a 100k-node fabric; returns the report.

    Asserts byte identity of the two backends' answers always, and the
    >= ``BACKEND_SPEEDUP_FLOOR`` speedup whenever the gate arms (numpy
    importable and the loop run slow enough to measure).  Folded into
    ``BENCH_kernels.json`` by :func:`record_csr_vs_dict`.
    """
    from repro.paths.registry import AUTO_NODE_THRESHOLD, kernel_backend_names, get_kernels

    graph = _spine_leaf_graph(num_hosts, num_leaves, num_spines)
    csr = csr_snapshot(graph)
    report = {
        "benchmark": "SSSP on a spine-leaf fabric (loop vs numpy kernels)",
        "nodes": csr.num_nodes, "edges": csr.num_edges,
        "auto_threshold": AUTO_NODE_THRESHOLD,
        "gated_to_numpy": csr.num_nodes >= AUTO_NODE_THRESHOLD,
        "speedup_floor": BACKEND_SPEEDUP_FLOOR,
    }
    assert report["gated_to_numpy"], "benchmark instance must cross the gate"
    if "numpy" not in kernel_backend_names():
        report.update({"numpy_available": False, "speedup_asserted": False})
        return report
    loop = get_kernels("loop")
    npk = get_kernels("numpy")
    assert get_kernels("auto").resolve(csr) is npk
    sources = [csr.index_of[("host", 0)], csr.index_of[("leaf", 0)],
               csr.index_of[("spine", 0)]]
    for source in sources:  # identity first, unconditionally
        assert (loop.sssp_dijkstra_csr(csr, source)
                == npk.sssp_dijkstra_csr(csr, source))
    loop_s = best_of(
        lambda: [loop.sssp_dijkstra_csr(csr, s) for s in sources], repeats=2)
    numpy_s = best_of(
        lambda: [npk.sssp_dijkstra_csr(csr, s) for s in sources], repeats=2)
    speedup = loop_s / numpy_s
    report.update({
        "numpy_available": True,
        "sources": len(sources),
        "loop_ms": round(loop_s * 1e3, 1),
        "numpy_ms": round(numpy_s * 1e3, 1),
        "speedup": round(speedup, 2),
        "speedup_asserted": loop_s >= _BACKEND_MIN_LOOP_SECONDS,
    })
    if report["speedup_asserted"]:
        assert speedup >= BACKEND_SPEEDUP_FLOOR, (
            f"numpy kernel speedup regressed below "
            f"{BACKEND_SPEEDUP_FLOOR}x: {speedup:.2f}x")
    return report


@pytest.mark.benchmark(group="kernel-backends")
@pytest.mark.parametrize("backend", ["loop", "numpy"])
def test_sssp_backend(benchmark, backend):
    from repro.paths.registry import get_kernels, kernel_backend_names

    if backend not in kernel_backend_names():
        pytest.skip(f"{backend} backend not available")
    graph = _spine_leaf_graph(4_000, 40, 8)
    csr = csr_snapshot(graph)
    kernels = get_kernels(backend)
    source = csr.index_of[("host", 0)]
    dist, order = benchmark(lambda: kernels.sssp_dijkstra_csr(csr, source))
    assert len(dist) == csr.num_nodes and len(order) > 1


# ---------------------------------------------------------------------------
# Decision queries: forward vs bidirectional on an FT spanner
# ---------------------------------------------------------------------------

def _decision_case(n: int = 320, m: int = 1600, stretch: int = 5,
                   max_faults: int = 2, seed: int = 7):
    """The tiered oracle's decision shape: ``d_{H \\ F}(u, v) > k·w(u, v)``?

    ``H`` is the ft-greedy spanner of a weighted ``G(n, m)``; every edge of
    ``G`` is one query under a random vertex mask of up to ``max_faults``
    faults that spares its endpoints.  ``H`` keeps every such pair within
    ``k·w`` by construction, so budgets are drawn from ``[1, k]·w`` to get
    both verdicts, many of them near the budget.
    """
    import random

    graph = generators.gnm(n, m, rng=seed, connected=True, weighted=True)
    spanner = ft_greedy_spanner(graph, stretch, max_faults, "vertex").spanner
    csr = csr_snapshot(spanner)
    rng = random.Random(seed)
    queries = []
    for u, v, w in graph.edges():
        s, t = csr.index_of[u], csr.index_of[v]
        mask = bytearray(csr.num_nodes)
        for node in rng.sample([i for i in range(csr.num_nodes)
                                if i != s and i != t],
                              rng.randint(0, max_faults)):
            mask[node] = 1
        queries.append((s, t, rng.uniform(1, stretch) * w, mask))
    return csr, queries


def record_decision_queries() -> dict:
    """Time forward vs bidirectional decision queries; verdicts must agree.

    The bidirectional side goes through ``TieredOracle._exceeds`` — the
    kernel plus the band re-asks that make its verdict the forward one — so
    its time includes every band fallback, whose count is recorded too.
    """
    from repro.paths.registry import get_kernels
    from repro.spanners.fault_check import TieredOracle

    csr, queries = _decision_case()
    loop = get_kernels("loop")
    oracle = TieredOracle(kernel="loop")

    def forward():
        return [bounded_dijkstra_csr(csr, s, t, budget, mask) > budget
                for s, t, budget, mask in queries]

    def bidirectional():
        return [oracle._exceeds(loop, csr, s, t, budget, mask, None)[0]
                for s, t, budget, mask in queries]

    verdicts = forward()
    assert bidirectional() == verdicts, "decision verdicts diverged"
    band_fallbacks = oracle.stats.band_fallbacks
    forward_s = best_of(forward, repeats=3)
    bidirectional_s = best_of(bidirectional, repeats=3)
    return {
        "benchmark": "d_{H\\F}(u,v) > c*w(u,v), c in [1,k], on an "
                     "ft-greedy spanner (forward vs bidirectional kernel)",
        "graph": "G(320,1600) weighted, H = ft-greedy k=5 f=2 vertex",
        "spanner_edges": csr.num_edges,
        "queries": len(queries),
        "exceeded": sum(verdicts),
        "verdicts_identical": True,
        "band_fallbacks": band_fallbacks,
        "forward_ms": round(forward_s * 1e3, 1),
        "bidirectional_ms": round(bidirectional_s * 1e3, 1),
        "speedup": round(forward_s / bidirectional_s, 2),
    }


# ---------------------------------------------------------------------------
# The serving crossover: loop vs numpy per call kind, size and group count
# ---------------------------------------------------------------------------

#: Grid of the crossover table: graph sizes and groups per call.
CROSSOVER_NODES = (100, 200, 500, 1000, 2000)
CROSSOVER_GROUPS = (1, 2, 4, 8)
#: Distinct group plans timed per cell (each time is the mean per plan).
_CROSSOVER_PLANS = 12


def _crossover_case(n: int, seed: int = 11):
    """The served shape: H = ft-greedy k=3 f=1 of a weighted G(n, 3n), and
    per group count a few plans of groups, each one G edge ``(s, v)`` with
    weight ``w``, a uniform target ``t`` and at most one fault vertex.
    Serving runs ``(s, faults)`` to ``t`` (uniform targets, as in
    :func:`repro.engine.workload.zipf_workload`); the decision query asks
    ``d(s, v) > 3·w``, the oracles' question."""
    import random

    graph = generators.gnm(n, 3 * n, rng=seed + n, connected=True,
                           weighted=True)
    spanner = ft_greedy_spanner(graph, 3, 1, "vertex").spanner
    csr = csr_snapshot(spanner)
    rng = random.Random(seed * 7919 + n)
    edges = list(graph.edges())
    plans = {}
    for groups in CROSSOVER_GROUPS:
        plans[groups] = []
        for _ in range(_CROSSOVER_PLANS):
            plan = []
            for _ in range(groups):
                u, v, w = edges[rng.randrange(len(edges))]
                s, v = csr.index_of[u], csr.index_of[v]
                t = rng.choice([i for i in range(n) if i != s])
                fault = rng.choice([i for i in range(n) if i not in (s, v)])
                faults = (csr.node_of[fault],) if rng.random() < 0.5 else ()
                plan.append((s, t, v, 3.0 * w, faults))
            plans[groups].append(plan)
    return csr, plans


def _crossover_calls(csr, masks, backend, plans) -> dict:
    """The three call kinds over ``plans`` on ``backend``, as callables
    returning their answers: ``run_groups`` full and early-exit runs, and
    one forward decision query per group."""
    from repro.engine.batch import run_groups

    def full():
        return [run_groups(masks, backend,
                           [(s, f) for s, _, _, _, f in plan])[0]
                for plan in plans]

    def early_exit():
        return [run_groups(masks, backend,
                           [(s, f) for s, _, _, _, f in plan],
                           [[t] for _, t, _, _, _ in plan])[0]
                for plan in plans]

    def decision():
        return [backend.bounded_dijkstra_csr(csr, s, v, budget,
                                             csr.vertex_fault_mask(f))
                for plan in plans for s, _, v, budget, f in plan]

    return {"full": full, "early_exit": early_exit, "decision": decision}


def record_serving_crossover() -> dict:
    """Time loop vs numpy on each serving call kind; returns the table.

    ``full`` and ``early_exit`` are :func:`repro.engine.batch.run_groups`
    calls on an explicit backend — a fused sweep for two or more groups
    on numpy, one kernel per group otherwise — exactly as the engine
    serves them; ``decision`` is one ``bounded_dijkstra_csr`` query per
    group (the oracles' forward question, which has no fused form).  Both
    backends' answers are asserted identical before timing.  Rows carry
    milliseconds per call; ``crossover_nodes`` is, per call kind and group
    count, the smallest grid size from which numpy is faster at every
    larger size (``None`` when it never is).
    """
    from repro.engine.batch import GroupMasks
    from repro.faults.models import get_fault_model
    from repro.paths.registry import (
        SERVING_NODE_THRESHOLDS, get_kernels, kernel_backend_names)

    report = {
        "benchmark": "serving call kinds, loop vs numpy kernels "
                     "(ms per call; groups per call = fused width)",
        "graph": "G(n,3n) weighted, H = ft-greedy k=3 f=1 vertex",
        "serving_thresholds": dict(SERVING_NODE_THRESHOLDS),
    }
    if "numpy" not in kernel_backend_names():
        report["numpy_available"] = False
        return report
    model = get_fault_model("vertex")
    backends = {name: get_kernels(name) for name in ("loop", "numpy")}
    rows = []
    for n in CROSSOVER_NODES:
        csr, plans = _crossover_case(n)
        masks = GroupMasks(csr, model)
        for groups in CROSSOVER_GROUPS:
            runs = {name: _crossover_calls(csr, masks, backend, plans[groups])
                    for name, backend in backends.items()}
            for call in ("full", "early_exit", "decision"):
                assert runs["loop"][call]() == runs["numpy"][call](), (
                    f"{call} answers diverged at n={n}, groups={groups}")
                loop_s = best_of(runs["loop"][call], repeats=3)
                numpy_s = best_of(runs["numpy"][call], repeats=3)
                rows.append({
                    "call": call, "n": n, "groups": groups,
                    "loop_ms": round(loop_s * 1e3 / len(plans[groups]), 3),
                    "numpy_ms": round(numpy_s * 1e3 / len(plans[groups]), 3),
                })
    crossover = {}
    for call in ("full", "early_exit", "decision"):
        crossover[call] = {}
        for groups in CROSSOVER_GROUPS:
            cells = [row for row in rows
                     if row["call"] == call and row["groups"] == groups]
            cut = None
            for row in reversed(cells):  # grid sizes, largest first
                if row["numpy_ms"] >= row["loop_ms"]:
                    break
                cut = row["n"]
            crossover[call][str(groups)] = cut
    report.update({"numpy_available": True, "answers_identical": True,
                   "crossover_nodes": crossover, "rows": rows})
    return report


# ---------------------------------------------------------------------------
# Script mode: record the CSR-vs-dict comparison in BENCH_kernels.json
# ---------------------------------------------------------------------------

def record_csr_vs_dict(path: "pathlib.Path | str" = None) -> dict:
    """Measure kernels against the dict/view path and write BENCH_kernels.json."""
    if path is None:
        path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    report = {"benchmark": "bounded Dijkstra under vertex fault masks",
              "reference": "ExclusionView + dict-based bounded_distance",
              "kernel": "bounded_dijkstra_csr over cached CSR snapshot",
              "cases": []}
    for n, m in ((500, 4000), (1000, 8000)):
        graph, pairs, faults, budget = _masked_query_case(n, m)
        assert _run_view(graph, pairs, faults, budget) == \
            _run_csr(graph, pairs, faults, budget)
        view_s = best_of(lambda: _run_view(graph, pairs, faults, budget))
        csr_s = best_of(lambda: _run_csr(graph, pairs, faults, budget))
        report["cases"].append({
            "n": n, "m": m, "queries": len(pairs), "faults": len(faults),
            "budget": budget,
            "dict_view_ms": round(view_s * 1e3, 3),
            "csr_kernel_ms": round(csr_s * 1e3, 3),
            "speedup": round(view_s / csr_s, 2),
        })
    report["kernel_backends"] = record_loop_vs_numpy()
    report["decision_queries"] = record_decision_queries()
    report["serving_crossover"] = record_serving_crossover()
    pathlib.Path(path).write_text(json.dumps(report, indent=2) + "\n")
    return report


if __name__ == "__main__":
    outcome = record_csr_vs_dict()
    for case in outcome["cases"]:
        print(f"n={case['n']} m={case['m']}: dict/view {case['dict_view_ms']}ms "
              f"csr kernel {case['csr_kernel_ms']}ms -> {case['speedup']}x")
    backends = outcome["kernel_backends"]
    if backends.get("numpy_available"):
        print(f"loop vs numpy (n={backends['nodes']} m={backends['edges']}): "
              f"loop {backends['loop_ms']}ms numpy {backends['numpy_ms']}ms "
              f"-> {backends['speedup']}x"
              f"{'' if backends['speedup_asserted'] else ' (not asserted)'}")
    else:
        print("loop vs numpy: numpy unavailable, comparison skipped")
    decisions = outcome["decision_queries"]
    print(f"decision queries ({decisions['queries']} on {decisions['graph']}): "
          f"forward {decisions['forward_ms']}ms bidirectional "
          f"{decisions['bidirectional_ms']}ms -> {decisions['speedup']}x, "
          f"verdicts identical, {decisions['band_fallbacks']} band fallbacks")
    crossover = outcome["serving_crossover"]
    if crossover.get("numpy_available"):
        for call, cuts in crossover["crossover_nodes"].items():
            print(f"serving crossover, {call}: numpy wins from n = "
                  + ", ".join(f"{cut} ({groups} groups)"
                              for groups, cut in cuts.items()))
