"""Query engine tests: batched == per-query, caching, snapshots, workloads.

The engine's contract is that batching and caching are pure execution
strategies: every answer must equal the one-Dijkstra-per-query reference
(``bounded_distance`` over an ``ExclusionView``), for both fault models,
with the cache enabled and disabled.  The property tests drive that on
random graphs with random fault sets; the unit tests cover the LRU cache,
``Graph.version`` invalidation, snapshot round trips, and the traffic
generators.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.batch import MaskBuffer, plan_batches
from repro.engine.cache import ResultCache
from repro.engine.engine import EngineError, QueryEngine
from repro.engine.snapshot import SpannerSnapshot
from repro.engine.workload import (
    Query,
    fault_churn_sessions,
    split_batches,
    uniform_workload,
    zipf_workload,
)
from repro.faults.models import get_fault_model
from repro.graph import generators
from repro.graph.core import Graph
from repro.graph.csr import csr_snapshot
from repro.graph.io import load_graph_auto, save_graph_auto
from repro.graph.views import ExclusionView
from repro.paths.dijkstra import bounded_distance
from repro.paths.kernels import bounded_dijkstra_csr, multi_target_dijkstra_csr
from repro.paths.registry import get_kernels, kernel_backend_names
from repro.spanners.ft_greedy import ft_greedy_spanner
from repro.utils.rng import RandomSource

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _reference_answers(graph, queries, fault_model):
    """One Dijkstra per query over the dict/view path (pre-engine semantics)."""
    model = get_fault_model(fault_model)
    answers = []
    for query in queries:
        view = model.apply(graph, query.faults)
        answers.append(bounded_distance(view, query.source, query.target, math.inf))
    return answers


@st.composite
def engine_instances(draw):
    """A random connected graph plus a random mixed query stream."""
    n = draw(st.integers(min_value=3, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    fault_model = draw(st.sampled_from(["vertex", "edge"]))
    rng = RandomSource(seed)
    graph = Graph(nodes=range(n))
    order = list(range(n))
    rng.shuffle(order)
    for index in range(1, n):
        anchor = order[rng.randint(0, index - 1)]
        graph.add_edge(order[index], anchor, rng.uniform(1.0, 5.0))
    for u in range(n):
        for v in range(u + 1, n):
            if not graph.has_edge(u, v) and rng.bernoulli(0.4):
                graph.add_edge(u, v, rng.uniform(1.0, 5.0))
    model = get_fault_model(fault_model)
    elements = model.all_elements(graph)
    num_queries = draw(st.integers(min_value=1, max_value=25))
    queries = []
    for _ in range(num_queries):
        source = order[rng.randint(0, n - 1)]
        target = order[rng.randint(0, n - 1)]  # source == target allowed
        size = rng.randint(0, min(3, len(elements)))
        faults = tuple(rng.sample(elements, size)) if size else ()
        queries.append(Query(source, target, faults))
    return graph, queries, fault_model


# --------------------------------------------------------------------------
# Batched answers == per-query reference answers
# --------------------------------------------------------------------------

#: Every installed kernel backend: ``numpy`` fuses a batch's groups into
#: multi-source sweeps, ``loop`` runs one kernel per group.
KERNELS = ["loop"] + [name for name in kernel_backend_names() if name == "numpy"]


@SETTINGS
@given(engine_instances(), st.sampled_from([0, 4, 256]), st.sampled_from(KERNELS))
def test_batched_answers_match_per_query_reference(instance, cache_size, kernel):
    # Cache size 4 evicts queued vectors within one batch on both paths.
    graph, queries, fault_model = instance
    snapshot = SpannerSnapshot(spanner=graph, stretch=1.0,
                               fault_model=fault_model)
    engine = QueryEngine(snapshot, cache_size=cache_size, kernel=kernel)
    got = engine.distances_batch(queries)
    expected = _reference_answers(graph, queries, fault_model)
    assert got == expected
    # Replaying the same batch (warm cache) must not change anything.
    assert engine.distances_batch(queries) == expected
    # Single-query path agrees with the batched path.
    for query, answer in zip(queries[:5], expected):
        assert engine.distance(query.source, query.target, query.faults) == answer
        assert engine.connectivity(query.source, query.target, query.faults) == \
            (not math.isinf(answer))


@SETTINGS
@given(engine_instances())
def test_multi_target_kernel_matches_single_target(instance):
    graph, queries, fault_model = instance
    model = get_fault_model(fault_model)
    csr = csr_snapshot(graph)
    buffer = MaskBuffer(csr, model)
    for query in queries[:6]:
        vertex_mask, edge_mask = buffer.apply(query.faults)
        targets = [csr.index_of[node] for node in graph.nodes()]
        source = csr.index_of[query.source]
        batched = multi_target_dijkstra_csr(csr, source, targets,
                                            vertex_mask, edge_mask)
        for target, got in zip(targets, batched):
            single = bounded_dijkstra_csr(csr, source, target, math.inf,
                                          vertex_mask, edge_mask)
            assert got == single
        buffer.reset()


def test_plan_batches_groups_and_positions():
    model = get_fault_model("vertex")
    queries = [Query(0, 1, (5,)), Query(0, 2, (5,)), Query(1, 2),
               Query(0, 3, (5,)), Query(1, 0)]
    plan = plan_batches(queries, model)
    assert plan.num_queries == 5
    assert plan.num_groups == 2
    first, second = plan.groups
    assert first.source == 0 and first.faults == frozenset({5})
    assert first.targets == [1, 2, 3] and first.positions == [0, 1, 3]
    assert second.source == 1 and second.faults == frozenset()
    assert second.targets == [2, 0] and second.positions == [2, 4]
    assert plan.largest_group == 3
    # Tuple queries and 2-tuples are accepted too.
    plan = plan_batches([(0, 1), (0, 2, (3,))], model)
    assert plan.num_groups == 2
    assert plan.groups[0].faults == frozenset()


def test_engine_handles_unknown_endpoints_and_masked_faults():
    graph = Graph(edges=[(0, 1), (1, 2)])
    engine = QueryEngine(SpannerSnapshot(spanner=graph, stretch=1.0))
    assert math.isinf(engine.distance(0, 99))
    assert math.isinf(engine.distance(99, 0))
    assert math.isinf(engine.distance(0, 2, faults=(1,)))
    assert math.isinf(engine.distance(0, 2, faults=(0,)))  # faulted endpoint
    assert engine.distance(0, 2, faults=(42,)) == 2.0  # unknown fault: no-op
    assert engine.distance(1, 1) == 0.0


def test_failed_kernel_run_leaves_no_empty_vector_cached():
    def failing_sssp(*args):
        raise MemoryError("kernel failed")

    graph = Graph(edges=[(0, 1), (1, 2), (2, 3)])
    engine = QueryEngine(SpannerSnapshot(spanner=graph, stretch=1.0),
                         kernel=dataclasses.replace(
                             get_kernels("loop"), sssp_dijkstra_csr=failing_sssp))
    batch = [(0, 2), (0, 3)]  # one group worth caching: queues a full SSSP
    with pytest.raises(MemoryError):
        engine.distances_batch(batch)
    assert len(engine.cache) == 0
    engine.kernel = get_kernels("loop")
    assert engine.distances_batch(batch) == [2.0, 3.0]


def test_failed_decision_loop_leaves_no_empty_vector_cached():
    graph = Graph(edges=[(0, 1), (1, 2), (2, 3)])
    engine = QueryEngine(SpannerSnapshot(spanner=graph, stretch=1.0))
    engine.distances_batch([(3, 0), (3, 1)])  # a hot key that must survive
    # The first group queues a full SSSP; the second group's target cannot
    # be hashed, so the decision loop raises before anything runs.
    with pytest.raises(TypeError):
        engine.distances_batch([(0, 2), (0, 3), (1, {"x": 1})])
    assert (0, frozenset()) not in engine.cache
    assert len(engine.cache) == 1
    assert engine.distances_batch([(0, 2), (0, 3), (3, 1)]) == [2.0, 3.0, 2.0]


# --------------------------------------------------------------------------
# The serving crossover: auto == loop == numpy above the cut
# --------------------------------------------------------------------------

needs_numpy = pytest.mark.skipif("numpy" not in kernel_backend_names(),
                                 reason="numpy backend not installed")

#: Above the serving threshold, so ``auto`` serves through numpy.
CROSSOVER_NODES = 600


def _counter_delta(run):
    from repro.obs.metrics import get_registry

    before = get_registry().counters()
    run()
    return get_registry().counters_delta(before)


@pytest.fixture(scope="module", params=["vertex", "edge"])
def crossover_case(request):
    """A 600-node k=3 f=1 spanner snapshot (plus an unreachable island
    node) and a query stream: Zipf traffic, fault-churn sessions and the
    edge cases — masked source, masked, duplicate, unknown and unreachable
    targets, ``target == source``."""
    fault_model = request.param
    graph = generators.gnm(CROSSOVER_NODES, 3 * CROSSOVER_NODES, rng=21,
                           connected=True, weighted=True)
    spanner = ft_greedy_spanner(graph, 3, 1, fault_model).spanner
    spanner.add_node("island")
    snapshot = SpannerSnapshot(spanner=spanner, stretch=3.0, max_faults=1,
                               fault_model=fault_model)
    queries = zipf_workload(spanner, 400, max_faults=1, fault_pool=6,
                            fault_model=fault_model, rng=5)
    queries += fault_churn_sessions(spanner, 4, 40, max_faults=1,
                                    fault_model=fault_model, rng=6)
    u, v = next(iter(spanner.edge_keys()))
    fault = u if fault_model == "vertex" else (u, v)
    edge_cases = [Query(u, v, (fault,)), Query(v, u, (fault,)),
                  Query(u, 0, (fault,)), Query(u, 0, (fault,)),
                  Query(u, "island"), Query(u, "nowhere"), Query(u, u),
                  Query(v, "island", (fault,)), Query(v, v, (fault,))]
    # Between the Zipf batches, so the edge cases share groups with traffic.
    queries[100:100] = edge_cases * 2
    return snapshot, queries


def _serve(snapshot, queries, kernel, cache_size):
    engine = QueryEngine(snapshot, cache_size=cache_size, kernel=kernel)
    answers = []
    for batch in split_batches(queries, 64):
        answers.extend(engine.distances_batch(batch))
    return answers, engine.stats()


@needs_numpy
@pytest.mark.parametrize("cache_size", [0, 256])
def test_auto_serving_above_the_cut_matches_loop_and_numpy(crossover_case,
                                                           cache_size):
    snapshot, queries = crossover_case
    answers, stats = {}, {}
    for kernel in ("auto", "loop", "numpy"):
        answers[kernel], stats[kernel] = _serve(snapshot, queries, kernel,
                                                cache_size)
    assert answers["auto"] == answers["loop"] == answers["numpy"]
    assert stats["auto"]["fused_sweeps"] == stats["numpy"]["fused_sweeps"] > 0
    assert stats["loop"]["fused_sweeps"] == 0
    for report in stats.values():  # backend identity and wall clock differ
        for key in ("kernel", "fused_sweeps", "busy_seconds",
                    "queries_per_second"):
            report.pop(key)
    assert stats["auto"] == stats["loop"] == stats["numpy"]
    # The edge cases answer as the reference says.
    model = get_fault_model(snapshot.fault_model)
    for query, answer in zip(queries[100:109], answers["auto"][100:109]):
        expected = bounded_distance(model.apply(snapshot.spanner, query.faults),
                                    query.source, query.target, math.inf)
        assert answer == expected, query


@needs_numpy
def test_serving_dispatch_follows_the_crossover():
    from repro.paths.registry import SERVING_NODE_THRESHOLD

    numpy_label = 'kernels.dispatch{backend="numpy"}'
    loop_label = 'kernels.dispatch{backend="loop"}'
    for nodes, served_by in ((SERVING_NODE_THRESHOLD, "numpy"),
                             (SERVING_NODE_THRESHOLD - 1, "loop")):
        graph = generators.gnm(nodes, 3 * nodes, rng=4, connected=True,
                               weighted=True)
        engine = QueryEngine(SpannerSnapshot(spanner=graph, stretch=1.0),
                             cache_size=16, kernel="auto")
        queries = zipf_workload(graph, 128, max_faults=1, fault_pool=3, rng=9)
        delta = _counter_delta(lambda: [engine.distances_batch(batch)
                                        for batch in split_batches(queries, 32)])
        if served_by == "numpy":
            assert delta.get(numpy_label, 0) > 0
            assert delta.get(loop_label, 0) == 0
        else:
            assert delta.get(numpy_label, 0) == 0
            assert delta.get(loop_label, 0) > 0
        # The oracles' and verification's resolution keeps the 100k gate.
        assert get_kernels("auto").resolve(csr_snapshot(graph)).name == "loop"


@needs_numpy
@pytest.mark.parametrize("form", ["full", "early_exit"])
def test_fused_sweeps_are_cell_capped(form):
    """A 256-group plan at n=1000 runs as ``ceil(256 / (cap // n))``
    sweeps whose transient memory stays bounded: one uncapped sweep of
    those 256,000 cells peaks near 60 MiB."""
    import tracemalloc

    from repro.engine.batch import FUSED_CELL_CAP, GroupMasks, run_groups

    graph = generators.gnm(1000, 3000, rng=5, connected=True, weighted=True)
    csr = csr_snapshot(graph)
    model = get_fault_model("vertex")
    rng = RandomSource(1)
    nodes = list(graph.nodes())
    # Distinct sources, so the engine's plan below has the same 256 groups.
    plan = [(source, rng.choice(nodes), [rng.choice(nodes), rng.choice(nodes)])
            for source in rng.sample(nodes, 256)]
    groups = [(csr.index_of[source], model.canonical([fault]))
              for source, fault, _ in plan]
    targets = (None if form == "full" else
               [[csr.index_of[t] for t in ts] for _, _, ts in plan])
    masks = GroupMasks(csr, model)
    run_groups(masks, get_kernels("auto"), groups[:2],
               None if targets is None else targets[:2])  # warm the views
    tracemalloc.start()
    try:
        rows, sweeps = run_groups(masks, get_kernels("auto"), groups, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_sweep = FUSED_CELL_CAP // csr.num_nodes
    assert sweeps == -(-len(groups) // per_sweep)
    # Full rows hold 256 x 1000 Python floats (~8 MiB) themselves.
    assert peak < 16 * 2 ** 20
    loop_rows, loop_sweeps = run_groups(GroupMasks(csr, model),
                                        get_kernels("loop"), groups, targets)
    assert loop_sweeps == 0 and rows == loop_rows
    # The engine counts each sweep that runs: two targets per group make
    # every group worth a cached full vector, no cache serves early exits.
    engine = QueryEngine(SpannerSnapshot(spanner=graph, stretch=1.0),
                         cache_size=512 if form == "full" else 0,
                         kernel="auto")
    engine.distances_batch([Query(source, target, (fault,))
                            for source, fault, ts in plan for target in ts])
    assert engine.fused_sweeps == sweeps


@needs_numpy
def test_live_engine_above_the_cut_matches_loop_across_churn():
    """Reads between churn updates on a 600-node live spanner: the auto
    engine serves through numpy (compacting the shared CSR that inserts
    grow, a new node included), the reference one through loop; spanners,
    witnesses and answers stay equal."""
    from repro.build import BuildSession, BuildSpec
    from repro.dynamic import EdgeInsert, LiveEngine, random_journal

    graph = generators.gnm(CROSSOVER_NODES, 3 * CROSSOVER_NODES, rng=31,
                           connected=True, weighted=True)
    journal = list(random_journal(graph, 24, rng=8))
    journal[10:10] = [EdgeInsert(0, "newcomer", 1.0),
                      EdgeInsert("newcomer", 7, 0.5)]
    lives = {kernel: LiveEngine(BuildSession(
                 graph.copy(), BuildSpec("ft-greedy", stretch=3, max_faults=1,
                                         kernel=kernel)).dynamic())
             for kernel in ("auto", "loop")}
    queries = zipf_workload(graph, 448, max_faults=1, fault_pool=4, rng=12)
    answers = {kernel: [] for kernel in lives}
    delta = {}
    for kernel, live in lives.items():
        def run(live=live, out=answers[kernel]):
            for step in range(7):
                for batch in split_batches(queries[64 * step:64 * (step + 1)], 32):
                    out.extend(live.distances_batch(batch))
                live.apply_journal(journal[4 * step:4 * (step + 1)])
            out.extend(live.distances_batch(
                queries[:64] + [("newcomer", 9, ()), (9, "newcomer", (7,))]))
        delta[kernel] = _counter_delta(run)
    assert answers["auto"] == answers["loop"]
    assert not math.isinf(answers["auto"][-2])  # the newcomer is served
    auto, loop = (lives[kernel].dynamic for kernel in ("auto", "loop"))
    assert list(auto.spanner.edges()) == list(loop.spanner.edges())
    assert auto.witnesses == loop.witnesses
    assert lives["auto"].engine.fused_sweeps > 0
    assert delta["auto"].get('kernels.dispatch{backend="numpy"}', 0) > 0


# --------------------------------------------------------------------------
# Mask buffers
# --------------------------------------------------------------------------

def test_mask_buffer_reuse_and_reset():
    graph = Graph(edges=[(0, 1), (1, 2), (2, 3)])
    csr = csr_snapshot(graph)
    buffer = MaskBuffer(csr, get_fault_model("vertex"))
    vertex_mask, edge_mask = buffer.apply((1, 3))
    assert edge_mask is None
    assert list(vertex_mask) == [0, 1, 0, 1]
    with pytest.raises(RuntimeError):
        buffer.apply((0,))  # apply without reset must be caught
    buffer.reset()
    assert list(vertex_mask) == [0, 0, 0, 0]
    # The same buffer object is reused across applications.
    again, _ = buffer.apply((0,))
    assert again is vertex_mask
    buffer.reset()
    # Buffer transparently resizes after the snapshot grows.
    graph.add_edge(3, 4)
    resized, _ = buffer.apply((4,))
    assert len(resized) == 5 and resized[4] == 1
    buffer.reset()


# --------------------------------------------------------------------------
# Cache: LRU eviction and version invalidation
# --------------------------------------------------------------------------

def test_cache_lru_eviction_order_and_counters():
    cache = ResultCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a": "b" is now least recent
    cache.put("c", 3)
    assert cache.evictions == 1
    assert cache.get("b") is None  # evicted
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.hits == 3 and cache.misses == 1
    assert 0.0 < cache.hit_rate < 1.0
    stats = cache.stats()
    assert stats["entries"] == 2 and stats["capacity"] == 2


def test_cache_disabled_at_zero_capacity():
    cache = ResultCache(capacity=0)
    assert not cache.enabled
    cache.put("a", 1)
    assert len(cache) == 0
    assert cache.get("a") is None
    assert cache.misses == 1


def test_cache_version_invalidation():
    cache = ResultCache(capacity=8)
    cache.sync(3)
    cache.put("a", 1)
    cache.sync(3)  # unchanged version keeps entries
    assert cache.get("a") == 1
    cache.sync(4)
    assert cache.invalidations == 1
    assert cache.get("a") is None


def test_cache_flush_on_mid_session_version_bump_drops_stale_entries():
    """Mutating the served graph mid-session must flush *every* cached vector.

    Regression coverage for the versioned-LRU contract: warm the cache with
    several ``(source, faults)`` vectors, bump ``Graph.version`` behind the
    engine's back, and check that the stale entries are gone, the
    invalidation is counted, and post-mutation answers match the reference
    on the mutated graph.
    """
    graph = generators.gnm(16, 50, rng=9, connected=True, weighted=True)
    engine = QueryEngine(SpannerSnapshot(spanner=graph, stretch=1.0),
                         cache_size=32)
    nodes = list(graph.nodes())
    sources = nodes[:4]
    queries = [(s, t) for s in sources for t in nodes[4:10]]
    before = engine.distances_batch(queries)
    assert len(engine.cache) == len(sources)  # one vector per source
    assert engine.cache.invalidations == 0
    version_before = graph.version

    # Structural mutation behind the snapshot: a new shortcut edge between a
    # queried pair that is not yet adjacent.  Version must move and every
    # cached vector must be dropped on the next lookup round.
    shortcut = next((s, t) for s in sources for t in nodes[4:10]
                    if not graph.has_edge(s, t))
    graph.add_edge(*shortcut, 1e-4)
    assert graph.version > version_before
    after = engine.distances_batch(queries)
    assert engine.cache.invalidations == 1
    assert len(engine.cache) == len(sources)  # repopulated, not stale
    reference = [bounded_distance(ExclusionView(graph), s, t, math.inf)
                 for s, t in queries]
    assert after == reference
    assert after != before  # the shortcut edge changed at least one answer

    # Removal-style mutation (recompiles the CSR) invalidates again; the
    # counter records each flush separately, and answers return to the
    # pre-mutation reference once the shortcut is gone.
    graph.remove_edge(*shortcut)
    engine.distances_batch(queries)
    assert engine.cache.invalidations == 2
    assert engine.distances_batch(queries) == before
    stats = engine.stats()["cache"]
    assert stats["invalidations"] == 2 and stats["entries"] == len(sources)


def test_engine_invalidates_on_graph_version_change():
    graph = generators.gnm(14, 40, rng=2, connected=True, weighted=True)
    engine = QueryEngine(SpannerSnapshot(spanner=graph, stretch=1.0),
                         cache_size=32)
    nodes = list(graph.nodes())
    before = engine.distance(nodes[0], nodes[1])
    # First repeat promotes the key past the admission threshold (cached
    # vector computed), second repeat is served from cache.
    assert engine.distance(nodes[0], nodes[1]) == before
    assert engine.distance(nodes[0], nodes[1]) == before
    assert engine.cache.hits >= 1
    # Mutating the served graph must flush cached vectors, not serve stale ones.
    graph.add_edge(nodes[0], nodes[1], 1e-3)
    after = engine.distance(nodes[0], nodes[1])
    assert after == 1e-3
    assert engine.cache.invalidations == 1
    # And answers keep matching the reference on the mutated graph.
    assert after == bounded_distance(ExclusionView(graph), nodes[0], nodes[1],
                                     math.inf)


# --------------------------------------------------------------------------
# Snapshots
# --------------------------------------------------------------------------

def test_snapshot_roundtrip_with_original_and_metadata(tmp_path):
    graph = generators.gnm(16, 48, rng=5, connected=True)
    result = ft_greedy_spanner(graph, 3, 1)
    snapshot = SpannerSnapshot.from_result(result)
    assert snapshot.metadata["oracle"] == "tiered"
    path = tmp_path / "spanner.snapshot.json"
    snapshot.save(path)
    assert SpannerSnapshot.is_snapshot_file(path)
    loaded = SpannerSnapshot.load(path)
    assert loaded.spanner.same_structure(snapshot.spanner)
    assert loaded.original.same_structure(graph)
    assert loaded.stretch == 3 and loaded.max_faults == 1
    assert loaded.fault_model == "vertex"
    assert loaded.algorithm == result.algorithm
    # A served engine over the loaded snapshot answers like the in-memory one.
    nodes = list(graph.nodes())
    queries = [Query(nodes[i], nodes[-1 - i]) for i in range(5)]
    assert QueryEngine(loaded).distances_batch(queries) == \
        QueryEngine(snapshot).distances_batch(queries)


def test_snapshot_file_detection_rejects_plain_graphs(tmp_path):
    graph = Graph(edges=[(0, 1)])
    graph_path = tmp_path / "graph.json"
    save_graph_auto(graph, graph_path)
    assert not SpannerSnapshot.is_snapshot_file(graph_path)
    assert not SpannerSnapshot.is_snapshot_file(tmp_path / "missing.json")
    assert not SpannerSnapshot.is_snapshot_file(tmp_path / "graph.edges")


def test_snapshot_from_graph_files_uses_auto_dispatch(tmp_path):
    graph = generators.gnm(10, 20, rng=1, connected=True)
    spanner_path = tmp_path / "spanner.edges"  # edge list on purpose
    original_path = tmp_path / "original.json"
    save_graph_auto(graph, spanner_path)
    save_graph_auto(graph, original_path)
    snapshot = SpannerSnapshot.from_graph_files(
        spanner_path, original_path=original_path, stretch=3.0, max_faults=1)
    assert snapshot.spanner.number_of_edges() == graph.number_of_edges()
    assert snapshot.original is not None
    assert snapshot.describe()["has_original"]


def test_snapshot_rejects_unknown_fault_model():
    with pytest.raises(ValueError):
        SpannerSnapshot(spanner=Graph(edges=[(0, 1)]), stretch=1.0,
                        fault_model="bogus")


def test_load_save_graph_auto_roundtrip(tmp_path):
    graph = generators.gnm(8, 14, rng=4, connected=True, weighted=True)
    for name in ("g.json", "g.edges"):
        path = tmp_path / name
        save_graph_auto(graph, path)
        assert load_graph_auto(path).same_structure(graph)


# --------------------------------------------------------------------------
# Stretch audits
# --------------------------------------------------------------------------

def test_stretch_audit_within_budget_honours_construction():
    graph = generators.gnm(14, 50, rng=9, connected=True, weighted=True)
    snapshot = SpannerSnapshot.from_result(ft_greedy_spanner(graph, 3, 1))
    engine = QueryEngine(snapshot)
    rng = RandomSource(0)
    nodes = list(graph.nodes())
    for _ in range(25):
        source, target = rng.sample(nodes, 2)
        fault = (rng.choice([n for n in nodes if n not in (source, target)]),)
        audit = engine.stretch_audit(source, target, fault)
        assert audit.within_budget
        assert audit.ok, f"stretch {audit.stretch} for faults {fault}"
        assert audit.stretch >= 1.0 or math.isinf(audit.spanner_distance)
    assert engine.audits == 25


def test_stretch_audit_requires_original():
    engine = QueryEngine(SpannerSnapshot(spanner=Graph(edges=[(0, 1)]),
                                         stretch=1.0))
    with pytest.raises(EngineError):
        engine.stretch_audit(0, 1)


def test_stretch_audit_of_identical_endpoints():
    graph = Graph(edges=[(0, 1)])
    snapshot = SpannerSnapshot(spanner=graph.copy(), stretch=3.0,
                               original=graph)
    audit = QueryEngine(snapshot).stretch_audit(0, 0)
    assert audit.spanner_distance == 0.0 and audit.original_distance == 0.0
    assert audit.stretch == 1.0 and audit.ok  # must not divide 0/0


def test_audit_kernel_calls_do_not_skew_batching_savings():
    graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
    snapshot = SpannerSnapshot(spanner=graph.copy(), stretch=3.0,
                               original=graph)
    engine = QueryEngine(snapshot)
    for _ in range(3):
        engine.stretch_audit(0, 2)
    stats = engine.stats()
    assert stats["audit_kernel_calls"] == 3
    assert stats["kernel_calls_saved"] >= 0


def test_stretch_audit_disconnected_pair_is_vacuous():
    graph = Graph(edges=[(0, 1)])
    graph.add_node(2)  # isolated: unreachable in G and H
    snapshot = SpannerSnapshot(spanner=graph.copy(), stretch=1.0,
                               original=graph)
    audit = QueryEngine(snapshot).stretch_audit(0, 2)
    assert math.isinf(audit.original_distance)
    assert audit.stretch == 1.0 and audit.ok


# --------------------------------------------------------------------------
# Workload generators
# --------------------------------------------------------------------------

def test_workloads_are_deterministic_and_well_formed():
    graph = generators.gnm(20, 60, rng=6, connected=True)
    for maker in (
        lambda seed: uniform_workload(graph, 50, max_faults=2, rng=seed),
        lambda seed: zipf_workload(graph, 50, max_faults=2, rng=seed),
        lambda seed: fault_churn_sessions(graph, 5, 10, max_faults=2, rng=seed),
    ):
        first, second = maker(13), maker(13)
        assert first == second
        assert first != maker(14)
        for query in first:
            assert graph.has_node(query.source)
            assert graph.has_node(query.target)
            assert len(query.faults) <= 2


def test_zipf_workload_is_source_skewed_and_pooled():
    graph = generators.gnm(40, 120, rng=8, connected=True)
    queries = zipf_workload(graph, 400, skew=1.3, max_faults=2,
                            fault_pool=4, rng=3)
    sources = {}
    fault_sets = set()
    for query in queries:
        sources[query.source] = sources.get(query.source, 0) + 1
        fault_sets.add(frozenset(query.faults))
        assert query.source != query.target
    assert len(fault_sets) <= 4
    # The most popular source dominates a uniform share by a wide margin.
    assert max(sources.values()) > 3 * (400 / graph.number_of_nodes())


def test_fault_churn_sessions_share_faults_within_a_session():
    graph = generators.gnm(15, 40, rng=2, connected=True)
    queries = fault_churn_sessions(graph, 4, 10, max_faults=2, rng=5)
    assert len(queries) == 40
    for start in range(0, 40, 10):
        session = queries[start:start + 10]
        assert len({q.faults for q in session}) == 1


def test_edge_fault_workloads_draw_edges():
    graph = generators.gnm(12, 30, rng=1, connected=True)
    queries = uniform_workload(graph, 30, max_faults=2, fault_model="edge",
                               rng=0)
    saw_fault = False
    for query in queries:
        for u, v in query.faults:
            saw_fault = True
            assert graph.has_edge(u, v)
    assert saw_fault


def test_split_batches_covers_stream():
    queries = [Query(0, i) for i in range(10)]
    batches = list(split_batches(queries, 4))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert [q for batch in batches for q in batch] == queries
    with pytest.raises(ValueError):
        list(split_batches(queries, 0))


def test_workload_rejects_trivial_graphs():
    with pytest.raises(ValueError):
        uniform_workload(Graph(nodes=[0]), 5)


# --------------------------------------------------------------------------
# Stats report
# --------------------------------------------------------------------------

def test_stats_report_is_json_serialisable_and_counts_savings():
    graph = generators.gnm(18, 70, rng=12, connected=True, weighted=True)
    engine = QueryEngine(SpannerSnapshot(spanner=graph, stretch=1.0),
                         cache_size=64)
    queries = zipf_workload(graph, 200, max_faults=1, fault_pool=3, rng=4)
    for batch in split_batches(queries, 32):
        engine.distances_batch(batch)
    stats = engine.stats()
    json.dumps(stats)  # must serialise for the --json CLI path
    assert stats["queries_served"] == 200
    assert stats["batches_planned"] == 7
    assert stats["kernel_calls"] < stats["queries_served"]
    assert stats["kernel_calls_saved"] == \
        stats["queries_served"] - stats["kernel_calls"]
    assert stats["cache"]["hits"] > 0
    assert stats["queries_per_second"] > 0
