"""CSR snapshot + kernel equivalence tests.

The contract of :mod:`repro.graph.csr` / :mod:`repro.paths.kernels` is exact
behavioural equivalence with the dict-based reference path (``ExclusionView``
+ the view implementations in :mod:`repro.paths`): same distances, same
witness paths, same dict insertion order, and therefore byte-identical
spanners.  These tests drive that contract property-style on random graphs
with random fault masks, check that the oracle, verification and adversarial
entry points accept nothing but a ``Graph`` (views raise ``TypeError``), and
exercise the snapshot lifecycle (version-keyed caching, incremental append,
overflow compaction).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.adversarial import (
    random_fault_trial,
    stretch_under_faults,
    worst_case_fault_set,
)
from repro.graph.core import Graph, edge_key
from repro.graph.csr import CSRGraph, csr_snapshot
from repro.graph.views import ExclusionView
from repro.paths.bfs import _bfs_core
from repro.graph import generators
from repro.paths.kernels import (
    bfs_distances_csr,
    bidirectional_bounded_path_csr,
    bounded_bfs_csr,
    bounded_dijkstra_csr,
    bounded_dijkstra_path_csr,
    path_length_csr,
    sssp_dijkstra_csr,
)
from repro.spanners.fault_check import get_oracle
from repro.spanners.verify import is_ft_spanner, stretch_of
from repro.utils.rng import RandomSource

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------
# Reference implementations (dict/view path, pre-CSR semantics)
# --------------------------------------------------------------------------

def _ref_bounded_distance(graph, source, target, budget):
    """The seed ``bounded_distance`` (dispatch-free, works on views)."""
    from heapq import heappop, heappush
    from itertools import count
    if not graph.has_node(source) or not graph.has_node(target):
        return math.inf
    if source == target:
        return 0.0
    visited = set()
    tiebreak = count()
    heap = [(0.0, next(tiebreak), source)]
    while heap:
        dist, _, node = heappop(heap)
        if node in visited:
            continue
        if dist > budget:
            return math.inf
        if node == target:
            return dist
        visited.add(node)
        for neighbor, weight in graph.adjacency(node).items():
            if neighbor in visited:
                continue
            candidate = dist + weight
            if candidate <= budget:
                heappush(heap, (candidate, next(tiebreak), neighbor))
    return math.inf


def _ref_bounded_path(graph, source, target, budget):
    """The seed ``bounded_path`` (dispatch-free, works on views)."""
    from heapq import heappop, heappush
    from itertools import count
    if not graph.has_node(source) or not graph.has_node(target):
        return math.inf, []
    if source == target:
        return 0.0, [source]
    visited = set()
    parents = {}
    tiebreak = count()
    heap = [(0.0, next(tiebreak), source, None)]
    while heap:
        dist, _, node, parent = heappop(heap)
        if node in visited:
            continue
        if dist > budget:
            return math.inf, []
        if parent is not None:
            parents[node] = parent
        if node == target:
            path = [target]
            while path[-1] != source:
                path.append(parents[path[-1]])
            path.reverse()
            return dist, path
        visited.add(node)
        for neighbor, weight in graph.adjacency(node).items():
            if neighbor in visited:
                continue
            candidate = dist + weight
            if candidate <= budget:
                heappush(heap, (candidate, next(tiebreak), neighbor, node))
    return math.inf, []


def _ref_dijkstra_distances(graph, source, cutoff=None):
    """The seed ``dijkstra_distances`` (dispatch-free, works on views)."""
    from heapq import heappop, heappush
    from itertools import count
    distances = {}
    tiebreak = count()
    heap = [(0.0, next(tiebreak), source)]
    while heap:
        dist, _, node = heappop(heap)
        if node in distances:
            continue
        if cutoff is not None and dist > cutoff:
            continue
        distances[node] = dist
        for neighbor, weight in graph.adjacency(node).items():
            if neighbor in distances:
                continue
            candidate = dist + weight
            if cutoff is not None and candidate > cutoff:
                continue
            heappush(heap, (candidate, next(tiebreak), neighbor))
    return distances


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

@st.composite
def masked_instances(draw, max_nodes=10, weighted=True):
    """A random graph plus a random vertex fault set and edge fault set."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    density = draw(st.floats(min_value=0.2, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = RandomSource(seed)
    graph = Graph(nodes=range(n))
    order = list(range(n))
    rng.shuffle(order)
    for index in range(1, n):
        anchor = order[rng.randint(0, index - 1)]
        weight = rng.uniform(1.0, 5.0) if weighted else 1.0
        graph.add_edge(order[index], anchor, weight)
    for u in range(n):
        for v in range(u + 1, n):
            if not graph.has_edge(u, v) and rng.bernoulli(density):
                weight = rng.uniform(1.0, 5.0) if weighted else 1.0
                graph.add_edge(u, v, weight)
    num_vertex_faults = draw(st.integers(min_value=0, max_value=max(0, n - 2)))
    vertex_faults = [order[i] for i in range(num_vertex_faults)]
    edges = list(graph.edge_keys())
    num_edge_faults = draw(st.integers(min_value=0, max_value=min(4, len(edges))))
    edge_faults = edges[:num_edge_faults]
    source = draw(st.integers(min_value=0, max_value=n - 1))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    budget = draw(st.floats(min_value=0.5, max_value=12.0))
    return graph, vertex_faults, edge_faults, source, target, budget


# --------------------------------------------------------------------------
# Kernel vs reference equivalence under random fault masks
# --------------------------------------------------------------------------

@SETTINGS
@given(masked_instances())
def test_bounded_dijkstra_csr_matches_view_reference(instance):
    graph, vertex_faults, edge_faults, source, target, budget = instance
    view = ExclusionView(graph, excluded_nodes=vertex_faults,
                         excluded_edges=edge_faults)
    expected = _ref_bounded_distance(view, source, target, budget)
    csr = csr_snapshot(graph)
    got = bounded_dijkstra_csr(
        csr, csr.index_of[source], csr.index_of[target], budget,
        csr.vertex_fault_mask(vertex_faults),
        csr.edge_fault_mask(edge_faults),
    )
    assert got == expected


@SETTINGS
@given(masked_instances())
def test_bounded_dijkstra_path_csr_matches_view_reference(instance):
    graph, vertex_faults, edge_faults, source, target, budget = instance
    view = ExclusionView(graph, excluded_nodes=vertex_faults,
                         excluded_edges=edge_faults)
    expected_dist, expected_path = _ref_bounded_path(view, source, target, budget)
    csr = csr_snapshot(graph)
    got_dist, index_path = bounded_dijkstra_path_csr(
        csr, csr.index_of[source], csr.index_of[target], budget,
        csr.vertex_fault_mask(vertex_faults),
        csr.edge_fault_mask(edge_faults),
    )
    assert got_dist == expected_dist
    # The witness path must match node-for-node: the oracles branch on its
    # elements, so any deviation would change spanner outputs.
    assert [csr.node_of[i] for i in index_path] == expected_path


@SETTINGS
@given(masked_instances())
def test_sssp_csr_matches_view_reference_including_order(instance):
    graph, vertex_faults, edge_faults, source, _, _ = instance
    if source in vertex_faults:
        return
    view = ExclusionView(graph, excluded_nodes=vertex_faults,
                         excluded_edges=edge_faults)
    expected = _ref_dijkstra_distances(view, source)
    csr = csr_snapshot(graph)
    dist, order = sssp_dijkstra_csr(
        csr, csr.index_of[source], None,
        csr.vertex_fault_mask(vertex_faults),
        csr.edge_fault_mask(edge_faults),
    )
    got = {csr.node_of[i]: dist[i] for i in order}
    assert got == expected
    # Settle order (== reference dict insertion order) must match too.
    assert list(got) == list(expected)


@SETTINGS
@given(masked_instances(weighted=False))
def test_bfs_kernels_match_view_reference(instance):
    graph, vertex_faults, edge_faults, source, target, _ = instance
    view = ExclusionView(graph, excluded_nodes=vertex_faults,
                         excluded_edges=edge_faults)
    csr = csr_snapshot(graph)
    vmask = csr.vertex_fault_mask(vertex_faults)
    emask = csr.edge_fault_mask(edge_faults)
    for max_hops in (None, 2):
        if source not in vertex_faults:
            expected, _ = _bfs_core(view, source, max_hops)
            dist, order = bfs_distances_csr(csr, csr.index_of[source], max_hops,
                                            vmask, emask)
            got = {csr.node_of[i]: dist[i] for i in order}
            assert got == expected
        if view.has_node(source) and view.has_node(target):
            if source == target:
                expected_hop = 0.0
            else:
                _, found = _bfs_core(view, source, max_hops, target=target)
                expected_hop = float(found) if found is not None else math.inf
            got_hop = bounded_bfs_csr(csr, csr.index_of[source],
                                      csr.index_of[target], max_hops,
                                      vmask, emask)
            assert got_hop == expected_hop


# --------------------------------------------------------------------------
# Entry points: a Graph in, the CSR snapshot + masks underneath
# --------------------------------------------------------------------------

def _oracle_call(name):
    return lambda graph: get_oracle(name).find_breaking_fault_set(
        graph, 0, 2, 1.5, 1, "vertex")


_VIEW_ENTRY_POINTS = [
    *(pytest.param(_oracle_call(name), 1, id=f"oracle-{name}")
      for name in ("exhaustive", "branch-and-bound", "tiered",
                   "greedy-path-packing")),
    pytest.param(lambda g, h: is_ft_spanner(g, h, 3, 1), 2,
                 id="is_ft_spanner"),
    pytest.param(stretch_of, 2, id="stretch_of"),
    pytest.param(lambda g, h: stretch_under_faults(g, h, "vertex", [1]), 2,
                 id="stretch_under_faults"),
    pytest.param(lambda g, h: worst_case_fault_set(g, h, "vertex", 1), 2,
                 id="worst_case_fault_set"),
    pytest.param(lambda g, h: random_fault_trial(g, h, "vertex", 1, 3, rng=0),
                 2, id="random_fault_trial"),
]


@pytest.mark.parametrize("entry, arity", _VIEW_ENTRY_POINTS)
def test_entry_points_raise_type_error_on_views(entry, arity):
    graph = Graph(edges=[(0, 1), (1, 2), (0, 2, 3.0)])
    view = ExclusionView(graph)
    for position in range(arity):
        args = [graph] * arity
        args[position] = view
        with pytest.raises(TypeError, match="expected a Graph"):
            entry(*args)


# --------------------------------------------------------------------------
# The bidirectional decision kernel vs the forward kernel
# --------------------------------------------------------------------------

#: The band the tiered oracle leaves to the forward kernel (see
#: ``repro.spanners.fault_check._BAND``).
BAND = 1e-9


def _bidirectional_case(kind, seed):
    """A seeded G(n, m) snapshot of one shape, plus its RNG."""
    rng = RandomSource(seed)
    if kind == "disconnected":
        graph = generators.gnm(24, 18, rng=seed, weighted=True)
    else:
        graph = generators.gnm(24, 60, rng=seed, connected=True,
                               weighted=kind != "unweighted")
    csr = csr_snapshot(graph)
    if kind == "overflow":
        # Appends after the compile land in the overflow buckets, which
        # the kernels walk after each node's compact slice.
        nodes = list(graph.nodes())
        while csr._extra_count < 8:
            u, v = rng.sample(nodes, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, rng.uniform(1.0, 10.0))
        assert csr_snapshot(graph) is csr
    return csr, rng


def _assert_live_path(csr, path, source, target, vertex_mask, edge_mask):
    assert path[0] == source and path[-1] == target
    for node in path:
        assert vertex_mask is None or not vertex_mask[node]
    live = {(u, v) for u in range(csr.num_nodes)
            for v, _, eid in csr.arcs(u)
            if edge_mask is None or not edge_mask[eid]}
    live.update((u, v) for u, bucket in csr._extra.items()
                for v, _, eid in bucket
                if edge_mask is None or not edge_mask[eid])
    for u, v in zip(path, path[1:]):
        assert (u, v) in live, (u, v)


@pytest.mark.parametrize("kind", ["weighted", "unweighted", "disconnected",
                                  "overflow"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bidirectional_kernel_agrees_with_forward_outside_the_band(kind, seed):
    csr, rng = _bidirectional_case(kind, seed)
    n = csr.num_nodes
    checked_paths = 0
    for query in range(120):
        source, target = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if query % 10 == 0:
            target = source
        vertex_mask = edge_mask = None
        if query % 3 != 0:
            vertex_mask = bytearray(n)
            for node in rng.sample(range(n), 3):
                vertex_mask[node] = 1
            if query % 11 == 0:
                vertex_mask[source] = 1  # a masked endpoint is unreachable
        if query % 2:
            edge_mask = bytearray(csr.num_edges)
            for eid in rng.sample(range(csr.num_edges), 4):
                edge_mask[eid] = 1
        exact = bounded_dijkstra_csr(csr, source, target, math.inf,
                                     vertex_mask, edge_mask)
        # Budgets around the real distance, ties included: on unit weights
        # d == budget happens exactly.
        for budget in (exact, exact * 0.75, exact * 1.5, rng.uniform(0.0, 30.0)):
            if math.isnan(budget):
                continue
            forward = bounded_dijkstra_csr(csr, source, target, budget,
                                           vertex_mask, edge_mask)
            dist, path = bidirectional_bounded_path_csr(
                csr, source, target, budget, vertex_mask, edge_mask)
            if exact == math.inf or abs(exact - budget) > BAND * budget:
                assert (dist > budget) == (forward > budget), (query, budget)
            if kind == "unweighted":  # integer sums are exact: no band
                assert (dist > budget) == (forward > budget), (query, budget)
            if dist == math.inf:
                assert path == []
                continue
            assert dist <= budget
            _assert_live_path(csr, path, source, target, vertex_mask,
                              edge_mask)
            assert abs(dist - exact) <= BAND * exact
            assert abs(path_length_csr(csr, path) - exact) <= BAND * exact
            checked_paths += 1
    assert checked_paths > 0


def test_bidirectional_kernel_masked_endpoint_and_self_query():
    csr = csr_snapshot(Graph(edges=[(0, 1), (1, 2)]))
    assert bidirectional_bounded_path_csr(csr, 1, 1, 0.0) == (0.0, [1])
    mask = bytearray(3)
    mask[2] = 1
    assert bidirectional_bounded_path_csr(csr, 0, 2, 9.0, mask) == (math.inf, [])
    assert bidirectional_bounded_path_csr(csr, 2, 2, 9.0, mask) == (math.inf, [])
    assert bidirectional_bounded_path_csr(csr, 0, 2, 2.0) == (2.0, [0, 1, 2])
    assert bidirectional_bounded_path_csr(csr, 0, 2, 1.5) == (math.inf, [])


# --------------------------------------------------------------------------
# Snapshot lifecycle: interning, incremental append, compaction, caching
# --------------------------------------------------------------------------

def test_incremental_append_matches_from_graph():
    rng = RandomSource(7)
    graph = Graph(nodes=range(30))
    incremental = csr_snapshot(graph)  # compiled while empty, then appended to
    edges = []
    for u in range(30):
        for v in range(u + 1, 30):
            if rng.bernoulli(0.4):
                edges.append((u, v, rng.uniform(1.0, 4.0)))
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    assert csr_snapshot(graph) is incremental  # kept in sync, never recompiled
    fresh = CSRGraph.from_graph(graph)
    assert incremental.node_of == fresh.node_of
    assert incremental.edge_index == fresh.edge_index
    for source in range(0, 30, 7):
        for target in range(1, 30, 5):
            a = bounded_dijkstra_csr(incremental, source, target, 9.0)
            b = bounded_dijkstra_csr(fresh, source, target, 9.0)
            assert a == b
    # Folding the overflow must not change the arc order the kernels see.
    incremental.compact()
    assert incremental.indices == fresh.indices
    assert incremental.weights == fresh.weights
    assert incremental.edge_ids == fresh.edge_ids
    assert incremental.indptr == fresh.indptr


def test_snapshot_cache_keyed_on_version():
    graph = Graph(edges=[(0, 1), (1, 2), (2, 3)])
    first = csr_snapshot(graph)
    assert csr_snapshot(graph) is first  # unchanged graph: cache hit
    version = graph.version
    graph.add_edge(0, 3)
    assert graph.version > version
    snap = csr_snapshot(graph)
    assert snap is first  # appends keep the snapshot live...
    assert snap.edge_id(0, 3) is not None
    graph.remove_edge(0, 3)
    rebuilt = csr_snapshot(graph)
    assert rebuilt is not first  # ...removals force a recompile
    assert rebuilt.edge_id(0, 3) is None
    # Weight overwrites also invalidate (CSR weights are baked in).
    graph.add_edge(0, 1, 5.0)
    assert csr_snapshot(graph).weights[0] == 5.0


def test_graph_version_bumps_on_every_mutation():
    graph = Graph()
    before = graph.version
    graph.add_node("a")
    assert graph.version > before
    before = graph.version
    graph.add_node("a")  # idempotent re-add: no structural change
    assert graph.version == before
    graph.add_edge("a", "b")
    assert graph.version > before
    before = graph.version
    graph.add_edge("a", "b", 2.0)  # weight overwrite is a mutation
    assert graph.version > before
    before = graph.version
    graph.remove_edge("a", "b")
    assert graph.version > before
    before = graph.version
    graph.remove_node("b")
    assert graph.version > before


def test_edge_ids_are_stable_across_compaction():
    graph = Graph(nodes=range(10))
    snap = csr_snapshot(graph)
    ids = {}
    rng = RandomSource(3)
    for u in range(10):
        for v in range(u + 1, 10):
            if rng.bernoulli(0.8):
                graph.add_edge(u, v)
                ids[edge_key(u, v)] = snap.edge_id(u, v)
    snap.compact()
    for (u, v), eid in ids.items():
        assert snap.edge_id(u, v) == eid


# --------------------------------------------------------------------------
# Interleaved add/remove: version-bump and cache-staleness audit
# --------------------------------------------------------------------------
# Removals drop the cached snapshot outright (no in-place patching), so the
# hazard to guard is *aliasing*: a remove -> add round trip of the same edge
# key must never leave any version-keyed consumer able to mistake the new
# structure for the old one.

def test_remove_then_readd_same_edge_key_recompiles_fresh():
    """Regression: snapshot staleness after remove -> add of one edge key."""
    graph = Graph(edges=[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 2.0)])
    stale = csr_snapshot(graph)
    stale_version = stale.graph_version
    old_eid = stale.edge_id(0, 1)
    graph.remove_edge(0, 1)
    graph.add_edge(0, 1, 7.5)  # same key, different weight
    # The version counter is monotone: the round trip can never re-reach the
    # version the stale snapshot was compiled at, so version-keyed caches
    # (csr_snapshot itself, the engine's result cache) cannot alias it.
    assert graph.version > stale_version
    assert stale.graph_version == stale_version  # untouched, held by us only
    rebuilt = csr_snapshot(graph)
    assert rebuilt is not stale
    assert rebuilt.graph_version == graph.version
    # The recompiled snapshot serves the *new* weight on every arc of {0,1}.
    eid = rebuilt.edge_id(0, 1)
    assert eid is not None
    arc_weights = [w for index in (0, 1)
                   for _, w, e in rebuilt.arcs(index) if e == eid]
    assert arc_weights == [7.5, 7.5]
    # ... while the stale object still carries the old one (proving a holder
    # of the old snapshot would have been wrong — which is exactly why the
    # cache key must move).
    stale_weights = [w for index in (0, 1)
                     for _, w, e in stale.arcs(index) if e == old_eid]
    assert stale_weights == [1.0, 1.0]
    assert bounded_dijkstra_csr(rebuilt, 0, 1, 10.0) == 2.0  # via 2, not 7.5


def test_remove_then_readd_under_live_incremental_snapshot():
    """The round trip also invalidates snapshots holding overflow appends."""
    graph = Graph(edges=[(0, 1), (1, 2)])
    snap = csr_snapshot(graph)
    graph.add_edge(2, 3)       # lands in the live snapshot's overflow
    assert csr_snapshot(graph) is snap
    graph.remove_edge(2, 3)    # removal of an overflow arc drops the cache
    assert csr_snapshot(graph) is not snap
    graph.add_edge(2, 3, 4.0)  # same key back, new weight
    rebuilt = csr_snapshot(graph)
    assert rebuilt.edge_id(2, 3) is not None
    assert [w for _, w, _ in rebuilt.arcs(rebuilt.index_of[3])] == [4.0]


def test_remove_node_then_readd_reindexes_consistently():
    """remove_node -> re-add of the node and its edges recompiles cleanly."""
    graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (1, 3)])
    csr_snapshot(graph)
    graph.remove_node(1)
    assert graph._csr_cache is None  # removal dropped the live snapshot
    graph.add_edge(1, 0, 2.0)  # node 1 returns with a different neighbourhood
    rebuilt = csr_snapshot(graph)
    # Node 1 re-interned at the *end* of insertion order now.
    assert rebuilt.node_of.index(1) == len(rebuilt.node_of) - 1
    assert rebuilt.edge_id(0, 1) is not None
    assert rebuilt.edge_id(1, 2) is None
    assert rebuilt.edge_id(1, 3) is None


def test_interleaved_add_remove_matches_fresh_compile():
    """Property-style audit: any interleaving ends bit-identical to a fresh compile."""
    rng = RandomSource(2026)
    graph = Graph(nodes=range(12))
    alive = {}
    for step in range(300):
        u, v = rng.sample(range(12), 2)
        key = edge_key(u, v)
        if key in alive and rng.bernoulli(0.45):
            graph.remove_edge(u, v)
            del alive[key]
        elif key in alive and rng.bernoulli(0.3):
            weight = rng.uniform(0.5, 3.0)
            graph.add_edge(u, v, weight)  # overwrite (drops the cache)
            alive[key] = weight
        elif key not in alive:
            weight = rng.uniform(0.5, 3.0)
            graph.add_edge(u, v, weight)
            alive[key] = weight
        if step % 23 == 0:
            snap = csr_snapshot(graph)  # sometimes keep a live snapshot warm
            assert snap.graph_version == graph.version
    snap = csr_snapshot(graph)
    fresh = CSRGraph.from_graph(graph)
    assert snap.node_of == fresh.node_of
    assert snap.edge_index == fresh.edge_index
    assert snap.num_edges == len(alive) == graph.number_of_edges()
    snap.compact()
    assert snap.indptr == fresh.indptr
    assert snap.indices == fresh.indices
    assert snap.weights == fresh.weights
    assert snap.edge_ids == fresh.edge_ids
