"""Property-based tests (hypothesis) for core invariants.

These exercise the library on arbitrary random inputs rather than hand-picked
instances: graph algebra invariants, shortest-path metric properties, greedy
spanner guarantees for arbitrary stretch/weights, fault-check oracle
soundness, and Lemma 3 invariants.  Sizes are deliberately small so hypothesis
can explore many cases quickly.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.models import get_fault_model
from repro.graph import generators
from repro.graph.core import Graph, edge_key
from repro.graph.csr import csr_snapshot
from repro.graph.girth import enumerate_short_cycles, girth
from repro.graph.views import graph_minus
from repro.paths.dijkstra import bounded_distance, dijkstra_distances, shortest_path
from repro.paths.kernels import bounded_dijkstra_csr
from repro.spanners.blocking import extract_blocking_set, is_blocking_set
from repro.spanners.fault_check import BranchAndBoundOracle
from repro.spanners.ft_greedy import ft_greedy_spanner
from repro.spanners.greedy import greedy_spanner
from repro.spanners.verify import is_spanner, stretch_of
from repro.utils.rng import RandomSource

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

@st.composite
def small_graphs(draw, max_nodes=10, weighted=False, connected_bias=True):
    """Random simple graphs with up to ``max_nodes`` nodes."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    density = draw(st.floats(min_value=0.2, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = RandomSource(seed)
    graph = Graph(nodes=range(n))
    if connected_bias:
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
    return graph


# --------------------------------------------------------------------------
# Graph invariants
# --------------------------------------------------------------------------

@SETTINGS
@given(small_graphs())
def test_handshake_lemma(graph):
    assert sum(graph.degree(node) for node in graph.nodes()) == 2 * graph.number_of_edges()


@SETTINGS
@given(small_graphs())
def test_copy_round_trip(graph):
    assert graph.copy().same_structure(graph)


@SETTINGS
@given(small_graphs(), st.integers(min_value=0, max_value=9))
def test_node_removal_view_matches_materialised_subgraph(graph, index):
    nodes = list(graph.nodes())
    victim = nodes[index % len(nodes)]
    view = graph_minus(graph, nodes=[victim])
    materialised = graph.subgraph([node for node in nodes if node != victim])
    assert view.number_of_edges() == materialised.number_of_edges()
    assert set(view.nodes()) == set(materialised.nodes())


@SETTINGS
@given(small_graphs())
def test_girth_never_below_three(graph):
    value = girth(graph)
    assert value >= 3


@SETTINGS
@given(small_graphs(max_nodes=8))
def test_short_cycle_enumeration_consistent_with_girth(graph):
    g = girth(graph, cutoff=6)
    cycles = enumerate_short_cycles(graph, 6)
    if g <= 6:
        assert any(len(cycle) == g for cycle in cycles)
        assert min(len(cycle) for cycle in cycles) == g
    else:
        assert cycles == []


# --------------------------------------------------------------------------
# Shortest-path metric properties
# --------------------------------------------------------------------------

@SETTINGS
@given(small_graphs(weighted=True))
def test_dijkstra_triangle_inequality(graph):
    nodes = list(graph.nodes())
    source = nodes[0]
    distances = dijkstra_distances(graph, source)
    for u, v, w in graph.edges():
        if u in distances and v in distances:
            assert distances[v] <= distances[u] + w + 1e-9
            assert distances[u] <= distances[v] + w + 1e-9


@SETTINGS
@given(small_graphs(weighted=True))
def test_shortest_path_is_consistent_with_distance(graph):
    nodes = list(graph.nodes())
    source, target = nodes[0], nodes[-1]
    distance, path = shortest_path(graph, source, target)
    if distance == math.inf:
        assert path == []
        return
    assert path[0] == source and path[-1] == target
    total = sum(graph.weight(path[i], path[i + 1]) for i in range(len(path) - 1))
    assert total == distance or abs(total - distance) < 1e-9


@SETTINGS
@given(small_graphs(weighted=True), st.floats(min_value=0.5, max_value=10.0))
def test_bounded_distance_agrees_with_dijkstra(graph, budget):
    nodes = list(graph.nodes())
    source, target = nodes[0], nodes[-1]
    exact = dijkstra_distances(graph, source).get(target, math.inf)
    bounded = bounded_distance(graph, source, target, budget)
    if exact <= budget:
        assert bounded == exact or abs(bounded - exact) < 1e-9
    else:
        assert bounded == math.inf


# --------------------------------------------------------------------------
# Spanner guarantees
# --------------------------------------------------------------------------

@SETTINGS
@given(small_graphs(weighted=True), st.sampled_from([1.5, 2.0, 3.0, 5.0]))
def test_greedy_spanner_respects_stretch(graph, stretch):
    result = greedy_spanner(graph, stretch)
    assert result.spanner.is_subgraph_of(graph)
    assert stretch_of(graph, result.spanner) <= stretch * (1 + 1e-9)


@SETTINGS
@given(small_graphs(weighted=False), st.sampled_from([3.0, 5.0]))
def test_greedy_spanner_girth_guarantee(graph, stretch):
    result = greedy_spanner(graph, stretch)
    bound = int(stretch) + 1
    assert girth(result.spanner, cutoff=bound) > bound


@SETTINGS
@given(small_graphs(max_nodes=8, weighted=True), st.integers(min_value=0, max_value=2))
def test_ft_greedy_is_plain_spanner_and_subgraph(graph, faults):
    result = ft_greedy_spanner(graph, 3, faults)
    assert result.spanner.is_subgraph_of(graph)
    assert is_spanner(graph, result.spanner, 3)


@SETTINGS
@given(small_graphs(max_nodes=7), st.sampled_from(["vertex", "edge"]))
def test_ft_greedy_witnesses_are_genuine(graph, fault_model):
    result = ft_greedy_spanner(graph, 3, 1, fault_model=fault_model)
    model = get_fault_model(fault_model)
    # Replay every witness against the *final* spanner minus the witnessed edge:
    # the witness was valid at insertion time; here we just re-check its shape.
    for (u, v), witness in result.witness_fault_sets.items():
        assert len(witness) <= 1
        if fault_model == "vertex":
            assert u not in witness and v not in witness
        else:
            for element in witness:
                assert element == edge_key(*element)


@pytest.mark.parametrize("kernel", ["loop", "numpy"])
@pytest.mark.parametrize("fault_model", ["vertex", "edge"])
@pytest.mark.parametrize("faults", [1, 2])
@pytest.mark.parametrize("weighted", [False, True])
def test_ft_greedy_witnesses_break_their_prefix(weighted, faults, fault_model,
                                               kernel):
    """Each kept edge's witness F_e breaks e in the spanner built before e.

    Replays the insertion order (the witness map's order) and asks the
    forward kernel on H_{<e} \\ F_e, the graph the oracle saw when it kept
    e: Lemma 3 needs exactly this of every witness, and any breaking set
    will do, so the check holds whichever short paths the search branched on.
    """
    if kernel == "numpy":
        pytest.importorskip("numpy")
    stretch = 3
    model = get_fault_model(fault_model)
    for seed in range(4):
        graph = generators.gnm(16, 48, rng=seed, connected=True,
                               weighted=weighted)
        result = ft_greedy_spanner(graph, stretch, faults, fault_model,
                                   kernel=kernel)
        witnesses = result.witness_fault_sets
        assert set(witnesses) == set(result.spanner.edge_keys())
        prefix = Graph(nodes=graph.nodes())
        for (u, v), witness in witnesses.items():
            assert len(witness) <= faults
            csr = csr_snapshot(prefix)
            if fault_model == "vertex":
                assert u not in witness and v not in witness
                assert all(prefix.has_node(x) for x in witness)
            else:
                assert all(prefix.has_edge(*x) and x == edge_key(*x)
                           for x in witness)
            mask = model.new_mask(csr)
            for index in model.mask_indices(csr, witness):
                mask[index] = 1
            budget = stretch * graph.weight(u, v)
            distance = bounded_dijkstra_csr(
                csr, csr.index_of[u], csr.index_of[v], budget,
                *model.kernel_masks(mask))
            assert distance > budget, (seed, (u, v), witness)
            prefix.add_edge(u, v, graph.weight(u, v))


@SETTINGS
@given(small_graphs(max_nodes=8), st.integers(min_value=1, max_value=2))
def test_lemma3_blocking_set_invariants(graph, faults):
    result = ft_greedy_spanner(graph, 3, faults)
    blocking = extract_blocking_set(result)
    assert blocking.size <= faults * max(result.size, 0)
    assert is_blocking_set(result.spanner, blocking)


# --------------------------------------------------------------------------
# Fault-check oracle soundness
# --------------------------------------------------------------------------

@SETTINGS
@given(small_graphs(max_nodes=8), st.integers(min_value=0, max_value=2),
       st.sampled_from(["vertex", "edge"]))
def test_branch_and_bound_witnesses_are_sound(graph, faults, fault_model):
    oracle = BranchAndBoundOracle()
    model = get_fault_model(fault_model)
    nodes = list(graph.nodes())
    source, target = nodes[0], nodes[-1]
    if source == target:
        return
    budget = 3.0
    witness = oracle.find_breaking_fault_set(graph, source, target, budget, faults, model)
    if witness is None:
        return
    assert len(witness) <= faults
    view = model.apply(graph, witness)
    assert bounded_distance(view, source, target, budget) > budget
