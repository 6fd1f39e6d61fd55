"""The per-edge stretch sweep against the all-pairs definition it replaces.

Without a target restriction, :func:`repro.faults.adversarial.stretch_between_csr`
checks ``d_{H\\F}(u, v) / w(u, v)`` over the edges of ``G \\ F`` only.  Any
shortest path of ``G \\ F`` is made of edges, so that maximum is the worst
pairwise stretch; :func:`all_pairs_stretch` below is the pairwise sweep (one
SSSP in each graph per source) kept as the reference.  The property tests
hold the two together on seeded random graphs for both fault models and both
kernel backends, on spanners that pass and fail and on inputs that are not
subgraphs at all.
"""

from __future__ import annotations

import math

import pytest

from repro.faults.adversarial import (
    stretch_between_csr,
    stretch_under_faults,
    worst_case_fault_set,
)
from repro.faults.enumeration import enumerate_fault_sets
from repro.faults.models import get_fault_model
from repro.graph import generators
from repro.graph.core import Graph
from repro.graph.csr import csr_snapshot
from repro.obs.metrics import get_registry
from repro.paths.registry import get_kernels, kernel_backend_names
from repro.spanners import verify
from repro.spanners.ft_greedy import ft_greedy_spanner
from repro.spanners.greedy import greedy_spanner
from repro.utils.rng import RandomSource

KERNELS = [name for name in ("loop", "numpy") if name in kernel_backend_names()]


def all_pairs_stretch(csr_g, csr_h, model, fault_list, pairs=None, *,
                      sources=None, restrict=None, kernel=None) -> float:
    """Worst ``d_{H\\F}(s, t) / d_{G\\F}(s, t)`` over every pair connected in ``G \\ F``.

    Two full SSSPs per unfaulted source.  Takes the signature of
    ``stretch_between_csr`` so it can stand in for it; only the all-pairs
    case is supported.
    """
    assert pairs is None and sources is None and restrict is None
    vertex = model.uses_vertex_mask
    mask_g = model.new_mask(csr_g)
    for index in model.mask_indices(csr_g, fault_list):
        mask_g[index] = 1
    mask_h = model.new_mask(csr_h)
    for index in model.mask_indices(csr_h, fault_list):
        mask_h[index] = 1
    vm_g, em_g = model.kernel_masks(mask_g)
    vm_h, em_h = model.kernel_masks(mask_h)
    sssp = get_kernels(kernel).sssp_dijkstra_csr
    h_index = csr_h.index_of
    worst = 1.0
    for si, source in enumerate(csr_g.node_of):
        if vertex and mask_g[si]:
            continue
        base_dist, base_order = sssp(csr_g, si, None, vm_g, em_g)
        hs = h_index.get(source)
        if hs is None or (vertex and mask_h[hs]):
            sub_dist = None
        else:
            sub_dist = sssp(csr_h, hs, None, vm_h, em_h)[0]
        for index in base_order:
            base_distance = base_dist[index]
            if index == si or base_distance == 0:
                continue
            j = h_index.get(csr_g.node_of[index])
            if sub_dist is None or j is None:
                ratio = math.inf
            else:
                ratio = sub_dist[j] / base_distance
            if ratio > worst:
                worst = ratio
    return worst


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _variants(graph: Graph, fault_model: str, seed: int) -> dict:
    """Spanners that pass and fail, plus H inputs that are not subgraphs of G."""
    rng = RandomSource(seed)
    nodes = list(graph.nodes())
    edges = list(graph.edges())
    ft = ft_greedy_spanner(graph, 3, 1, fault_model=fault_model).spanner
    plain = greedy_spanner(graph, 3).spanner

    missing = plain.copy()
    missing.remove_node(max(nodes, key=graph.degree))

    extra = ft.copy()
    absent = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
              if not graph.has_edge(u, v)]
    u, v = rng.choice(absent)
    extra.add_edge(u, v, 0.5)

    lighter = plain.copy()
    u, v, w = rng.choice(edges)
    lighter.add_edge(u, v, w / 2)

    # An H edge heavier than G's does not settle (u, v) for free.
    heavier = ft.copy()
    u, v, w = rng.choice(list(ft.edges()))
    heavier.add_edge(u, v, 3 * w)

    half = set(nodes[: len(nodes) // 2])
    split = Graph(nodes=nodes)
    for u, v, w in ft.edges():
        if (u in half) == (v in half):
            split.add_edge(u, v, w)

    return {"ft": ft, "plain": plain, "missing-node": missing,
            "extra-edge": extra, "lighter-edge": lighter,
            "heavier-edge": heavier, "disconnected": split}


def _instance(seed: int) -> Graph:
    # Odd seeds leave G disconnected too (pairs across components are not
    # constrained, so they must not count).
    return generators.gnm(11, 24, rng=seed, weighted=True,
                          connected=seed % 2 == 0)


def _report_fields(report) -> tuple:
    return (report.ok, report.violating_fault_set, report.fault_sets_checked,
            report.exhaustive)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("fault_model", ["vertex", "edge"])
@pytest.mark.parametrize("seed", range(4))
class TestPerEdgeMatchesAllPairs:
    def test_stretch_under_faults(self, seed, fault_model, kernel):
        graph = _instance(seed)
        model = get_fault_model(fault_model)
        rng = RandomSource(seed)
        fault_sets = list(enumerate_fault_sets(model.all_elements(graph), 2))
        picked = [()] + [rng.choice(fault_sets) for _ in range(12)]
        for name, spanner in _variants(graph, fault_model, seed).items():
            for faults in picked:
                value = stretch_under_faults(graph, spanner, model, faults,
                                             kernel=kernel)
                reference = all_pairs_stretch(
                    csr_snapshot(graph), csr_snapshot(spanner), model,
                    list(faults), kernel=kernel)
                assert _close(value, reference), (name, faults, value,
                                                  reference)

    def test_is_ft_spanner_reports(self, seed, fault_model, kernel,
                                   monkeypatch):
        graph = _instance(seed)
        max_faults = 2 if fault_model == "vertex" else 1
        for name, spanner in _variants(graph, fault_model, seed).items():
            for method, budget in (("exhaustive", max_faults),
                                   ("sampled", 2)):
                def run():
                    return verify.is_ft_spanner(
                        graph, spanner, 3, budget, fault_model,
                        method=method, samples=20, rng=seed, kernel=kernel)

                report = run()
                with monkeypatch.context() as patched:
                    patched.setattr(verify, "stretch_between_csr",
                                    all_pairs_stretch)
                    reference = run()
                assert _report_fields(report) == _report_fields(reference), (
                    name, method)
                assert _close(report.worst_stretch, reference.worst_stretch)

    def test_stretch_of_and_worst_case(self, seed, fault_model, kernel):
        graph = _instance(seed)
        model = get_fault_model(fault_model)
        for name, spanner in _variants(graph, fault_model, seed).items():
            csr_g, csr_h = csr_snapshot(graph), csr_snapshot(spanner)
            assert _close(verify.stretch_of(graph, spanner, kernel=kernel),
                          all_pairs_stretch(csr_g, csr_h, model, [],
                                            kernel=kernel)), name
            _, worst = worst_case_fault_set(graph, spanner, model, 1,
                                            method="exhaustive", kernel=kernel)
            reference = max(
                all_pairs_stretch(csr_g, csr_h, model, list(faults),
                                  kernel=kernel)
                for faults in enumerate_fault_sets(model.all_elements(graph),
                                                   1))
            assert _close(worst, reference), name


def test_heavier_h_edge_is_searched():
    # H keeps every edge of the 4-cycle, but (0, 1) only at weight 1.5, so
    # it covers nothing: its ratio 1.5 is the worst stretch.
    graph = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    spanner = graph.copy()
    spanner.add_edge(0, 1, 1.5)
    for fault_model in ("vertex", "edge"):
        assert stretch_under_faults(graph, spanner, fault_model, []) == 1.5


def test_at_most_one_search_per_source():
    # Machine-independent cost gate: ``kernels.dispatch`` counts one search
    # per source with edges left to check, and nothing else per fault set.
    graph = generators.gnm(20, 60, rng=5, weighted=True, connected=True)
    spanner = ft_greedy_spanner(graph, 3, 1).spanner
    registry = get_registry()
    before = registry.counters()
    report = verify.is_ft_spanner(graph, spanner, 3, 1, "vertex",
                                  method="exhaustive", kernel="loop")
    dispatched = sum(value for name, value
                     in registry.counters_delta(before).items()
                     if name.split("{")[0] == "kernels.dispatch")
    assert report.ok
    assert 0 < dispatched <= (report.fault_sets_checked
                              * graph.number_of_nodes())


class TestEdgePlanMemo:
    def test_plan_follows_in_place_mutations(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        spanner = graph.copy()
        model = get_fault_model("vertex")

        def check(expected):
            value = stretch_under_faults(graph, spanner, model, [])
            reference = all_pairs_stretch(csr_snapshot(graph),
                                          csr_snapshot(spanner), model, [])
            assert value == reference == expected

        check(1.0)
        csr_g, csr_h = csr_snapshot(graph), csr_snapshot(spanner)
        plan = csr_h._nd_views["edge_plan"][2]
        check(1.0)
        assert csr_h._nd_views["edge_plan"][2] is plan
        # A weight overwrite recompiles H: (0, 1) is no longer covered and
        # its H detour 0-3-2-1 has length 3.
        spanner.add_edge(0, 1, 10.0)
        check(3.0)
        # Appending to G grows its snapshot in place: the new edge (1, 3)
        # needs a search, and its H distance 2 is 4x its weight.
        graph.add_edge(1, 3, 0.5)
        assert csr_snapshot(graph) is csr_g
        check(4.0)

    def test_plan_follows_spanner_growth(self):
        # H starts without node 3 (infinite stretch) and gains it in place.
        graph = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        spanner = Graph(edges=[(0, 1), (1, 2)])
        assert stretch_under_faults(graph, spanner, "vertex", []) == math.inf
        csr_h = csr_snapshot(spanner)
        spanner.add_edge(2, 3)
        assert csr_snapshot(spanner) is csr_h
        assert stretch_under_faults(graph, spanner, "vertex", []) == 3.0

    def test_plan_keyed_on_the_original(self):
        # One spanner checked against two originals with identical counts:
        # the second one's (0, 1) weighs 0.25, so H's unit edge no longer
        # covers it and its ratio is 4.
        spanner = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        model = get_fault_model("edge")
        for weight, expected in ((1.0, 1.0), (0.25, 4.0)):
            graph = spanner.copy()
            graph.add_edge(0, 1, weight)
            csr_g, csr_h = csr_snapshot(graph), csr_snapshot(spanner)
            value = stretch_between_csr(csr_g, csr_h, model, [])
            assert value == all_pairs_stretch(csr_g, csr_h, model, []) == expected
