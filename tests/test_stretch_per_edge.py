"""The per-edge stretch sweep against the references it replaces.

Without a target restriction, :func:`repro.faults.adversarial.stretch_between_csr`
checks ``d_{H\\F}(u, v) / w(u, v)`` over the edges of ``G \\ F`` only.  Any
shortest path of ``G \\ F`` is made of edges, so that maximum is the worst
pairwise stretch; :func:`all_pairs_stretch` below is the pairwise sweep (one
SSSP in each graph per source) kept as the reference.  The property tests
hold the two together on seeded random graphs for both fault models and both
kernel backends, on spanners that pass and fail and on inputs that are not
subgraphs at all.

With the verify memo (:func:`repro.faults.adversarial.source_trees`) a
fault set re-searches only the sources whose recorded paths it touches;
:func:`per_source_stretch` is the sweep that searches every source, and the
memoised result must equal it bit for bit.
"""

from __future__ import annotations

import math

import pytest

from repro.faults.adversarial import (
    SourceTrees,
    random_fault_trial,
    source_trees,
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
                      sources=None, restrict=None, memo=None,
                      kernel=None) -> float:
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


def per_source_stretch(csr_g, csr_h, model, fault_list, pairs=None, *,
                       sources=None, restrict=None, memo=None,
                       kernel=None) -> float:
    """Worst ``d_{H\\F}(u, v) / w(u, v)`` over the edges of ``G \\ F``, no memo.

    Per unfaulted source, one multi-target search in ``H \\ F`` to its
    surviving higher-index G neighbours.  Takes the signature of
    ``stretch_between_csr`` (``memo`` is ignored) so it can stand in for
    it; only the all-sources case is supported.
    """
    assert pairs is None and sources is None and restrict is None
    vertex = model.uses_vertex_mask
    mask_g = model.new_mask(csr_g)
    for index in model.mask_indices(csr_g, fault_list):
        mask_g[index] = 1
    mask_h = model.new_mask(csr_h)
    for index in model.mask_indices(csr_h, fault_list):
        mask_h[index] = 1
    vm_h, em_h = model.kernel_masks(mask_h)
    search = get_kernels(kernel).multi_target_dijkstra_csr
    h_index = csr_h.index_of
    worst = 1.0
    for u, node in enumerate(csr_g.node_of):
        if vertex and mask_g[u]:
            continue
        targets, lengths = [], []
        for v, weight, eid in csr_g.arcs(u):
            if v < u or (mask_g[v] if vertex else mask_g[eid]):
                continue
            hv = h_index.get(csr_g.node_of[v])
            if hv is None:
                return math.inf
            targets.append(hv)
            lengths.append(weight)
        if not targets:
            continue
        hu = h_index.get(node)
        if hu is None:
            return math.inf
        for distance, weight in zip(search(csr_h, hu, targets, vm_h, em_h),
                                    lengths):
            worst = max(worst, distance / weight)
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

    # An H-only vertex: light shortcuts through a node G does not have.
    hub = ft.copy()
    for node in nodes[:3]:
        hub.add_edge("hub", node, 0.05)

    half = set(nodes[: len(nodes) // 2])
    split = Graph(nodes=nodes)
    for u, v, w in ft.edges():
        if (u in half) == (v in half):
            split.add_edge(u, v, w)

    return {"ft": ft, "plain": plain, "missing-node": missing,
            "extra-edge": extra, "lighter-edge": lighter,
            "heavier-edge": heavier, "hub-vertex": hub, "disconnected": split}


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
                    # The memo is bit-identical to searching every source.
                    patched.setattr(verify, "stretch_between_csr",
                                    per_source_stretch)
                    per_source = run()
                assert report == per_source, (name, method)
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


# --------------------------------------------------------------------------
# The verify memo: bit-identical to searching every source
# --------------------------------------------------------------------------

def _h_only_faults(graph: Graph, spanner: Graph, fault_model: str) -> list:
    """Elements of H that G does not have (the H-only vertex or edges)."""
    if fault_model == "vertex":
        return [node for node in spanner.nodes() if not graph.has_node(node)]
    return [(u, v) for u, v, _ in spanner.edges() if not graph.has_edge(u, v)]


def _memo_fault_sets(graph: Graph, spanner: Graph, fault_model: str,
                     seed: int) -> list:
    """Sizes 0..3: every single fault (each source and target faulted
    once), sampled pairs and triples, and sets with an H-only element."""
    model = get_fault_model(fault_model)
    elements = model.all_elements(graph)
    rng = RandomSource(seed)
    sets = [()] + [(element,) for element in elements]
    sets += [tuple(rng.sample(elements, 2)) for _ in range(12)]
    sets += [tuple(rng.sample(elements, 3)) for _ in range(4)]
    for element in _h_only_faults(graph, spanner, fault_model):
        sets.append((element,))
        sets.append((element, rng.choice(elements)))
    return sets


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("fault_model", ["vertex", "edge"])
@pytest.mark.parametrize("seed", range(4))
class TestMemoMatchesPerSourceSweep:
    def test_stretch_between_csr(self, seed, fault_model, kernel):
        graph = _instance(seed)
        model = get_fault_model(fault_model)
        for name, spanner in _variants(graph, fault_model, seed).items():
            csr_g, csr_h = csr_snapshot(graph), csr_snapshot(spanner)
            memo = source_trees(csr_g, csr_h, model, kernel)
            assert isinstance(memo, SourceTrees)  # a memo on every backend
            for faults in _memo_fault_sets(graph, spanner, fault_model, seed):
                value = stretch_between_csr(csr_g, csr_h, model, list(faults),
                                            memo=memo, kernel=kernel)
                reference = per_source_stretch(csr_g, csr_h, model,
                                               list(faults), kernel=kernel)
                assert value == reference, (name, faults, value, reference)



def test_one_stretch_call_per_fault_set(monkeypatch):
    # Tracers wrap ``verify.stretch_between_csr``: each checked fault set
    # must still be one call through that module global.
    graph = _instance(2)
    spanner = ft_greedy_spanner(graph, 3, 1).spanner
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return stretch_between_csr(*args, **kwargs)

    monkeypatch.setattr(verify, "stretch_between_csr", counted)
    for method in ("exhaustive", "sampled"):
        calls.clear()
        report = verify.is_ft_spanner(graph, spanner, 3, 1, "vertex",
                                      method=method, samples=15, rng=1)
        assert len(calls) == report.fault_sets_checked > 0


class TestSourceTreesMemo:
    """The memo lives on H's snapshot, keyed like the edge plan plus the
    fault model: every way G or H can change under it rebuilds it."""

    @staticmethod
    def _check(graph: Graph, spanner: Graph, fault_model: str):
        """Memoised == per-source over every fault set of size <= 2."""
        model = get_fault_model(fault_model)
        csr_g, csr_h = csr_snapshot(graph), csr_snapshot(spanner)
        memo = source_trees(csr_g, csr_h, model, "loop")
        for faults in enumerate_fault_sets(model.all_elements(graph), 2):
            faults = list(faults)
            assert (stretch_between_csr(csr_g, csr_h, model, faults,
                                        memo=memo, kernel="loop")
                    == per_source_stretch(csr_g, csr_h, model, faults)), faults
        return memo

    @staticmethod
    def _square():
        # The 4-cycle plus a chord G has and H lacks: (0, 2) is checked
        # through 0-1-2 (or 0-3-2) in H.
        graph = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        graph.add_edge(0, 2, 1.5)
        return graph, Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_cached_until_a_snapshot_changes(self):
        graph, spanner = self._square()
        memo = self._check(graph, spanner, "vertex")
        assert self._check(graph, spanner, "vertex") is memo

    def test_spanner_grows_in_place(self):
        graph, spanner = self._square()
        csr_h = csr_snapshot(spanner)
        memo = self._check(graph, spanner, "vertex")
        # A new H path 0-4-2 of length 1 beats 0-1-2: the stale memo would
        # still charge (0, 2) its old ratio 2 / 1.5.
        spanner.add_edge(0, 4, 0.5)
        spanner.add_edge(4, 2, 0.5)
        assert csr_snapshot(spanner) is csr_h
        assert self._check(graph, spanner, "vertex") is not memo
        assert stretch_under_faults(graph, spanner, "vertex", []) == 1.0

    def test_original_grows_in_place(self):
        graph, spanner = self._square()
        csr_g = csr_snapshot(graph)
        memo = self._check(graph, spanner, "edge")
        # G gains (1, 3) at weight 0.5; H's detour is 2: ratio 4.
        graph.add_edge(1, 3, 0.5)
        assert csr_snapshot(graph) is csr_g
        assert self._check(graph, spanner, "edge") is not memo
        assert stretch_under_faults(graph, spanner, "edge", []) == 4.0

    def test_weight_overwrite_recompiles_the_spanner(self):
        graph, spanner = self._square()
        memo = self._check(graph, spanner, "vertex")
        csr_h = csr_snapshot(spanner)
        spanner.add_edge(1, 2, 5.0)
        assert csr_snapshot(spanner) is not csr_h
        assert self._check(graph, spanner, "vertex") is not memo

    def test_one_spanner_two_originals(self):
        spanner = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        memos = []
        for weight in (1.5, 0.25):
            graph = spanner.copy()
            graph.add_edge(0, 2, weight)
            memos.append(self._check(graph, spanner, "vertex"))
        assert memos[0] is not memos[1]
        assert memos[1].ranked[0][0] == 8.0

    def test_vertex_then_edge_model_on_one_spanner(self):
        graph, spanner = self._square()
        vertex = self._check(graph, spanner, "vertex")
        edge = self._check(graph, spanner, "edge")
        assert edge is not vertex
        # Edge faults index the path's edges, vertex faults its interior.
        assert set(vertex.paths) <= set(range(spanner.number_of_nodes()))
        assert len(edge.paths) > len(vertex.paths)


class TestMemoSerialEqualsPooled:
    """The memo is built once in the calling process and shipped: pooled
    runs report the same answers and move ``kernels.dispatch`` the same."""

    @staticmethod
    def _dispatches(fn):
        registry = get_registry()
        before = registry.counters()
        result = fn()
        delta = registry.counters_delta(before)
        return result, {name: value for name, value in delta.items()
                        if name.split("{")[0] == "kernels.dispatch"}

    @pytest.fixture(scope="class")
    def cases(self):
        graph = generators.gnm(12, 30, rng=7, weighted=True, connected=True)
        return {fault_model: (graph,
                              ft_greedy_spanner(graph, 3, 1,
                                                fault_model=fault_model).spanner,
                              greedy_spanner(graph, 3).spanner)
                for fault_model in ("vertex", "edge")}

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("which", ["valid", "refuted"])
    def test_is_ft_spanner(self, cases, fault_model, which):
        graph, ft, plain = cases[fault_model]
        spanner = ft if which == "valid" else plain
        runs = [self._dispatches(lambda: verify.is_ft_spanner(
                    graph, spanner, 3, 1, fault_model, method="exhaustive",
                    **options))
                for options in ({}, {"workers": 2, "backend": "process"})]
        (serial, serial_counts), (pooled, pooled_counts) = runs
        assert serial.ok == (which == "valid")
        assert pooled == serial
        assert pooled_counts == serial_counts

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("which", ["valid", "refuted"])
    def test_worst_case_fault_set(self, cases, fault_model, which):
        graph, ft, plain = cases[fault_model]
        spanner = ft if which == "valid" else plain
        runs = [self._dispatches(lambda: worst_case_fault_set(
                    graph, spanner, fault_model, 1, method="exhaustive",
                    stop_stretch=3.0, **options))
                for options in ({}, {"workers": 2, "backend": "process"})]
        (serial, serial_counts), (pooled, pooled_counts) = runs
        assert (serial[1] <= 3.0) == (which == "valid")
        assert pooled == serial
        assert pooled_counts == serial_counts

    def test_random_fault_trial(self, cases):
        graph, ft, _ = cases["vertex"]
        runs = [self._dispatches(lambda: random_fault_trial(
                    graph, ft, "vertex", 2, 12, rng=3, **options))
                for options in ({}, {"workers": 2, "backend": "process"})]
        assert runs[1] == runs[0]
