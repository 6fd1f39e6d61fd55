"""Tests for the fault-check oracles (the inner decision problem of Algorithm 1)."""

import dataclasses
import itertools
import math

import pytest

from repro.faults.models import get_fault_model
from repro.graph import generators
from repro.graph.core import Graph
from repro.graph.csr import csr_snapshot
from repro.obs.metrics import get_registry
from repro.paths.dijkstra import bounded_distance
from repro.paths.registry import get_kernels
from repro.paths.kernels import (
    bidirectional_bounded_path_csr,
    bounded_dijkstra_csr,
)
from repro.spanners.fault_check import (
    SCREEN_RESOLVED_OUTCOMES,
    BranchAndBoundOracle,
    ExhaustiveOracle,
    FaultCheckOracle,
    GreedyPathPackingOracle,
    TieredOracle,
    available_oracles,
    describe_oracles,
    get_oracle,
    has_hitting_set,
    oracle_name,
)
from repro.spanners.ft_greedy import ft_greedy_spanner
from repro.utils.rng import RandomSource


def _witness_is_valid(graph, source, target, budget, max_faults, model_name, witness):
    """Independent check that a returned fault set really breaks the pair."""
    model = get_fault_model(model_name)
    assert len(witness) <= max_faults
    view = model.apply(graph, witness)
    return bounded_distance(view, source, target, budget) > budget


class TestOracleResolution:
    def test_default_is_tiered(self):
        assert type(get_oracle(None)) is TieredOracle
        assert type(get_oracle("exact")) is TieredOracle
        assert oracle_name(None) == oracle_name("exact") == "tiered"

    def test_lookup_by_name(self):
        assert isinstance(get_oracle("exhaustive"), ExhaustiveOracle)
        assert isinstance(get_oracle("bnb"), BranchAndBoundOracle)
        assert isinstance(get_oracle("heuristic"), GreedyPathPackingOracle)

    def test_instance_passthrough(self):
        oracle = ExhaustiveOracle()
        assert get_oracle(oracle) is oracle

    def test_unknown_name(self):
        for resolve in (get_oracle, oracle_name):
            with pytest.raises(ValueError, match="unknown oracle 'magic'; "
                                                 "available: "):
                resolve("magic")

    def test_exactness_flags(self):
        assert ExhaustiveOracle.exact
        assert BranchAndBoundOracle.exact
        assert not GreedyPathPackingOracle.exact


class TestSimpleInstances:
    def test_already_far_apart_needs_no_faults(self, weighted_path):
        oracle = BranchAndBoundOracle()
        witness = oracle.find_breaking_fault_set(weighted_path, 0, 4, budget=5.0,
                                                 max_faults=2, fault_model="vertex")
        assert witness == frozenset()

    def test_single_cut_vertex(self):
        path = generators.path_graph(3)  # 0 - 1 - 2
        oracle = BranchAndBoundOracle()
        witness = oracle.find_breaking_fault_set(path, 0, 2, budget=10.0,
                                                 max_faults=1, fault_model="vertex")
        assert witness == frozenset({1})

    def test_single_cut_edge(self):
        path = generators.path_graph(2)
        oracle = BranchAndBoundOracle()
        witness = oracle.find_breaking_fault_set(path, 0, 1, budget=10.0,
                                                 max_faults=1, fault_model="edge")
        assert witness == frozenset({(0, 1)})

    def test_two_disjoint_paths_need_two_faults(self):
        # Two vertex-disjoint 2-paths between 0 and 3.
        graph = Graph(edges=[(0, 1), (1, 3), (0, 2), (2, 3)])
        oracle = BranchAndBoundOracle()
        assert oracle.find_breaking_fault_set(graph, 0, 3, budget=5.0,
                                              max_faults=1, fault_model="vertex") is None
        witness = oracle.find_breaking_fault_set(graph, 0, 3, budget=5.0,
                                                 max_faults=2, fault_model="vertex")
        assert witness == frozenset({1, 2})

    def test_budget_makes_long_detour_irrelevant(self):
        # 0-1-2 plus a long detour 0-3-4-5-2: with budget 3 the detour does not help.
        graph = Graph(edges=[(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (5, 2)])
        oracle = BranchAndBoundOracle()
        witness = oracle.find_breaking_fault_set(graph, 0, 2, budget=3.0,
                                                 max_faults=1, fault_model="vertex")
        assert witness == frozenset({1})

    def test_direct_edge_cannot_be_broken_by_vertex_faults(self, triangle):
        oracle = BranchAndBoundOracle()
        witness = oracle.find_breaking_fault_set(triangle, 0, 1, budget=1.0,
                                                 max_faults=3, fault_model="vertex")
        assert witness is None

    def test_direct_edge_can_be_broken_by_edge_fault(self, triangle):
        oracle = BranchAndBoundOracle()
        witness = oracle.find_breaking_fault_set(triangle, 0, 1, budget=1.5,
                                                 max_faults=1, fault_model="edge")
        assert witness is not None
        assert _witness_is_valid(triangle, 0, 1, 1.5, 1, "edge", witness)

    def test_zero_fault_budget(self, triangle):
        oracle = BranchAndBoundOracle()
        assert oracle.find_breaking_fault_set(triangle, 0, 1, budget=2.0,
                                              max_faults=0, fault_model="vertex") is None


class TestOracleAgreement:
    """Exact oracles must agree with each other; witnesses must be genuine."""

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("max_faults", [0, 1, 2])
    def test_exhaustive_vs_branch_and_bound(self, fault_model, max_faults):
        graph = generators.gnm(10, 22, rng=13, connected=True)
        exhaustive = ExhaustiveOracle()
        bnb = BranchAndBoundOracle()
        budget = 3.0
        pairs = [(0, 5), (1, 7), (2, 9), (3, 4), (6, 8)]
        for source, target in pairs:
            answer_a = exhaustive.find_breaking_fault_set(
                graph, source, target, budget, max_faults, fault_model)
            answer_b = bnb.find_breaking_fault_set(
                graph, source, target, budget, max_faults, fault_model)
            assert (answer_a is None) == (answer_b is None)
            for witness in (answer_a, answer_b):
                if witness is not None:
                    assert _witness_is_valid(graph, source, target, budget,
                                             max_faults, fault_model, witness)

    def test_heuristic_witnesses_are_sound(self):
        graph = generators.gnm(12, 30, rng=3, connected=True)
        heuristic = GreedyPathPackingOracle()
        for source, target in [(0, 6), (1, 8), (2, 11)]:
            witness = heuristic.find_breaking_fault_set(
                graph, source, target, 3.0, 2, "vertex")
            if witness is not None:
                assert _witness_is_valid(graph, source, target, 3.0, 2, "vertex", witness)

    def test_heuristic_never_claims_break_when_exact_says_impossible(self):
        graph = generators.gnm(12, 30, rng=5, connected=True)
        heuristic = GreedyPathPackingOracle()
        exact = BranchAndBoundOracle()
        for source, target in [(0, 1), (2, 3), (4, 5)]:
            heuristic_answer = heuristic.find_breaking_fault_set(
                graph, source, target, 3.0, 1, "vertex")
            exact_answer = exact.find_breaking_fault_set(
                graph, source, target, 3.0, 1, "vertex")
            if exact_answer is None:
                assert heuristic_answer is None


class TestTieredOracle:
    """Screens may answer early but never differently: every tiered verdict
    — and every returned witness — must equal the branch-and-bound answer,
    query for query, across fault models, budgets, and query order (the
    warm SSSP cache and witness replay make the oracle stateful)."""

    def test_resolution_and_description(self):
        assert isinstance(get_oracle("tiered"), TieredOracle)
        assert TieredOracle.exact
        assert "tiered" in available_oracles()
        rows = {row["name"]: row for row in describe_oracles()}
        assert rows["tiered"]["exact"] is True

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("max_faults", [0, 1, 2])
    def test_matches_branch_and_bound_witness_for_witness(self, fault_model,
                                                          max_faults):
        graph = generators.gnm(14, 42, rng=7, connected=True, weighted=True)
        tiered = TieredOracle()
        bnb = BranchAndBoundOracle()
        # Repeated sources back-to-back hit the warm SSSP cache; source
        # changes exercise its invalidation.
        pairs = [(0, 8), (0, 11), (0, 5), (3, 9), (3, 12), (6, 2), (6, 13)]
        for budget in (2.0, 4.0):
            for source, target in pairs:
                a = tiered.find_breaking_fault_set(
                    graph, source, target, budget, max_faults, fault_model)
                b = bnb.find_breaking_fault_set(
                    graph, source, target, budget, max_faults, fault_model)
                assert a == b, (source, target, budget)
                if a is not None:
                    assert _witness_is_valid(graph, source, target, budget,
                                             max_faults, fault_model, a)

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_screen_resolved_queries_agree_with_exact(self, fault_model):
        """Every query the screens answered outright (no exact fallthrough)
        gets replayed against a fresh exact oracle — the core soundness
        property: screens reject early or prove safe, never decide anew."""
        graph = generators.gnm(16, 52, rng=19, connected=True, weighted=True)
        tiered = TieredOracle()
        screened = 0
        for source in range(0, 12, 3):
            for target in range(1, 16, 2):
                if source == target:
                    continue
                resolved_before = tiered.stats.screen_resolved
                answer = tiered.find_breaking_fault_set(
                    graph, source, target, 3.0, 2, fault_model)
                if tiered.stats.screen_resolved == resolved_before:
                    continue  # fell through: covered by the matrix test
                screened += 1
                exact = BranchAndBoundOracle().find_breaking_fault_set(
                    graph, source, target, 3.0, 2, fault_model)
                assert answer == exact, (source, target)
        assert screened > 0, "workload never exercised a screen"

    def test_weight_increase_does_not_serve_a_stale_sssp_vector(self):
        """A weight overwrite recompiles H's snapshot, and CPython may hand
        the new snapshot the freed one's address: the warm SSSP cache must
        not match it and answer from the old distances."""
        graph = Graph(edges=[(0, 1), (1, 2), (0, 3)])
        tiered = TieredOracle()
        # Two same-source queries warm the full SSSP vector for source 0.
        tiered.find_breaking_fault_set(graph, 0, 3, 2.5, 0, "vertex")
        assert tiered.find_breaking_fault_set(graph, 0, 2, 2.5, 0,
                                              "vertex") is None
        graph.add_edge(1, 2, 5.0)
        # Query before anything else allocates, so the recompiled snapshot
        # is likely to land on the old one's address.
        answer = tiered.find_breaking_fault_set(graph, 0, 2, 2.5, 0, "vertex")
        exact = BranchAndBoundOracle().find_breaking_fault_set(
            graph, 0, 2, 2.5, 0, "vertex")
        assert exact == frozenset()
        assert answer == exact

    def test_weight_decrease_does_not_serve_a_stale_sssp_vector(self):
        graph = Graph(edges=[(0, 1), (1, 2, 5.0), (0, 3), (0, 2, 5.0)])
        tiered = TieredOracle()
        tiered.find_breaking_fault_set(graph, 0, 3, 2.5, 1, "vertex")
        assert tiered.find_breaking_fault_set(graph, 0, 2, 2.5, 1,
                                              "vertex") == frozenset()
        # The direct edge drops within budget: no vertex fault can break it.
        graph.add_edge(0, 2, 1.0)
        answer = tiered.find_breaking_fault_set(graph, 0, 2, 2.5, 1, "vertex")
        exact = BranchAndBoundOracle().find_breaking_fault_set(
            graph, 0, 2, 2.5, 1, "vertex")
        assert exact is None
        assert answer is None

    def test_stats_reconcile_per_query(self):
        graph = generators.gnm(12, 30, rng=3, connected=True, weighted=True)
        tiered = TieredOracle()
        for source, target in [(0, 6), (0, 9), (1, 8), (2, 11), (2, 4)]:
            tiered.find_breaking_fault_set(graph, source, target, 3.0, 2,
                                           "vertex")
        stats = tiered.stats
        outcomes = stats.screen_outcomes
        assert set(outcomes) <= set(SCREEN_RESOLVED_OUTCOMES) | {"fallthrough"}
        assert stats.screen_checks == stats.queries == 5
        assert stats.screen_resolved + outcomes.get("fallthrough", 0) == 5
        assert stats.exact_checks == outcomes.get("fallthrough", 0)

    def test_hit_rate_histogram_observes_resolved_fraction(self):
        graph = generators.gnm(12, 30, rng=3, connected=True, weighted=True)
        tiered = TieredOracle()
        for source, target in [(0, 6), (1, 8), (2, 11)]:
            tiered.find_breaking_fault_set(graph, source, target, 3.0, 1,
                                           "edge")
        rate = tiered.stats.observe_screen_hit_rate()
        assert rate is not None
        assert rate == tiered.stats.screen_resolved / tiered.stats.queries


def _small_integer_weights(graph, seed, high=3):
    """``graph`` re-weighted with integers in ``[1, high]`` (ties galore)."""
    rng = RandomSource(seed)
    out = Graph(nodes=graph.nodes())
    for u, v, _ in graph.edges():
        out.add_edge(u, v, float(rng.randint(1, high)))
    return out


class TestTieredDecisionQueries:
    """The tiered oracle's decision queries run the bidirectional kernel,
    whose sums associate differently from the forward kernel's; the band
    around the budget must keep every decision on the forward side of
    ``d == budget`` — ties on integer weights and ulp-level disagreements
    alike."""

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("max_faults", [1, 2, 3])
    @pytest.mark.parametrize("weights", ["unit", "small-integer"])
    def test_tie_heavy_builds_match_branch_and_bound(self, fault_model,
                                                     max_faults, weights):
        graph = generators.gnm(24, 110, rng=max_faults, connected=True)
        if weights == "small-integer":
            graph = _small_integer_weights(graph, max_faults)
        tiered = ft_greedy_spanner(graph, 3, max_faults, fault_model,
                                   oracle="tiered")
        exact = ft_greedy_spanner(graph, 3, max_faults, fault_model,
                                  oracle="branch-and-bound")
        assert list(tiered.spanner.edges()) == list(exact.spanner.edges())
        assert tiered.witness_fault_sets == exact.witness_fault_sets

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_tie_heavy_journal_matches_branch_and_bound(self, fault_model):
        from repro.build import BuildSpec
        from repro.dynamic import DynamicSpanner, random_journal

        graph = generators.gnm(20, 70, rng=4, connected=True)
        journal = random_journal(graph, 30, weight_range=(1.0, 1.0), rng=9)
        spanners = []
        for oracle in ("tiered", "branch-and-bound"):
            spanner = DynamicSpanner(graph.copy(), BuildSpec(
                "ft-greedy", stretch=3, max_faults=2,
                fault_model=fault_model, oracle=oracle))
            spanner.apply_journal(journal)
            spanners.append(spanner)
        tiered, exact = spanners
        assert list(tiered.spanner.edges()) == list(exact.spanner.edges())
        assert tiered.witnesses == exact.witnesses

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("weights,budget", [
        ((0.1, 0.2, 0.3), 0.6),
        # Summed from both ends this path is exactly 0.9; from the source
        # it is 0.9000000000000001.
        ((0.4, 0.2, 0.3), 0.9),
    ])
    def test_ulp_planted_path_decides_as_branch_and_bound(self, fault_model,
                                                          weights, budget):
        graph = Graph()
        for index, weight in enumerate(weights):
            graph.add_edge(index, index + 1, weight)
        target = len(weights)
        csr = csr_snapshot(graph)
        assert bounded_dijkstra_csr(csr, 0, target, math.inf) > budget
        if weights == (0.4, 0.2, 0.3):
            assert bidirectional_bounded_path_csr(csr, 0, target,
                                                  budget)[0] == budget
        # A second, exactly-short route: with it the pair needs one fault.
        # The planted path lies in the band and is re-asked of the forward
        # kernel; it must not join the tiered search's path pool, or the
        # leaf that faults "c" would read "within".
        graph.add_edge(0, "c", budget / 2)
        graph.add_edge("c", target, budget / 2)
        tiered = TieredOracle(kernel="loop")
        for max_faults in (0, 1, 2):
            for source, sink in ((0, target), (target, 0)):
                answer = tiered.find_breaking_fault_set(
                    graph, source, sink, budget, max_faults, fault_model)
                exact = BranchAndBoundOracle().find_breaking_fault_set(
                    graph, source, sink, budget, max_faults, fault_model)
                assert answer == exact, (max_faults, source)
        assert tiered.stats.band_fallbacks > 0

    def test_band_fallbacks_stay_zero_on_exact_ties(self):
        graph = generators.gnm(24, 110, rng=2, connected=True)
        tiered = TieredOracle(kernel="loop")
        # The build publishes (and zeroes) the oracle's own counters, so
        # read the process registry's movement.
        before = get_registry().counters()
        result = ft_greedy_spanner(graph, 3, 2, "vertex", oracle=tiered)
        delta = get_registry().counters_delta(before)
        assert result.parameters["screen_outcomes"]["reject"] > 0
        assert delta.get('oracle.screen{outcome="fallthrough"}', 0) > 0
        assert delta.get("oracle.band_fallbacks", 0) == 0


def _counting_kernels(calls, decisions=None):
    """The loop backend with its forward path kernel and its decision
    kernel counting calls (into ``calls`` and ``decisions``)."""
    loop = get_kernels("loop")
    decisions = [] if decisions is None else decisions

    def path_kernel(*args):
        calls.append(args[1:3])
        return loop.bounded_dijkstra_path_csr(*args)

    def decision_kernel(*args):
        decisions.append(args[1:3])
        return loop.bidirectional_bounded_path(*args)

    return dataclasses.replace(loop, bounded_dijkstra_path_csr=path_kernel,
                               bidirectional_bounded_path=decision_kernel)


class TestCanonicalPathCounter:
    """The exact oracles ask the forward (canonical) path kernel only for
    the decision queries too close to the budget to call.  Both exact
    searches branch on the decision query's path, so ``band_fallbacks ==``
    forward path-kernel calls."""

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("oracle_class", [TieredOracle,
                                              BranchAndBoundOracle])
    def test_reconciles_with_the_path_kernel_calls(self, fault_model,
                                                   oracle_class):
        graph = generators.gnm(24, 110, rng=5, connected=True, weighted=True)
        calls, decisions = [], []
        oracle = oracle_class(kernel=_counting_kernels(calls, decisions))
        before = get_registry().counters()
        ft_greedy_spanner(graph, 3, 2, fault_model, oracle=oracle)
        delta = get_registry().counters_delta(before)
        assert delta.get("oracle.band_fallbacks", 0) == len(calls)
        # Every search node and screen asked the decision kernel; the
        # search expanded nodes, so it ran.
        assert delta.get("oracle.nodes_expanded", 0) > 0
        assert len(decisions) > 0
        if oracle_class is TieredOracle:
            assert delta.get('oracle.screen{outcome="fallthrough"}', 0) > 0

    @pytest.mark.parametrize("oracle_class", [TieredOracle,
                                              BranchAndBoundOracle])
    def test_band_re_asks_are_the_forward_path_calls(self, oracle_class):
        # 0-1-2-3 sums to 0.9 from both ends but 0.9000000000000001 from
        # 0: every decision query that meets it lands in the band.
        graph = Graph(edges=[(0, 1, 0.4), (1, 2, 0.2), (2, 3, 0.3),
                             (0, "c", 0.45), ("c", 3, 0.45)])
        calls = []
        oracle = oracle_class(kernel=_counting_kernels(calls))
        assert oracle.find_breaking_fault_set(graph, 0, 3, 0.9, 1,
                                              "vertex") == frozenset({"c"})
        assert oracle.stats.band_fallbacks == len(calls) > 0

    def test_direct_query_counts_every_search_node(self):
        # Two disjoint 0-3 paths under budget 5: the root branches on 4
        # (path 0-4-3), its child on 1 (path 0-1-2-3), and that child's
        # leaf reads inf.  Plain branch-and-bound asks one decision query
        # at every node, leaves included, and no forward path query.
        graph = Graph(edges=[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)])
        calls, decisions = [], []
        oracle = BranchAndBoundOracle(kernel=_counting_kernels(calls,
                                                               decisions))
        assert oracle.find_breaking_fault_set(graph, 0, 3, 5.0, 2,
                                              "vertex") == frozenset({1, 4})
        assert len(decisions) == oracle.stats.distance_queries == 3
        assert oracle.stats.band_fallbacks == len(calls) == 0


class TestStats:
    def test_counters_accumulate_and_reset(self, small_random):
        oracle = BranchAndBoundOracle()
        oracle.find_breaking_fault_set(small_random, 0, 5, 3.0, 1, "vertex")
        assert oracle.stats.queries == 1
        assert oracle.stats.distance_queries >= 1
        oracle.stats.reset()
        assert oracle.stats.queries == 0
        assert oracle.stats.distance_queries == 0

    def test_branch_and_bound_cheaper_than_exhaustive(self):
        graph = generators.gnm(14, 40, rng=2, connected=True)
        exhaustive = ExhaustiveOracle()
        bnb = BranchAndBoundOracle()
        for source, target in [(0, 7), (1, 9)]:
            exhaustive.find_breaking_fault_set(graph, source, target, 3.0, 2, "vertex")
            bnb.find_breaking_fault_set(graph, source, target, 3.0, 2, "vertex")
        assert bnb.stats.distance_queries < exhaustive.stats.distance_queries


def _build_work(graph, stretch, fault_model, oracle):
    """The oracle and kernel-dispatch counters one loop-kernel f=2
    ft-greedy build moves on the process registry."""
    before = get_registry().counters()
    ft_greedy_spanner(graph, stretch, 2, fault_model, oracle=oracle,
                      kernel="loop")
    delta = get_registry().counters_delta(before)
    return {name: delta.get(name, 0) for name in (
        "oracle.queries", 'oracle.screen{outcome="accept"}',
        'oracle.screen{outcome="reject"}',
        'oracle.screen{outcome="fallthrough"}', "oracle.exact",
        "oracle.nodes_expanded", "oracle.distance_queries",
        "oracle.pool_hits", "oracle.band_fallbacks",
        'kernels.dispatch{backend="loop"}')}


class TestSearchWork:
    """The exact search's work, pinned by counter on seeded builds.

    Counters do not depend on the machine, so a change to the screens or
    the search that changes the work done fails here on every host, where
    a timing gate would only drift.
    """

    @staticmethod
    def _build_vft_graph(instance: int = 0):
        # perfbench's build-vft instance at seed 1: the sub-seed is
        # (seed * 1_000_003 + salt * 7_919) mod (2**31 - 1) with salt
        # 10 + instance.
        seed = (1 * 1_000_003 + (10 + instance) * 7_919) % (2 ** 31 - 1)
        return generators.gnm(320, 1600, rng=seed, weighted=True,
                              connected=True)

    @pytest.mark.parametrize("instance", [0, 1])
    def test_numpy_build_vft_does_the_loop_build_work(self, instance):
        # Both backends run one search: same spanner, witnesses, oracle
        # counters and number of kernel resolutions.
        graph = self._build_vft_graph(instance)
        runs = {}
        for kernel in ("loop", "numpy"):
            before = get_registry().counters()
            result = ft_greedy_spanner(graph, 5, 2, "vertex", oracle="tiered",
                                       kernel=kernel)
            delta = get_registry().counters_delta(before)
            work = {name: value for name, value in delta.items()
                    if name.startswith("oracle.")}
            work["kernels.dispatch"] = delta.get(
                f'kernels.dispatch{{backend="{kernel}"}}', 0)
            runs[kernel] = (list(result.spanner.edges()),
                            result.witness_fault_sets, work)
        assert runs["numpy"] == runs["loop"]
        assert runs["loop"][2]["oracle.nodes_expanded"] > 0

    @pytest.mark.parametrize("fault_model, expanded, distance, pool, dispatch", [
        ("vertex", 1015, 4386, 902, 3591),
        ("edge", 1023, 4395, 1195, 3599),
    ])
    def test_tiered_build_vft_instance(self, fault_model, expanded, distance,
                                       pool, dispatch):
        work = _build_work(self._build_vft_graph(), 5, fault_model, "tiered")
        assert work == {
            "oracle.queries": 1600,
            'oracle.screen{outcome="accept"}': 385,
            'oracle.screen{outcome="reject"}': 932,
            'oracle.screen{outcome="fallthrough"}': 283,
            "oracle.exact": 283,
            "oracle.nodes_expanded": expanded,
            "oracle.distance_queries": distance,
            "oracle.pool_hits": pool,
            "oracle.band_fallbacks": 0,
            'kernels.dispatch{backend="loop"}': dispatch,
        }

    @pytest.mark.parametrize("fault_model, nodes", [
        ("vertex", 1593),
        ("edge", 2536),
    ])
    def test_branch_and_bound_small_graph(self, fault_model, nodes):
        # Every search node is one decision query and one kernel dispatch.
        graph = generators.gnm(60, 240, rng=3, weighted=True, connected=True)
        work = _build_work(graph, 3, fault_model, "branch-and-bound")
        assert work == {
            "oracle.queries": 240,
            'oracle.screen{outcome="accept"}': 0,
            'oracle.screen{outcome="reject"}': 0,
            'oracle.screen{outcome="fallthrough"}': 0,
            "oracle.exact": 0,
            "oracle.nodes_expanded": nodes,
            "oracle.distance_queries": nodes,
            "oracle.pool_hits": 0,
            "oracle.band_fallbacks": 0,
            'kernels.dispatch{backend="loop"}': nodes,
        }


def _brute_force_hitting_set(sets, size):
    universe = sorted(set().union(*sets)) if sets else []
    return any(all(any(element in chosen for element in path) for path in sets)
               for count in range(size + 1)
               for chosen in map(set, itertools.combinations(universe, count)))


#: Both kernel backends: both ask the decision kernel at every search node,
#: leaves included, and branch on (and pool) the path it returns.
KERNELS = ["loop", "numpy"]


class TestPathPool:
    """The tiered exact search decides nodes from the short paths its query
    has already found; it must never decide one differently from the plain
    branch-and-bound search, and the pool must not outlive its query."""

    def test_hitting_set_matches_brute_force(self):
        rng = RandomSource(31)
        for _ in range(400):
            sets = [frozenset(rng.randint(0, 6)
                              for _ in range(rng.randint(0, 4)))
                    for _ in range(rng.randint(0, 5))]
            for size in range(4):
                assert has_hitting_set(sets, size) == \
                    _brute_force_hitting_set(sets, size), (sets, size)

    def test_hitting_set_edge_cases(self):
        assert has_hitting_set([], 0)
        assert not has_hitting_set([frozenset()], 3)
        assert not has_hitting_set([frozenset({1})], 0)
        # Pairwise intersecting, no common element: two elements, not one.
        triangle = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]
        assert not has_hitting_set(triangle, 1)
        assert has_hitting_set(triangle, 2)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("max_faults", [1, 2, 3])
    def test_direct_answers_equal_branch_and_bound(self, kernel, fault_model,
                                                   max_faults):
        graph = generators.gnm(18, 54, rng=40 + max_faults, connected=True,
                               weighted=True)
        csr = csr_snapshot(graph)
        # One tiered instance across every query: a pool that leaked from
        # one query into the next would answer with another pair's paths.
        tiered = TieredOracle(kernel=kernel)
        bnb = BranchAndBoundOracle(kernel=kernel)
        pairs = [(0, 9), (0, 13), (2, 7), (5, 16), (5, 1), (11, 4), (17, 3)]
        for source, target in pairs:
            root = bounded_dijkstra_csr(csr, csr.index_of[source],
                                        csr.index_of[target], math.inf)
            # Below the root distance the root accepts; at and above it
            # the screens and the exact search decide.
            for budget in (0.9 * root, root, 1.6 * root, 2.5 * root):
                a = tiered.find_breaking_fault_set(
                    graph, source, target, budget, max_faults, fault_model)
                b = bnb.find_breaking_fault_set(
                    graph, source, target, budget, max_faults, fault_model)
                assert a == b, (source, target, budget)
        assert tiered.stats.exact_checks > 0

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("max_faults", [1, 2, 3])
    def test_builds_equal_branch_and_bound(self, kernel, fault_model,
                                           max_faults):
        graph = generators.gnm(22, 90, rng=60 + max_faults, connected=True,
                               weighted=True)
        tiered = ft_greedy_spanner(graph, 3, max_faults, fault_model,
                                   oracle="tiered", kernel=kernel)
        exact = ft_greedy_spanner(graph, 3, max_faults, fault_model,
                                  oracle="branch-and-bound", kernel=kernel)
        assert list(tiered.spanner.edges()) == list(exact.spanner.edges())
        assert tiered.witness_fault_sets == exact.witness_fault_sets

    def test_planted_pairwise_intersecting_paths_cut_a_subtree(self):
        # Budget 6 from s to t.  The canonical root path s-d1-d2-t has two
        # elements; besides it the short paths are s-a-b-t, s-c-b-t and
        # s-a-c-t (pairwise intersecting, no common vertex) and s-a-c-b-t.
        # Only two element-disjoint short paths fit, so packing for f = 2
        # fails; the search under d1 pools all four, and the r = 1 subtree
        # under d2 is cut: no single vertex hits three paths that share no
        # vertex.  s-c-t (length 7) is not short.
        graph = Graph()
        for u, v, w in [("s", "d1", 1.0), ("d1", "d2", 1.0), ("d2", "t", 1.0),
                        ("s", "a", 2.0), ("a", "b", 2.0), ("b", "t", 2.0),
                        ("s", "c", 3.5), ("c", "b", 0.5), ("a", "c", 0.5),
                        ("c", "t", 3.5)]:
            graph.add_edge(u, v, w)
        tiered = TieredOracle(kernel="loop")
        bnb = BranchAndBoundOracle(kernel="loop")
        answer = tiered.find_breaking_fault_set(graph, "s", "t", 6.0, 2,
                                                "vertex")
        assert answer is None
        assert bnb.find_breaking_fault_set(graph, "s", "t", 6.0, 2,
                                           "vertex") is None
        assert tiered.stats.screen_outcomes == {"fallthrough": 1}
        assert tiered.stats.pool_hits == 1
        # Root, d1's node and its three leaves; d2's node and its three
        # leaves were never searched.
        assert tiered.stats.nodes_expanded == 5
        assert bnb.stats.nodes_expanded == 9

    def test_decision_query_needs_no_query_in_flight(self):
        # ``_exceeds`` is a pure verdict: asked on a fresh oracle, before
        # any query has made a pool (as ``benchmarks/bench_kernels.py``
        # does), it must answer "within" as well as "exceeded".
        graph = generators.gnm(30, 90, rng=5, connected=True, weighted=True)
        csr = csr_snapshot(graph)
        oracle = TieredOracle(kernel="loop")
        loop = get_kernels("loop")
        s, t = csr.index_of[0], csr.index_of[17]
        root = bounded_dijkstra_csr(csr, s, t, math.inf)
        exceeded, path = oracle._exceeds(loop, csr, s, t, 2 * root, None, None)
        assert not exceeded and path[0] == s and path[-1] == t
        assert oracle._exceeds(loop, csr, s, t, 0.5 * root, None, None) \
            == (True, None)

    def test_pool_hits_on_a_build_vft_shaped_graph(self):
        # The certified-build workload's shape: weighted G(n, 5n), k = 5,
        # f = 2 under vertex faults, at a smaller n.
        graph = generators.gnm(120, 600, rng=8, connected=True, weighted=True)
        before = get_registry().counters()
        ft_greedy_spanner(graph, 5, 2, "vertex", oracle="tiered")
        delta = get_registry().counters_delta(before)
        assert delta.get('oracle.screen{outcome="fallthrough"}', 0) > 0
        assert delta.get("oracle.pool_hits", 0) > 0
