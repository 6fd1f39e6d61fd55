"""Tests for the fault-check oracles (the inner decision problem of Algorithm 1)."""

import math

import pytest

from repro.faults.models import get_fault_model
from repro.graph import generators
from repro.graph.core import Graph
from repro.paths.dijkstra import bounded_distance
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
    oracle_name,
)


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
        with pytest.raises(ValueError):
            get_oracle("magic")

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
        # Repeated sources back-to-back hit the warm SSSP cache and witness
        # replay; source changes exercise their invalidation.
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
