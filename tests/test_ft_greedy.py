"""Tests for Algorithm 1, the fault-tolerant greedy spanner."""

import math

import pytest

from repro.bounds.theoretical import corollary2_bound
from repro.graph import generators
from repro.graph.core import Graph, edge_key
from repro.spanners.fault_check import GreedyPathPackingOracle
from repro.spanners.ft_greedy import eft_greedy_spanner, ft_greedy_spanner, vft_greedy_spanner
from repro.spanners.greedy import greedy_spanner
from repro.spanners.verify import is_ft_spanner, is_spanner


class TestParameterValidation:
    def test_invalid_stretch(self, triangle):
        with pytest.raises(ValueError):
            ft_greedy_spanner(triangle, 0.0, 1)

    def test_negative_faults(self, triangle):
        with pytest.raises(ValueError):
            ft_greedy_spanner(triangle, 3, -1)

    def test_unknown_fault_model(self, triangle):
        with pytest.raises(ValueError):
            ft_greedy_spanner(triangle, 3, 1, fault_model="bogus")

    def test_unknown_oracle(self, triangle):
        with pytest.raises(ValueError):
            ft_greedy_spanner(triangle, 3, 1, oracle="bogus")


class TestZeroFaultEquivalence:
    """f = 0 must reproduce the classic greedy spanner exactly."""

    @pytest.mark.parametrize("stretch", [1, 2, 3, 5])
    def test_matches_greedy_unweighted(self, medium_random, stretch):
        plain = greedy_spanner(medium_random, stretch)
        ft = ft_greedy_spanner(medium_random, stretch, 0)
        assert ft.spanner.same_structure(plain.spanner)

    def test_matches_greedy_weighted(self, small_weighted_random):
        plain = greedy_spanner(small_weighted_random, 3)
        ft = ft_greedy_spanner(small_weighted_random, 3, 0, fault_model="edge")
        assert ft.spanner.same_structure(plain.spanner)


class TestCorrectness:
    """Definition 2, checked exhaustively on small instances."""

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_one_fault_tolerance_exhaustive(self, small_random, fault_model):
        result = ft_greedy_spanner(small_random, 3, 1, fault_model=fault_model)
        report = is_ft_spanner(small_random, result.spanner, 3, 1,
                               fault_model=fault_model, method="exhaustive")
        assert report.ok, report

    def test_two_fault_tolerance_exhaustive(self):
        graph = generators.gnm(12, 40, rng=21, connected=True)
        result = ft_greedy_spanner(graph, 3, 2, fault_model="vertex")
        report = is_ft_spanner(graph, result.spanner, 3, 2,
                               fault_model="vertex", method="exhaustive")
        assert report.ok, report

    def test_weighted_instance_exhaustive(self, small_weighted_random):
        result = ft_greedy_spanner(small_weighted_random, 3, 1, fault_model="vertex")
        report = is_ft_spanner(small_weighted_random, result.spanner, 3, 1,
                               fault_model="vertex", method="exhaustive")
        assert report.ok, report

    def test_edge_faults_weighted_exhaustive(self, small_weighted_random):
        result = ft_greedy_spanner(small_weighted_random, 3, 1, fault_model="edge")
        report = is_ft_spanner(small_weighted_random, result.spanner, 3, 1,
                               fault_model="edge", method="exhaustive")
        assert report.ok, report

    def test_output_is_spanner_without_faults_too(self, medium_random):
        result = ft_greedy_spanner(medium_random, 3, 2)
        assert is_spanner(medium_random, result.spanner, 3)

    def test_output_is_subgraph_with_original_weights(self, small_weighted_random):
        result = ft_greedy_spanner(small_weighted_random, 3, 1)
        assert result.spanner.is_subgraph_of(small_weighted_random)

    def test_all_nodes_present(self, medium_random):
        result = ft_greedy_spanner(medium_random, 3, 1)
        assert set(result.spanner.nodes()) == set(medium_random.nodes())


class TestStructuralProperties:
    def test_sizes_monotone_in_f(self, medium_random):
        sizes = [ft_greedy_spanner(medium_random, 3, f).size for f in range(4)]
        assert sizes == sorted(sizes)

    def test_sizes_decrease_with_stretch(self, medium_random):
        tight = ft_greedy_spanner(medium_random, 2, 1).size
        loose = ft_greedy_spanner(medium_random, 5, 1).size
        assert loose <= tight

    def test_eft_never_larger_than_vft(self, medium_random):
        for f in (1, 2):
            vft = ft_greedy_spanner(medium_random, 3, f, fault_model="vertex")
            eft = ft_greedy_spanner(medium_random, 3, f, fault_model="edge")
            assert eft.size <= vft.size

    def test_size_within_corollary2_shape(self):
        graph = generators.gnm(50, 500, rng=9, connected=True)
        for f in (1, 2):
            result = ft_greedy_spanner(graph, 3, f)
            # Generous constant: the point is the shape, not the constant.
            assert result.size <= 4 * corollary2_bound(50, f, 3)

    def test_cycle_graph_fully_kept_for_edge_faults(self):
        cycle = generators.cycle_graph(8)
        result = ft_greedy_spanner(cycle, 3, 1, fault_model="edge")
        # Faulting any edge makes the cycle a path; every edge is needed.
        assert result.size == 8

    def test_complete_graph_f1_keeps_more_than_f0(self):
        graph = generators.complete_graph(15)
        f0 = ft_greedy_spanner(graph, 3, 0).size
        f1 = ft_greedy_spanner(graph, 3, 1).size
        assert f1 > f0

    def test_deterministic_output(self, medium_random):
        a = ft_greedy_spanner(medium_random, 3, 1)
        b = ft_greedy_spanner(medium_random, 3, 1)
        assert a.spanner.same_structure(b.spanner)


class TestWitnesses:
    def test_witnesses_recorded_for_added_edges(self, small_random):
        result = ft_greedy_spanner(small_random, 3, 1)
        assert set(result.witness_fault_sets) == set(
            edge_key(u, v) for u, v, _ in result.spanner.edges()
        )

    def test_witness_sizes_respect_budget(self, small_random):
        result = ft_greedy_spanner(small_random, 3, 2)
        assert all(len(witness) <= 2 for witness in result.witness_fault_sets.values())

    def test_witnesses_exclude_endpoints_for_vertex_faults(self, small_random):
        result = ft_greedy_spanner(small_random, 3, 2, fault_model="vertex")
        for (u, v), witness in result.witness_fault_sets.items():
            assert u not in witness and v not in witness

    def test_witnesses_are_edges_for_edge_faults(self, small_random):
        result = ft_greedy_spanner(small_random, 3, 1, fault_model="edge")
        for witness in result.witness_fault_sets.values():
            for element in witness:
                assert isinstance(element, tuple) and len(element) == 2

    def test_record_witnesses_disabled(self, small_random):
        result = ft_greedy_spanner(small_random, 3, 1, record_witnesses=False)
        assert result.witness_fault_sets == {}


class TestOracleVariants:
    def test_exhaustive_oracle_matches_default_on_tiny_instance(self):
        graph = generators.gnm(10, 25, rng=17, connected=True)
        default = ft_greedy_spanner(graph, 3, 1)
        exhaustive = ft_greedy_spanner(graph, 3, 1, oracle="exhaustive")
        assert default.spanner.same_structure(exhaustive.spanner)

    def test_heuristic_oracle_produces_plain_spanner(self, medium_random):
        result = ft_greedy_spanner(medium_random, 3, 2, oracle="greedy-path-packing")
        assert is_spanner(medium_random, result.spanner, 3)
        assert result.parameters["oracle_exact"] is False

    def test_heuristic_oracle_never_larger_than_needed(self, medium_random):
        # Not guaranteed smaller in general, but must stay a subgraph of the input.
        result = ft_greedy_spanner(medium_random, 3, 2, oracle=GreedyPathPackingOracle())
        assert result.spanner.is_subgraph_of(medium_random)

    def test_counters_populated(self, small_random):
        result = ft_greedy_spanner(small_random, 3, 1)
        assert result.oracle_queries == small_random.number_of_edges()
        assert result.distance_queries >= result.oracle_queries
        assert result.construction_seconds >= 0.0


class TestTieredOracleBuilds:
    """The tiered oracle must build byte-identical spanners: same edges AND
    the same canonical witness fault sets, serially and under the parallel
    driver — screens never change a decision, only skip exact work."""

    @staticmethod
    def _fields(result):
        return (sorted(result.spanner.edges(), key=repr),
                result.witness_fault_sets)

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("max_faults", [1, 2])
    def test_serial_identical_to_exact(self, medium_random, fault_model,
                                       max_faults):
        exact = ft_greedy_spanner(medium_random, 3, max_faults,
                                  fault_model=fault_model,
                                  oracle="branch-and-bound")
        tiered = ft_greedy_spanner(medium_random, 3, max_faults,
                                   fault_model=fault_model, oracle="tiered")
        default = ft_greedy_spanner(medium_random, 3, max_faults,
                                    fault_model=fault_model)
        assert self._fields(tiered) == self._fields(exact)
        assert self._fields(default) == self._fields(exact)
        assert default.algorithm == "ft-greedy[tiered]"
        assert tiered.parameters["oracle_exact"] is True
        assert 0.0 <= tiered.parameters["screen_hit_rate"] <= 1.0
        outcomes = tiered.parameters["screen_outcomes"]
        assert sum(outcomes.values()) == tiered.oracle_queries

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_parallel_identical_to_serial(self, small_weighted_random,
                                          fault_model):
        serial = ft_greedy_spanner(small_weighted_random, 3, 2,
                                   fault_model=fault_model, oracle="tiered")
        pooled = ft_greedy_spanner(small_weighted_random, 3, 2,
                                   fault_model=fault_model, oracle="tiered",
                                   workers=4)
        assert self._fields(pooled) == self._fields(serial)
        assert 0.0 <= pooled.parameters["screen_hit_rate"] <= 1.0

    def test_parallel_counters_reconcile_with_registry(self, small_random):
        """Worker screen outcomes ship home as flat labeled counters; after
        the build the process registry must account one screen decision per
        oracle query — the parallel half of the OracleStats invariant."""
        from repro.obs.metrics import get_registry
        from repro.spanners.fault_check import TieredOracle

        registry = get_registry()
        before = registry.counters(include_sources=True)
        # Hold the oracle: its counters live on a component registry that is
        # attached weakly to the process default and dies with the instance.
        oracle = TieredOracle()
        result = ft_greedy_spanner(small_random, 3, 1, fault_model="vertex",
                                   oracle=oracle, workers=2)
        delta = registry.counters_delta(before, include_sources=True)
        screens = sum(amount for name, amount in delta.items()
                      if name.startswith("oracle.screen{"))
        exact = delta.get("oracle.exact", 0)
        fallthroughs = delta.get('oracle.screen{outcome="fallthrough"}', 0)
        assert screens == delta.get("oracle.queries", 0) == result.oracle_queries
        assert exact == fallthroughs


class TestConvenienceWrappers:
    def test_vft_wrapper(self, small_random):
        assert vft_greedy_spanner(small_random, 3, 1).fault_model == "vertex"

    def test_eft_wrapper(self, small_random):
        assert eft_greedy_spanner(small_random, 3, 1).fault_model == "edge"

    def test_empty_graph(self):
        result = ft_greedy_spanner(Graph(nodes=range(5)), 3, 2)
        assert result.size == 0

    def test_single_edge_graph(self):
        graph = Graph(edges=[(0, 1, 2.0)])
        result = ft_greedy_spanner(graph, 3, 2)
        assert result.size == 1
