"""Tests for the sharded execution runtime (backends, planner, merges).

The load-bearing property: everything routed through
:class:`ProcessPoolBackend` must be **bit-identical** to the serial
reference — same verdicts, same worst stretches, same witness fault sets,
same counters — for both fault models.
"""

import math
import pickle

import pytest

from repro.faults.adversarial import (
    random_fault_trial,
    stretch_between_csr,
    worst_case_fault_set,
)
from repro.faults.models import get_fault_model
from repro.graph import generators
from repro.graph.core import Graph
from repro.graph.csr import csr_snapshot
from repro.paths.dijkstra import dijkstra_distances
from repro.runtime import (
    ChunkArgmax,
    ChunkVerdict,
    ProcessPoolBackend,
    SerialBackend,
    chunk_size_for,
    get_backend,
    iter_chunks,
    merge_argmax,
    merge_verdicts,
    plan_ranges,
    split_sequence,
)
from repro.spanners.ft_greedy import ft_greedy_spanner
from repro.spanners.greedy import greedy_spanner
from repro.spanners.verify import is_ft_spanner, stretch_of


def _double(context, chunk):
    """Module-level chunk task (must be picklable by reference)."""
    return [context * item for item in chunk]


def _boom(context, chunk):
    raise RuntimeError("worker exploded")


# --------------------------------------------------------------------------
# Backends
# --------------------------------------------------------------------------

class TestBackends:
    def test_get_backend_resolution(self):
        assert isinstance(get_backend(None, 1), SerialBackend)
        assert isinstance(get_backend("auto", 1), SerialBackend)
        assert isinstance(get_backend(None, 3), ProcessPoolBackend)
        assert get_backend(None, 3).workers == 3
        assert isinstance(get_backend("serial", 8), SerialBackend)
        assert isinstance(get_backend("process", 1), ProcessPoolBackend)
        backend = SerialBackend()
        assert get_backend(backend, 4) is backend

    def test_get_backend_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            get_backend("threads", 2)
        with pytest.raises(ValueError):
            get_backend(None, 0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(0)

    def test_serial_map_is_ordered_and_lazy(self):
        backend = SerialBackend()
        seen = []

        def tracking(context, chunk):
            seen.append(chunk)
            return chunk

        iterator = backend.imap(tracking, [[1], [2], [3]], context=None)
        assert next(iterator) == [1]
        assert seen == [[1]]  # nothing past the consumed chunk ran
        iterator.close()
        assert seen == [[1]]

    def test_process_pool_matches_serial(self):
        chunks = [[1, 2], [3], [4, 5, 6]]
        serial = SerialBackend().map(_double, chunks, context=10)
        pooled = ProcessPoolBackend(2).map(_double, chunks, context=10)
        assert pooled == serial == [[10, 20], [30], [40, 50, 60]]

    def test_process_pool_propagates_worker_errors(self):
        with pytest.raises(RuntimeError, match="worker exploded"):
            ProcessPoolBackend(2).map(_boom, [[1]], context=None)

    def test_process_pool_early_close_cancels(self):
        backend = ProcessPoolBackend(2)
        iterator = backend.imap(_double, ([i] for i in range(100)), context=1)
        assert next(iterator) == [0]
        iterator.close()  # must terminate the pool without hanging

    def test_csr_snapshot_pickles(self):
        graph = generators.gnm(15, 40, rng=3, connected=True, weighted=True)
        csr = csr_snapshot(graph)
        clone = pickle.loads(pickle.dumps(csr))
        assert clone.num_nodes == csr.num_nodes
        assert clone.num_edges == csr.num_edges
        assert clone.index_of == csr.index_of
        assert list(clone.weights) == list(csr.weights)


# --------------------------------------------------------------------------
# Shard planner
# --------------------------------------------------------------------------

class TestShardPlanner:
    def test_chunk_size_balances_over_workers(self):
        # 4 workers x 4 chunks each over 1600 items -> 100 per chunk.
        assert chunk_size_for(1600, 4) == 100
        assert chunk_size_for(10, 4, min_chunk=8) == 8
        assert chunk_size_for(0, 4) == 1
        with pytest.raises(ValueError):
            chunk_size_for(10, 0)

    def test_plan_ranges_cover_exactly(self):
        ranges = plan_ranges(10, 3)
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert plan_ranges(0, 3) == []

    def test_iter_chunks_is_lazy_and_order_preserving(self):
        def generator():
            yield from range(7)

        chunks = iter_chunks(generator(), 3)
        assert next(chunks) == [0, 1, 2]
        assert list(chunks) == [[3, 4, 5], [6]]

    def test_split_sequence_concatenates_back(self):
        items = list(range(23))
        chunks = split_sequence(items, 4)
        assert [x for chunk in chunks for x in chunk] == items
        assert len(chunks) >= 4  # several chunks per worker


# --------------------------------------------------------------------------
# Deterministic merges
# --------------------------------------------------------------------------

class TestMerges:
    def test_merge_verdicts_stops_at_first_violating_chunk(self):
        consumed = []

        def outcomes():
            for verdict in [
                ChunkVerdict(checked=5, worst=1.5),
                ChunkVerdict(checked=2, worst=2.5, witness=frozenset({1}),
                             witness_value=2.5),
                ChunkVerdict(checked=5, worst=9.9, witness=frozenset({2}),
                             witness_value=9.9),  # must never be consumed
            ]:
                consumed.append(verdict.checked)
                yield verdict

        merged = merge_verdicts(outcomes())
        assert merged.witness == frozenset({1})
        assert merged.checked == 7  # the serial prefix only
        assert merged.worst == 2.5
        assert consumed == [5, 2]

    def test_merge_verdicts_clean_run_totals(self):
        merged = merge_verdicts(iter([ChunkVerdict(checked=4, worst=1.2),
                                      ChunkVerdict(checked=4, worst=1.8)]))
        assert not merged.violated
        assert merged.checked == 8 and merged.worst == 1.8

    def test_merge_argmax_keeps_first_maximum(self):
        # Equal values resolve to the earlier chunk, like the serial >.
        merged = merge_argmax(iter([
            ChunkArgmax(checked=3, best="a", best_value=2.0),
            ChunkArgmax(checked=3, best="b", best_value=2.0),
            ChunkArgmax(checked=3, best="c", best_value=3.0),
        ]))
        assert merged.best == "c" and merged.best_value == 3.0
        merged = merge_argmax(iter([
            ChunkArgmax(checked=3, best="a", best_value=2.0),
            ChunkArgmax(checked=3, best="b", best_value=2.0),
        ]))
        assert merged.best == "a"

    def test_merge_argmax_stops_on_stopped_chunk(self):
        def outcomes():
            yield ChunkArgmax(checked=3, best="a", best_value=2.0)
            yield ChunkArgmax(checked=1, best="hit", best_value=math.inf,
                              stopped=True)
            raise AssertionError("consumed past the stop")

        merged = merge_argmax(outcomes())
        assert merged.best == "hit" and merged.stopped
        assert merged.checked == 4


# --------------------------------------------------------------------------
# Parallel verification == serial verification (the tentpole property)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def verification_case():
    graph = generators.gnm(16, 52, rng=11, connected=True, weighted=True)
    ft = ft_greedy_spanner(graph, 3, 1, fault_model="vertex").spanner
    plain = greedy_spanner(graph, 3).spanner
    return graph, ft, plain


def _report_tuple(report):
    return (report.ok, report.worst_stretch, report.fault_sets_checked,
            report.exhaustive, report.violating_fault_set)


class TestParallelVerification:
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("which", ["ft", "plain"])
    def test_exhaustive_is_bit_identical(self, verification_case, fault_model,
                                         which):
        graph, ft, plain = verification_case
        spanner = ft if which == "ft" else plain
        serial = is_ft_spanner(graph, spanner, 3, 2, fault_model,
                               method="exhaustive")
        pooled = is_ft_spanner(graph, spanner, 3, 2, fault_model,
                               method="exhaustive", workers=2)
        assert _report_tuple(pooled) == _report_tuple(serial)

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_sampled_is_bit_identical(self, verification_case, fault_model):
        graph, ft, _ = verification_case
        serial = is_ft_spanner(graph, ft, 3, 1, fault_model, method="sampled",
                               samples=30, rng=5)
        pooled = is_ft_spanner(graph, ft, 3, 1, fault_model, method="sampled",
                               samples=30, rng=5, workers=2)
        assert _report_tuple(pooled) == _report_tuple(serial)

    def test_violation_witness_matches_serial_first_hit(self, verification_case):
        graph, _, plain = verification_case
        serial = is_ft_spanner(graph, plain, 3, 2, "vertex",
                               method="exhaustive")
        pooled = is_ft_spanner(graph, plain, 3, 2, "vertex",
                               method="exhaustive", workers=3)
        assert not serial.ok and not pooled.ok
        assert pooled.violating_fault_set == serial.violating_fault_set
        assert pooled.fault_sets_checked == serial.fault_sets_checked

    def test_explicit_backend_objects_are_honoured(self, verification_case):
        graph, ft, _ = verification_case
        serial = is_ft_spanner(graph, ft, 3, 1, "vertex", method="exhaustive",
                               backend=SerialBackend())
        pooled = is_ft_spanner(graph, ft, 3, 1, "vertex", method="exhaustive",
                               backend=ProcessPoolBackend(2))
        assert _report_tuple(pooled) == _report_tuple(serial)

    def test_stretch_of_parallel_sweep(self, verification_case):
        graph, ft, plain = verification_case
        for sub in (ft, plain):
            assert stretch_of(graph, sub, workers=2) == stretch_of(graph, sub)
        nodes = list(graph.nodes())
        pairs = [(nodes[0], nodes[5]), (nodes[2], nodes[9]),
                 (nodes[0], nodes[3])]
        assert (stretch_of(graph, ft, pairs=pairs, workers=2)
                == stretch_of(graph, ft, pairs=pairs))

    def test_stretch_between_csr_matches_view_reference(self, verification_case):
        graph, ft, _ = verification_case
        model = get_fault_model("vertex")
        nodes = list(graph.nodes())
        faults = [nodes[3], nodes[7]]
        value = stretch_between_csr(csr_snapshot(graph), csr_snapshot(ft),
                                    model, faults)
        # Reference: plain dict Dijkstra over the two faulted views.
        faulted_g = model.apply(graph, faults)
        faulted_h = model.apply(ft, faults)
        reference = 1.0
        for source in faulted_g.nodes():
            in_spanner = dijkstra_distances(faulted_h, source)
            for target, base in dijkstra_distances(faulted_g, source).items():
                if target != source:
                    reference = max(reference,
                                    in_spanner.get(target, math.inf) / base)
        assert value == pytest.approx(reference)


class TestParallelAdversarial:
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_worst_case_is_bit_identical(self, verification_case, fault_model):
        graph, ft, plain = verification_case
        for spanner in (ft, plain):
            serial = worst_case_fault_set(graph, spanner, fault_model, 1,
                                          method="exhaustive")
            pooled = worst_case_fault_set(graph, spanner, fault_model, 1,
                                          method="exhaustive", workers=2)
            assert pooled == serial

    def test_sampled_search_is_bit_identical(self, verification_case):
        graph, _, plain = verification_case
        serial = worst_case_fault_set(graph, plain, "vertex", 2,
                                      method="sampled", samples=25, rng=9)
        pooled = worst_case_fault_set(graph, plain, "vertex", 2,
                                      method="sampled", samples=25, rng=9,
                                      workers=2)
        assert pooled == serial

    def test_stop_stretch_early_cancel_matches_serial(self, verification_case):
        graph, _, plain = verification_case
        serial = worst_case_fault_set(graph, plain, "vertex", 2,
                                      method="exhaustive", stop_stretch=3.0)
        pooled = worst_case_fault_set(graph, plain, "vertex", 2,
                                      method="exhaustive", stop_stretch=3.0,
                                      workers=2)
        assert pooled == serial
        # The refutation really is one: it exceeds the threshold.
        assert serial[1] > 3.0

    def test_random_trials_concatenate_in_order(self, verification_case):
        graph, ft, _ = verification_case
        serial = random_fault_trial(graph, ft, "vertex", 2, 18, rng=4)
        pooled = random_fault_trial(graph, ft, "vertex", 2, 18, rng=4,
                                    workers=2)
        assert pooled == serial


class TestExperimentWorkers:
    def test_registry_forwards_workers_to_supporting_drivers(self):
        from repro.experiments.registry import run_experiment

        serial = run_experiment("E9", scale="quick", rng=0)
        pooled = run_experiment("E9", scale="quick", rng=0, workers=2)
        assert pooled.rows == serial.rows

    def test_registry_ignores_workers_for_plain_drivers(self):
        from repro.experiments.registry import run_experiment

        # E5 has no workers parameter; the setting must be silently dropped.
        serial = run_experiment("E5", scale="quick", rng=0)
        pooled = run_experiment("E5", scale="quick", rng=0, workers=2)
        assert pooled.rows == serial.rows
