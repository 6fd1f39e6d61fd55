"""Tests for the dynamic update subsystem (:mod:`repro.dynamic`).

The contract under test, in increasing order of integration:

* update ops validate and apply exactly as written; journals JSON-round-trip
  and replay **deterministically** (same base + same journal → structurally
  identical graphs with identical insertion order);
* the dirty-region filter is sound: repairing only the filtered candidates
  ends in exactly the spanner that re-sweeping *every* rejected edge would
  produce;
* after any stream of mixed updates the maintained spanner still passes
  ``is_ft_spanner`` — exhaustively on small instances, for both fault
  models — and sharded repair/re-certification is byte-identical to serial;
* :class:`LiveEngine` serves answers identical to the dict-reference
  Dijkstra over the current spanner, keeps its cache across updates that
  leave the spanner untouched, and invalidates it the moment the spanner
  moves;
* the acceptance anchor: a ≥200-update journal on a 100+-node graph, both
  fault models, certified by sampling, with the size-vs-rebuild factor
  bounded.
"""

import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.build import BuildError, BuildSession, BuildSpec, build
from repro.dynamic import (
    DynamicSpanner,
    EdgeDelete,
    EdgeInsert,
    LiveEngine,
    UpdateError,
    UpdateJournal,
    WeightChange,
    all_rejected_candidates,
    dirty_candidates,
    random_journal,
    update_from_json,
    update_to_json,
)
from repro.engine.workload import Query, update_churn
from repro.graph import generators
from repro.faults.models import get_fault_model
from repro.graph.core import Graph, edge_key
from repro.graph.csr import csr_snapshot
from repro.graph.views import graph_minus
from repro.obs.metrics import get_registry
from repro.paths.dijkstra import dijkstra_distances
from repro.runtime.backend import SerialBackend
from repro.spanners.fault_check import BranchAndBoundOracle, get_oracle
from repro.spanners.ft_greedy import acceptance_sweep
from repro.spanners.verify import is_ft_spanner

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _spec(**overrides) -> BuildSpec:
    defaults = dict(algorithm="ft-greedy", stretch=3, max_faults=1)
    defaults.update(overrides)
    return BuildSpec(**defaults)


# --------------------------------------------------------------------------
# Update ops
# --------------------------------------------------------------------------

class TestUpdateOps:
    def test_insert_applies_and_validates(self):
        graph = Graph(edges=[(0, 1)])
        EdgeInsert(1, 2, 2.5).apply(graph)
        assert graph.weight(1, 2) == 2.5
        with pytest.raises(UpdateError):
            EdgeInsert(0, 1).apply(graph)  # exists: use WeightChange
        with pytest.raises(UpdateError):
            EdgeInsert(3, 3).apply(graph)  # self loop
        with pytest.raises(UpdateError):
            EdgeInsert(4, 5, -1.0).apply(graph)  # non-positive weight

    def test_delete_applies_and_validates(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        EdgeDelete(1, 0).apply(graph)  # orientation-insensitive
        assert not graph.has_edge(0, 1)
        assert graph.has_node(0)  # endpoints stay
        with pytest.raises(UpdateError):
            EdgeDelete(0, 1).apply(graph)

    def test_reweight_applies_and_validates(self):
        graph = Graph(edges=[(0, 1, 1.0)])
        WeightChange(0, 1, 4.0).apply(graph)
        assert graph.weight(0, 1) == 4.0
        with pytest.raises(UpdateError):
            WeightChange(1, 2, 1.0).apply(graph)  # missing: use EdgeInsert
        with pytest.raises(UpdateError):
            WeightChange(0, 1, 0.0).apply(graph)

    def test_json_round_trip_covers_every_kind_and_tuple_nodes(self):
        ops = [EdgeInsert(0, 1, 1.5), EdgeDelete("a", "b"),
               WeightChange(("p", 2), ("p", 3), 0.25)]
        for op in ops:
            document = update_to_json(op)
            assert update_from_json(document) == op
        with pytest.raises(UpdateError):
            update_from_json({"op": "merge", "u": 0, "v": 1})


# --------------------------------------------------------------------------
# The journal
# --------------------------------------------------------------------------

class TestUpdateJournal:
    def test_append_only_and_counts(self):
        journal = UpdateJournal()
        journal.append(EdgeInsert(0, 1))
        journal.extend([EdgeDelete(0, 1), WeightChange(2, 3, 1.0)])
        assert len(journal) == 3
        assert journal.counts() == {"insert": 1, "delete": 1, "reweight": 1}
        with pytest.raises(UpdateError):
            journal.append(("not", "an", "op"))

    def test_replay_copies_by_default_and_mutates_in_place_on_request(self):
        base = Graph(edges=[(0, 1), (1, 2)])
        journal = UpdateJournal([EdgeDelete(0, 1), EdgeInsert(0, 2, 2.0)])
        final = journal.replay(base)
        assert base.has_edge(0, 1)  # base untouched
        assert not final.has_edge(0, 1) and final.weight(0, 2) == 2.0
        same = journal.replay(base, in_place=True)
        assert same is base and not base.has_edge(0, 1)

    def test_save_load_round_trip(self, tmp_path):
        journal = UpdateJournal([EdgeInsert(0, 1, 1.5), EdgeDelete(0, 1)],
                                name="churn")
        path = tmp_path / "journal.json"
        journal.save(path)
        loaded = UpdateJournal.load(path)
        assert list(loaded) == list(journal)
        assert loaded.name == "churn"

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_replay_is_deterministic(self, seed):
        """Same base + same journal → identical structure AND insertion order."""
        base = generators.gnm(12, 26, rng=3, connected=True, weighted=True)
        journal = random_journal(base, 25, rng=seed)
        first = journal.replay(base)
        second = journal.replay(base)
        assert first.same_structure(second)
        assert list(first.nodes()) == list(second.nodes())
        assert list(first.edges()) == list(second.edges())
        # The JSON round trip replays to the same graph too.
        third = UpdateJournal.from_json(journal.to_json()).replay(base)
        assert list(third.edges()) == list(first.edges())

    def test_random_journal_is_seeded_and_valid(self):
        base = generators.gnm(10, 18, rng=1, connected=True)
        a = random_journal(base, 40, rng=11)
        b = random_journal(base, 40, rng=11)
        assert list(a) == list(b)
        assert len(a) == 40
        journal_counts = a.counts()
        assert sum(journal_counts.values()) == 40
        a.replay(base)  # every op applies cleanly


# --------------------------------------------------------------------------
# Dirty-region soundness
# --------------------------------------------------------------------------

class TestDirtyRegion:
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_filtered_repair_equals_full_resweep(self, fault_model):
        """Soundness: repairing only the dirty region ends in exactly the
        spanner a sweep over *every* rejected edge would produce."""
        graph = generators.gnm(18, 60, rng=4, connected=True, weighted=True)
        spec = _spec(fault_model=fault_model)
        for drop in range(3):  # delete a few different spanner edges
            filtered = DynamicSpanner(graph.copy(), spec)
            spanner_edges = sorted(filtered.spanner.edge_keys(), key=repr)
            u, v = spanner_edges[(7 * drop) % len(spanner_edges)]
            # The unfiltered reference: same state, but sweep everything.
            unfiltered = DynamicSpanner(graph.copy(), spec)
            candidates, pool = dirty_candidates(
                unfiltered.graph, unfiltered.spanner, (u, v), spec.stretch)
            assert len(candidates) <= pool
            unfiltered.graph.remove_edge(u, v)
            unfiltered.spanner.remove_edge(u, v)
            everything = all_rejected_candidates(unfiltered.graph,
                                                 unfiltered.spanner)
            readded_full = acceptance_sweep(
                unfiltered.spanner, everything, unfiltered.oracle,
                unfiltered.model, spec.stretch, spec.max_faults,
                SerialBackend(), witnesses=unfiltered.witnesses).added
            outcome = filtered.apply(EdgeDelete(u, v))
            assert filtered.spanner.same_structure(unfiltered.spanner), (
                f"dirty filter changed the repair outcome for {(u, v)}")
            assert set(outcome.repair_added) == set(readded_full)

    def test_dirty_candidates_requires_spanner_edge(self):
        graph = generators.gnm(10, 20, rng=0, connected=True)
        dyn = DynamicSpanner(graph, _spec())
        rejected = all_rejected_candidates(dyn.graph, dyn.spanner)
        if rejected:
            u, v, _ = rejected[0]
            with pytest.raises(ValueError):
                dirty_candidates(dyn.graph, dyn.spanner, (u, v), 3.0)


class _ResweepReference:
    """Unfiltered reference maintainer: after every op, re-sweep *every*
    rejected edge of ``G`` through the build's acceptance loop."""

    def __init__(self, graph: Graph, spec: BuildSpec):
        result = build(graph, spec)
        self.graph = graph
        self.spanner = result.spanner
        self.witnesses = dict(result.witness_fault_sets)
        self.spec = spec
        self.oracle = get_oracle(spec.oracle, spec.kernel)
        self.model = get_fault_model(spec.fault_model)

    def apply(self, update) -> None:
        u, v = update.u, update.v
        in_spanner = self.spanner.has_edge(u, v)
        update.apply(self.graph)
        if isinstance(update, EdgeInsert):
            self.spanner.add_node(u)
            self.spanner.add_node(v)
        elif in_spanner and isinstance(update, EdgeDelete):
            self.spanner.remove_edge(u, v)
            self.witnesses.pop(update.edge, None)
        elif in_spanner:
            self.spanner.add_edge(u, v, float(update.weight))
        acceptance_sweep(
            self.spanner, all_rejected_candidates(self.graph, self.spanner),
            self.oracle, self.model, self.spec.stretch, self.spec.max_faults,
            SerialBackend(), witnesses=self.witnesses)


def _churn_with_heavier_spanner_edges(graph: Graph, dyn, length: int, rng: int):
    """A seeded random journal, with every third op followed by a weight
    increase of an edge that is in ``dyn``'s spanner when it applies (the
    ops are yielded one at a time, so ``dyn`` must apply each before the
    next is drawn)."""
    for step, update in enumerate(random_journal(graph, length, rng=rng)):
        yield update
        if step % 3 == 2:
            edges = list(dyn.spanner.edges())
            u, v, weight = edges[(7 * step) % len(edges)]
            yield WeightChange(u, v, weight * 1.7)


class TestCertificateGatedRepair:
    @pytest.mark.parametrize("kernel", ["loop", "numpy"])
    @pytest.mark.parametrize("max_faults", [1, 2])
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_gated_repair_equals_unfiltered_resweep(self, fault_model,
                                                    max_faults, kernel):
        """Certificate-gated repairs skip dirty candidates whose packed short
        paths avoid the touched edge; after every op of a long journal the
        spanner and witnesses equal a full re-sweep of every rejected edge,
        and at the end every rejected edge passes the exact search."""
        graph = generators.gnm(18, 64, rng=5, connected=True, weighted=True)
        spec = _spec(fault_model=fault_model, max_faults=max_faults,
                     kernel=kernel)
        gated = DynamicSpanner(graph.copy(), spec)
        reference = _ResweepReference(graph.copy(), spec)
        applied = 0
        for update in _churn_with_heavier_spanner_edges(graph, gated, 60, 29):
            gated.apply(update)
            reference.apply(update)
            applied += 1
            assert list(gated.spanner.edges()) == list(reference.spanner.edges()), (
                f"op {applied} ({update!r}) diverged from the full re-sweep")
            assert gated.witnesses == reference.witnesses
        assert applied >= 60
        stats = gated.stats()
        assert stats["certificate_skips"] == gated.certificate_skips > 0
        assert sum(region.certificate_skips
                   for region in gated.repair_log) == gated.certificate_skips
        assert stats["repair_edges_added"] > 0
        # A proof independent of the tiered screens and of sampling: the
        # exact search finds no breaking fault set for any rejected edge.
        exact = BranchAndBoundOracle(kernel)
        csr = csr_snapshot(gated.spanner)
        model = get_fault_model(fault_model)
        for u, v, w in all_rejected_candidates(gated.graph, gated.spanner):
            assert exact.find_breaking_fault_set_csr(
                csr, u, v, spec.stretch * w, max_faults, model) is None, (u, v)

    def test_certificates_track_the_spanner_edges_they_use(self):
        graph = generators.gnm(18, 64, rng=5, connected=True, weighted=True)
        dyn = DynamicSpanner(graph, _spec())
        assert not dyn.certificates  # a fresh maintainer holds none
        dyn.apply_journal(random_journal(graph.copy(), 40, rng=29))
        assert dyn.certificates
        for key, edges in dyn.certificates.items():
            # Certified edges are rejected, and their paths run through H.
            assert dyn.graph.has_edge(*key) and not dyn.spanner.has_edge(*key)
            assert edges and all(dyn.spanner.has_edge(*edge) for edge in edges)
        # Deleting a spanner edge drops exactly the certificates through it.
        uses = Counter(edge for used in dyn.certificates.values()
                       for edge in used)
        edge, _ = uses.most_common(1)[0]
        others = {key: used for key, used in dyn.certificates.items()
                  if edge not in used}
        dyn.apply(EdgeDelete(*edge))
        assert not any(edge in used for used in dyn.certificates.values())
        assert all(dyn.certificates[key] == used
                   for key, used in others.items())
        # Deleting a rejected edge drops its own certificate.
        key = next(iter(dyn.certificates))
        dyn.apply(EdgeDelete(*key))
        assert key not in dyn.certificates


# --------------------------------------------------------------------------
# DynamicSpanner maintenance
# --------------------------------------------------------------------------

class TestDynamicSpanner:
    def test_rejects_non_greedy_specs_and_heuristic_oracles(self):
        graph = generators.gnm(8, 14, rng=0, connected=True)
        with pytest.raises(BuildError):
            DynamicSpanner(graph, BuildSpec("trivial", stretch=3, max_faults=1))
        with pytest.raises(BuildError):
            DynamicSpanner(graph, _spec(oracle="greedy-path-packing"))

    def test_invalid_ops_raise_update_error_and_change_nothing(self):
        graph = generators.gnm(10, 20, rng=2, connected=True, weighted=True)
        dyn = DynamicSpanner(graph, _spec())
        graph_version = dyn.graph.version
        spanner_version = dyn.spanner.version
        missing = ("zz1", "zz2")
        # Every invalid kind surfaces as UpdateError (never a raw
        # GraphError), with graph, spanner, and journal untouched.
        with pytest.raises(UpdateError):
            dyn.apply(WeightChange(*missing, 1.5))
        with pytest.raises(UpdateError):
            dyn.apply(EdgeDelete(*missing))
        existing = next(iter(dyn.graph.edge_keys()))
        with pytest.raises(UpdateError):
            dyn.apply(EdgeInsert(*existing, 1.0))
        assert dyn.graph.version == graph_version
        assert dyn.spanner.version == spanner_version
        assert dyn.updates_applied == 0 and len(dyn.journal) == 0

    def test_insert_of_bridge_to_new_node_is_accepted(self):
        graph = generators.gnm(10, 20, rng=2, connected=True)
        dyn = DynamicSpanner(graph, _spec())
        outcome = dyn.apply(EdgeInsert("new", 0, 1.0))
        assert outcome.accepted is True
        assert dyn.spanner.has_edge("new", 0)
        assert dyn.spanner.has_node("new")

    def test_insert_of_redundant_heavy_edge_is_rejected(self):
        # A heavy chord across a dense cluster: H already provides many
        # disjoint short detours, so no single fault can break the pair.
        graph = generators.complete_graph(8)
        dyn = DynamicSpanner(graph.copy(), _spec(stretch=3))
        deleted = dyn.apply(EdgeDelete(0, 1))
        assert deleted.spanner_changed  # complete graphs keep every edge
        outcome = dyn.apply(EdgeInsert(0, 1, 3.0))
        assert outcome.accepted is False  # dist_{H\F}(0,1) = 2 <= 3*3 always
        assert not dyn.spanner.has_edge(0, 1)

    def test_delete_of_rejected_edge_is_free(self):
        graph = generators.gnm(16, 48, rng=5, connected=True, weighted=True)
        dyn = DynamicSpanner(graph, _spec())
        rejected = all_rejected_candidates(dyn.graph, dyn.spanner)
        assert rejected, "fixture should reject some edges"
        u, v, _ = rejected[0]
        spanner_version = dyn.spanner.version
        outcome = dyn.apply(EdgeDelete(u, v))
        assert outcome.region is None and not outcome.spanner_changed
        assert dyn.spanner.version == spanner_version
        assert dyn.repairs == 0

    def test_same_weight_reweight_leaves_spanner_untouched(self):
        graph = generators.gnm(14, 40, rng=6, connected=True, weighted=True)
        live = LiveEngine(DynamicSpanner(graph, _spec()))
        dyn = live.dynamic
        u, v = next(iter(sorted(dyn.spanner.edge_keys(), key=repr)))
        nodes = list(graph.nodes())
        live.distances_batch([(nodes[0], t, ()) for t in nodes[1:4]])
        spanner_version = dyn.spanner.version
        snapshot = csr_snapshot(dyn.spanner)
        outcome = live.apply(WeightChange(u, v, dyn.spanner.weight(u, v)))
        assert not outcome.spanner_changed and outcome.region is None
        assert dyn.spanner.version == spanner_version
        assert csr_snapshot(dyn.spanner) is snapshot
        assert live.cache_invalidations == 0
        assert len(live.engine.cache) == 1

    def test_reweight_cases(self):
        graph = generators.gnm(14, 40, rng=6, connected=True, weighted=True)
        dyn = DynamicSpanner(graph, _spec())
        spanner_edge = next(iter(sorted(dyn.spanner.edge_keys(), key=repr)))
        u, v = spanner_edge
        weight = dyn.spanner.weight(u, v)
        # Decrease of a spanner edge: provably free, weights mirrored.
        outcome = dyn.apply(WeightChange(u, v, weight / 2))
        assert outcome.region is None
        assert dyn.spanner.weight(u, v) == weight / 2
        assert dyn.graph.weight(u, v) == weight / 2
        # Increase of a spanner edge: opens a region, stays in H.
        outcome = dyn.apply(WeightChange(u, v, weight * 4))
        assert outcome.region is not None and outcome.region.reason == "reweight"
        assert dyn.spanner.weight(u, v) == weight * 4
        rejected = all_rejected_candidates(dyn.graph, dyn.spanner)
        if rejected:
            a, b, w = rejected[0]
            # Increase of a rejected edge: free.
            outcome = dyn.apply(WeightChange(a, b, w * 2))
            assert outcome.accepted is None and outcome.region is None
            # Steep decrease of a rejected edge: re-tested (and a near-zero
            # weight makes every detour too long, so it re-enters H).
            outcome = dyn.apply(WeightChange(a, b, w / 1000))
            assert outcome.accepted is True
            assert dyn.spanner.has_edge(a, b)

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_maintained_spanner_stays_ft_exhaustively(self, fault_model):
        """After N mixed updates the invariant holds — checked exhaustively."""
        graph = generators.gnm(12, 30, rng=8, connected=True, weighted=True)
        spec = _spec(fault_model=fault_model)
        dyn = DynamicSpanner(graph, spec)
        journal = random_journal(graph, 40, rng=13)
        dyn.apply_journal(journal)
        report = is_ft_spanner(dyn.graph, dyn.spanner, spec.stretch,
                               spec.max_faults, fault_model,
                               method="exhaustive")
        assert report.exhaustive and report.ok, report.notes
        # And the built-in certifier agrees (same machinery, recorded).
        record = dyn.certify(method="exhaustive")
        assert record.ok and dyn.certifications[-1] is record

    def test_maintenance_is_deterministic_and_journaled(self):
        graph = generators.gnm(14, 36, rng=9, connected=True, weighted=True)
        base = graph.copy()
        journal = random_journal(graph, 30, rng=21)
        first = DynamicSpanner(graph, _spec())
        first.apply_journal(journal)
        second = DynamicSpanner(base.copy(), _spec())
        second.apply_journal(journal)
        assert first.spanner.same_structure(second.spanner)
        assert first.witnesses == second.witnesses
        # The applied-updates journal reproduces the live graph from base.
        replayed = first.journal.replay(base)
        assert replayed.same_structure(first.graph)

    def test_adopting_a_foreign_result_is_rejected(self):
        graph = generators.gnm(10, 20, rng=3, connected=True)
        other = generators.gnm(10, 24, rng=4, connected=True)
        result = build(other, _spec())
        with pytest.raises(BuildError):
            DynamicSpanner(graph, _spec(), result=result)

    def test_from_snapshot_requires_original_and_spec(self):
        graph = generators.gnm(10, 22, rng=5, connected=True)
        session = BuildSession(graph, _spec())
        snapshot = session.snapshot(keep_original=False)
        with pytest.raises(BuildError):
            DynamicSpanner.from_snapshot(snapshot)
        full = session.snapshot(keep_original=True)
        full.metadata.pop("build_spec")
        with pytest.raises(BuildError):
            DynamicSpanner.from_snapshot(full)
        dyn = DynamicSpanner.from_snapshot(full, spec=_spec())
        assert dyn.certify(method="exhaustive").ok

    def test_build_session_dynamic_entry_point(self):
        graph = generators.gnm(12, 28, rng=6, connected=True, weighted=True)
        session = BuildSession(graph, _spec())
        dyn = session.dynamic()
        assert dyn.spanner is session.result.spanner  # adopts, not rebuilds
        assert dyn.witnesses == session.result.witness_fault_sets
        dyn.apply(EdgeDelete(*next(iter(sorted(dyn.spanner.edge_keys(),
                                               key=repr)))))
        assert dyn.certify(method="exhaustive").ok


# --------------------------------------------------------------------------
# Serial == sharded (repair sweeps and re-certification)
# --------------------------------------------------------------------------

class TestShardedMaintenance:
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_sharded_repair_is_byte_identical_to_serial(self, fault_model,
                                                        monkeypatch):
        # Record every sweep the sharded maintainer runs.
        sweeps = []

        def recording_sweep(*args, **kwargs):
            sweeps.append(acceptance_sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr("repro.dynamic.maintain.acceptance_sweep",
                            recording_sweep)
        # The exhaustive oracle also exercises the shipped-elements path.
        for oracle in (None, "exhaustive"):
            graph = generators.gnm(20, 64, rng=10, connected=True,
                                   weighted=True)
            journal = random_journal(graph, 60, rng=17)
            spec = _spec(fault_model=fault_model, oracle=oracle)
            serial = DynamicSpanner(graph.copy(), spec)
            serial.apply_journal(journal)
            # Serial tiered repairs hold certificates and skip candidates by
            # them; the exact-search oracle records none.
            if oracle is None:
                assert serial.certificates and serial.certificate_skips > 0
            else:
                assert not serial.certificates
            sweeps.clear()
            sharded = DynamicSpanner(
                graph.copy(), spec.replace(workers=2, backend="process"))
            before = get_registry().counters(include_sources=True)
            sharded.apply_journal(journal)
            moved = get_registry().counters_delta(before, include_sources=True)
            # Maintenance moves dynamic.* counters, never the build.* family.
            assert moved.get("dynamic.repairs", 0) > 0
            assert not [name for name in moved if name.startswith("build.")]
            assert sharded.spanner.same_structure(serial.spanner)
            assert (list(sharded.spanner.edges())
                    == list(serial.spanner.edges()))
            assert sharded.witnesses == serial.witnesses
            # Repairs went speculative, and one re-checked a stale accept.
            assert any(sweep.batches for sweep in sweeps)
            assert any(sweep.rechecks for sweep in sweeps)
        # Worker-side oracle work is folded into the counters: a sharded run
        # reports at least the serial work (speculation can only add).
        assert (sharded.stats()["oracle_queries"]
                >= serial.stats()["oracle_queries"] > 0)
        # Re-certification shards through the same backends, bit-identically.
        serial_record = serial.certify(method="exhaustive")
        sharded_record = sharded.certify(method="exhaustive")
        assert serial_record.ok and sharded_record.ok
        assert (sharded_record.report.fault_sets_checked
                == serial_record.report.fault_sets_checked)
        assert (sharded_record.report.worst_stretch
                == serial_record.report.worst_stretch)


class TestTieredOracleMaintenance:
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_tiered_repair_is_byte_identical_to_exact(self, fault_model):
        """Repair sweeps re-ask the oracle about dirty candidates; the tiered
        screens must leave every re-admission decision (and witness)
        unchanged across a whole churn journal."""
        graph = generators.gnm(20, 64, rng=10, connected=True, weighted=True)
        exact = DynamicSpanner(
            graph.copy(),
            _spec(fault_model=fault_model, oracle="branch-and-bound"))
        # Interleave the random churn with reweights of edges that are in H
        # when they apply, alternately up (a repair sweep) and down (free,
        # but H's snapshot is recompiled under the oracle's warm cache).
        journal = []
        for step, update in enumerate(random_journal(graph, 30, rng=17)):
            exact.apply(update)
            journal.append(update)
            if step % 3 == 2:
                edges = list(exact.spanner.edges())
                u, v, weight = edges[(7 * step) % len(edges)]
                factor = 2.5 if step % 2 else 0.5
                reweight = WeightChange(u, v, weight * factor)
                exact.apply(reweight)
                journal.append(reweight)
        tiered = DynamicSpanner(
            graph.copy(), _spec(fault_model=fault_model, oracle="tiered"))
        default = DynamicSpanner(graph.copy(), _spec(fault_model=fault_model))
        assert default.oracle.name == "tiered"
        for other in (tiered, default):
            other.apply_journal(journal)
            assert list(other.spanner.edges()) == list(exact.spanner.edges())
            assert other.witnesses == exact.witnesses


# --------------------------------------------------------------------------
# LiveEngine
# --------------------------------------------------------------------------

class TestLiveEngine:
    def _reference(self, spanner, source, target, faults):
        view = graph_minus(spanner, nodes=faults)
        return dijkstra_distances(view, source).get(target, math.inf)

    def test_answers_match_reference_across_churn(self):
        graph = generators.gnm(22, 60, rng=11, connected=True, weighted=True)
        session = BuildSession(graph, _spec())
        live = LiveEngine(session.dynamic())
        nodes = list(graph.nodes())
        queries = [(nodes[i], nodes[-1 - i], (nodes[(3 * i + 2) % len(nodes)],))
                   for i in range(6)]
        queries = [(s, t, f) for s, t, f in queries
                   if s != t and f[0] not in (s, t)]
        for chunk in range(4):
            answers = live.distances_batch(queries)
            for (s, t, f), got in zip(queries, answers):
                assert got == self._reference(live.dynamic.spanner, s, t, f)
            live.apply_journal(random_journal(live.dynamic.graph, 8,
                                              rng=100 + chunk))
        assert live.updates_applied == 32
        assert live.certify(method="sampled", samples=25, rng=0).ok

    @pytest.mark.parametrize("kernel", ["loop", "numpy"])
    def test_reads_use_the_spec_kernel(self, kernel):
        if kernel == "numpy":
            pytest.importorskip("numpy")
        graph = generators.gnm(16, 48, rng=12, connected=True, weighted=True)
        live = LiveEngine(BuildSession(graph, _spec(kernel=kernel)).dynamic())
        assert live.stats()["kernel"] == kernel

    def test_cache_survives_spanner_neutral_updates(self):
        graph = generators.gnm(16, 48, rng=12, connected=True, weighted=True)
        live = LiveEngine(BuildSession(graph, _spec()).dynamic())
        rejected = all_rejected_candidates(live.dynamic.graph,
                                           live.dynamic.spanner)
        assert rejected
        nodes = list(graph.nodes())
        batch = [(nodes[0], t, ()) for t in nodes[1:5]]
        live.distances_batch(batch)  # populate one cached vector
        assert len(live.engine.cache) == 1
        # Deleting a rejected edge leaves H untouched: the cache survives.
        u, v, _ = rejected[0]
        live.apply(EdgeDelete(u, v))
        assert live.cache_invalidations == 0
        hits_before = live.engine.cache.hits
        live.distances_batch(batch)
        assert live.engine.cache.hits == hits_before + 1
        # A spanner-changing update flushes it, attributed to the update.
        spanner_edge = next(iter(sorted(live.dynamic.spanner.edge_keys(),
                                        key=repr)))
        live.apply(EdgeDelete(*spanner_edge))
        assert live.cache_invalidations == 1
        assert len(live.engine.cache) == 0

    def test_stats_merge_serving_and_maintenance(self):
        graph = generators.gnm(12, 30, rng=13, connected=True)
        live = LiveEngine(BuildSession(graph, _spec()).dynamic())
        live.distance(0, 5)
        live.apply_journal(random_journal(graph, 5, rng=1))
        stats = live.stats()
        assert stats["updates_applied"] == 5
        assert stats["maintenance"]["updates_applied"] == 5
        assert "update_cache_invalidations" in stats
        assert stats["queries_served"] == 1


class TestInterleavedSessions:
    """Two client sessions interleaving over one :class:`LiveEngine`.

    The serving daemon multiplexes many connections onto one engine, so the
    result cache must behave under interleaved traffic: overlapping
    ``(source, fault-set)`` groups from different clients share one cached
    vector, an invalidating update flushes it exactly once (attributed to
    the update, not to either client), and every answer either side of the
    update equals the dict-reference Dijkstra over the then-current spanner.
    """

    def _reference(self, spanner, source, target, faults):
        view = graph_minus(spanner, nodes=faults)
        return dijkstra_distances(view, source).get(target, math.inf)

    def test_overlapping_groups_across_invalidating_update(self):
        graph = generators.gnm(20, 55, rng=21, connected=True, weighted=True)
        live = LiveEngine(BuildSession(graph, _spec()).dynamic())
        nodes = sorted(graph.nodes())
        source, fault = nodes[0], nodes[7]
        # Both clients query the same (source, fault-set) group — the unit
        # the cache keys on — with different (overlapping) target sets.
        client_a = [(source, t, (fault,)) for t in nodes[1:6]
                    if t not in (source, fault)]
        client_b = [(source, t, (fault,)) for t in nodes[4:9]
                    if t not in (source, fault)]

        def serve_and_check(queries):
            answers = live.distances_batch(queries)
            for (s, t, f), got in zip(queries, answers):
                assert got == self._reference(live.dynamic.spanner, s, t, f)

        # Interleave: A populates the group vector, B rides it.
        serve_and_check(client_a)
        hits_before = live.engine.cache.hits
        serve_and_check(client_b)
        assert live.engine.cache.hits == hits_before + 1
        assert live.cache_invalidations == 0

        # An invalidating update lands between the sessions: deleting a
        # spanner edge moves H's version, so the shared vector dies — once,
        # attributed to the update.
        spanner_edge = next(iter(sorted(live.dynamic.spanner.edge_keys(),
                                        key=repr)))
        live.apply(EdgeDelete(*spanner_edge))
        assert live.cache_invalidations == 1
        assert len(live.engine.cache) == 0

        # Both clients keep going; answers track the mutated spanner and
        # the cache rebuilds without further invalidations.
        serve_and_check(client_b)
        serve_and_check(client_a)
        assert live.cache_invalidations == 1
        assert live.engine.cache.hits > hits_before + 1


# --------------------------------------------------------------------------
# The update_churn workload generator
# --------------------------------------------------------------------------

class TestUpdateChurnWorkload:
    def test_stream_shape_and_determinism(self):
        graph = generators.gnm(18, 40, rng=14, connected=True, weighted=True)
        events = update_churn(graph, 6, 10, updates_per_session=3,
                              max_faults=1, rng=7)
        assert events == update_churn(graph, 6, 10, updates_per_session=3,
                                      max_faults=1, rng=7)
        queries = [e for e in events if isinstance(e, Query)]
        updates = [e for e in events if not isinstance(e, Query)]
        assert len(queries) == 60 and len(updates) == 18

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_stream_applies_cleanly_through_a_live_engine(self, fault_model):
        graph = generators.gnm(16, 40, rng=15, connected=True, weighted=True)
        events = update_churn(graph, 5, 8, updates_per_session=2,
                              max_faults=1, fault_model=fault_model, rng=9)
        live = LiveEngine(BuildSession(
            graph, _spec(fault_model=fault_model)).dynamic())
        batch = []
        for event in events:
            if isinstance(event, Query):
                batch.append((event.source, event.target, event.faults))
            else:
                if batch:
                    live.distances_batch(batch)
                    batch = []
                live.apply(event)
        if batch:
            live.distances_batch(batch)
        assert live.updates_applied == 10
        assert live.certify(method="sampled", samples=20, rng=0).ok


# --------------------------------------------------------------------------
# The acceptance anchor: 200+ updates on a 100+-node graph
# --------------------------------------------------------------------------

class TestAcceptanceAnchor:
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_200_update_journal_on_100_node_graph(self, fault_model):
        """Incremental maintenance over a long journal stays certified, and
        its size stays within a small factor of a from-scratch rebuild."""
        graph = generators.gnm(100, 240, rng=16, connected=True, weighted=True)
        spec = _spec(fault_model=fault_model)
        dyn = DynamicSpanner(graph.copy(), spec)
        journal = random_journal(graph, 200, rng=23)
        dyn.apply_journal(journal)
        assert dyn.updates_applied == 200
        # Sampled certification (the exhaustive space is astronomically big).
        record = dyn.certify(method="sampled", samples=40, rng=0)
        assert record.ok, record.report.notes
        # Size-vs-rebuild: arrival order loses to weight order, but the
        # online factor stays small (documented in README / BENCH_dynamic).
        rebuilt = dyn.rebuild()
        ratio = dyn.spanner.number_of_edges() / rebuilt.spanner.number_of_edges()
        assert ratio <= 2.0, f"online size factor blew up: {ratio:.2f}"
        # The rebuilt spanner certifies under the same sampled fault sets.
        rebuilt_report = is_ft_spanner(
            dyn.graph, rebuilt.spanner, spec.stretch, spec.max_faults,
            fault_model, method="sampled", samples=40, rng=0)
        assert rebuilt_report.ok
