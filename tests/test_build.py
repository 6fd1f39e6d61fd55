"""Tests for the unified construction API (:mod:`repro.build`).

Covers the four contract surfaces of the build layer:

* :class:`BuildSpec` — JSON round trip, unknown-field rejection, immutability;
* the algorithm registry — capability validation errors, listing;
* shim ↔ registry equivalence — for every registered algorithm,
  ``build(graph, spec)`` is byte-identical (spanner, witnesses, counters) to
  the direct construction-function call;
* the parallel FT-greedy build — serial ≡ parallel property (same spanner,
  same witness fault sets) for both fault models and both exact oracles;
* :class:`BuildSession` and spec-carrying snapshots — build → verify →
  snapshot → engine chaining, progress/cancel hooks, rebuild round trip.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines import (
    peeling_union_spanner,
    sampling_union_spanner,
    trivial_spanner,
)
from repro.build import (
    ALGORITHMS,
    BuildCancelled,
    BuildError,
    BuildSession,
    BuildSpec,
    available_algorithms,
    build,
    get_algorithm,
    validate_spec,
)
from repro.engine.snapshot import SpannerSnapshot
from repro.graph import generators
from repro.graph.core import GraphError
from repro.spanners.ft_greedy import eft_greedy_spanner, ft_greedy_spanner, vft_greedy_spanner
from repro.spanners.greedy import greedy_spanner


def _graph(seed: int, n: int = 18, m: int = 45):
    return generators.gnm(n, m, rng=seed, connected=True)


def _result_signature(result):
    """Everything the acceptance criterion wants byte-identical."""
    return {
        "edges": sorted(result.spanner.edges(), key=repr),
        "witnesses": dict(result.witness_fault_sets),
        "edges_considered": result.edges_considered,
        "edges_added": result.edges_added,
        "oracle_queries": result.oracle_queries,
        "distance_queries": result.distance_queries,
        "algorithm": result.algorithm,
        "fault_model": result.fault_model,
        "stretch": result.stretch,
        "max_faults": result.max_faults,
        "parameters": dict(result.parameters),
    }


# ---------------------------------------------------------------------------
# BuildSpec
# ---------------------------------------------------------------------------

class TestBuildSpec:
    def test_json_round_trip(self):
        spec = BuildSpec("sampling-union", stretch=3.5, max_faults=2,
                         fault_model="vertex", seed=7, workers=1,
                         params={"samples": 12, "max_samples": 40})
        document = spec.to_json()
        assert document["format"] == "repro-build-spec"
        assert BuildSpec.from_json(document) == spec

    def test_round_trip_through_json_text(self):
        import json
        spec = BuildSpec("ft-greedy", max_faults=1, oracle="exhaustive",
                         backend="serial")
        restored = BuildSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert restored == spec

    def test_unknown_field_rejected(self):
        document = BuildSpec("greedy").to_json()
        document["stretchh"] = 3.0
        with pytest.raises(BuildError, match="stretchh"):
            BuildSpec.from_json(document)

    def test_missing_algorithm_rejected(self):
        with pytest.raises(BuildError, match="algorithm"):
            BuildSpec.from_json({"stretch": 3.0})

    def test_wrong_format_rejected(self):
        with pytest.raises(BuildError, match="format"):
            BuildSpec.from_json({"format": "something-else", "algorithm": "greedy"})

    def test_structural_validation(self):
        with pytest.raises(BuildError):
            BuildSpec("greedy", stretch=0.5)
        with pytest.raises(BuildError):
            BuildSpec("greedy", max_faults=-1)
        with pytest.raises(BuildError):
            BuildSpec("greedy", workers=0)
        with pytest.raises(BuildError):
            BuildSpec("greedy", backend="threads")
        with pytest.raises(ValueError):
            BuildSpec("ft-greedy", fault_model="hyperedge")
        with pytest.raises(BuildError):
            BuildSpec("sampling-union", seed="not-an-int")

    def test_frozen_and_params_copied(self):
        params = {"samples": 5}
        spec = BuildSpec("sampling-union", params=params)
        params["samples"] = 99
        assert spec.params["samples"] == 5
        with pytest.raises(AttributeError):
            spec.stretch = 4.0

    def test_replace(self):
        spec = BuildSpec("ft-greedy", max_faults=1)
        heavier = spec.replace(max_faults=3, workers=1)
        assert heavier.max_faults == 3
        assert heavier.algorithm == "ft-greedy"
        assert spec.max_faults == 1

    def test_summary_mentions_the_essentials(self):
        text = BuildSpec("ft-greedy", max_faults=2, oracle="exhaustive",
                         workers=4).summary()
        assert "ft-greedy" in text and "f=2" in text
        assert "exhaustive" in text and "workers=4" in text


# ---------------------------------------------------------------------------
# Registry and capability validation
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_all_constructions_registered(self):
        names = available_algorithms()
        for expected in ("ft-greedy", "vft-greedy", "eft-greedy", "greedy",
                         "trivial", "sampling-union", "peeling-union"):
            assert expected in names

    def test_unknown_algorithm(self):
        with pytest.raises(BuildError, match="unknown algorithm"):
            get_algorithm("steiner-magic")
        with pytest.raises(BuildError, match="available"):
            validate_spec(BuildSpec("steiner-magic"))

    def test_non_ft_algorithm_rejects_fault_budget(self):
        with pytest.raises(BuildError, match="not fault tolerant"):
            validate_spec(BuildSpec("greedy", max_faults=2))

    def test_fault_model_capability_enforced(self):
        with pytest.raises(BuildError, match="fault model"):
            validate_spec(BuildSpec("peeling-union", max_faults=1,
                                    fault_model="vertex"))
        with pytest.raises(BuildError, match="fault model"):
            validate_spec(BuildSpec("sampling-union", max_faults=1,
                                    fault_model="edge"))
        with pytest.raises(BuildError, match="fault model"):
            validate_spec(BuildSpec("vft-greedy", max_faults=1,
                                    fault_model="edge"))

    def test_oracle_capability_enforced(self):
        with pytest.raises(BuildError, match="oracle"):
            validate_spec(BuildSpec("trivial", oracle="branch-and-bound"))

    def test_workers_capability_enforced(self):
        with pytest.raises(BuildError, match="not parallelizable"):
            validate_spec(BuildSpec("sampling-union", max_faults=1, workers=2))

    def test_unknown_params_rejected(self):
        with pytest.raises(BuildError, match="samples_per_edge"):
            validate_spec(BuildSpec("ft-greedy", max_faults=1,
                                    params={"samples_per_edge": 3}))

    def test_validate_returns_entry(self):
        entry = validate_spec(BuildSpec("ft-greedy", max_faults=1))
        assert entry.name == "ft-greedy"
        assert entry.capabilities.produces_witnesses

    def test_duplicate_registration_rejected(self):
        from repro.build import register_algorithm
        from repro.build.registry import AlgorithmCapabilities
        with pytest.raises(BuildError, match="already registered"):
            register_algorithm(
                "greedy", capabilities=AlgorithmCapabilities())(lambda *a: None)


# ---------------------------------------------------------------------------
# Shim <-> registry equivalence (the acceptance criterion)
# ---------------------------------------------------------------------------

class TestShimRegistryEquivalence:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_ft_greedy(self, seed, fault_model):
        graph = _graph(seed)
        direct = ft_greedy_spanner(graph, 3.0, 1, fault_model=fault_model)
        via_spec = build(graph, BuildSpec("ft-greedy", stretch=3.0,
                                          max_faults=1,
                                          fault_model=fault_model))
        assert _result_signature(direct) == _result_signature(via_spec)

    def test_vft_and_eft_pinned_variants(self):
        graph = _graph(1)
        assert (_result_signature(vft_greedy_spanner(graph, 3.0, 1))
                == _result_signature(build(graph, BuildSpec("vft-greedy",
                                                            max_faults=1))))
        assert (_result_signature(eft_greedy_spanner(graph, 3.0, 1))
                == _result_signature(build(graph, BuildSpec(
                    "eft-greedy", max_faults=1, fault_model="edge"))))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_greedy(self, seed):
        graph = _graph(seed)
        assert (_result_signature(greedy_spanner(graph, 3.0))
                == _result_signature(build(graph, BuildSpec("greedy"))))

    def test_trivial(self):
        graph = _graph(2)
        direct = trivial_spanner(graph, 3.0, 2, "edge")
        via_spec = build(graph, BuildSpec("trivial", stretch=3.0, max_faults=2,
                                          fault_model="edge"))
        assert _result_signature(direct) == _result_signature(via_spec)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_sampling_union(self, seed):
        graph = _graph(seed)
        direct = sampling_union_spanner(graph, 3.0, 1, rng=seed,
                                        max_samples=25)
        via_spec = build(graph, BuildSpec("sampling-union", stretch=3.0,
                                          max_faults=1, seed=seed,
                                          params={"max_samples": 25}))
        assert _result_signature(direct) == _result_signature(via_spec)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_peeling_union(self, seed):
        graph = _graph(seed)
        direct = peeling_union_spanner(graph, 3.0, 2)
        via_spec = build(graph, BuildSpec("peeling-union", stretch=3.0,
                                          max_faults=2, fault_model="edge"))
        assert _result_signature(direct) == _result_signature(via_spec)

    def test_oracle_choice_flows_through(self):
        graph = _graph(0, n=12, m=24)
        direct = ft_greedy_spanner(graph, 3.0, 1, oracle="greedy-path-packing")
        via_spec = build(graph, BuildSpec("ft-greedy", max_faults=1,
                                          oracle="greedy-path-packing"))
        assert _result_signature(direct) == _result_signature(via_spec)
        assert via_spec.parameters["oracle_exact"] is False


# ---------------------------------------------------------------------------
# Parallel FT-greedy: serial ≡ parallel byte identity
# ---------------------------------------------------------------------------

class TestParallelFtGreedy:
    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_serial_equals_parallel(self, fault_model, seed):
        graph = _graph(seed, n=16, m=40)
        serial = ft_greedy_spanner(graph, 3.0, 1, fault_model=fault_model)
        parallel = ft_greedy_spanner(graph, 3.0, 1, fault_model=fault_model,
                                     workers=2, backend="process")
        # Insertion order too, not just the edge set.
        assert list(serial.spanner.edges()) == list(parallel.spanner.edges())
        assert serial.witness_fault_sets == parallel.witness_fault_sets
        assert parallel.parameters["workers"] == 2
        assert parallel.parameters["backend"] == "process"
        # The version-guarded branch ran: a stale speculative accept was
        # re-checked in process, and the result is still byte-identical.
        assert parallel.parameters["speculative_rechecks"] >= 1
        assert "workers" not in serial.parameters

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    def test_serial_equals_parallel_exhaustive_oracle(self, fault_model):
        # The exhaustive oracle enumerates its candidates in the order of
        # the spanner's snapshot, which serial and worker checks both read,
        # so ties break the same way in workers as in process.
        graph = _graph(1, n=10, m=18)
        serial = ft_greedy_spanner(graph, 3.0, 1, fault_model=fault_model,
                                   oracle="exhaustive")
        parallel = ft_greedy_spanner(graph, 3.0, 1, fault_model=fault_model,
                                     oracle="exhaustive", workers=2,
                                     backend="process")
        assert list(serial.spanner.edges()) == list(parallel.spanner.edges())
        assert serial.witness_fault_sets == parallel.witness_fault_sets

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_reports_completion(self, workers):
        # 40 edges: not a multiple of the 64-edge default progress period.
        graph = _graph(3, n=16, m=40)
        events = []
        ft_greedy_spanner(graph, 3.0, 1, workers=workers, backend="process",
                          on_progress=lambda *event: events.append(event))
        assert events[-1] == ("ft-greedy", 40, 40)
        done = [event[1] for event in events]
        assert done == sorted(done) and len(done) == len(set(done))

    def test_heuristic_oracle_refused_in_parallel(self):
        graph = _graph(0, n=10, m=18)
        with pytest.raises(ValueError, match="exact oracle"):
            ft_greedy_spanner(graph, 3.0, 1, oracle="greedy-path-packing",
                              workers=2, backend="process")

    def test_parallel_f0_matches_plain_greedy_edges(self):
        graph = _graph(2, n=16, m=40)
        plain = greedy_spanner(graph, 3.0)
        parallel = ft_greedy_spanner(graph, 3.0, 0, workers=2,
                                     backend="process")
        assert list(plain.spanner.edges()) == list(parallel.spanner.edges())


# ---------------------------------------------------------------------------
# BuildSession: build -> verify -> snapshot -> serve
# ---------------------------------------------------------------------------

class TestBuildSession:
    def test_full_chain(self):
        graph = _graph(0)
        session = BuildSession(graph, BuildSpec("ft-greedy", stretch=3.0,
                                                max_faults=1))
        result = session.build()
        assert session.build() is result  # cached, not rebuilt
        report = session.verify(method="sampled", samples=10, rng=0)
        assert report.ok
        snapshot = session.snapshot()
        assert snapshot.build_spec == session.spec
        engine = session.engine(cache_size=16)
        nodes = list(graph.nodes())
        distance = engine.distance(nodes[0], nodes[1], ())
        assert distance < math.inf
        summary = session.summary()
        assert summary["built"] and summary["verified"] and summary["verify_ok"]

    def test_invalid_spec_fails_at_session_creation(self):
        with pytest.raises(BuildError):
            BuildSession(_graph(0), BuildSpec("greedy", max_faults=1))

    def test_progress_events_fire(self):
        events = []
        session = BuildSession(
            _graph(0), BuildSpec("ft-greedy", max_faults=1),
            on_progress=lambda stage, done, total: events.append(stage))
        session.build()
        session.verify(method="sampled", samples=5, rng=0)
        assert "build" in events and "verify" in events

    def test_cancellation_before_build(self):
        session = BuildSession(_graph(0), BuildSpec("ft-greedy", max_faults=1),
                               should_cancel=lambda: True)
        with pytest.raises(BuildCancelled):
            session.build()

    def test_cancellation_mid_ft_greedy(self):
        calls = {"n": 0}

        def cancel_after_five() -> bool:
            calls["n"] += 1
            return calls["n"] > 5

        with pytest.raises(BuildCancelled):
            build(_graph(0), BuildSpec("ft-greedy", max_faults=1),
                  should_cancel=cancel_after_five)

    def test_verify_catches_non_ft_construction(self):
        # The plain greedy spanner is generally not 2-fault tolerant: a
        # sampled verification under an imposed budget should refute it on
        # a dense-enough instance.
        graph = generators.gnm(20, 60, rng=0, connected=True)
        session = BuildSession(graph, BuildSpec("greedy", stretch=1.5))
        session.build()
        report = session.verify(method="sampled", samples=40, rng=1)
        # Not asserting refutation (instance-dependent); the contract is
        # that verify() runs against the spec's budget without error and
        # reports a worst stretch.
        assert report.worst_stretch >= 1.0


# ---------------------------------------------------------------------------
# Spec-carrying snapshots
# ---------------------------------------------------------------------------

class TestSnapshotBuildSpec:
    def test_snapshot_records_and_round_trips_spec(self, tmp_path):
        graph = _graph(0)
        spec = BuildSpec("ft-greedy", stretch=3.0, max_faults=1)
        snapshot = SpannerSnapshot.build(graph, spec)
        assert snapshot.build_spec == spec
        path = tmp_path / "snap.json"
        snapshot.save(path)
        restored = SpannerSnapshot.load(path)
        assert restored.build_spec == spec

    def test_rebuild_reproduces_spanner(self, tmp_path):
        graph = _graph(3)
        spec = BuildSpec("ft-greedy", stretch=3.0, max_faults=1)
        snapshot = SpannerSnapshot.build(graph, spec)
        path = tmp_path / "snap.json"
        snapshot.save(path)
        rebuilt = SpannerSnapshot.load(path).rebuild()
        assert (sorted(rebuilt.spanner.edges(), key=repr)
                == sorted(snapshot.spanner.edges(), key=repr))
        assert rebuilt.build_spec == spec

    def test_seeded_random_spec_rebuilds_identically(self):
        graph = _graph(5)
        spec = BuildSpec("sampling-union", max_faults=1, seed=11,
                         params={"max_samples": 20})
        snapshot = SpannerSnapshot.build(graph, spec)
        rebuilt = snapshot.rebuild()
        assert (sorted(rebuilt.spanner.edges(), key=repr)
                == sorted(snapshot.spanner.edges(), key=repr))

    def test_rebuild_without_spec_refuses(self):
        graph = _graph(0)
        result = greedy_spanner(graph, 3.0)
        snapshot = SpannerSnapshot.from_result(result)  # no spec recorded
        assert snapshot.build_spec is None
        with pytest.raises(GraphError, match="build spec"):
            snapshot.rebuild()

    def test_rebuild_without_original_refuses(self):
        graph = _graph(0)
        spec = BuildSpec("greedy")
        snapshot = SpannerSnapshot.build(graph, spec, keep_original=False)
        with pytest.raises(GraphError, match="original"):
            snapshot.rebuild()
        # ... but rebuilding against an explicit graph works.
        rebuilt = snapshot.rebuild(graph)
        assert (sorted(rebuilt.spanner.edges(), key=repr)
                == sorted(snapshot.spanner.edges(), key=repr))
