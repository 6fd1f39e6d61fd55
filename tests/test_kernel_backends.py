"""Kernel-registry tests: loop ≡ numpy byte identity, registry contract, CSR views.

The numpy backend is the loop backend with four calls replaced, and its
whole contract is that it is *behaviourally invisible*: every replacement
returns byte-identical values to the loop kernel it replaces — distances,
settle orders, early exits — under any combination of fault masks, cutoffs,
and weights.  These tests pin which calls numpy replaces, drive the
replacements' identity property-style, then pin the registry surface (names,
errors, auto gating, env override), the zero-copy CSR view lifecycle, the
batched mask matrix, and the end-to-end consumers (engine, verify,
adversarial, BuildSpec, CLI) on both backends.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.build.spec import BuildError, BuildSpec
from repro.graph import generators
from repro.graph.core import Graph
from repro.graph.csr import csr_snapshot
from repro.paths.registry import (
    _UNAVAILABLE,
    AUTO_NODE_THRESHOLD,
    KERNEL_ENV_VAR,
    SERVING_NODE_THRESHOLD,
    KernelBackend,
    describe_kernel_backends,
    get_kernels,
    kernel_backend_names,
)
from repro.utils.rng import RandomSource

HAS_NUMPY = "numpy" in kernel_backend_names()
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _random_graph(n, extra_edges, seed, weighted):
    rng = RandomSource(seed)
    graph = Graph()
    for i in range(n):
        graph.add_node(i)
    for i in range(1, n):  # random spanning tree keeps most pairs reachable
        j = rng.randint(0, i - 1)
        graph.add_edge(i, j, rng.uniform(0.5, 4.0) if weighted else 1.0)
    for _ in range(extra_edges):
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.uniform(0.5, 4.0) if weighted else 1.0)
    return graph


def _random_masks(csr, rng, fraction=0.2):
    """A random (vertex_mask, edge_mask) pair, either possibly None."""
    vertex_mask = edge_mask = None
    if rng.random() < 0.8:
        nodes = [i for i in range(csr.num_nodes) if rng.random() < fraction]
        vertex_mask = bytearray(csr.num_nodes)
        for i in nodes:
            vertex_mask[i] = 1
    if rng.random() < 0.8:
        edge_mask = bytearray(csr.num_edges)
        for e in range(csr.num_edges):
            if rng.random() < fraction:
                edge_mask[e] = 1
    return vertex_mask, edge_mask


# --------------------------------------------------------------------------
# numpy's four overrides: which calls, and their byte identity
# --------------------------------------------------------------------------

#: The calls the numpy backend replaces; every other one is the loop kernel.
NUMPY_OVERRIDES = {"sssp_dijkstra_csr", "multi_target_dijkstra_csr",
                   "multi_source_sssp", "multi_source_multi_target"}


@needs_numpy
class TestKernelEquivalence:
    def test_numpy_is_loop_plus_four_overrides(self):
        loop = get_kernels("loop")
        npk = get_kernels("numpy")
        for kernel in dataclasses.fields(KernelBackend):
            if kernel.name in ("name", "description"):
                continue
            ours = getattr(npk, kernel.name)
            if kernel.name in NUMPY_OVERRIDES:
                assert ours is not None
                assert ours is not getattr(loop, kernel.name), kernel.name
            else:
                assert ours is getattr(loop, kernel.name), kernel.name

    @SETTINGS
    @given(n=st.integers(2, 26), extra=st.integers(0, 40),
           seed=st.integers(0, 10_000), weighted=st.booleans())
    def test_all_kernels_byte_identical(self, n, extra, seed, weighted):
        graph = _random_graph(n, extra, seed, weighted)
        csr = csr_snapshot(graph)
        loop = get_kernels("loop")
        npk = get_kernels("numpy")
        rng = RandomSource(seed + 1)
        vm, em = _random_masks(csr, rng)
        source = rng.randint(0, n - 1)
        cutoff = rng.choice([-1.0, 0.0, 1.5, 3.0, 10.0, None])
        targets = [rng.randint(0, n - 1) for _ in range(rng.randint(0, 5))]
        if targets and rng.random() < 0.5:
            targets.append(targets[0])  # duplicates fill independently

        assert (loop.sssp_dijkstra_csr(csr, source, cutoff, vm, em)
                == npk.sssp_dijkstra_csr(csr, source, cutoff, vm, em))
        assert (loop.multi_target_dijkstra_csr(csr, source, targets, vm, em)
                == npk.multi_target_dijkstra_csr(csr, source, targets, vm, em))

    @SETTINGS
    @given(n=st.integers(3, 20), extra=st.integers(0, 30),
           seed=st.integers(0, 10_000), groups=st.integers(1, 5),
           vertex_model=st.booleans())
    def test_multi_source_matches_per_group(self, n, extra, seed, groups,
                                            vertex_model):
        import numpy as np

        graph = _random_graph(n, extra, seed, weighted=True)
        csr = csr_snapshot(graph)
        loop = get_kernels("loop")
        npk = get_kernels("numpy")
        rng = RandomSource(seed + 2)
        sources = [rng.randint(0, n - 1) for _ in range(groups)]
        width = csr.num_nodes if vertex_model else csr.num_edges
        matrix = np.zeros((groups, width), dtype=np.uint8)
        for g in range(groups):
            for i in range(width):
                if rng.random() < 0.15:
                    matrix[g, i] = 1
        vms, ems = (matrix, None) if vertex_model else (None, matrix)
        target_lists = [[rng.randint(0, n - 1) for _ in range(rng.randint(0, 3))]
                        for _ in range(groups)]

        fused = npk.multi_source_sssp(csr, sources, vms, ems)
        for g, source in enumerate(sources):
            row = bytearray(matrix[g].tobytes())
            vm, em = (row, None) if vertex_model else (None, row)
            dist, _ = loop.sssp_dijkstra_csr(csr, source, None, vm, em)
            assert fused[g] == dist

        fused_mt = npk.multi_source_multi_target(csr, sources, target_lists,
                                                 vms, ems)
        for g, source in enumerate(sources):
            row = bytearray(matrix[g].tobytes())
            vm, em = (row, None) if vertex_model else (None, row)
            assert fused_mt[g] == loop.multi_target_dijkstra_csr(
                csr, source, target_lists[g], vm, em)

    def test_kernels_identical_after_incremental_append(self):
        graph = _random_graph(18, 20, 7, weighted=True)
        csr = csr_snapshot(graph)
        loop = get_kernels("loop")
        npk = get_kernels("numpy")
        rng = RandomSource(11)
        for _ in range(80):  # grow through the overflow + compaction cycle
            u, v = rng.randint(0, 18 - 1), rng.randint(0, 18 - 1)
            if u == v or graph.has_edge(u, v):
                continue
            graph.add_edge(u, v, rng.uniform(0.5, 3.0))
        csr = csr_snapshot(graph)
        for source in range(0, 18, 3):
            assert (loop.sssp_dijkstra_csr(csr, source)
                    == npk.sssp_dijkstra_csr(csr, source))


# --------------------------------------------------------------------------
# Registry contract
# --------------------------------------------------------------------------

class TestRegistry:
    def test_loop_and_auto_always_registered(self):
        names = kernel_backend_names()
        assert "loop" in names and "auto" in names

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="loop"):
            get_kernels("bogus")

    def test_unavailable_name_raises_runtime_error(self):
        _UNAVAILABLE["fake-backend"] = "left the building"
        try:
            with pytest.raises(RuntimeError, match="left the building"):
                get_kernels("fake-backend")
        finally:
            del _UNAVAILABLE["fake-backend"]

    def test_backend_instance_passes_through(self):
        backend = get_kernels("loop")
        assert get_kernels(backend) is backend

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "loop")
        assert get_kernels(None).name == "loop"
        monkeypatch.setenv(KERNEL_ENV_VAR, "")
        assert get_kernels(None).name == "auto"
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert get_kernels(None).name == "auto"

    def test_describe_covers_loop(self):
        rows = {row["name"]: row for row in describe_kernel_backends()}
        assert rows["loop"]["available"] is True
        assert rows["auto"]["available"] is True

    def test_loop_resolve_is_identity(self):
        csr = csr_snapshot(_random_graph(5, 2, 0, False))
        loop = get_kernels("loop")
        assert loop.resolve(csr) is loop

    @needs_numpy
    def test_auto_gates_on_node_count(self):
        class FakeCSR:
            num_nodes = AUTO_NODE_THRESHOLD

        auto = get_kernels("auto")
        assert auto.resolve(FakeCSR()).name == "numpy"
        FakeCSR.num_nodes = AUTO_NODE_THRESHOLD - 1
        assert auto.resolve(FakeCSR()).name == "loop"

    @needs_numpy
    def test_auto_serving_gates_at_the_crossover(self):
        class FakeCSR:
            num_nodes = SERVING_NODE_THRESHOLD

        auto = get_kernels("auto")
        assert auto.resolve_serving(FakeCSR()).name == "numpy"
        assert auto.resolve(FakeCSR()).name == "loop"
        FakeCSR.num_nodes = SERVING_NODE_THRESHOLD - 1
        assert auto.resolve_serving(FakeCSR()).name == "loop"
        loop = get_kernels("loop")
        assert loop.resolve_serving(FakeCSR()) is loop

    def test_auto_dispatch_without_resolve(self):
        # Consumers that call the auto backend's kernels directly still get
        # the size gate, applied per call.
        graph = _random_graph(8, 6, 3, True)
        csr = csr_snapshot(graph)
        auto = get_kernels("auto")
        loop = get_kernels("loop")
        assert (auto.sssp_dijkstra_csr(csr, 0)
                == loop.sssp_dijkstra_csr(csr, 0))


# --------------------------------------------------------------------------
# BuildSpec integration
# --------------------------------------------------------------------------

class TestBuildSpecKernel:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(BuildError, match="kernel"):
            BuildSpec("greedy", kernel="bogus")

    def test_non_string_kernel_rejected(self):
        with pytest.raises(BuildError, match="kernel"):
            BuildSpec("greedy", kernel=get_kernels("loop"))

    def test_kernel_round_trips_through_json(self):
        spec = BuildSpec("ft-greedy", max_faults=1, kernel="loop")
        assert spec.to_json()["kernel"] == "loop"
        assert BuildSpec.from_json(spec.to_json()) == spec
        assert "kernel=loop" in spec.summary()

    def test_default_kernel_is_unset(self):
        spec = BuildSpec("greedy")
        assert spec.kernel is None
        assert "kernel" not in spec.summary()


# --------------------------------------------------------------------------
# Zero-copy CSR views
# --------------------------------------------------------------------------

@needs_numpy
class TestCSRViews:
    def test_views_are_zero_copy_and_cached(self):
        csr = csr_snapshot(_random_graph(10, 8, 1, True))
        indptr, indices, weights, edge_ids = csr.as_ndarrays()
        again = csr.as_ndarrays()
        assert again[0] is indptr and again[1] is indices
        assert list(indptr) == list(csr.indptr)
        # Zero copy: an in-place write to the source array shows in the view.
        old = csr.weights[0]
        csr.weights[0] = 99.5
        assert weights[0] == 99.5
        csr.weights[0] = old

    def test_compact_preserves_indptr_view_identity(self):
        graph = _random_graph(12, 6, 2, True)
        csr = csr_snapshot(graph)
        indptr_before = csr.as_ndarrays()[0]
        indices_before = csr.as_ndarrays()[1]
        rng = RandomSource(5)
        appended = 0
        for _ in range(200):
            u, v = rng.randint(0, 12 - 1), rng.randint(0, 12 - 1)
            if u == v or (min(u, v), max(u, v)) in csr.edge_index:
                continue
            csr.append_edge(u, v, rng.uniform(0.5, 2.0))
            appended += 1
        assert appended > 0 and csr._extra_count > 0
        indptr_after, indices_after, _, _ = csr.as_ndarrays()  # compacts
        assert csr._extra_count == 0
        assert indptr_after is indptr_before  # rewritten in place
        assert indices_after is not indices_before  # data arrays replaced
        loop = get_kernels("loop")
        npk = get_kernels("numpy")
        assert loop.sssp_dijkstra_csr(csr, 0) == npk.sssp_dijkstra_csr(csr, 0)

    def test_reverse_arcs_pairs_opposite_arcs(self):
        csr = csr_snapshot(_random_graph(9, 10, 4, False))
        _, indices, _, edge_ids = csr.as_ndarrays()
        rev = csr.reverse_arcs()
        assert csr.reverse_arcs() is rev  # cached
        for t in range(len(indices)):
            assert rev[rev[t]] == t
            assert edge_ids[rev[t]] == edge_ids[t]

    def test_views_never_survive_pickling(self):
        import pickle

        csr = csr_snapshot(_random_graph(6, 4, 8, True))
        csr.as_ndarrays()
        clone = pickle.loads(pickle.dumps(csr))
        assert clone._nd_views == {}
        assert list(clone.indptr) == list(csr.indptr)


# --------------------------------------------------------------------------
# MaskMatrix
# --------------------------------------------------------------------------

@needs_numpy
class TestMaskMatrix:
    def test_rows_match_fault_model_and_clear_between_plans(self):
        from repro.engine.batch import MaskMatrix
        from repro.faults.models import get_fault_model

        graph = _random_graph(10, 10, 3, False)
        csr = csr_snapshot(graph)
        model = get_fault_model("vertex")
        matrix = MaskMatrix(csr, model)
        vms, ems = matrix.apply([(0, 1), (2,), ()])
        assert ems is None and vms.shape == (3, csr.num_nodes)
        assert vms[0, 0] == 1 and vms[0, 1] == 1 and vms[1, 2] == 1
        assert int(vms[2].sum()) == 0
        # Second plan: the previous cells are cleared, capacity is reused.
        backing = matrix._matrix
        vms, _ = matrix.apply([(5,)])
        assert matrix._matrix is backing
        assert vms.shape[0] == 1
        assert int(vms[0].sum()) == 1 and vms[0, 5] == 1

    def test_edge_model_masks_edge_axis(self):
        from repro.engine.batch import MaskMatrix
        from repro.faults.models import get_fault_model

        graph = _random_graph(8, 6, 9, False)
        csr = csr_snapshot(graph)
        model = get_fault_model("edge")
        matrix = MaskMatrix(csr, model)
        edge = next(iter(csr.edge_index))
        u, v = csr.node_of[edge[0]], csr.node_of[edge[1]]
        vms, ems = matrix.apply([((u, v),)])
        assert vms is None and ems.shape == (1, csr.num_edges)
        assert int(ems[0].sum()) == 1


# --------------------------------------------------------------------------
# End-to-end consumers on both backends
# --------------------------------------------------------------------------

@needs_numpy
class TestConsumersByteIdentical:
    @pytest.fixture(scope="class")
    def served(self):
        from repro.build import BuildSession

        graph = generators.gnm(26, 78, rng=3, connected=True)
        spec = BuildSpec("ft-greedy", stretch=3.0, max_faults=1)
        session = BuildSession(graph, spec)
        return graph, session.snapshot()

    def _workload(self, snapshot):
        from repro.engine.workload import zipf_workload

        return zipf_workload(snapshot.spanner, 300, max_faults=1,
                             fault_pool=6, fault_model="vertex", rng=0)

    def test_engine_answers_and_stats_identical(self, served):
        from repro.engine.engine import QueryEngine
        from repro.engine.workload import split_batches

        _, snapshot = served
        queries = self._workload(snapshot)
        answers, stats = {}, {}
        for name in ("loop", "numpy"):
            engine = QueryEngine(snapshot, cache_size=64, kernel=name)
            out = []
            for batch in split_batches(queries, 32):
                out.extend(engine.distances_batch(batch))
            answers[name] = out
            stats[name] = engine.stats()
        assert answers["loop"] == answers["numpy"]
        fused = stats["numpy"].pop("fused_sweeps")
        stats["loop"].pop("fused_sweeps")
        for s in stats.values():  # backend identity and wall clock may differ
            for key in ("kernel", "busy_seconds", "queries_per_second"):
                s.pop(key)
        assert stats["loop"] == stats["numpy"]
        assert fused > 0  # the batched plan actually took the fused path

    def test_stretch_audit_identical(self, served):
        from repro.engine.engine import QueryEngine

        _, snapshot = served
        loop_engine = QueryEngine(snapshot, cache_size=0, kernel="loop")
        np_engine = QueryEngine(snapshot, cache_size=0, kernel="numpy")
        nodes = list(snapshot.spanner.nodes())[:6]
        for s in nodes:
            for t in nodes:
                assert (loop_engine.stretch_audit(s, t, (nodes[0],))
                        == np_engine.stretch_audit(s, t, (nodes[0],)))

    def test_verify_reports_identical(self, served):
        from repro.spanners.verify import is_ft_spanner

        graph, snapshot = served
        reports = [
            is_ft_spanner(graph, snapshot.spanner, 3.0, 1,
                          fault_model="vertex", method="sampled",
                          samples=40, rng=0, kernel=name)
            for name in ("loop", "numpy")
        ]
        assert reports[0] == reports[1]

    def test_adversarial_identical(self, served):
        from repro.faults.adversarial import (
            random_fault_trial,
            stretch_under_faults,
        )

        graph, snapshot = served
        nodes = list(graph.nodes())
        faults = (nodes[1], nodes[4])
        assert (stretch_under_faults(graph, snapshot.spanner, "vertex",
                                     faults, kernel="loop")
                == stretch_under_faults(graph, snapshot.spanner, "vertex",
                                        faults, kernel="numpy"))
        assert (random_fault_trial(graph, snapshot.spanner, "vertex", 1,
                                   25, rng=0, kernel="loop")
                == random_fault_trial(graph, snapshot.spanner, "vertex", 1,
                                      25, rng=0, kernel="numpy"))

    def test_ft_greedy_build_identical(self):
        from repro.build import build

        graph = generators.gnm(22, 55, rng=9, connected=True)
        results = [
            build(graph, BuildSpec("ft-greedy", stretch=3.0, max_faults=1,
                                   kernel=name))
            for name in ("loop", "numpy")
        ]
        assert (sorted(results[0].spanner.edge_keys())
                == sorted(results[1].spanner.edge_keys()))
        assert results[0].witness_fault_sets == results[1].witness_fault_sets

    @pytest.mark.parametrize("fault_model", ["vertex", "edge"])
    @pytest.mark.parametrize("max_faults", [1, 2])
    def test_tie_heavy_builds_identical(self, fault_model, max_faults):
        # Unit weights tie many shortest paths; the exact searches branch on
        # the decision kernel's path, so witnesses agree across backends
        # only if both ask the same decision kernel.
        from repro.spanners.ft_greedy import ft_greedy_spanner

        for seed in range(30):
            graph = generators.gnm(22, 70, rng=seed, connected=True)
            loop, numpy = (ft_greedy_spanner(graph, 3, max_faults,
                                             fault_model, kernel=name)
                           for name in ("loop", "numpy"))
            assert (list(loop.spanner.edges())
                    == list(numpy.spanner.edges())), seed
            assert loop.witness_fault_sets == numpy.witness_fault_sets, seed

    def test_suite_style_oracle_identical(self):
        from repro.spanners.fault_check import get_oracle

        graph = generators.gnm(16, 40, rng=2, connected=True)
        from repro.faults.models import get_fault_model

        model = get_fault_model("vertex")
        nodes = list(graph.nodes())
        for name in ("branch-and-bound", "exhaustive", "greedy-path-packing"):
            loop_oracle = get_oracle(name, "loop")
            np_oracle = get_oracle(name, "numpy")
            for u, v in [(nodes[0], nodes[5]), (nodes[2], nodes[9])]:
                assert (loop_oracle.find_breaking_fault_set(graph, u, v, 3.0, 1, model)
                        == np_oracle.find_breaking_fault_set(graph, u, v, 3.0, 1, model))


# --------------------------------------------------------------------------
# CLI surface
# --------------------------------------------------------------------------

class TestCLIKernel:
    def test_spec_from_args_picks_up_kernel(self):
        from repro.cli import build_parser, spec_from_args

        parser = build_parser()
        args = parser.parse_args(["build", "g.json", "--kernel", "loop"])
        assert spec_from_args(args).kernel == "loop"

    def test_list_prints_kernels(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kernels:" in out
        assert "loop" in out
