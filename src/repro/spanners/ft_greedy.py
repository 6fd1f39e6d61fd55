"""Algorithm 1 of the paper: the fault-tolerant greedy spanner.

::

    function ft-greedy(G = (V, E, w), k, f):
        H ← (V, ∅, w)
        for (u, v) ∈ E in order of increasing weight:
            if ∃ F, |F| ≤ f (vertices resp. edges) with dist_{H \\ F}(u, v) > k · w(u, v):
                add (u, v) to H
        return H

The existence check is delegated to a :class:`~repro.spanners.fault_check.FaultCheckOracle`
(the exact tiered oracle by default).  The witnessing fault set ``F_e`` of each
added edge is recorded — Lemma 3 turns exactly these witnesses into a
``(k + 1)``-blocking set of size at most ``f · |E(H)|``, which is how the
paper's size bound is proved and how experiment E5 validates it.

:func:`ft_greedy_spanner` is the stable front door, now a thin shim over the
algorithm registry (:mod:`repro.build`): it translates its arguments into a
:class:`~repro.build.spec.BuildSpec` and runs :func:`repro.build.build`,
which lands back in :func:`_ft_greedy` below — byte-identical spanners,
witnesses, and counters either way.  Prefer constructing through
``build(graph, BuildSpec("ft-greedy", ...))`` in new code.

Parallel construction
---------------------
With ``workers > 1`` the per-edge fault checks shard through
:mod:`repro.runtime` using *speculative batches*: a batch of upcoming edges
is checked in parallel against the spanner ``H`` frozen at batch start, then
replayed serially in weight order.  Batches grow geometrically
(:data:`_BATCH_GROWTH`), so the pool is dispatched only ``O(log m)`` times:
the accept-dense light-edge prefix is covered by small batches (few wasted
re-checks), while the reject-dominated tail — where parallel checking
actually pays — runs in a handful of large ones.  Rejections are safe to trust because the
check is monotone — ``H`` only gains edges, so distances only shrink, and a
pair no fault set could break against the smaller ``H`` cannot be broken
against any larger one.  Speculative *accepts* are trusted only while ``H``
is unchanged since batch start (then the worker's answer is exactly the
serial answer); once an earlier edge of the batch was added, later accepts
are re-checked in process against the current ``H``.  The spanner and the
witness fault sets are therefore **byte-identical** to the serial run —
property-tested in ``tests/test_build.py`` — while the work counters report
the actual (speculative) work performed.  This requires an *exact* oracle:
the heuristic path-packing oracle may answer ``None`` for reasons that do
not transfer between snapshots of ``H``, so it is rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.faults.models import FaultModel, FaultSet, get_fault_model
from repro.graph.core import Graph, Node, edge_key
from repro.graph.csr import CSRGraph, csr_snapshot
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.runtime.backend import BackendLike, ExecutionBackend, get_backend
from repro.runtime.merge import merge_counters
from repro.runtime.shard import split_sequence
from repro.spanners.base import SpannerResult
from repro.spanners.fault_check import FaultCheckOracle, get_oracle
from repro.spanners.greedy import sorted_edges
from repro.utils.logging import get_logger
from repro.utils.timing import Timer

_LOGGER = get_logger("spanners.ft_greedy")

#: Edges speculatively checked in the first parallel round, per worker.
_BATCH_EDGES_PER_WORKER = 4
#: ... but never fewer than this many per round (amortises pool dispatch).
_BATCH_MIN = 16
#: Batches double in size each round (the accept-dense light-edge prefix
#: gets fine granularity, the reject-dominated tail gets huge batches), so
#: the number of pool dispatches is O(log m) rather than O(m / batch).
_BATCH_GROWTH = 2

# Build-outcome counters on the process registry (``repro-spanner stats``):
# accept/reject tallies cover serial and parallel drivers alike, the
# speculative pair only moves under ``workers > 1``.
_ACCEPTS = get_registry().counter(
    "build.oracle_accepts", "greedy decisions that kept the edge")
_REJECTS = get_registry().counter(
    "build.oracle_rejects", "greedy decisions that dropped the edge")
_SPECULATIVE_BATCHES = get_registry().counter(
    "build.speculative_batches", "parallel speculative batches dispatched")
_SPECULATIVE_RECHECKS = get_registry().counter(
    "build.speculative_rechecks",
    "stale speculative accepts replayed in process")


def ft_greedy_spanner(graph: Graph, stretch: float, max_faults: int,
                      fault_model: "str | FaultModel" = "vertex",
                      *, oracle: "str | FaultCheckOracle | None" = None,
                      record_witnesses: bool = True,
                      progress_every: int = 0,
                      workers: int = 1,
                      backend: BackendLike = None,
                      kernel: "str | None" = None,
                      on_progress: Optional[Callable[[str, int, int], None]] = None,
                      should_cancel: Optional[Callable[[], bool]] = None) -> SpannerResult:
    """Build an ``f``-fault-tolerant ``k``-spanner with Algorithm 1.

    This is a thin shim over the algorithm registry — equivalent to
    ``repro.build.build(graph, BuildSpec("ft-greedy", ...))`` — kept so
    existing call sites and code in the wild continue to work.

    Parameters
    ----------
    graph:
        The weighted input graph ``G``.
    stretch:
        The stretch factor ``k ≥ 1``.
    max_faults:
        The fault budget ``f ≥ 0``.  ``f = 0`` reproduces the classic greedy
        spanner exactly.
    fault_model:
        ``"vertex"`` (VFT, where the paper's bound is optimal) or ``"edge"``
        (EFT).
    oracle:
        Fault-check oracle: ``"tiered"`` (default, exact: certified
        screens in front of branch-and-bound), ``"branch-and-bound"``
        (exact, byte-identical to ``"tiered"`` and slower),
        ``"exhaustive"`` (exact, slow),
        ``"greedy-path-packing"`` (heuristic, polynomial — the resulting
        spanner may not be fully fault tolerant), or an oracle instance.
    record_witnesses:
        Keep the fault set that justified each added edge (needed by the
        Lemma 3 blocking-set extraction; costs a small amount of memory).
    progress_every:
        Log progress every this many edges (0 disables logging).
    workers / backend:
        Shard the per-edge fault checks through :mod:`repro.runtime` (see
        the module docstring; requires an exact oracle).  The default runs
        the reference serial loop.
    on_progress / should_cancel:
        Optional hooks: ``on_progress("ft-greedy", edges_considered, total)``
        fires periodically; ``should_cancel()`` returning true aborts the
        build with :class:`repro.build.spec.BuildCancelled`.

    Returns
    -------
    SpannerResult
        The spanner ``H``, the witness fault sets, and work counters.  By
        Theorem 1 the size satisfies ``|E(H)| = O(f^2 · b(n/f, k+1))``; with
        stretch ``2k - 1`` this is ``O(n^{1+1/k} · f^{1-1/k})`` (Corollary 2).

    Notes
    -----
    The greedy decision for edge ``(u, v)`` is made against the *current*
    partial spanner ``H`` (not the final one), exactly as in the paper; this
    is what makes Lemma 3 work, because when a short cycle closes, its last
    edge saw the rest of the cycle already present.
    """
    if isinstance(oracle, FaultCheckOracle) or isinstance(backend, ExecutionBackend):
        # Live oracle/backend instances cannot ride inside a JSON build
        # spec; run the implementation directly (results are identical).
        return _ft_greedy(graph, stretch, max_faults, fault_model,
                          oracle=oracle, record_witnesses=record_witnesses,
                          progress_every=progress_every, workers=workers,
                          backend=backend, kernel=kernel,
                          on_progress=on_progress,
                          should_cancel=should_cancel)
    from repro.build import BuildSpec, build
    spec = BuildSpec(
        algorithm="ft-greedy", stretch=stretch, max_faults=max_faults,
        fault_model=get_fault_model(fault_model).name, oracle=oracle,
        workers=workers, backend=backend, kernel=kernel,
        params={"record_witnesses": record_witnesses,
                "progress_every": progress_every},
    )
    return build(graph, spec, on_progress=on_progress,
                 should_cancel=should_cancel)


def _ft_greedy(graph: Graph, stretch: float, max_faults: int,
               fault_model: "str | FaultModel" = "vertex",
               *, oracle: "str | FaultCheckOracle | None" = None,
               record_witnesses: bool = True,
               progress_every: int = 0,
               workers: int = 1,
               backend: BackendLike = None,
               kernel: "str | None" = None,
               on_progress: Optional[Callable[[str, int, int], None]] = None,
               should_cancel: Optional[Callable[[], bool]] = None) -> SpannerResult:
    """The FT-greedy implementation behind the registry entry and the shim."""
    if stretch < 1:
        raise ValueError("stretch must be at least 1")
    if max_faults < 0:
        raise ValueError("max_faults must be non-negative")
    model = get_fault_model(fault_model)
    checker = get_oracle(oracle, kernel)
    checker.stats.reset()

    resolved: Optional[ExecutionBackend] = None
    if workers > 1 or backend == "process" or isinstance(backend, ExecutionBackend):
        resolved = get_backend(backend, workers)
    if resolved is not None and resolved.workers > 1:
        return _ft_greedy_parallel(graph, stretch, max_faults, model, checker,
                                   resolved, kernel=kernel,
                                   record_witnesses=record_witnesses,
                                   progress_every=progress_every,
                                   on_progress=on_progress,
                                   should_cancel=should_cancel)

    spanner = graph.spanning_subgraph()
    # Compile H's CSR snapshot up front: Graph.add_edge keeps it in sync as
    # edges are kept, so the oracle's mask-based kernels never recompile
    # while H grows (thousands of bounded Dijkstra queries per insertion).
    csr_snapshot(spanner)
    witnesses = {}
    timer = Timer("ft-greedy").start()
    considered = 0
    edge_list = sorted_edges(graph)
    for u, v, w in edge_list:
        if should_cancel is not None and should_cancel():
            from repro.build.spec import BuildCancelled
            raise BuildCancelled("ft-greedy build cancelled")
        considered += 1
        budget = stretch * w
        fault_set = checker.find_breaking_fault_set(
            spanner, u, v, budget, max_faults, model
        )
        if fault_set is not None:
            _ACCEPTS.inc()
            spanner.add_edge(u, v, w)
            if record_witnesses:
                witnesses[edge_key(u, v)] = fault_set
        else:
            _REJECTS.inc()
        if progress_every and considered % progress_every == 0:
            _LOGGER.info(
                "ft-greedy: %d/%d edges considered, %d kept",
                considered, len(edge_list), spanner.number_of_edges(),
            )
        if (on_progress is not None
                and considered % (progress_every or 64) == 0):
            on_progress("ft-greedy", considered, len(edge_list))
    timer.stop()

    parameters = {"oracle": checker.name, "oracle_exact": checker.exact}
    hit_rate = checker.stats.observe_screen_hit_rate()
    if hit_rate is not None:
        parameters["screen_hit_rate"] = hit_rate
        parameters["screen_outcomes"] = checker.stats.screen_outcomes
    oracle_queries = checker.stats.queries
    distance_queries = checker.stats.distance_queries
    # Flush the oracle's counters to the process registry: the checker (and
    # its weakly-attached component registry) may die with this frame, and
    # a --metrics-json snapshot must still see the build's oracle.* family.
    checker.stats.publish()
    return SpannerResult(
        spanner=spanner,
        original=graph,
        stretch=stretch,
        max_faults=max_faults,
        fault_model=model.name,
        algorithm=f"ft-greedy[{checker.name}]",
        witness_fault_sets=witnesses,
        edges_considered=considered,
        edges_added=spanner.number_of_edges(),
        oracle_queries=oracle_queries,
        distance_queries=distance_queries,
        construction_seconds=timer.elapsed,
        parameters=parameters,
    )


# --------------------------------------------------------------------------
# Parallel (speculative-batch) driver
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _FTCheckContext:
    """Picklable payload shipped once per worker per speculative batch."""

    csr: CSRGraph
    fault_model: str
    oracle: str
    max_faults: int
    kernel: "str | None" = None
    #: Candidate universes in :meth:`Graph.nodes` / :meth:`Graph.edges`
    #: order — only the exhaustive oracle enumerates them, but pinning the
    #: order here is what keeps its tie-broken witnesses byte-identical to
    #: the serial loop's.
    nodes: Optional[Tuple[Node, ...]] = None
    edges: Optional[Tuple[Tuple[Node, Node], ...]] = None


def _ft_check_chunk(ctx: _FTCheckContext,
                    chunk: List[Tuple[Node, Node, float]]):
    """Speculatively fault-check one chunk of edges against the frozen H."""
    model = get_fault_model(ctx.fault_model)
    checker = get_oracle(ctx.oracle, ctx.kernel)
    found: List[Optional[FaultSet]] = []
    for source, target, budget in chunk:
        candidates = None
        if ctx.nodes is not None:
            candidates = [node for node in ctx.nodes
                          if node != source and node != target]
        elif ctx.edges is not None:
            candidates = list(ctx.edges)
        found.append(checker.find_breaking_fault_set_csr(
            ctx.csr, source, target, budget, ctx.max_faults, model,
            candidates=candidates))
    # Ship the oracle's whole counter family — queries, distance queries,
    # nodes expanded, and the tiered screen/exact outcome tallies (labeled
    # keys like ``oracle.screen{outcome="reject"}`` round-trip through
    # ``merge_counters``).
    counters = checker.stats.metrics.counters()
    # Reset before returning so backend-level metric capture (which ships
    # the worker registry's movement) can never count this work a second
    # time: the explicit mapping above is the single source of truth.
    checker.stats.reset()
    return found, counters


def _ft_greedy_parallel(graph: Graph, stretch: float, max_faults: int,
                        model: FaultModel, checker: FaultCheckOracle,
                        backend: ExecutionBackend, *,
                        kernel: "str | None" = None,
                        record_witnesses: bool,
                        progress_every: int,
                        on_progress: Optional[Callable[[str, int, int], None]],
                        should_cancel: Optional[Callable[[], bool]]) -> SpannerResult:
    """Speculative-batch FT greedy: byte-identical spanner and witnesses.

    See the module docstring for the correctness argument (monotone rejects,
    version-guarded accepts).
    """
    if not checker.exact:
        raise ValueError(
            "parallel ft-greedy requires an exact oracle: the heuristic "
            f"{checker.name!r} oracle's misses do not transfer between "
            "snapshots of the growing spanner")
    try:
        get_oracle(checker.name)
    except ValueError:
        raise ValueError(
            "parallel ft-greedy requires an oracle constructible by name "
            f"in the worker processes; {checker.name!r} is not registered"
        ) from None

    spanner = graph.spanning_subgraph()
    csr_snapshot(spanner)
    witnesses = {}
    timer = Timer("ft-greedy-parallel").start()
    edge_list = sorted_edges(graph)
    total = len(edge_list)
    batch_size = max(_BATCH_MIN, _BATCH_EDGES_PER_WORKER * backend.workers)
    considered = 0
    rechecks = 0
    batches = 0
    worker_counters: dict = {}
    registry = get_registry()
    tracer = get_tracer()
    ship_elements = checker.name == "exhaustive"

    position = 0
    while position < total:
        if should_cancel is not None and should_cancel():
            from repro.build.spec import BuildCancelled
            raise BuildCancelled("ft-greedy build cancelled")
        batch = edge_list[position:position + batch_size]
        position += len(batch)
        batch_size *= _BATCH_GROWTH
        batches += 1
        h_version = spanner.version
        context = _FTCheckContext(
            csr=csr_snapshot(spanner), fault_model=model.name,
            oracle=checker.name, max_faults=max_faults, kernel=kernel,
            nodes=(tuple(spanner.nodes())
                   if ship_elements and model.uses_vertex_mask else None),
            edges=(tuple(spanner.edge_keys())
                   if ship_elements and not model.uses_vertex_mask else None),
        )
        tasks = [(u, v, stretch * w) for u, v, w in batch]
        speculative: List[Optional[FaultSet]] = []
        _SPECULATIVE_BATCHES.inc()
        with tracer.span("build.speculative_batch", batch=batches,
                         edges=len(batch)):
            for chunk_found, counters in backend.map(
                    _ft_check_chunk, split_sequence(tasks, backend.workers),
                    context=context, metrics=registry):
                speculative.extend(chunk_found)
                # One fold, two targets: the local tally feeding the
                # SpannerResult counters, and the process registry (the
                # chunk fn zeroed its own copy, so this is the only path
                # by which worker oracle counts reach the registry).
                merge_counters(worker_counters, counters)
                registry.merge_counters(counters)

            for (u, v, w), fault_set in zip(batch, speculative):
                considered += 1
                if fault_set is None:
                    # Monotone-safe: no fault set broke (u, v) against the
                    # batch-start H, so none can break it against the current,
                    # denser H either — the serial loop would also reject.
                    _REJECTS.inc()
                    continue
                if spanner.version != h_version:
                    # H gained an edge earlier in this batch; the speculative
                    # answer is stale, so replay the serial decision exactly.
                    rechecks += 1
                    _SPECULATIVE_RECHECKS.inc()
                    fault_set = checker.find_breaking_fault_set(
                        spanner, u, v, stretch * w, max_faults, model)
                    if fault_set is None:
                        _REJECTS.inc()
                        continue
                _ACCEPTS.inc()
                spanner.add_edge(u, v, w)
                if record_witnesses:
                    witnesses[edge_key(u, v)] = fault_set
        if progress_every and (considered // progress_every
                               != (considered - len(batch)) // progress_every):
            _LOGGER.info(
                "ft-greedy[parallel]: %d/%d edges considered, %d kept",
                considered, total, spanner.number_of_edges(),
            )
        if on_progress is not None:
            on_progress("ft-greedy", considered, total)
    timer.stop()

    parameters = {"oracle": checker.name, "oracle_exact": checker.exact,
                  "workers": backend.workers, "backend": backend.name,
                  "speculative_batches": batches,
                  "speculative_rechecks": rechecks}
    # The screen outcomes from the workers arrived as flat labeled counters;
    # fold them into the in-process tally before computing the build's rate.
    hit_rate = checker.stats.observe_screen_hit_rate(extra=worker_counters)
    if hit_rate is not None:
        parameters["screen_hit_rate"] = hit_rate
    oracle_queries = (checker.stats.queries
                      + int(worker_counters.get("oracle.queries", 0)))
    distance_queries = (checker.stats.distance_queries
                        + int(worker_counters.get("oracle.distance_queries", 0)))
    # The worker deltas were already merged into the process registry as
    # they arrived; flush the local checker's recheck counts the same way,
    # so a --metrics-json snapshot sees the whole build's oracle.* family
    # even after the checker dies with this frame.
    checker.stats.publish()
    return SpannerResult(
        spanner=spanner,
        original=graph,
        stretch=stretch,
        max_faults=max_faults,
        fault_model=model.name,
        algorithm=f"ft-greedy[{checker.name}]",
        witness_fault_sets=witnesses,
        edges_considered=considered,
        edges_added=spanner.number_of_edges(),
        # Counters report actual (speculative + recheck) work; unlike the
        # spanner and witnesses they are *not* byte-identical to serial.
        oracle_queries=oracle_queries,
        distance_queries=distance_queries,
        construction_seconds=timer.elapsed,
        parameters=parameters,
    )


def vft_greedy_spanner(graph: Graph, stretch: float, max_faults: int,
                       **kwargs) -> SpannerResult:
    """Convenience wrapper for the vertex-fault-tolerant greedy algorithm."""
    return ft_greedy_spanner(graph, stretch, max_faults, fault_model="vertex", **kwargs)


def eft_greedy_spanner(graph: Graph, stretch: float, max_faults: int,
                       **kwargs) -> SpannerResult:
    """Convenience wrapper for the edge-fault-tolerant greedy algorithm."""
    return ft_greedy_spanner(graph, stretch, max_faults, fault_model="edge", **kwargs)
