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

One acceptance sweep
--------------------
:func:`acceptance_sweep` is the loop above, over any weight-ordered
candidate list and a *live* ``H``: builds sweep every edge of ``G`` from an
empty ``H``, and :class:`~repro.dynamic.DynamicSpanner` sweeps a single new
(or lighter) edge, or the dirty candidates of a repair, against the
maintained one.  It runs serially with one worker or fewer than
:data:`_BATCH_MIN` candidates.  Otherwise the fault checks shard through
:mod:`repro.runtime` in *speculative batches*: a batch of upcoming
candidates is checked in parallel against ``H`` frozen at batch start, then
replayed serially in weight order.  Batches grow geometrically
(:data:`_BATCH_GROWTH`), so the pool is dispatched only ``O(log m)`` times:
the accept-dense light-edge prefix is covered by small batches (few wasted
re-checks), while the reject-dominated tail — where parallel checking
actually pays — runs in a handful of large ones.  Rejections are safe to
trust because the check is monotone — ``H`` only gains edges during a
sweep, so distances only shrink, and a pair no fault set could break
against the smaller ``H`` cannot be broken against any larger one.
Speculative *accepts* are trusted only while ``H`` is unchanged since batch
start (then the worker's answer is exactly the serial answer); once an
earlier candidate of the batch was added, later accepts are re-checked in
process against the current ``H``.  The spanner, the witness fault sets and
the edge insertion order are therefore **byte-identical** to the serial
sweep — property-tested in ``tests/test_build.py`` and
``tests/test_dynamic.py`` — while the work counters report the actual
(speculative) work performed.  This requires an *exact* oracle: the
heuristic path-packing oracle may answer ``None`` for reasons that do not
transfer between snapshots of ``H``, so parallel builds reject it up front.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, MutableMapping,
                    Optional, Sequence, Tuple)

from repro.faults.models import FaultModel, FaultSet, get_fault_model
from repro.graph.core import Graph, Node, edge_key
from repro.graph.csr import CSRGraph, csr_snapshot
from repro.obs.metrics import Counter, get_registry
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
#: ... but never fewer than this many per round (amortises pool dispatch);
#: shorter candidate lists are swept serially whatever the worker count.
_BATCH_MIN = 16
#: Batches double in size each round (the accept-dense light-edge prefix
#: gets fine granularity, the reject-dominated tail gets huge batches), so
#: the number of pool dispatches is O(log m) rather than O(m / batch).
_BATCH_GROWTH = 2


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
    resolved = get_backend(backend, workers)
    if resolved.workers > 1:
        _require_shippable(checker)

    spanner = graph.spanning_subgraph()
    # Compile H's CSR snapshot up front: Graph.add_edge keeps it in sync as
    # edges are kept, so the oracle's mask-based kernels never recompile
    # while H grows (thousands of bounded Dijkstra queries per insertion).
    csr_snapshot(spanner)
    witnesses = {}
    edge_list = sorted_edges(graph)
    total = len(edge_list)
    every = progress_every or 64
    previous = 0

    def step(considered: int) -> None:
        nonlocal previous
        if should_cancel is not None and should_cancel():
            from repro.build.spec import BuildCancelled
            raise BuildCancelled("ft-greedy build cancelled")
        if considered // every != previous // every:
            if progress_every:
                _LOGGER.info("ft-greedy: %d/%d edges considered, %d kept",
                             considered, total, spanner.number_of_edges())
            if on_progress is not None:
                on_progress("ft-greedy", considered, total)
        previous = considered

    timer = Timer("ft-greedy").start()
    sweep = acceptance_sweep(
        spanner, edge_list, checker, model, stretch, max_faults, resolved,
        witnesses=witnesses if record_witnesses else None,
        metrics=_BUILD_METRICS, on_step=step)
    timer.stop()
    if on_progress is not None:
        on_progress("ft-greedy", total, total)

    parameters = {"oracle": checker.name, "oracle_exact": checker.exact}
    if resolved.workers > 1:
        parameters.update(workers=resolved.workers, backend=resolved.name,
                          speculative_batches=sweep.batches,
                          speculative_rechecks=sweep.rechecks)
    # Screen outcomes from workers arrive as flat labeled counters; fold
    # them into the in-process tally before computing the build's rate.
    hit_rate = checker.stats.observe_screen_hit_rate(extra=sweep.worker_counters)
    if hit_rate is not None:
        parameters["screen_hit_rate"] = hit_rate
        parameters["screen_outcomes"] = checker.stats.screen_outcomes_with(
            sweep.worker_counters)
    oracle_queries = (checker.stats.queries
                      + int(sweep.worker_counters.get("oracle.queries", 0)))
    distance_queries = (checker.stats.distance_queries
                        + int(sweep.worker_counters.get(
                            "oracle.distance_queries", 0)))
    # Flush the oracle's counters to the process registry: the checker (and
    # its weakly-attached component registry) may die with this frame, and
    # a --metrics-json snapshot must still see the build's oracle.* family.
    # (Worker deltas were already merged there as they arrived.)
    checker.stats.publish()
    return SpannerResult(
        spanner=spanner,
        original=graph,
        stretch=stretch,
        max_faults=max_faults,
        fault_model=model.name,
        algorithm=f"ft-greedy[{checker.name}]",
        witness_fault_sets=witnesses,
        edges_considered=sweep.considered,
        edges_added=spanner.number_of_edges(),
        # Counters report actual (speculative + recheck) work; unlike the
        # spanner and witnesses they are *not* byte-identical to serial.
        oracle_queries=oracle_queries,
        distance_queries=distance_queries,
        construction_seconds=timer.elapsed,
        parameters=parameters,
    )


# --------------------------------------------------------------------------
# The acceptance sweep (serial, or speculative batches over a worker pool)
# --------------------------------------------------------------------------

#: One weight-ordered candidate edge ``(u, v, w)``.
Candidate = Tuple[Node, Node, float]


@dataclass(frozen=True)
class SweepMetrics:
    """Process-registry instruments a sweep moves as it decides."""

    accepts: Counter
    rejects: Counter
    batches: Counter
    rechecks: Counter
    #: Tracer span wrapping each speculative batch.
    batch_span: str


# Build-outcome counters on the process registry (``repro-spanner stats``):
# accept/reject tallies cover serial and parallel builds alike, the
# speculative pair only moves under ``workers > 1``.  Maintenance sweeps
# pass no instruments, so these move only for builds.
_BUILD_METRICS = SweepMetrics(
    accepts=get_registry().counter(
        "build.oracle_accepts", "greedy decisions that kept the edge"),
    rejects=get_registry().counter(
        "build.oracle_rejects", "greedy decisions that dropped the edge"),
    batches=get_registry().counter(
        "build.speculative_batches", "parallel speculative batches dispatched"),
    rechecks=get_registry().counter(
        "build.speculative_rechecks",
        "stale speculative accepts replayed in process"),
    batch_span="build.speculative_batch",
)


@dataclass
class Sweep:
    """What one :func:`acceptance_sweep` did."""

    #: Accepted candidates, in acceptance (= weight) order.
    added: List[Candidate] = field(default_factory=list)
    considered: int = 0
    #: Speculative batches dispatched (0 on the serial path).
    batches: int = 0
    #: Stale speculative accepts re-checked in process.
    rechecks: int = 0
    #: Oracle counters shipped home by the workers (flat registry keys).
    worker_counters: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class _FTCheckContext:
    """Picklable payload shipped once per worker per speculative batch."""

    csr: CSRGraph
    fault_model: str
    oracle: str
    max_faults: int
    #: The resolved kernel backend name of the in-process checker.
    kernel: str


def _ft_check_chunk(ctx: _FTCheckContext,
                    chunk: List[Tuple[Node, Node, float]]):
    """Speculatively fault-check one chunk of edges against the frozen H."""
    model = get_fault_model(ctx.fault_model)
    checker = get_oracle(ctx.oracle, ctx.kernel)
    found: List[Optional[FaultSet]] = []
    for source, target, budget in chunk:
        found.append(checker.find_breaking_fault_set_csr(
            ctx.csr, source, target, budget, ctx.max_faults, model))
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


def _require_shippable(checker: FaultCheckOracle) -> None:
    """Refuse oracles whose speculative answers cannot be trusted in workers."""
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


def _packed_edge_keys(packed: Tuple[CSRGraph, List[List[int]]]) -> FrozenSet:
    """The ``H`` edge keys on a packing-certified reject's index paths."""
    csr, paths = packed
    node_of = csr.node_of
    return frozenset(edge_key(node_of[a], node_of[b])
                     for path in paths for a, b in zip(path, path[1:]))


def acceptance_sweep(spanner: Graph, candidates: Sequence[Candidate],
                     checker: FaultCheckOracle, model: FaultModel,
                     stretch: float, max_faults: int,
                     backend: ExecutionBackend, *,
                     witnesses: Optional[Dict] = None,
                     certificates: Optional[MutableMapping] = None,
                     metrics: Optional[SweepMetrics] = None,
                     on_step: Optional[Callable[[int], None]] = None) -> Sweep:
    """Algorithm 1's loop over ``candidates`` against the live ``spanner``.

    Each candidate ``(u, v, w)``, in the given (weight) order, is added to
    ``spanner`` iff ``checker`` finds ``|F| <= max_faults`` with
    ``dist_{H \\ F}(u, v) > stretch * w``; its fault set is recorded in
    ``witnesses`` (when given) under ``edge_key(u, v)``.  Builds sweep every
    edge of ``G`` from an empty ``H``; :class:`~repro.dynamic.DynamicSpanner`
    sweeps single new edges and dirty repair regions.

    A reject the checker certified with disjoint short paths
    (:attr:`~repro.spanners.fault_check.FaultCheckOracle.packed_paths`) is
    recorded in ``certificates`` (when given) under ``edge_key(u, v)``, as
    the frozenset of ``H`` edge keys on those paths.  Other rejects record
    nothing: exact-search and ``f = 0`` rejects, every reject of a
    non-tiered oracle, and every reject a worker decided in a speculative
    batch (its paths stay in the worker).

    With ``backend.workers > 1`` and at least :data:`_BATCH_MIN` candidates
    the checks run in speculative batches (see the module docstring); the
    spanner and witnesses are byte-identical to the serial loop.  ``metrics``
    names the registry instruments to move; ``on_step(considered)`` is
    polled before each serial candidate and before each batch (it may
    raise to abort).
    """
    sweep = Sweep()

    def decide(u, v, w, fault_set: Optional[FaultSet],
               packed: Optional[Tuple]) -> None:
        if fault_set is None:
            if metrics is not None:
                metrics.rejects.inc()
            if certificates is not None and packed is not None:
                certificates[edge_key(u, v)] = _packed_edge_keys(packed)
            return
        if metrics is not None:
            metrics.accepts.inc()
        spanner.add_edge(u, v, w)
        if witnesses is not None:
            witnesses[edge_key(u, v)] = fault_set
        sweep.added.append((u, v, w))

    if backend.workers == 1 or len(candidates) < _BATCH_MIN:
        for u, v, w in candidates:
            if on_step is not None:
                on_step(sweep.considered)
            sweep.considered += 1
            fault_set = checker.find_breaking_fault_set(
                spanner, u, v, stretch * w, max_faults, model)
            decide(u, v, w, fault_set, checker.packed_paths)
        return sweep

    registry = get_registry()
    tracer = get_tracer()
    batch_size = max(_BATCH_MIN, _BATCH_EDGES_PER_WORKER * backend.workers)
    position = 0
    while position < len(candidates):
        if on_step is not None:
            on_step(position)
        batch = candidates[position:position + batch_size]
        position += len(batch)
        batch_size *= _BATCH_GROWTH
        sweep.batches += 1
        h_version = spanner.version
        context = _FTCheckContext(
            csr=csr_snapshot(spanner), fault_model=model.name,
            oracle=checker.name, max_faults=max_faults,
            kernel=checker.kernels.name)
        tasks = [(u, v, stretch * w) for u, v, w in batch]
        if metrics is not None:
            metrics.batches.inc()
            span = tracer.span(metrics.batch_span, batch=sweep.batches,
                               edges=len(batch))
        else:
            span = nullcontext()
        with span:
            speculative: List[Optional[FaultSet]] = []
            for chunk_found, counters in backend.map(
                    _ft_check_chunk, split_sequence(tasks, backend.workers),
                    context=context, metrics=registry):
                speculative.extend(chunk_found)
                # One fold, two targets: the sweep's own tally and the
                # process registry (the chunk fn zeroed its own copy, so
                # this is the only path by which worker oracle counts reach
                # the registry).
                merge_counters(sweep.worker_counters, counters)
                registry.merge_counters(counters)
            for (u, v, w), fault_set in zip(batch, speculative):
                sweep.considered += 1
                packed = None  # a worker's reject keeps its paths
                # A reject is monotone-safe: no fault set broke (u, v)
                # against the batch-start H, so none breaks it against the
                # current, denser H either.  An accept is the serial answer
                # only while H is unchanged; once it moved, replay it.
                if fault_set is not None and spanner.version != h_version:
                    sweep.rechecks += 1
                    if metrics is not None:
                        metrics.rechecks.inc()
                    fault_set = checker.find_breaking_fault_set(
                        spanner, u, v, stretch * w, max_faults, model)
                    packed = checker.packed_paths
                decide(u, v, w, fault_set, packed)
    return sweep


def vft_greedy_spanner(graph: Graph, stretch: float, max_faults: int,
                       **kwargs) -> SpannerResult:
    """Convenience wrapper for the vertex-fault-tolerant greedy algorithm."""
    return ft_greedy_spanner(graph, stretch, max_faults, fault_model="vertex", **kwargs)


def eft_greedy_spanner(graph: Graph, stretch: float, max_faults: int,
                       **kwargs) -> SpannerResult:
    """Convenience wrapper for the edge-fault-tolerant greedy algorithm."""
    return ft_greedy_spanner(graph, stretch, max_faults, fault_model="edge", **kwargs)
