"""The :class:`QueryEngine` facade: serve distance queries against a snapshot.

One engine serves one :class:`~repro.engine.snapshot.SpannerSnapshot`.  Query
types:

* :meth:`QueryEngine.distance` — ``dist_{H \\ F}(s, t)`` for one query;
* :meth:`QueryEngine.distances_batch` — a whole batch at once, grouped by
  ``(source, fault set)`` so each group costs one masked kernel run;
* :meth:`QueryEngine.connectivity` — reachability under faults;
* :meth:`QueryEngine.stretch_audit` — compare the served (spanner) distance
  against the original graph under the same fault set, i.e. measure the
  stretch actually delivered (requires the snapshot to carry the original).

Serving: one decision loop walks a batch's groups in plan order.  The
cache holds per-``(source, canonical fault set)`` full distance vectors in
a versioned LRU (:mod:`repro.engine.cache`).  A cache hit answers every
target of a group with list lookups.  A miss whose key is expected to be
reused (:data:`ADMIT_THRESHOLD`) queues one full masked SSSP into an empty
vector already in the cache.  Every other group — and every group when the
cache is disabled (``cache_size=0``) — queues the early-exiting
multi-target kernel, which is cheaper for one-shot traffic.  Both queues
then go through :func:`repro.engine.batch.run_groups`, which resolves the
kernel backend per serving call kind (under ``auto``, numpy from the
serving crossover in :data:`repro.paths.registry.SERVING_NODE_THRESHOLDS`),
fuses a queue into cell-capped multi-source sweeps when that backend has
them and runs a kernel per group otherwise.  An audit's ground-truth read is one
early-exit group through the same runner, over the original graph.

Answers are identical on every path, and identical to the per-query
reference (one Dijkstra per query over ``ExclusionView``): batching,
fusing and caching are execution strategies, not approximations.
``tests/test_engine.py`` holds this line property-style on both kernel
backends.

Observability: every serving counter lives on the engine's own metrics
registry (``engine.*`` family, attached to the process default — see
:mod:`repro.obs`), with the historical attributes (``queries_served``,
``kernel_calls``, ...) preserved as read-only views and :meth:`stats` as the
dict rendering.  Batch occupancy and per-group kernel time are histograms;
``distances_batch`` opens a tracer span so traces attribute kernel work to
the batches that caused it.  Everything runs in the calling process:
audits resolve one at a time through :meth:`QueryEngine.stretch_audit`, and
their ground-truth kernel runs count in ``audit_kernel_calls``, apart from
the serving ``kernel_calls``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.engine.batch import BatchPlan, GroupMasks, plan_batches, run_groups
from repro.engine.cache import ResultCache
from repro.engine.snapshot import SpannerSnapshot
from repro.faults.models import FaultSet, get_fault_model
from repro.graph.core import Node
from repro.graph.csr import CSRGraph
from repro.obs.metrics import SIZE_BUCKETS, component_registry
from repro.obs.trace import get_tracer
from repro.paths.registry import KernelLike, get_kernels

_INF = math.inf
_RELATIVE_TOLERANCE = 1e-9

#: Admission policy: a full distance vector is computed and cached only when
#: the expected reuse of its ``(source, faults)`` key — the group size, plus
#: one if the key was requested before — reaches this threshold.  Cold
#: singleton groups run the cheaper early-exit multi-target kernel instead,
#: so one-shot traffic never pays for a vector nobody will read again.
ADMIT_THRESHOLD = 2


class EngineError(Exception):
    """Raised on invalid engine requests (e.g. audits without the original)."""


@dataclass(frozen=True)
class StretchAudit:
    """Outcome of one stretch audit: served distance vs ground truth.

    ``stretch`` is ``dist_{H \\ F} / dist_{G \\ F}`` (1.0 when the pair is
    disconnected in the surviving original — the demand is vacuous, exactly
    as in Definition 2).  ``within_budget`` records whether the fault set
    was within the snapshot's budget ``f``; only then does the construction
    promise ``ok``.
    """

    source: Node
    target: Node
    faults: FaultSet
    spanner_distance: float
    original_distance: float
    required_stretch: float
    within_budget: bool

    @property
    def stretch(self) -> float:
        if math.isinf(self.original_distance):
            return 1.0
        if self.original_distance == 0:
            # source == target: both distances are 0, stretch is trivially 1.
            return 1.0 if self.spanner_distance == 0 else _INF
        return self.spanner_distance / self.original_distance

    @property
    def ok(self) -> bool:
        """Whether the served distance honours the promised stretch."""
        return self.stretch <= self.required_stretch * (1.0 + _RELATIVE_TOLERANCE)


class QueryEngine:
    """Serve fault-tolerant distance queries against one spanner snapshot.

    Parameters
    ----------
    snapshot:
        The prebuilt spanner (plus metadata, plus optionally the original
        graph for audits).
    cache_size:
        LRU capacity in ``(source, fault set)`` distance vectors; ``0``
        disables caching (pure streaming mode).
    kernel:
        Kernel backend (:func:`repro.paths.get_kernels` spec) answering the
        distance queries; ``None`` auto-selects by graph size and serving
        call kind.  When the resolved backend ships multi-source kernels,
        whole plans are served by fused sweeps (one kernel invocation for
        many groups) — answers, counters and cache behaviour stay
        bit-identical to per-group runs.
    """

    def __init__(self, snapshot: SpannerSnapshot, *, cache_size: int = 256,
                 kernel: KernelLike = None):
        self.snapshot = snapshot
        self.model = get_fault_model(snapshot.fault_model)
        self.metrics = component_registry("engine")
        self.cache = ResultCache(cache_size, metrics=self.metrics)
        self.kernel = get_kernels(kernel)
        self._queries_served = self.metrics.counter(
            "engine.queries_served", "distance queries answered")
        self._batches_planned = self.metrics.counter(
            "engine.batches_planned", "distances_batch calls planned")
        self._groups_executed = self.metrics.counter(
            "engine.groups_executed", "(source, fault set) groups served")
        self._kernel_calls = self.metrics.counter(
            "engine.kernel_calls", "logical serving kernel runs")
        # Multi-source kernel invocations; each answers one cell-capped
        # chunk of a queue of >= 2 groups (``kernel_calls`` keeps counting
        # the logical runs, so batching metrics stay comparable across
        # kernel backends).
        self._fused_sweeps = self.metrics.counter(
            "engine.fused_sweeps", "multi-source kernel invocations")
        self._audits = self.metrics.counter(
            "engine.audits", "stretch audits resolved")
        self._audit_kernel_calls = self.metrics.counter(
            "engine.audit_kernel_calls", "ground-truth kernel runs for audits")
        self._busy_seconds = self.metrics.counter(
            "engine.busy_seconds", "wall time spent inside the engine")
        self._batch_occupancy = self.metrics.histogram(
            "engine.batch_occupancy", "queries per distances_batch call",
            buckets=SIZE_BUCKETS)
        self._group_kernel_seconds = self.metrics.histogram(
            "engine.group_kernel_seconds",
            "kernel time per served group / fused sweep")
        self._masks: Dict[int, GroupMasks] = {}
        self._seen_keys: set = set()

    # ----------------------------------------------------- counter thin views
    @property
    def queries_served(self) -> int:
        return self._queries_served.value

    @property
    def batches_planned(self) -> int:
        return self._batches_planned.value

    @property
    def groups_executed(self) -> int:
        return self._groups_executed.value

    @property
    def kernel_calls(self) -> int:
        return self._kernel_calls.value

    @property
    def fused_sweeps(self) -> int:
        return self._fused_sweeps.value

    @property
    def audits(self) -> int:
        return self._audits.value

    @property
    def audit_kernel_calls(self) -> int:
        return self._audit_kernel_calls.value

    @property
    def busy_seconds(self) -> float:
        return self._busy_seconds.value

    # ------------------------------------------------------------- internals
    def _masks_for(self, csr: CSRGraph) -> GroupMasks:
        """The reusable fault masks bound to ``csr``.

        Snapshots are recompiled (new object) after removals, so masks are
        keyed by object identity; stale bindings are dropped.
        """
        key = id(csr)
        masks = self._masks.get(key)
        if masks is None:
            if len(self._masks) > 4:
                # Recompiled snapshots leave stale bindings behind; an engine
                # only ever serves two live CSRs (spanner + original).
                self._masks.clear()
            masks = GroupMasks(csr, self.model)
            self._masks[key] = masks
        return masks

    def _serve_plan(self, plan: BatchPlan) -> List[float]:
        """Answer every group of ``plan``; returns answers in query order.

        One pass decides each group in plan order: a cache hit reads its
        vector; a miss worth caching puts an empty vector in the cache and
        queues a full SSSP to fill it; any other group queues an early-exit
        multi-target run.  Plan keys are unique, so nothing in the batch
        reads a vector before it is filled, and the cache sees the same
        reads and writes in the same order as if each group ran at once.
        :func:`run_groups` then answers each queue, fused or per group.
        If anything raises on the way, the queued keys leave the cache, so
        an empty vector is never served.
        """
        csr = self.snapshot.csr
        index_of = csr.index_of
        cache = self.cache
        results: List[float] = [_INF] * plan.num_queries
        # Groups answered from a vector (hit or queued), and the two queues.
        reads: List[Tuple[List[int], List, List[float]]] = []
        full: List[Tuple[int, FaultSet]] = []
        full_keys: List[Tuple[Node, FaultSet]] = []
        full_vectors: List[List[float]] = []
        early: List[Tuple[int, FaultSet]] = []
        early_targets: List[List[int]] = []
        early_reads: List[Tuple[List[int], List]] = []
        try:
            for group in plan.groups:
                self._groups_executed.inc()
                source_index = index_of.get(group.source)
                if source_index is None:
                    continue  # results already hold inf
                target_indices = [index_of.get(t) for t in group.targets]
                if cache.enabled:
                    key = (group.source, group.faults)
                    vector = cache.get(key)
                    expected_reuse = len(group.targets) + (key in self._seen_keys)
                    if vector is None and expected_reuse >= ADMIT_THRESHOLD:
                        vector = []
                        cache.put(key, vector)
                        self._kernel_calls.inc()
                        full.append((source_index, group.faults))
                        full_keys.append(key)
                        full_vectors.append(vector)
                    if vector is not None:
                        reads.append((group.positions, target_indices, vector))
                        continue
                    # Cold singleton: remember the key so a repeat gets
                    # promoted, but serve it with the cheap early-exit kernel
                    # for now.
                    if len(self._seen_keys) > 16 * max(cache.capacity, 64):
                        self._seen_keys.clear()
                    self._seen_keys.add(key)
                self._kernel_calls.inc()
                early.append((source_index, group.faults))
                early_targets.append([t for t in target_indices if t is not None])
                early_reads.append((group.positions, target_indices))

            masks = self._masks_for(csr)
            observe = self._group_kernel_seconds.observe
            if full:
                rows, sweeps = run_groups(masks, self.kernel, full, observe=observe)
                self._fused_sweeps.inc(sweeps)
                for vector, row in zip(full_vectors, rows):
                    vector[:] = row
            if early:
                rows, sweeps = run_groups(masks, self.kernel, early, early_targets,
                                          observe=observe)
                self._fused_sweeps.inc(sweeps)
                for (positions, target_indices), row in zip(early_reads, rows):
                    answered = iter(row)
                    for position, t in zip(positions, target_indices):
                        results[position] = next(answered) if t is not None else _INF
        except BaseException:
            for key, vector in zip(full_keys, full_vectors):
                if not vector:
                    cache.discard(key)
            raise
        for positions, target_indices, vector in reads:
            for position, t in zip(positions, target_indices):
                results[position] = vector[t] if t is not None else _INF
        return results

    # --------------------------------------------------------------- queries
    def distance(self, source: Node, target: Node,
                 faults: Iterable = ()) -> float:
        """``dist_{H \\ F}(source, target)`` (``inf`` when unreachable/masked)."""
        return self.distances_batch([(source, target, tuple(faults))])[0]

    def distances_batch(self, queries: Sequence) -> List[float]:
        """Answer a batch of ``(source, target, faults)`` queries.

        Queries are grouped by ``(source, canonical fault set)``; each group
        costs at most one kernel run (zero on a cache hit).  The returned
        list is aligned with ``queries``.
        """
        started = time.perf_counter()
        with get_tracer().span("engine.distances_batch",
                               queries=len(queries)) as span:
            try:
                plan = plan_batches(queries, self.model)
                self._batches_planned.inc()
                self._queries_served.inc(plan.num_queries)
                self._batch_occupancy.observe(plan.num_queries)
                span.set(groups=plan.num_groups)
                self.cache.sync(self.snapshot.spanner.version)
                return self._serve_plan(plan)
            finally:
                self._busy_seconds.inc(time.perf_counter() - started)

    def connectivity(self, source: Node, target: Node,
                     faults: Iterable = ()) -> bool:
        """Whether ``target`` is reachable from ``source`` in ``H \\ F``."""
        return not math.isinf(self.distance(source, target, faults))

    def stretch_audit(self, source: Node, target: Node,
                      faults: Iterable = ()) -> StretchAudit:
        """Compare the served distance against the original graph under ``F``.

        Requires the snapshot to carry the original graph; raises
        :class:`EngineError` otherwise.  The audit is the serving-layer twin
        of Definition 2: customers see ``dist_{H \\ F}``, the audit reports
        how far that is from the unserveable ground truth ``dist_{G \\ F}``.
        """
        original_csr = self.snapshot.original_csr
        if original_csr is None:
            raise EngineError(
                "stretch_audit needs a snapshot built with the original graph "
                "(SpannerSnapshot.original is None)"
            )
        faults = tuple(faults)
        canonical = self.model.canonical(faults)
        spanner_distance = self.distance(source, target, faults)
        started = time.perf_counter()
        try:
            self._audits.inc()
            index_of = original_csr.index_of
            source_index = index_of.get(source)
            target_index = index_of.get(target)
            if source_index is None or target_index is None:
                original_distance = _INF
            else:
                (row,), _ = run_groups(self._masks_for(original_csr), self.kernel,
                                       [(source_index, canonical)], [[target_index]])
                original_distance = row[0]
                # Counted apart from kernel_calls: audits are ground-truth
                # lookups, not serving work, and must not skew the
                # batching-savings accounting below.
                self._audit_kernel_calls.inc()
        finally:
            self._busy_seconds.inc(time.perf_counter() - started)
        return StretchAudit(
            source=source,
            target=target,
            faults=canonical,
            spanner_distance=spanner_distance,
            original_distance=original_distance,
            required_stretch=self.snapshot.stretch,
            within_budget=len(canonical) <= self.snapshot.max_faults,
        )

    # ----------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        """Serving report: traffic, batching effectiveness, cache, throughput."""
        saved = self.queries_served - self.kernel_calls
        return {
            "snapshot": self.snapshot.describe(),
            "queries_served": self.queries_served,
            "batches_planned": self.batches_planned,
            "groups_executed": self.groups_executed,
            "kernel_calls": self.kernel_calls,
            "kernel_calls_saved": saved,
            "kernel": self.kernel.name,
            "fused_sweeps": self.fused_sweeps,
            "audits": self.audits,
            "audit_kernel_calls": self.audit_kernel_calls,
            "busy_seconds": self.busy_seconds,
            "queries_per_second": (self.queries_served / self.busy_seconds
                                   if self.busy_seconds > 0 else 0.0),
            "cache": self.cache.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueryEngine {self.snapshot.fault_model} k={self.snapshot.stretch} "
            f"served={self.queries_served} kernel_calls={self.kernel_calls}>"
        )
