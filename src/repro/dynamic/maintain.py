"""Incremental maintenance of a fault-tolerant greedy spanner under churn.

:class:`DynamicSpanner` keeps the paper's invariant alive across a stream of
edge updates without rebuilding from scratch.  The invariant is the one the
FT-greedy construction establishes and its correctness proof consumes:

    for every edge ``(u, v, w)`` of ``G`` **outside** ``H`` and every fault
    set ``|F| <= f``:   ``dist_{H \\ F}(u, v) <= k * w``.

(Edges inside ``H`` need no condition — they survive in ``H \\ F`` whenever
they survive in ``G \\ F``.)  Standard path-decomposition then gives
``dist_{H\\F}(s, t) <= k * dist_{G\\F}(s, t)`` for *all* pairs, i.e. ``H`` is
a valid ``f``-fault-tolerant ``k``-spanner.  Each update kind preserves the
invariant with bounded work:

* **insert** — adds exactly one new condition (the new edge's own), so one
  oracle acceptance test decides membership; every existing condition is
  untouched (``H`` only gains edges, distances only shrink).
* **delete / weight-increase of a spanner edge** — conditions of rejected
  edges whose witness paths routed through the touched edge may break.
  :func:`repro.dynamic.repair.dirty_candidates` bounds that set soundly with
  two SSSP runs, and certificates (below) shrink it further; the dirty
  candidates left are re-swept in greedy order (increasing weight),
  re-admitting exactly the ones the oracle now breaks.
* **delete / weight-increase of a rejected edge, weight-decrease of a
  spanner edge** — provably free: the touched condition disappears or
  every surviving condition only slackens.
* **weight-decrease of a rejected edge** — its own budget tightened; one
  acceptance test at the new weight decides re-admission.
* **same-weight reweight** — a no-op for ``H``: nothing is touched.

**Certificates.**  When the tiered oracle rejects a candidate by packing
``f + 1`` element-disjoint short paths, the sweep records the set of ``H``
edges on those paths as the reject's certificate
(:class:`~repro.dynamic.repair.CertificateIndex`, indexed by ``H`` edge).
A repair for spanner edge ``e`` re-checks a dirty candidate only if it has
no certificate or its certificate uses ``e``.  This is sound: a
certificate that avoids ``e`` still holds ``f + 1`` disjoint paths within
budget in ``H - e`` (or in ``H`` with ``e`` heavier), every ``|F| <= f``
spares one of them, so the oracle would reject the candidate again; and
``H`` only grows during the sweep, so the skip changes no decision.  The
rules that keep every held certificate true of the live ``H``:

* an ``H`` edge is deleted or made heavier — drop every certificate whose
  paths use it (a lighter ``H`` edge only shortens them);
* a certificate's own edge is accepted, re-tested (inserted, or made
  lighter) or deleted — drop it; a re-test that rejects by packing again
  records a fresh one.  A heavier rejected edge keeps its certificate: its
  budget only grew.

Certificates fill lazily: a new or snapshot-loaded maintainer holds none,
and rejects without packed paths (the exact search's, ``f = 0`` rejects,
non-tiered oracles) record none, so those candidates keep the distance
filter alone.  A worker's packing reject in a speculative batch ships its
certificate home with its answer.

Every acceptance test — a single new or lighter edge, or a repair's dirty
candidates — runs through the build's own loop,
:func:`repro.spanners.ft_greedy.acceptance_sweep`.  With ``spec.workers > 1``
a repair region of at least a first batch's size shards its fault checks
through :mod:`repro.runtime` in speculative batches (monotone-safe rejects,
version-guarded accepts), so the repaired spanner and its witnesses are
**byte-identical** to the serial sweep.

The maintained spanner carries the same ``k``/``f`` guarantee as a fresh
build at every step, but its *size* may exceed the from-scratch greedy's:
updates arrive in time order, not weight order, so early acceptances cannot
be revisited when later, lighter edges land (the classic online-vs-offline
greedy gap).  ``benchmarks/bench_dynamic.py`` measures that factor alongside
the latency win; the acceptance tests bound it.

Everything applied through :meth:`DynamicSpanner.apply` is also appended to
an internal :class:`~repro.dynamic.updates.UpdateJournal`, so any maintained
state can be reproduced by replaying the journal against the base graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.build.registry import validate_spec
from repro.build.spec import BuildError, BuildSpec
from repro.dynamic.repair import (
    Candidate,
    CertificateIndex,
    CertificationRecord,
    DirtyRegion,
    dirty_candidates,
)
from repro.dynamic.updates import (
    EdgeDelete,
    EdgeInsert,
    UpdateError,
    UpdateJournal,
    UpdateOp,
    WeightChange,
)
from repro.faults.models import FaultSet, get_fault_model
from repro.graph.core import EdgeTuple, Graph, edge_key
from repro.graph.csr import csr_snapshot
from repro.obs.metrics import SIZE_BUCKETS, component_registry
from repro.obs.trace import get_tracer
from repro.runtime.backend import get_backend
from repro.runtime.merge import merge_counters
from repro.spanners.base import SpannerResult
from repro.spanners.fault_check import get_oracle
from repro.spanners.ft_greedy import acceptance_sweep
from repro.spanners.verify import is_ft_spanner
from repro.utils.logging import get_logger

_LOGGER = get_logger("dynamic.maintain")


@dataclass(frozen=True)
class UpdateOutcome:
    """What one applied update did to the maintained spanner.

    ``accepted`` is the acceptance-test verdict for ops that ran one (new or
    re-weighted candidate edges); ``None`` for ops that needed no test.
    ``region`` is the dirty region a destructive op opened (``None`` for the
    provably free cases), and ``repair_added`` lists the candidates the
    repair sweep re-admitted into ``H``.
    """

    update: UpdateOp
    accepted: Optional[bool] = None
    region: Optional[DirtyRegion] = None
    repair_added: Tuple[Candidate, ...] = ()
    spanner_changed: bool = False
    graph_version: int = 0
    spanner_version: int = 0
    maintenance_seconds: float = 0.0


class DynamicSpanner:
    """A live graph plus an incrementally maintained FT-greedy spanner.

    Parameters
    ----------
    graph:
        The live graph ``G`` — owned by the maintainer from here on; apply
        every further mutation through :meth:`apply`.
    spec:
        The construction contract to maintain.  Must name an algorithm of
        the FT-greedy family (``ft-greedy`` / ``vft-greedy`` /
        ``eft-greedy``): the maintained invariant is exactly the one that
        family establishes, and an exact oracle is required for the same
        reason the parallel builder requires one — a heuristic ``None`` is
        not evidence the invariant holds.
    result:
        Optionally adopt an already-built :class:`SpannerResult` for this
        exact ``(graph, spec)`` pair instead of building from scratch.

    Examples
    --------
    >>> from repro.graph import generators
    >>> from repro.build import BuildSpec
    >>> from repro.dynamic import DynamicSpanner, EdgeInsert
    >>> graph = generators.gnm(24, 60, rng=0, connected=True)
    >>> dyn = DynamicSpanner(graph, BuildSpec("ft-greedy", stretch=3, max_faults=1))
    >>> outcome = dyn.apply(EdgeInsert(0, 9, 0.8)) if not graph.has_edge(0, 9) else None
    >>> dyn.certify(method="sampled", samples=20, rng=0).ok
    True
    """

    def __init__(self, graph: Graph, spec: BuildSpec, *,
                 result: Optional[SpannerResult] = None):
        entry = validate_spec(spec)
        caps = entry.capabilities
        if not (caps.fault_tolerant and caps.produces_witnesses
                and caps.accepts_oracle):
            raise BuildError(
                f"DynamicSpanner maintains the FT-greedy invariant; algorithm "
                f"{spec.algorithm!r} does not establish it (need an "
                f"ft-greedy-family spec, got capabilities "
                f"[{caps.describe()}])")
        self.spec = spec
        self.graph = graph
        # validate_spec already enforced model/algorithm compatibility (the
        # pinned vft/eft variants reject mismatched spec models outright).
        self.model = get_fault_model(spec.fault_model)
        self.oracle = get_oracle(spec.oracle, spec.kernel)
        if not self.oracle.exact:
            raise BuildError(
                "incremental maintenance requires an exact oracle: the "
                f"heuristic {self.oracle.name!r} oracle's misses are not "
                "evidence the maintained invariant holds")
        self.stretch = spec.stretch
        self.max_faults = spec.max_faults
        self._backend = get_backend(spec.backend, spec.workers)
        if result is None:
            from repro.build import build
            result = build(graph, spec)
        elif result.spanner is None or not result.spanner.is_subgraph_of(graph):
            raise BuildError("adopted result's spanner is not a subgraph of "
                             "the maintained graph")
        self.spanner: Graph = result.spanner
        self.witnesses: Dict[Tuple, FaultSet] = dict(result.witness_fault_sets)
        #: Packing certificates of rejected edges (see the module docstring):
        #: empty at first, filled by the repairs and acceptance tests that
        #: reject through the tiered oracle's packing screen.
        self.certificates = CertificateIndex()
        # Compile H's CSR up front (kept in sync across accepts, recompiled
        # after removals) so acceptance tests never pay a cold compile.
        csr_snapshot(self.spanner)
        #: Every update applied through :meth:`apply`, in order — replaying
        #: this journal against the base graph reproduces the final graph.
        self.journal = UpdateJournal(name="applied-updates")
        #: Dirty regions opened by destructive updates, in order.
        self.repair_log: List[DirtyRegion] = []
        #: Certification outcomes, in order.
        self.certifications: List[CertificationRecord] = []
        # Maintenance counters live on the maintainer's own registry
        # (``dynamic.*`` family, attached to the process default); the
        # historical attribute names stay readable as properties below.
        self.metrics = component_registry("dynamic")
        self._updates_applied = self.metrics.counter(
            "dynamic.updates_applied", "updates applied through apply()")
        self._incremental_accepts = self.metrics.counter(
            "dynamic.incremental_accepts", "acceptance tests that kept an edge")
        self._incremental_rejects = self.metrics.counter(
            "dynamic.incremental_rejects",
            "acceptance tests that dropped an edge")
        self._repairs = self.metrics.counter(
            "dynamic.repairs", "dirty-region repair sweeps run")
        self._repair_edges_added = self.metrics.counter(
            "dynamic.repair_edges_added", "edges re-admitted by repairs")
        self._dirty_candidates_checked = self.metrics.counter(
            "dynamic.dirty_candidates_checked",
            "dirty candidates re-swept by repairs")
        self._dirty_pool_seen = self.metrics.counter(
            "dynamic.dirty_pool_seen",
            "rejected-edge pool size across repairs (selectivity denominator)")
        self._certificate_skips = self.metrics.counter(
            "dynamic.certificate_skips",
            "dirty candidates a certificate proved still rejected")
        self._maintenance_seconds = self.metrics.counter(
            "dynamic.maintenance_seconds", "wall time spent inside apply()")
        self._update_seconds = self.metrics.histogram(
            "dynamic.update_seconds", "per-update maintenance latency")
        self._repair_seconds = self.metrics.histogram(
            "dynamic.repair_seconds", "per-repair sweep latency")
        self._dirty_region_size = self.metrics.histogram(
            "dynamic.dirty_region_size", "dirty candidates per repair",
            buckets=SIZE_BUCKETS)
        self._certify_seconds = self.metrics.histogram(
            "dynamic.certify_seconds", "per-certification wall time")
        self._base_oracle_queries = self.oracle.stats.queries
        # Oracle work done inside worker processes (their per-process stats
        # never reach self.oracle.stats) — folded into stats() so parallel
        # runs report actual speculative work, like the parallel builder.
        self._worker_counters: Dict[str, float] = {}

    # ----------------------------------------------------- counter thin views
    @property
    def updates_applied(self) -> int:
        return self._updates_applied.value

    @property
    def incremental_accepts(self) -> int:
        return self._incremental_accepts.value

    @property
    def incremental_rejects(self) -> int:
        return self._incremental_rejects.value

    @property
    def repairs(self) -> int:
        return self._repairs.value

    @property
    def repair_edges_added(self) -> int:
        return self._repair_edges_added.value

    @property
    def dirty_candidates_checked(self) -> int:
        return self._dirty_candidates_checked.value

    @property
    def dirty_pool_seen(self) -> int:
        return self._dirty_pool_seen.value

    @property
    def certificate_skips(self) -> int:
        return self._certificate_skips.value

    @property
    def maintenance_seconds(self) -> float:
        return self._maintenance_seconds.value

    # ------------------------------------------------------------ construction
    @classmethod
    def from_snapshot(cls, snapshot, spec: Optional[BuildSpec] = None) -> "DynamicSpanner":
        """Resume maintenance from a serving snapshot.

        The snapshot must carry the original graph (that *is* the live
        graph) and either record its build spec or be handed one.  Witness
        fault sets are not serialised in snapshots, so a resumed maintainer
        re-derives witnesses only for edges it adds from now on.
        """
        if snapshot.original is None:
            raise BuildError(
                "snapshot kept no original graph; incremental maintenance "
                "needs the live graph, not just the spanner")
        spec = spec if spec is not None else snapshot.build_spec
        if spec is None:
            raise BuildError(
                "snapshot records no build spec; pass the spec to maintain")
        result = SpannerResult(
            spanner=snapshot.spanner, original=snapshot.original,
            stretch=spec.stretch, max_faults=spec.max_faults,
            fault_model=get_fault_model(spec.fault_model).name,
            algorithm=snapshot.algorithm or spec.algorithm)
        return cls(snapshot.original, spec, result=result)

    # ------------------------------------------------------------ the sweep
    def _sweep(self, candidates: Tuple[Candidate, ...]) -> Tuple[Candidate, ...]:
        """Algorithm 1's acceptance loop over ``candidates`` against live H."""
        sweep = acceptance_sweep(
            self.spanner, candidates, self.oracle, self.model, self.stretch,
            self.max_faults, self._backend, witnesses=self.witnesses,
            certificates=self.certificates)
        merge_counters(self._worker_counters, sweep.worker_counters)
        return tuple(sweep.added)

    def _admit(self, u, v, weight: float):
        """One acceptance test; the outcome tuple :meth:`apply` expects."""
        # A re-test replaces the edge's evidence: a lighter edge's old
        # certificate held for a larger budget.
        self.certificates.pop(edge_key(u, v), None)
        if self._sweep(((u, v, weight),)):
            self._incremental_accepts.inc()
            return True, None, (), True
        self._incremental_rejects.inc()
        return False, None, (), False

    # ----------------------------------------------------------------- updates
    def apply(self, update: UpdateOp) -> UpdateOutcome:
        """Apply one update to ``G`` and repair ``H``; returns what happened.

        Raises :class:`~repro.dynamic.updates.UpdateError` (and changes
        nothing) when the op does not fit the live graph.
        """
        started = time.perf_counter()
        with get_tracer().span("dynamic.apply",
                               op=type(update).__name__) as span:
            if isinstance(update, EdgeInsert):
                outcome = self._apply_insert(update)
            elif isinstance(update, EdgeDelete):
                outcome = self._apply_delete(update)
            elif isinstance(update, WeightChange):
                outcome = self._apply_reweight(update)
            else:
                raise UpdateError(f"not an update op: {update!r}")
            elapsed = time.perf_counter() - started
            span.set(spanner_changed=outcome[3])
        self._maintenance_seconds.inc(elapsed)
        self._update_seconds.observe(elapsed)
        self._updates_applied.inc()
        self.journal.append(update)
        return UpdateOutcome(
            update=update,
            accepted=outcome[0],
            region=outcome[1],
            repair_added=outcome[2],
            spanner_changed=outcome[3],
            graph_version=self.graph.version,
            spanner_version=self.spanner.version,
            maintenance_seconds=elapsed,
        )

    def apply_journal(self, journal: Iterable[UpdateOp]) -> List[UpdateOutcome]:
        """Apply every op of a journal in order; returns the outcomes."""
        return [self.apply(update) for update in journal]

    def _apply_insert(self, update: EdgeInsert):
        update.apply(self.graph)
        # The spanner spans every node of G; new endpoints enter H edgeless.
        self.spanner.add_node(update.u)
        self.spanner.add_node(update.v)
        return self._admit(update.u, update.v, update.weight)

    def _apply_delete(self, update: EdgeDelete):
        in_spanner = self.spanner.has_edge(update.u, update.v)
        region = None
        if in_spanner:
            # Filter against the *old* H (still holding the edge): the dirty
            # argument reasons about the witness paths that existed before.
            candidates, pool = dirty_candidates(
                self.graph, self.spanner, update.edge, self.stretch,
                kernel=self.spec.kernel)
            version_before = self.graph.version
        update.apply(self.graph)
        if not in_spanner:
            # Deleting a rejected edge removes its own condition and touches
            # no other: H is unchanged and G-side budgets are per-edge.
            self.certificates.pop(update.edge, None)
            return None, None, (), False
        self.spanner.remove_edge(update.u, update.v)
        self.witnesses.pop(update.edge, None)
        region = self._region(update.edge, "delete", candidates, pool,
                              version_before)
        added = self._repair(region)
        return None, region, added, True

    def _apply_reweight(self, update: WeightChange):
        if not self.graph.has_edge(update.u, update.v):
            # Match update.apply()'s own validation so apply() keeps its
            # "raises UpdateError, changes nothing" contract on this path too.
            raise UpdateError(
                f"reweight of missing edge {update.edge!r}; use EdgeInsert")
        old_weight = self.graph.weight(update.u, update.v)
        new_weight = float(update.weight)
        if new_weight == old_weight:
            # Nothing moves: G's budgets and H's distances are as they were.
            return None, None, (), False
        in_spanner = self.spanner.has_edge(update.u, update.v)
        if in_spanner and new_weight > old_weight:
            candidates, pool = dirty_candidates(
                self.graph, self.spanner, update.edge, self.stretch,
                edge_weight=old_weight, kernel=self.spec.kernel)
            version_before = self.graph.version
        update.apply(self.graph)
        if in_spanner:
            # H mirrors G's weights (H is a subgraph *with matching
            # weights*); an overwrite keeps the edge in both.
            self.spanner.add_edge(update.u, update.v, new_weight)
            if new_weight < old_weight:
                # Distances in H only shrink: every rejected-edge condition
                # stays satisfied. Provably free.
                return None, None, (), True
            region = self._region(update.edge, "reweight", candidates, pool,
                                  version_before)
            added = self._repair(region)
            return None, region, added, True
        if new_weight < old_weight:
            # A rejected edge got cheaper: its own budget k*w tightened, so
            # re-run its acceptance test; everything else is untouched.
            return self._admit(update.u, update.v, new_weight)
        # A rejected edge got heavier: its budget grew, H is unchanged.
        return None, None, (), False

    # ------------------------------------------------------------------ repair
    def _region(self, trigger: EdgeTuple, reason: str,
                candidates: Tuple[Candidate, ...], pool: int,
                version_before: int) -> DirtyRegion:
        """The region ``trigger`` opened: the filtered candidates that lack a
        certificate once those through ``trigger`` are dropped."""
        self.certificates.pop_users(trigger)
        kept = tuple(candidate for candidate in candidates
                     if edge_key(candidate[0], candidate[1])
                     not in self.certificates)
        return DirtyRegion(
            trigger=trigger, reason=reason, candidates=kept,
            candidate_pool=pool, version_before=version_before,
            version_after=self.graph.version,
            certificate_skips=len(candidates) - len(kept))

    def _repair(self, region: DirtyRegion) -> Tuple[Candidate, ...]:
        """Greedy acceptance sweep over one dirty region; returns re-admissions."""
        self._repairs.inc()
        self.repair_log.append(region)
        self._dirty_candidates_checked.inc(len(region.candidates))
        self._dirty_pool_seen.inc(region.candidate_pool)
        self._certificate_skips.inc(region.certificate_skips)
        self._dirty_region_size.observe(len(region.candidates))
        if not region.candidates:
            self._repair_seconds.observe(0.0)
            return ()
        started = time.perf_counter()
        added = self._sweep(region.candidates)
        self._repair_seconds.observe(time.perf_counter() - started)
        self._repair_edges_added.inc(len(added))
        if added:
            _LOGGER.debug("repair after %s %s: %d/%d dirty candidates re-admitted",
                          region.reason, region.trigger, len(added),
                          len(region.candidates))
        return added

    # ----------------------------------------------------------- certification
    def certify(self, *, method: str = "auto", samples: int = 200, rng=None,
                exhaustive_limit: int = 50_000) -> CertificationRecord:
        """Ground-truth check of the maintained spanner, sharded per the spec.

        Runs :func:`~repro.spanners.verify.is_ft_spanner` with the spec's
        stretch/budget/model and its ``workers``/``backend`` knobs; the
        record is appended to :attr:`certifications`.
        """
        started = time.perf_counter()
        report = is_ft_spanner(
            self.graph, self.spanner, self.stretch, self.max_faults,
            self.model.name, method=method, samples=samples,
            rng=self.spec.seed if rng is None else rng,
            exhaustive_limit=exhaustive_limit,
            workers=self.spec.workers, backend=self.spec.backend,
            kernel=self.spec.kernel)
        self._certify_seconds.observe(time.perf_counter() - started)
        record = CertificationRecord(
            report=report, graph_version=self.graph.version,
            spanner_version=self.spanner.version,
            updates_applied=self.updates_applied)
        self.certifications.append(record)
        return record

    def rebuild(self) -> SpannerResult:
        """A from-scratch build of the spec at the *current* graph.

        The offline baseline the maintained spanner is compared against: the
        guarantee is identical, the size may be smaller (weight order beats
        arrival order) — this is the documented size-vs-rebuild trade-off.
        """
        from repro.build import build
        return build(self.graph, self.spec)

    # ----------------------------------------------------------------- reports
    def stats(self) -> Dict[str, Any]:
        """Flat maintenance report (counters, region selectivity, oracle work)."""
        return {
            "spec": self.spec.to_json(),
            "graph_nodes": self.graph.number_of_nodes(),
            "graph_edges": self.graph.number_of_edges(),
            "spanner_edges": self.spanner.number_of_edges(),
            "graph_version": self.graph.version,
            "spanner_version": self.spanner.version,
            "updates_applied": self.updates_applied,
            "update_counts": self.journal.counts(),
            "incremental_accepts": self.incremental_accepts,
            "incremental_rejects": self.incremental_rejects,
            "repairs": self.repairs,
            "repair_edges_added": self.repair_edges_added,
            "dirty_candidates_checked": self.dirty_candidates_checked,
            "dirty_pool_seen": self.dirty_pool_seen,
            "dirty_selectivity": (self.dirty_candidates_checked / self.dirty_pool_seen
                                  if self.dirty_pool_seen else 0.0),
            "certificate_skips": self.certificate_skips,
            # Actual (speculative + recheck) work, workers included; unlike
            # the spanner and witnesses this is *not* identical to serial.
            "oracle_queries": (self.oracle.stats.queries
                               - self._base_oracle_queries
                               + int(self._worker_counters.get(
                                   "oracle.queries", 0))),
            "maintenance_seconds": self.maintenance_seconds,
            "certifications": len(self.certifications),
            "last_certification_ok": (self.certifications[-1].ok
                                      if self.certifications else None),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DynamicSpanner {self.spec.summary()} "
                f"n={self.graph.number_of_nodes()} "
                f"m={self.graph.number_of_edges()} "
                f"|H|={self.spanner.number_of_edges()} "
                f"updates={self.updates_applied}>")
