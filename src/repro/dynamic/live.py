"""Serving queries against a spanner that is being maintained live.

:class:`LiveEngine` is the meeting point of the two halves of the system:
the batched query engine (:mod:`repro.engine`), which assumes an immutable
snapshot, and the dynamic maintainer (:mod:`repro.dynamic.maintain`), which
mutates the spanner in place.  The bridge is the version machinery the lower
layers already speak:

* the engine's :class:`~repro.engine.snapshot.SpannerSnapshot` wraps the
  maintainer's **live** graphs (spanner ``H`` + original ``G``), so an
  applied update is visible to the very next query — no copy, no reload;
* the engine's result cache keys on :attr:`Graph.version` of ``H`` and
  flushes itself the moment the version moves, so a mutated spanner can
  never serve a stale distance; between updates the version is still, so
  query batches keep batching and caching exactly as against a frozen
  snapshot;
* updates that leave ``H`` untouched (deleting a rejected edge, a
  weight-increase outside ``H``) do not move ``H``'s version, so they are
  *free* for the serving path — the cache survives them by construction.

:meth:`LiveEngine.apply` is the only mutation entry point: it runs the
maintainer, then synchronously re-syncs the cache (so invalidation is
attributed to the update, not smeared into the next query) and counts what
happened.  :meth:`stats` merges the serving report with the maintenance
report and the invalidation ledger.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

from repro.dynamic.maintain import DynamicSpanner, UpdateOutcome
from repro.dynamic.repair import CertificationRecord
from repro.dynamic.updates import UpdateOp
from repro.engine.engine import QueryEngine
from repro.engine.snapshot import SpannerSnapshot


class LiveEngine:
    """A query engine over a dynamically maintained spanner.

    Parameters
    ----------
    dynamic:
        The maintainer owning the live graph and spanner.
    cache_size:
        Forwarded to the underlying :class:`~repro.engine.engine.QueryEngine`,
        which serves reads on the spec's kernel backend.

    Examples
    --------
    >>> from repro.graph import generators
    >>> from repro.build import BuildSpec, BuildSession
    >>> from repro.dynamic import LiveEngine
    >>> graph = generators.gnm(24, 60, rng=0, connected=True)
    >>> session = BuildSession(graph, BuildSpec("ft-greedy", stretch=3, max_faults=1))
    >>> live = LiveEngine(session.dynamic())
    >>> _ = live.distance(0, 5)
    """

    def __init__(self, dynamic: DynamicSpanner, *, cache_size: int = 256):
        self.dynamic = dynamic
        spec = dynamic.spec
        # The snapshot wraps the *live* graphs: updates flow through without
        # copying, and Graph.version carries the invalidation signal.
        self.snapshot = SpannerSnapshot(
            spanner=dynamic.spanner,
            stretch=spec.stretch,
            max_faults=spec.max_faults,
            fault_model=dynamic.model.name,
            algorithm=f"{spec.algorithm}[dynamic]",
            original=dynamic.graph,
            metadata={"build_spec": spec.to_json(), "live": True},
        )
        self.engine = QueryEngine(self.snapshot, cache_size=cache_size,
                                  kernel=spec.kernel)
        self.updates_spanner_changed = 0
        self.cache_invalidations = 0

    # ----------------------------------------------------------------- updates
    def apply(self, update: UpdateOp) -> UpdateOutcome:
        """Apply one update; the refreshed spanner serves the next query.

        The maintainer mutates ``H`` in place, bumping its version; syncing
        the cache here makes the swap atomic from the serving side — either
        a query sees the old spanner with the old cache, or the new spanner
        with a clean one, never a mix.
        """
        before = self.engine.cache.invalidations
        outcome = self.dynamic.apply(update)
        self.engine.cache.sync(self.dynamic.spanner.version)
        self.cache_invalidations += self.engine.cache.invalidations - before
        if outcome.spanner_changed:
            self.updates_spanner_changed += 1
        return outcome

    def apply_journal(self, journal: Iterable[UpdateOp]) -> List[UpdateOutcome]:
        """Apply every op of a journal in order; returns the outcomes."""
        return [self.apply(update) for update in journal]

    @property
    def updates_applied(self) -> int:
        """Ops applied so far: the maintainer's own count."""
        return self.dynamic.updates_applied

    # ----------------------------------------------------------------- queries
    def distance(self, source, target, faults: Iterable = ()) -> float:
        """``dist_{H \\ F}(source, target)`` against the current spanner."""
        return self.engine.distance(source, target, faults)

    def distances_batch(self, queries: Sequence) -> List[float]:
        """Answer a batch of ``(source, target, faults)`` queries."""
        return self.engine.distances_batch(queries)

    def connectivity(self, source, target, faults: Iterable = ()) -> bool:
        """Whether ``target`` is reachable from ``source`` in ``H \\ F``."""
        return self.engine.connectivity(source, target, faults)

    def stretch_audit(self, source, target, faults: Iterable = ()):
        """Audit one served distance against the live original graph."""
        return self.engine.stretch_audit(source, target, faults)

    def certify(self, *, method: str = "auto", samples: int = 200,
                rng=None) -> CertificationRecord:
        """Ground-truth certification of the spanner being served."""
        return self.dynamic.certify(method=method, samples=samples, rng=rng)

    # ----------------------------------------------------------------- reports
    def stats(self) -> Dict[str, Any]:
        """Serving + maintenance report with the invalidation ledger.

        ``update_cache_invalidations`` counts flushes attributed to applied
        updates (synced inside :meth:`apply`); the engine's own cache stats
        keep the raw totals.
        """
        return {
            **self.engine.stats(),
            "maintenance": self.dynamic.stats(),
            "updates_applied": self.updates_applied,
            "updates_spanner_changed": self.updates_spanner_changed,
            "update_cache_invalidations": self.cache_invalidations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LiveEngine updates={self.updates_applied} "
                f"served={self.engine.queries_served} "
                f"invalidations={self.cache_invalidations}>")
