"""The engine-facing core: protocol verbs bound to a real query engine.

:class:`EngineCore` implements the duck-typed core protocol of
:mod:`repro.serve.protocol` over a :class:`~repro.dynamic.live.LiveEngine`
(read/write) or a plain :class:`~repro.engine.engine.QueryEngine`
(read-only), keeping transport strictly separate from the engine: the
daemon and the one-shot CLI both hold a core, never an engine, and tests
substitute a fake core without importing any engine machinery.

Read path: every ``distances`` call goes through the core's
:class:`~repro.serve.coalesce.CoalescingWindow`, so concurrent requests
from *different* connections merge into one ``distances_batch`` call —
that is the daemon's whole reason to exist.  The one-shot CLI builds the
core with ``window_seconds=0`` (a degenerate window that flushes on every
submit), so both surfaces run literally the same code path.

Write path: ``apply_updates`` first flushes the open window — the update
is a serialization barrier, so requests that were already parked resolve
against the pre-update spanner — then applies each op through the live
engine, which syncs the result cache atomically per op.  The live
maintainer journals every op it applies, and that journal is the only one:
the journal offset in responses, ``/health`` and :meth:`EngineCore.stats`
is its length (0 for a frozen snapshot, which applies nothing).  It is the
client-visible lineage cursor.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.dynamic.updates import UpdateError, UpdateOp
from repro.obs.metrics import component_registry
from repro.serve.coalesce import CoalescingWindow
from repro.serve.protocol import RequestError

__all__ = ["EngineCore"]


class EngineCore:
    """Bind the protocol's core interface onto a query engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.dynamic.live.LiveEngine` (its ``apply`` makes the
        ``update`` verb available) or any read-only engine exposing
        ``snapshot`` / ``distances_batch`` / ``stretch_audit``.
    window_seconds / max_batch:
        The coalescing window (see :class:`CoalescingWindow`); ``0``
        disables coalescing.

    The core keeps no journal of its own: the journal offset is the length
    of the live maintainer's journal (``engine.dynamic.journal``).  The
    daemon builds a fresh maintainer from its snapshot, so its offset
    starts at 0.
    """

    def __init__(self, engine, *, window_seconds: float = 0.002,
                 max_batch: int = 512):
        self.engine = engine
        self.snapshot = engine.snapshot
        self.fault_model = self.snapshot.fault_model
        self.writable = hasattr(engine, "apply")
        self.metrics = component_registry("serve.core")
        self.window = CoalescingWindow(
            engine.distances_batch, window_seconds=window_seconds,
            max_batch=max_batch, metrics=self.metrics)
        self._updates_applied = self.metrics.counter(
            "serve.updates_applied", "journal ops applied via /v1/update")
        self._updates_spanner_changed = self.metrics.counter(
            "serve.updates_spanner_changed",
            "applied ops that mutated the served spanner")

    @property
    def journal_offset(self) -> int:
        """Ops the live maintainer has journalled; 0 for a frozen snapshot."""
        return len(self.engine.dynamic.journal) if self.writable else 0

    # ------------------------------------------------------------- the core
    async def distances(self, queries: List) -> List[float]:
        """Answer query triples through the coalescing window."""
        return await self.window.submit(queries)

    async def audit(self, source, target, faults):
        """One stretch audit (bypasses the window: audits are diagnostics)."""
        from repro.engine.engine import EngineError

        try:
            return self.engine.stretch_audit(source, target, faults)
        except EngineError as error:
            # Snapshot kept no original graph — a deployment property, so
            # 409 (the request is well-formed, this server can't serve it).
            raise RequestError(str(error), status=409) from None

    async def apply_updates(self, ops: Sequence[UpdateOp]) -> Dict[str, Any]:
        """Apply ops in order through the live maintainer.

        Ops apply one at a time exactly like a journal replay; on the first
        inapplicable op the report carries how many earlier ops *did* apply
        (and were journalled by the maintainer) so the client can
        resynchronize.
        """
        if not self.writable:
            raise RequestError(
                "this daemon serves an immutable snapshot (no live "
                "maintainer); restart it from a snapshot that carries the "
                "original graph to enable /v1/update", status=409)
        # Serialization barrier: requests already parked in the window
        # resolve against the pre-update spanner.
        self.window.flush()
        applied = 0
        spanner_changed = 0
        outcomes = []
        for op in ops:
            try:
                outcome = self.engine.apply(op)
            except UpdateError as error:
                raise RequestError(
                    f"update {applied} of {len(ops)} failed after "
                    f"{applied} applied: {error}", status=409) from None
            applied += 1
            if outcome.spanner_changed:
                spanner_changed += 1
            outcomes.append({"op": op.kind,
                             "edge": list(op.edge),
                             "spanner_changed": outcome.spanner_changed})
        self._updates_applied.inc(applied)
        self._updates_spanner_changed.inc(spanner_changed)
        return {
            "applied": applied,
            "spanner_changed": spanner_changed,
            "journal_offset": self.journal_offset,
            "outcomes": outcomes,
        }

    # ------------------------------------------------------------- reporting
    def describe(self) -> Dict[str, Any]:
        """JSON-safe engine + lineage summary for ``/health``."""
        spec = self.snapshot.build_spec
        return {
            "snapshot": self.snapshot.describe(),
            "build_spec": spec.to_json() if spec is not None else None,
            "writable": self.writable,
            "journal_offset": self.journal_offset,
            "spanner_version": self.snapshot.spanner.version,
        }

    def stats(self) -> Dict[str, Any]:
        """The engine's serving report plus the core's write-path ledger."""
        return {
            **self.engine.stats(),
            "journal_offset": self.journal_offset,
            "coalesce": {
                "window_seconds": self.window.window_seconds,
                "max_batch": self.window.max_batch,
                "batches_flushed": self.window.batches_flushed,
                "requests_coalesced": self.window.requests_coalesced,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EngineCore {'live' if self.writable else 'frozen'} "
                f"model={self.fault_model} "
                f"journal_offset={self.journal_offset}>")
