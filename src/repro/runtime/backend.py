"""Pluggable execution backends: run sharded work serially or in a process pool.

A backend executes *chunk tasks*: a top-level (hence picklable-by-reference)
function ``fn(context, chunk)`` applied to a stream of chunks, where
``context`` is the read-only payload every chunk needs — typically a pair of
compiled CSR snapshots plus a fault-model name.  Two implementations:

* :class:`SerialBackend` — runs chunks inline, in order.  This is the
  reference semantics; every parallel consumer is required to produce
  bit-identical results to it (``tests/test_runtime.py`` holds the line).
* :class:`ProcessPoolBackend` — fans chunks out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  The context is pickled
  **once per worker** (shipped through the executor initializer into a
  module global), so per-chunk messages carry only the chunk itself; CSR
  snapshots are plain ``dict``/``list``/``array`` containers and pickle
  cleanly.  A worker that dies mid-chunk breaks the executor, and the
  consumer's next result raises ``BrokenProcessPool`` instead of waiting
  forever.

Both expose the same lazy, *ordered* iteration protocol (:meth:`imap`):
results come back in chunk-submission order regardless of which worker
finished first, which is what lets consumers merge verdicts, witnesses, and
counters deterministically — and closing the iterator early (e.g. breaking
on the first refutation) cancels the outstanding chunks.

Metric capture: passing ``metrics=<registry>`` to :meth:`imap`/:meth:`map`
ships each chunk's movement of the *worker process's* default metrics
registry back with its result and folds it into the given registry (in
submission order, through :func:`repro.obs.merge_counters`).  Chunks the
consumer never pulls — speculative work past an early generator close —
contribute nothing, so captured counters obey the same "serial prefix" rule
as the fault-set sweep (:func:`repro.spanners.verify.sweep_fault_sets`) and
parallel runs report the same counters as serial ones.  The serial backend
ignores ``metrics``: its chunks run in-process, so their increments already
land where they belong.
"""

from __future__ import annotations

import multiprocessing
import os
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, List, Optional, Union

from repro.obs.metrics import MetricsRegistry, get_registry, merge_counters

#: Per-worker slot for the shipped context (set by the executor initializer).
_WORKER_CONTEXT: Any = None


def _worker_init(context: Any) -> None:
    """Executor initializer: stash the shared context in the worker process."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _worker_call(fn, chunk):
    """Run one chunk task against the worker-resident context."""
    return fn(_WORKER_CONTEXT, chunk), None


def _worker_call_metered(fn, chunk):
    """Run one chunk task, also capturing the worker's counter movement.

    The before-snapshot is taken per chunk (not per worker), so the shipped
    delta is exactly this chunk's contribution no matter how chunks are
    spread over pool workers or what the forked registry inherited.
    """
    registry = get_registry()
    before = registry.counters(include_sources=True)
    result = fn(_WORKER_CONTEXT, chunk)
    return result, registry.counters_delta(before, include_sources=True)


class ExecutionBackend(ABC):
    """How sharded work gets executed (serially or across workers)."""

    #: Machine-readable backend name ("serial" / "process"), used by the CLI.
    name: str = "abstract"
    #: Degree of parallelism the backend offers (1 for serial).
    workers: int = 1

    @abstractmethod
    def imap(self, fn: Callable[[Any, Any], Any], chunks: Iterable,
             *, context: Any = None,
             metrics: Optional[MetricsRegistry] = None) -> Iterator:
        """Lazily yield ``fn(context, chunk)`` for each chunk, in order.

        The returned iterator is a generator: consumers that stop early must
        ``close()`` it (or exhaust it) so pooled backends can cancel the
        outstanding chunks — the idiom is ``try: ... finally: it.close()``.

        ``metrics`` asks pooled backends to capture each chunk's worker-side
        counter movement and fold it into the given registry as the chunk's
        result is yielded (see the module docstring); serial backends ignore
        it.
        """

    def map(self, fn: Callable[[Any, Any], Any], chunks: Iterable,
            *, context: Any = None,
            metrics: Optional[MetricsRegistry] = None) -> List:
        """Eager form of :meth:`imap` (all chunks, results in order)."""
        return list(self.imap(fn, chunks, context=context, metrics=metrics))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialBackend(ExecutionBackend):
    """Run every chunk inline in the calling process — the reference order."""

    name = "serial"
    workers = 1

    def imap(self, fn, chunks, *, context=None, metrics=None):
        # ``metrics`` is deliberately unused: in-process chunks increment
        # the live registries directly, so capture would double-count.
        for chunk in chunks:
            yield fn(context, chunk)


class ProcessPoolBackend(ExecutionBackend):
    """Fan chunks out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Parameters
    ----------
    workers:
        Pool size; defaults to the usable CPU count.
    start_method:
        ``multiprocessing`` start method (``None`` keeps the platform
        default).  The context payload must pickle under any method; fork
        merely makes shipping cheaper.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None, *,
                 start_method: Optional[str] = None):
        if workers is None:
            workers = usable_cpu_count()
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self._start_method = start_method

    def imap(self, fn, chunks, *, context=None, metrics=None):
        executor = ProcessPoolExecutor(
            self.workers,
            mp_context=multiprocessing.get_context(self._start_method),
            initializer=_worker_init, initargs=(context,))
        call = _worker_call if metrics is None else _worker_call_metered
        # A bounded window of submitted chunks keeps every worker busy while
        # ``chunks`` is pulled lazily; futures are awaited in submission
        # order, so results come back ordered whatever the completion order.
        chunks = iter(chunks)
        pending: deque = deque()
        try:
            for chunk in islice(chunks, 2 * self.workers):
                pending.append(executor.submit(call, fn, chunk))
            while pending:
                result, delta = pending.popleft().result()
                for chunk in islice(chunks, 1):
                    pending.append(executor.submit(call, fn, chunk))
                if delta is not None:
                    # Fold before yielding: a consumer that closes the
                    # generator after this chunk still gets its counters,
                    # while never-consumed speculative chunks ship nothing.
                    merge_counters(metrics, delta)
                yield result
        finally:
            # Reached on exhaustion, on error *and* on early generator
            # close: queued chunks are cancelled and running ones killed,
            # never waited for.  The executor has no public call that kills
            # running workers (before Python 3.14), hence ``_processes``.
            workers = list((executor._processes or {}).values())
            executor.shutdown(wait=False, cancel_futures=True)
            for process in workers:
                process.terminate()
            for process in workers:
                process.join()


def usable_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


BackendLike = Union[None, str, ExecutionBackend]


def get_backend(backend: BackendLike = None, workers: int = 1) -> ExecutionBackend:
    """Resolve a backend spec (name / instance / ``None``) into a backend.

    ``None`` and ``"auto"`` pick :class:`ProcessPoolBackend` when
    ``workers > 1`` and :class:`SerialBackend` otherwise; ``"serial"`` and
    ``"process"`` force the choice.  Existing instances pass through
    unchanged (their own ``workers`` wins).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if backend is None or backend == "auto":
        return ProcessPoolBackend(workers) if workers > 1 else SerialBackend()
    if backend == "serial":
        return SerialBackend()
    if backend == "process":
        return ProcessPoolBackend(workers)
    raise ValueError(
        f"unknown backend {backend!r}; expected 'auto', 'serial', or 'process'"
    )
