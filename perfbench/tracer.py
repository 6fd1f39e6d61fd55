"""Benchmark-owned tracing: timers wrapped around each layer's entry points.

:func:`install` replaces public entry points of the program's layers with
timing wrappers *in the current process* (nothing under ``src/`` changes);
an entry point that is missing is an error, so a refactor under ``src/``
cannot silently drop a layer's timer.  Each call is a span; a layer's self
time is its spans' durations minus the time of their child spans.  Only the
per-layer aggregates are kept, in memory, and written once, at
:meth:`SpanRecorder.dump`.

Wrappers are synchronous and the traced processes run every traced layer on
one thread (the build worker's main thread, the daemon's event loop), so a
single span stack is exact.  The daemon's request dispatch is a coroutine
that interleaves with other requests; it is recorded separately as
per-request wall time and never enters the stack.

The tracing overhead is estimated from the spans themselves: the number of
wrapped calls times the cost of one wrapper, measured in the same process
(:func:`wrapper_costs`).
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: Layers reported as ``<layer>.busy_s`` (self time).
LAYERS = ("csr", "kernels", "oracle", "build", "verify", "engine",
          "coalesce", "protocol", "dynamic", "snapshot")


class SpanRecorder:
    """Time spans in memory; aggregate self time per layer as they end."""

    def __init__(self):
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.total_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.dispatch_seconds: Dict[str, List[float]] = defaultdict(list)
        #: One cell per open span: the time spent in its child spans so far.
        self._stack: List[List[float]] = []

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                recorder.self_seconds[layer] += duration - children[0]
                recorder.total_seconds[name] += duration
                recorder.calls[name] += 1
                if stack:
                    stack[-1][0] += duration

        return traced

    def wrap_dispatch(self, fn: Callable) -> Callable:
        """Per-request wall time of the daemon's (async) verb dispatch."""
        recorder = self

        @functools.wraps(fn)
        async def traced(core, verb_name, payload):
            start = time.perf_counter()
            try:
                return await fn(core, verb_name, payload)
            finally:
                recorder.dispatch_seconds[verb_name].append(
                    time.perf_counter() - start)

        return traced

    def summary(self) -> Dict[str, object]:
        """Per-layer aggregates plus the estimated time the wrappers added."""
        span_cost, dispatch_cost = wrapper_costs()
        dispatches = sum(len(times) for times in self.dispatch_seconds.values())
        return {
            "self_seconds": {layer: self.self_seconds.get(layer, 0.0)
                             for layer in LAYERS},
            "total_seconds": dict(self.total_seconds),
            "calls": dict(self.calls),
            "dispatch_seconds": dict(self.dispatch_seconds),
            "wrapper_seconds": (sum(self.calls.values()) * span_cost
                                + dispatches * dispatch_cost),
        }

    def dump(self, path) -> None:
        """Write :meth:`summary` as one JSON document."""
        with open(path, "w") as handle:
            json.dump(self.summary(), handle)


#: Calls per timing batch and batches per estimate in :func:`wrapper_costs`.
_PROBE_CALLS = 20_000
_PROBE_BATCHES = 5


def wrapper_costs() -> Tuple[float, float]:
    """Seconds one span wrapper and one dispatch wrapper add to a call.

    Each is the median over a few batches of (wrapped - bare) time of a
    no-op call, measured in the calling process.
    """
    def noop():
        return None

    async def noop_dispatch(core, verb_name, payload):
        return None

    probe = SpanRecorder()
    span = probe.wrap("probe", "probe", noop)
    dispatch = probe.wrap_dispatch(noop_dispatch)

    def sync_batch(fn) -> float:
        start = time.perf_counter()
        for _ in range(_PROBE_CALLS):
            fn()
        return time.perf_counter() - start

    async def async_batch(fn) -> float:
        start = time.perf_counter()
        for _ in range(_PROBE_CALLS):
            await fn(None, "probe", None)
        return time.perf_counter() - start

    def per_call(batch) -> float:
        return max(0.0, statistics.median(
            batch() for _ in range(_PROBE_BATCHES)) / _PROBE_CALLS)

    span_cost = per_call(lambda: sync_batch(span) - sync_batch(noop))
    dispatch_cost = per_call(
        lambda: asyncio.run(async_batch(dispatch))
        - asyncio.run(async_batch(noop_dispatch)))
    return span_cost, dispatch_cost


def _wrap_method(recorder: SpanRecorder, cls, attr: str, name: str,
                 layer: str) -> None:
    """Wrap ``cls.attr``, which ``cls`` must define itself (not inherit)."""
    raw = cls.__dict__.get(attr)
    if raw is None:
        raise AttributeError(f"{cls.__qualname__} defines no {attr!r} to trace")
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(recorder.wrap(name, layer, raw.__func__)))
    else:
        setattr(cls, attr, recorder.wrap(name, layer, raw))


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced entry point; call before any program object exists."""
    from repro.build.session import BuildSession
    from repro.dynamic.live import LiveEngine
    from repro.dynamic.maintain import DynamicSpanner
    from repro.engine.engine import QueryEngine
    from repro.engine.snapshot import SpannerSnapshot
    from repro.graph.csr import CSRGraph
    from repro.paths import registry
    from repro.serve import coalesce, daemon, protocol
    from repro.spanners import fault_check
    from repro.spanners import verify as verify_module

    # graph: CSR compilation and re-compaction.
    _wrap_method(recorder, CSRGraph, "from_graph", "csr.compile", "csr")
    _wrap_method(recorder, CSRGraph, "compact", "csr.compact", "csr")

    # paths: every kernel of the concrete backends (``auto`` resolves to them
    # through the registry at call time, so it needs no wrapper of its own).
    for backend_name in registry.kernel_backend_names():
        if backend_name == "auto":
            continue
        backend = registry.get_kernels(backend_name)
        wrapped = {
            field.name: recorder.wrap(f"kernels.{field.name}", "kernels",
                                      getattr(backend, field.name))
            for field in dataclasses.fields(backend)
            if callable(getattr(backend, field.name))}
        registry.register_kernel_backend(dataclasses.replace(backend, **wrapped))

    # spanners.fault_check: the oracles' CSR entry points.
    for cls in (fault_check.ExhaustiveOracle, fault_check.BranchAndBoundOracle,
                fault_check.TieredOracle, fault_check.GreedyPathPackingOracle):
        _wrap_method(recorder, cls, "find_breaking_fault_set_csr",
                     "oracle.query", "oracle")

    # spanners.ft_greedy via the build facade.
    _wrap_method(recorder, BuildSession, "build", "build.session", "build")

    # spanners.verify + faults: the FT check and each per-fault-set sweep.
    verify_module.is_ft_spanner = recorder.wrap(
        "verify.is_ft_spanner", "verify", verify_module.is_ft_spanner)
    verify_module.stretch_between_csr = recorder.wrap(
        "verify.stretch", "verify", verify_module.stretch_between_csr)
    verify_module.sample_fault_sets = recorder.wrap(
        "verify.sample", "verify", verify_module.sample_fault_sets)

    # engine: batched reads (planner + cache + kernel calls).
    _wrap_method(recorder, QueryEngine, "distances_batch",
                 "engine.distances_batch", "engine")
    _wrap_method(recorder, LiveEngine, "distances_batch",
                 "engine.live_distances_batch", "engine")
    _wrap_method(recorder, SpannerSnapshot, "load", "snapshot.load",
                 "snapshot")

    # serve: window flushes, verb parse/render, per-request dispatch.
    _wrap_method(recorder, coalesce.CoalescingWindow, "flush",
                 "coalesce.flush", "coalesce")
    for verb_name, verb in list(protocol.VERBS.items()):
        protocol.VERBS[verb_name] = dataclasses.replace(
            verb,
            parse=recorder.wrap("protocol.parse", "protocol", verb.parse),
            render=recorder.wrap("protocol.render", "protocol", verb.render))
    daemon.dispatch = recorder.wrap_dispatch(daemon.dispatch)

    # dynamic: maintenance under updates (repairs run inside apply).
    _wrap_method(recorder, DynamicSpanner, "apply", "dynamic.apply", "dynamic")
