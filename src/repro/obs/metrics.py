"""Process-wide metrics: counters, gauges, and histograms with labeled children.

One :class:`MetricsRegistry` owns a namespace of metrics.  Components that
want their own counters (a :class:`~repro.engine.engine.QueryEngine`, an
oracle, a :class:`~repro.dynamic.maintain.DynamicSpanner`) create a
*component registry* via :func:`component_registry`, which attaches it to the
process-wide default registry through a weak reference: the component reads
and bumps its own counters with zero indirection, while
``get_registry().snapshot()`` folds every live component into one
process-level view for export (``--metrics-json``, the Prometheus rendering
in :mod:`repro.obs.export`, and the future serving daemon's ``/metrics``).

Conventions
-----------
* Metric names are dotted lowercase (``engine.kernel_calls``); the exporter
  turns them into Prometheus families (``repro_engine_kernel_calls``).
* Labeled children are flat-keyed as ``name{key="value"}`` with sorted label
  keys; label values must not contain ``"`` or ``,`` (kernel/backend names
  never do).
* All mutations take the registry lock, so concurrent threads never lose an
  increment; the cost is ~100ns per bump — negligible next to the kernel
  runs the counters count, and benchmarked ≤ 2% end-to-end by
  ``benchmarks/bench_engine.py``.
* Counters accept float amounts (``busy_seconds`` style accumulators share
  the counter machinery) but must never decrease; use a :class:`Gauge` for
  values that go down.

Merging
-------
:func:`merge_counters` is the single fold used everywhere chunked work ships
counters back to a parent: worker-process metric deltas
(:mod:`repro.runtime.backend`), the speculative-batch fold in the parallel
FT-greedy builder and the dynamic repair sweep.  It sums a flat
``{name: amount}`` mapping into either a plain dict or a registry, so
parallel runs report the same counters as serial ones (property-tested in
``tests/test_obs.py``).
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, MutableMapping, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "component_registry",
    "get_registry",
    "merge_counters",
    "merge_snapshots",
    "DEFAULT_BUCKETS",
    "SIZE_BUCKETS",
]

#: Default histogram buckets (seconds): microseconds through a minute.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)

#: Power-of-two buckets for count-valued histograms (batch occupancy,
#: dirty-region sizes).
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)


def _label_key(labels: Mapping[str, Any]) -> str:
    """Canonical flat label suffix: ``key="value"`` pairs, sorted by key."""
    return ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))


def _parse_flat_name(flat: str) -> Tuple[str, Optional[Dict[str, str]]]:
    """Invert the flat-key format: ``name{k="v"}`` → ``(name, {k: v})``."""
    if not flat.endswith("}") or "{" not in flat:
        return flat, None
    name, _, body = flat[:-1].partition("{")
    labels: Dict[str, str] = {}
    for pair in body.split(","):
        key, _, value = pair.partition("=")
        labels[key] = value.strip('"')
    return name, labels


class _Metric:
    """Shared labeled-children machinery of the three metric kinds."""

    kind = "untyped"
    __slots__ = ("name", "help", "_lock", "_children", "__weakref__")

    def __init__(self, name: str, help: str = "", *,
                 _lock: Optional[threading.RLock] = None):
        self.name = name
        self.help = help
        # Children share the parent's lock: one registry, one lock.
        self._lock = _lock if _lock is not None else threading.RLock()
        self._children: Optional[Dict[str, "_Metric"]] = None

    def _new_child(self, flat_name: str) -> "_Metric":
        raise NotImplementedError

    def labels(self, **labels: Any) -> "_Metric":
        """The child metric for this label combination (get-or-create)."""
        if not labels:
            return self
        key = _label_key(labels)
        with self._lock:
            if self._children is None:
                self._children = {}
            child = self._children.get(key)
            if child is None:
                child = self._new_child(f"{self.name}{{{key}}}")
                self._children[key] = child
        return child

    def children(self) -> Dict[str, "_Metric"]:
        """Label-key → child mapping (empty when unlabeled)."""
        with self._lock:
            return dict(self._children) if self._children else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Counter(_Metric):
    """A monotonically increasing value (events, work units, busy seconds)."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self, name: str, help: str = "", *, _lock=None):
        super().__init__(name, help, _lock=_lock)
        self._value = 0

    def _new_child(self, flat_name: str) -> "Counter":
        return Counter(flat_name, self.help, _lock=self._lock)

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {amount!r})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Union[int, float]:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0
            for child in self.children().values():
                child._reset()


class Gauge(_Metric):
    """A value that can go up and down (pool sizes, in-flight work)."""

    kind = "gauge"
    __slots__ = ("_value",)

    def __init__(self, name: str, help: str = "", *, _lock=None):
        super().__init__(name, help, _lock=_lock)
        self._value = 0

    def _new_child(self, flat_name: str) -> "Gauge":
        return Gauge(flat_name, self.help, _lock=self._lock)

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> Union[int, float]:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0
            for child in self.children().values():
                child._reset()


class Histogram(_Metric):
    """Observation distribution with fixed buckets (latencies, sizes)."""

    kind = "histogram"
    __slots__ = ("buckets", "_counts", "_sum", "_count")

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS, *, _lock=None):
        super().__init__(name, help, _lock=_lock)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self._counts = [0] * (len(self.buckets) + 1)  # last slot: +Inf
        self._sum = 0.0
        self._count = 0

    def _new_child(self, flat_name: str) -> "Histogram":
        return Histogram(flat_name, self.help, self.buckets, _lock=self._lock)

    def observe(self, value: Union[int, float]) -> None:
        with self._lock:
            self._counts[bisect_left(self.buckets, value)] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` rows, +Inf last."""
        with self._lock:
            rows: List[Tuple[float, int]] = []
            running = 0
            for le, count in zip(self.buckets, self._counts):
                running += count
                rows.append((le, running))
            rows.append((float("inf"), running + self._counts[-1]))
            return rows

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0
            for child in self.children().values():
                child._reset()


class MetricsRegistry:
    """A namespace of metrics plus weakly-referenced component registries.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking twice
    for the same name returns the same object, asking with a conflicting
    kind raises ``ValueError``.  :meth:`snapshot` folds the registry's own
    metrics with every still-alive attached source into one plain-dict
    document (the schema consumed by :mod:`repro.obs.export`).
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Metric] = {}
        self._sources: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()

    # -------------------------------------------------------------- creation
    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, _lock=self._lock, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {cls.kind}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def metrics(self) -> Dict[str, _Metric]:
        """Name → metric mapping of this registry's own metrics."""
        with self._lock:
            return dict(self._metrics)

    # --------------------------------------------------------------- sources
    def attach(self, source: "MetricsRegistry") -> None:
        """Fold ``source`` into this registry's snapshots while it lives."""
        if source is self:
            raise ValueError("a registry cannot attach itself")
        with self._lock:
            self._sources.add(source)

    def sources(self) -> List["MetricsRegistry"]:
        """Currently-alive attached component registries."""
        with self._lock:
            return list(self._sources)

    # ------------------------------------------------------------- snapshots
    def snapshot(self, *, include_sources: bool = True) -> Dict[str, Any]:
        """Plain-dict view of every metric (merged across live sources).

        Schema (stable; consumed by :mod:`repro.obs.export` and the
        ``repro-spanner stats`` CLI)::

            {name: {"kind": "counter"|"gauge", "help": str, "value": number,
                    "children": {label_key: number}},
             name: {"kind": "histogram", "help": str, "count": int,
                    "sum": float, "buckets": [[le, cumulative], ...]}}

        ``children`` / empty entries are omitted when absent.
        """
        document: Dict[str, Any] = {}
        for name, metric in sorted(self.metrics().items()):
            document[name] = _metric_entry(metric)
        if include_sources:
            for source in self.sources():
                merge_snapshots(document, source.snapshot())
        return document

    def counters(self, *, include_sources: bool = False) -> Dict[str, float]:
        """Flat ``{name: value}`` of counters only (children flat-keyed).

        The cheap view used for span counter-delta attribution and worker
        metric capture; ``include_sources`` folds live component registries
        in (summing colliding names).
        """
        flat: Dict[str, float] = {}
        for name, metric in self.metrics().items():
            if metric.kind != "counter":
                continue
            if metric.value:
                flat[name] = flat.get(name, 0) + metric.value
            for child in metric.children().values():
                if child.value:
                    flat[child.name] = flat.get(child.name, 0) + child.value
        if include_sources:
            for source in self.sources():
                merge_counters(flat, source.counters())
        return flat

    def counters_delta(self, before: Mapping[str, float], *,
                       include_sources: bool = False) -> Dict[str, float]:
        """Nonzero counter movement since a prior :meth:`counters` snapshot."""
        delta: Dict[str, float] = {}
        for name, value in self.counters(include_sources=include_sources).items():
            moved = value - before.get(name, 0)
            if moved:
                delta[name] = moved
        return delta

    # -------------------------------------------------------------- mutation
    def merge_counters(self, flat: Mapping[str, float]) -> None:
        """Fold a flat counters mapping into this registry's own counters.

        Flat keys round-trip the labeled-child format, so deltas captured
        from one registry land on the equivalent (possibly labeled) counters
        of another.  This is the registry half of :func:`merge_counters`.
        """
        for flat_name, amount in flat.items():
            name, labels = _parse_flat_name(flat_name)
            counter = self.counter(name)
            if labels:
                counter = counter.labels(**labels)
            counter.inc(amount)

    def reset(self) -> None:
        """Zero every metric of this registry and its live sources."""
        for metric in self.metrics().values():
            metric._reset()
        for source in self.sources():
            source.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MetricsRegistry {self.name!r} metrics={len(self._metrics)} "
                f"sources={len(self.sources())}>")


def _metric_entry(metric: _Metric) -> Dict[str, Any]:
    """One snapshot entry for a metric (plus flattened children values)."""
    if metric.kind == "histogram":
        # The +Inf bound is encoded as the string "+Inf": float infinity is
        # not valid strict JSON, and the snapshot must round-trip json.dump.
        entry: Dict[str, Any] = {
            "kind": "histogram",
            "count": metric.count,
            "sum": metric.sum,
            "buckets": [["+Inf" if le == float("inf") else le, count]
                        for le, count in metric.cumulative_buckets()],
        }
    else:
        entry = {"kind": metric.kind, "value": metric.value}
    if metric.help:
        entry["help"] = metric.help
    children = metric.children()
    if children:
        entry["children"] = {
            key: (_metric_entry(child) if metric.kind == "histogram"
                  else child.value)
            for key, child in sorted(children.items())
        }
    return entry


def merge_snapshots(target: MutableMapping[str, Any],
                    source: Mapping[str, Any]) -> MutableMapping[str, Any]:
    """Fold one snapshot document into another (summing same-name metrics).

    Counters and gauges sum; histograms sum count/sum and per-``le`` bucket
    rows.  Used to aggregate component registries into the process view —
    the merge is commutative and associative, so source iteration order
    never changes the result.
    """
    for name, entry in source.items():
        held = target.get(name)
        if held is None:
            target[name] = _copy_entry(entry)
            continue
        if held["kind"] != entry["kind"]:
            raise ValueError(f"metric {name!r} merged as {held['kind']} "
                             f"and {entry['kind']}")
        if held["kind"] == "histogram":
            held["count"] += entry["count"]
            held["sum"] += entry["sum"]
            rows = {le: count for le, count in held["buckets"]}
            for le, count in entry["buckets"]:
                rows[le] = rows.get(le, 0) + count
            order = sorted(rows, key=lambda le: (float("inf") if le == "+Inf"
                                                 else float(le)))
            held["buckets"] = [[le, rows[le]] for le in order]
        else:
            held["value"] += entry["value"]
        for key, child in entry.get("children", {}).items():
            children = held.setdefault("children", {})
            if key not in children:
                children[key] = _copy_entry(child)
            elif held["kind"] == "histogram":
                merge_snapshots({"_": children[key]}, {"_": child})
            else:
                children[key] += child
    return target


def _copy_entry(entry: Any) -> Any:
    if not isinstance(entry, dict):
        return entry
    copy = dict(entry)
    if "buckets" in copy:
        copy["buckets"] = [list(row) for row in copy["buckets"]]
    if "children" in copy:
        copy["children"] = {key: _copy_entry(child)
                            for key, child in copy["children"].items()}
    return copy


def merge_counters(target: Union[MutableMapping[str, float], MetricsRegistry],
                   source: Mapping[str, float]) -> None:
    """Sum a flat ``{name: amount}`` counters mapping into ``target``.

    ``target`` may be a plain dict (local fold before a single registry
    write) or a :class:`MetricsRegistry` (direct fold).  This is *the*
    deterministic counter merge: every parallel consumer folds worker
    counters through it in chunk-submission order, which is what makes
    parallel runs report the same counters as serial ones.
    """
    if isinstance(target, MetricsRegistry):
        target.merge_counters(source)
        return
    for name, amount in source.items():
        target[name] = target.get(name, 0) + amount


# ---------------------------------------------------------------------------
# The process-wide default registry
# ---------------------------------------------------------------------------

_DEFAULT_REGISTRY = MetricsRegistry(name="process")


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (export surface of this process)."""
    return _DEFAULT_REGISTRY


def component_registry(name: str) -> MetricsRegistry:
    """A fresh registry attached (weakly) to the process default.

    Components own their registry — their counters read with zero
    indirection and die with the component — while the process snapshot
    keeps seeing them for as long as they live.
    """
    registry = MetricsRegistry(name=name)
    _DEFAULT_REGISTRY.attach(registry)
    return registry
