"""Versioned LRU result cache for the query engine.

The engine caches one *distance vector* per ``(source, canonical fault set)``
pair: a single masked SSSP run answers every target for that pair, so the
vector is the natural unit of reuse — a cache hit turns a whole query group
into list lookups.

Two invalidation mechanisms:

* **LRU eviction** — bounded capacity, least-recently-*used* entry dropped
  first (reads refresh recency);
* **version invalidation** — every entry set is tied to one
  :attr:`Graph.version`; :meth:`ResultCache.sync` clears the cache the
  moment the served graph's version moves, so a mutated spanner can never
  serve stale distances.

All traffic is counted on the metrics registry (:mod:`repro.obs`) under the
``engine.cache.*`` family — hits / misses / evictions / invalidations — and
surfaces both in :meth:`QueryEngine.stats` (the historical dict view) and in
the process-wide metrics export.  ``hit_rate`` is always a number: an
untouched cache reports ``0.0``, never a division error.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

from repro.obs.metrics import MetricsRegistry, component_registry


class ResultCache:
    """A bounded LRU mapping with hit/miss/eviction/invalidation counters.

    ``capacity <= 0`` disables caching entirely (every ``get`` misses, every
    ``put`` is a no-op) — the engine uses this to run in pure streaming mode.
    ``metrics`` lets an owning component (the engine) host the cache
    counters on its own registry; a standalone cache gets its own, attached
    to the process default either way.
    """

    __slots__ = ("capacity", "version", "metrics", "_hits", "_misses",
                 "_evictions", "_invalidations", "_entries")

    def __init__(self, capacity: int = 256, *,
                 metrics: Optional[MetricsRegistry] = None):
        self.capacity = capacity
        self.version: Optional[int] = None
        self.metrics = metrics if metrics is not None else component_registry("cache")
        self._hits = self.metrics.counter(
            "engine.cache.hits", "cache lookups answered from memory")
        self._misses = self.metrics.counter(
            "engine.cache.misses", "cache lookups that fell through")
        self._evictions = self.metrics.counter(
            "engine.cache.evictions", "LRU entries dropped at capacity")
        self._invalidations = self.metrics.counter(
            "engine.cache.invalidations",
            "whole-cache clears on graph version moves")
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    # ------------------------------------------------------------ thin views
    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def invalidations(self) -> int:
        return self._invalidations.value

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything at all."""
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    # ------------------------------------------------------------- lifecycle
    def sync(self, version: int) -> None:
        """Bind the cache to ``version``, clearing it if the version moved.

        Call before every lookup round; cheap when nothing changed (one
        comparison).
        """
        if self.version is None:
            self.version = version
            return
        if version != self.version:
            if self._entries:
                self._invalidations.inc()
                self._entries.clear()
            self.version = version

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` if present (counters are kept)."""
        self._entries.pop(key, None)

    # --------------------------------------------------------------- traffic
    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value for ``key`` (refreshing recency) or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses.inc()
            return None
        self._hits.inc()
        self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key`` → ``value``, evicting the LRU entry when full."""
        if self.capacity <= 0:
            return
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self._evictions.inc()

    # ----------------------------------------------------------------- stats
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        hits = self._hits.value
        total = hits + self._misses.value
        if total == 0:
            return 0.0
        return hits / total

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for the engine's stats report."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache {len(self._entries)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses} evictions={self.evictions}>"
        )
