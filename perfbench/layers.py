"""Per-layer metrics: the program's own counters plus the traced run's spans.

Counts come from the process metrics registry (build worker) or the
daemon's ``/metrics`` (serving); busy times come from ``tracer.py`` spans.
Every traced run reports every metric below; a layer a workload does not
exercise reads 0, which is the benchmark's "no change" prediction for it.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Mapping, Optional, Tuple

import common

#: Layer metrics that repeat exactly across same-seed runs of a workload.
DETERMINISTIC = {
    "build-vft": ("oracle.queries", "oracle.screen_accept",
                  "oracle.screen_reject", "oracle.fallthrough",
                  "oracle.screen_hit_rate", "oracle.nodes_expanded",
                  "kernels.dispatches",
                  "verify.fault_sets_checked", "verify.stretch_calls"),
    "serve-churn": ("dynamic.repairs", "dynamic.incremental_accepts",
                    "dynamic.dirty_selectivity"),
}

_FLAT = re.compile(r'^([^{]+)(?:\{(.*)\})?$')
_LABEL = re.compile(r'(\w+)="([^"]*)"')

CounterGetter = Callable[..., float]
HistogramGetter = Callable[[str], Tuple[float, float]]


def registry_getter(flat: Mapping[str, float]) -> CounterGetter:
    """Counter lookup over ``MetricsRegistry.counters()`` flat keys."""
    def get(name: str, **labels: str) -> float:
        total = 0.0
        for key, value in flat.items():
            match = _FLAT.match(key)
            if match is None or match.group(1) != name:
                continue
            have = dict(_LABEL.findall(match.group(2) or ""))
            if all(have.get(k) == v for k, v in labels.items()):
                total += value
        return total
    return get


def prometheus_getters(text: str) -> Tuple[CounterGetter, HistogramGetter]:
    """Counter and histogram lookups over a ``/metrics`` body."""
    samples = common.parse_prometheus(text)

    def family(name: str) -> str:
        return "repro_" + "".join(c if c.isalnum() else "_" for c in name)

    def get(name: str, **labels: str) -> float:
        return common.prom_value(samples, family(name), **labels)

    def hist(name: str) -> Tuple[float, float]:
        return (common.prom_value(samples, family(name) + "_sum"),
                common.prom_value(samples, family(name) + "_count"))

    return get, hist


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(get: CounterGetter, hist: Optional[HistogramGetter],
                  trace: Optional[Dict], client: Mapping[str, float]
                  ) -> Dict[str, float]:
    """Every per-layer metric from one traced run's sources."""
    self_s = trace["self_seconds"] if trace else {}
    calls = trace["calls"] if trace else {}
    totals = trace["total_seconds"] if trace else {}
    no_hist: HistogramGetter = lambda name: (0.0, 0.0)  # noqa: E731
    hist = hist or no_hist

    accept = get("oracle.screen", outcome="accept")
    reject = get("oracle.screen", outcome="reject")
    queries = get("oracle.queries")
    hits, misses = get("engine.cache.hits"), get("engine.cache.misses")
    occupancy_sum, batches_seen = hist("serve.coalesce.occupancy")
    wait_sum, waits = hist("serve.coalesce.wait_seconds")
    repair_seconds, _ = hist("dynamic.repair_seconds")
    return {
        "oracle.queries": queries,
        "oracle.screen_accept": accept,
        "oracle.screen_reject": reject,
        "oracle.fallthrough": get("oracle.screen", outcome="fallthrough"),
        "oracle.screen_hit_rate": _ratio(accept + reject, queries),
        "oracle.nodes_expanded": get("oracle.nodes_expanded"),
        "oracle.busy_s": self_s.get("oracle", 0.0),
        "build.busy_s": self_s.get("build", 0.0),
        "verify.fault_sets_checked": get("verify.fault_sets_checked"),
        "verify.stretch_calls": float(calls.get("verify.stretch", 0)),
        "verify.busy_s": self_s.get("verify", 0.0),
        "kernels.dispatches": get("kernels.dispatch"),
        "kernels.busy_s": self_s.get("kernels", 0.0),
        "csr.compiles": float(calls.get("csr.compile", 0)),
        "csr.busy_s": self_s.get("csr", 0.0),
        "snapshot.load_s": totals.get("snapshot.load", 0.0),
        "engine.kernel_calls": get("engine.kernel_calls"),
        "engine.fused_sweeps": get("engine.fused_sweeps"),
        "engine.cache_hit_rate": _ratio(hits, hits + misses),
        "engine.cache_invalidations": get("engine.cache.invalidations"),
        "engine.busy_s": self_s.get("engine", 0.0),
        "coalesce.batches": get("serve.coalesce.batches"),
        "coalesce.mean_occupancy": _ratio(occupancy_sum, batches_seen),
        "coalesce.wait_ms_mean": 1000.0 * _ratio(wait_sum, waits),
        "protocol.busy_s": self_s.get("protocol", 0.0),
        "transport.overhead_ms_p50": client.get("transport.overhead_ms_p50",
                                                0.0),
        "daemon.rejected": (get("serve.requests", status="429")
                            + get("serve.requests", status="503")),
        "dynamic.repairs": get("dynamic.repairs"),
        "dynamic.repair_s": repair_seconds,
        "dynamic.dirty_selectivity": _ratio(
            get("dynamic.dirty_candidates_checked"),
            get("dynamic.dirty_pool_seen")),
        "dynamic.incremental_accepts": get("dynamic.incremental_accepts"),
        "churn.reads_behind_update": client.get("churn.reads_behind_update",
                                                0.0),
        "churn.update_p50_ms": client.get("churn.update_p50_ms", 0.0),
        "churn.update_p90_ms": client.get("churn.update_p90_ms", 0.0),
    }
