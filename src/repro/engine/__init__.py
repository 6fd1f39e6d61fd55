"""Batched fault-tolerant query serving on top of prebuilt spanners.

The paper's object of study is a *compact structure you query after faults*;
this package is the layer that actually serves those queries at volume.  The
pieces, bottom-up:

* :mod:`repro.engine.snapshot` — :class:`SpannerSnapshot`, an immutable
  bundle of the spanner graph, its compiled CSR form, and the construction
  metadata (``k``, ``f``, fault model), with ``save``/``load`` so a service
  restarts without rebuilding;
* :mod:`repro.engine.batch` — the batch planner: incoming
  ``(source, target, fault set)`` queries are grouped by ``(source, fault
  mask)``, and one runner answers the groups with one fused multi-source
  sweep or one masked kernel run per group instead of one Dijkstra per
  query, with fault masks reused across groups;
* :mod:`repro.engine.cache` — a versioned LRU cache of per-``(source,
  faults)`` distance vectors, invalidated by :attr:`Graph.version`;
* :mod:`repro.engine.engine` — :class:`QueryEngine`, the facade exposing
  ``distance`` / ``distances_batch`` / ``connectivity`` / ``stretch_audit``
  plus a serving-stats report;
* :mod:`repro.engine.workload` — synthetic query-traffic generators
  (uniform, Zipf-skewed, fault-churn sessions) for benchmarks and the
  ``repro-spanner serve`` CLI.

Batched answers are *identical* to per-query answers — the batch planner is
an execution strategy, never a semantic change; ``tests/test_engine.py``
enforces this against the dict-based reference path.
"""

from repro.engine.batch import BatchPlan, MaskBuffer, plan_batches
from repro.engine.cache import ResultCache
from repro.engine.engine import EngineError, QueryEngine, StretchAudit
from repro.engine.snapshot import SpannerSnapshot
from repro.engine.workload import (
    Query,
    fault_churn_sessions,
    split_batches,
    uniform_workload,
    update_churn,
    zipf_workload,
)

__all__ = [
    "BatchPlan",
    "MaskBuffer",
    "plan_batches",
    "ResultCache",
    "EngineError",
    "QueryEngine",
    "StretchAudit",
    "SpannerSnapshot",
    "Query",
    "uniform_workload",
    "zipf_workload",
    "fault_churn_sessions",
    "update_churn",
    "split_batches",
]
