"""Dynamic updates: incremental spanner maintenance under live edge churn.

Real networks mutate while queries are in flight — links appear, fail, and
get re-weighted.  This package maintains a valid ``f``-fault-tolerant
``k``-spanner across such a stream without rebuilding from scratch:

* :mod:`repro.dynamic.updates` — the typed ops (:class:`EdgeInsert` /
  :class:`EdgeDelete` / :class:`WeightChange`) and the append-only,
  JSON-round-trippable :class:`UpdateJournal` whose replay deterministically
  reproduces the maintained state;
* :mod:`repro.dynamic.maintain` — :class:`DynamicSpanner`: insertions run
  the paper's greedy acceptance test on just the new edge; deletions and
  weight increases open a provably sufficient *dirty region* that is
  repaired by re-running the acceptance sweep over candidate replacement
  edges only (sharded through :mod:`repro.runtime` when workers are
  configured, byte-identical to the serial sweep);
* :mod:`repro.dynamic.repair` — the dirty-region filter (two SSSP runs
  bound which rejected edges can flip), keyed on :attr:`Graph.version`
  deltas, plus the :class:`~repro.dynamic.repair.CertificationRecord` that
  ties a :func:`~repro.spanners.verify.is_ft_spanner` report to the versions
  it saw (``DynamicSpanner.certify`` calls the static verifier directly);
* :mod:`repro.dynamic.live` — :class:`LiveEngine`: the batched
  :class:`~repro.engine.engine.QueryEngine` over the live spanner, with
  updates atomically invalidating exactly the cached answers they obsolete.

The maintained spanner carries the same ``k``/``f`` guarantee as a fresh
build after every update (property-tested in ``tests/test_dynamic.py``
against both fault models); its size may exceed the from-scratch greedy's
by the online-vs-offline gap measured in ``benchmarks/bench_dynamic.py``.
"""

from repro.dynamic.updates import (
    JOURNAL_FORMAT,
    ChurnState,
    EdgeDelete,
    EdgeInsert,
    UpdateError,
    UpdateJournal,
    UpdateOp,
    WeightChange,
    random_journal,
    update_from_json,
    update_to_json,
)
__all__ = [
    "JOURNAL_FORMAT",
    "ChurnState",
    "EdgeDelete",
    "EdgeInsert",
    "UpdateError",
    "UpdateJournal",
    "UpdateOp",
    "WeightChange",
    "random_journal",
    "update_from_json",
    "update_to_json",
    "CertificationRecord",
    "DirtyRegion",
    "all_rejected_candidates",
    "dirty_candidates",
    "DynamicSpanner",
    "UpdateOutcome",
    "LiveEngine",
]


# The journal layer (repro.dynamic.updates) stays eager — it is pure graph
# core and what the serving transport parses ops with.  The maintainer and
# the live engine resolve lazily: they pull in the kernel registry / query
# engine (and numpy), which journal-only consumers never need.
_LAZY = {
    "CertificationRecord": "repro.dynamic.repair",
    "DirtyRegion": "repro.dynamic.repair",
    "all_rejected_candidates": "repro.dynamic.repair",
    "dirty_candidates": "repro.dynamic.repair",
    "DynamicSpanner": "repro.dynamic.maintain",
    "UpdateOutcome": "repro.dynamic.maintain",
    "LiveEngine": "repro.dynamic.live",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
