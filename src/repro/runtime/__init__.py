"""Sharded execution runtime for the exponential sweeps.

The verification, adversarial-search, and experiment layers all reduce to
the same shape of work: a deterministic enumeration (fault sets, source
vertices, trials) cut into ordered chunks whose results fold back into the
serial answer.  This package factors out where and how the chunks run:

* :mod:`repro.runtime.backend` — where chunks run (:class:`SerialBackend`
  inline, :class:`ProcessPoolBackend` across worker processes with the CSR
  context shipped once per worker; a worker that dies raises
  ``BrokenProcessPool`` in the consumer);
* :mod:`repro.runtime.shard` — how sweeps split into balanced, contiguous,
  order-preserving chunks;
* :mod:`repro.runtime.merge` — the counter fold for worker metric deltas.

Each consumer folds its own ordered chunk results; Definition 2's fault-set
sweep (:func:`repro.spanners.verify.sweep_fault_sets`) is the one fold
behind ``is_ft_spanner``, ``worst_case_fault_set`` and
``random_fault_trial``.  The property suite in ``tests/test_runtime.py``
enforces that every backend gives bit-identical answers.
"""

from repro.runtime.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    get_backend,
    usable_cpu_count,
)
from repro.runtime.shard import (
    chunk_size_for,
    iter_chunks,
    plan_ranges,
    split_sequence,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "get_backend",
    "usable_cpu_count",
    "chunk_size_for",
    "iter_chunks",
    "plan_ranges",
    "split_sequence",
]
