"""The deterministic fold for counters shipped back from chunks.

Chunks are contiguous slices of a deterministic enumeration order and their
results are consumed *in order* (see :mod:`repro.runtime.backend`), so a
consumer that folds them in that order reproduces exactly what the serial
loop over the concatenated chunks would have computed.  Each consumer folds
its own results: the fault-set sweep of
:func:`repro.spanners.verify.sweep_fault_sets` concatenates stretch values
up to its stop rule, the source sweep of ``stretch_of`` takes a maximum.

:func:`merge_counters` (re-exported from :mod:`repro.obs.metrics`) is the
one fold for flat counter mappings shipped back from chunks — worker metric
deltas, speculative-batch oracle counts, pooled audit counts — into either a
plain dict or a metrics registry.  Counters folded through it obey the
serial-prefix rule: consumers fold in submission order and discard chunks
past an early stop, so ``verify.fault_sets_checked`` and the other counters
always mean "the serial prefix up to the stopping point", never "work
performed".
"""

from __future__ import annotations

from repro.obs.metrics import merge_counters

__all__ = ["merge_counters"]
