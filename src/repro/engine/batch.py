"""Batched query planning: group queries, answer the groups with one runner.

The serving hot path receives a stream of ``(source, target, fault set)``
queries.  Answering each with its own Dijkstra wastes most of the work —
real traffic is heavily skewed (few popular sources, few concurrent fault
sets), so many queries share a ``(source, fault set)`` pair.  The planner
exploits that:

1. :func:`plan_batches` buckets queries by ``(source, canonical fault set)``
   in first-seen order (deterministic), remembering each query's position so
   answers can be scattered back in request order;
2. :func:`run_groups` answers a list of groups, all with the full
   distance vector (the cacheable form) or all with an early-exit run to
   their targets, as the caller states.  The kernel backend resolves at
   the serving crossover
   (:meth:`~repro.paths.registry.KernelBackend.resolve_serving`).
   When it has the multi-source kernel of that form and there are at least
   two groups, fused sweeps of at most :data:`FUSED_CELL_CAP` cells answer
   them all; otherwise each group costs **one** masked kernel run;
3. masks are reused across groups (:class:`GroupMasks`): a
   :class:`MaskBuffer` for per-group runs writes ``|F|`` bytes and resetting
   clears exactly those bytes, so the per-group masking cost is O(|F|), not
   O(n); a :class:`MaskMatrix` stacks the groups' masks into one matrix for
   a fused sweep with the same O(|F|)-per-group discipline.

Because the kernels replicate the per-query reference decision-for-decision
(see :mod:`repro.paths.kernels`), grouping never changes an answer — only
how many heap operations it costs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.faults.models import FaultModel, FaultSet
from repro.graph.core import Node
from repro.graph.csr import CSRGraph
from repro.paths.registry import KernelBackend

#: Most ``groups x nodes`` cells one fused sweep holds.  The multi-source
#: sweep keeps about 150-250 bytes per cell while it runs, so a plan larger
#: than this is answered by several sweeps of ``FUSED_CELL_CAP // n``
#: groups each (at least one), which bounds a sweep near 1 MB whatever the
#: batch size on graphs of up to ``FUSED_CELL_CAP`` nodes.  Per group, a
#: 4-group sweep costs what an 8-group one does (``serving_crossover`` in
#: ``BENCH_kernels.json``), so 4 groups per sweep at n=1000 cost no
#: throughput.
FUSED_CELL_CAP = 4096


@dataclass
class BatchGroup:
    """All queries of one batch that share ``(source, fault set)``."""

    source: Node
    faults: FaultSet
    targets: List[Node] = field(default_factory=list)
    positions: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.targets)


@dataclass
class BatchPlan:
    """The grouped form of one incoming query batch."""

    groups: List[BatchGroup]
    num_queries: int

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def largest_group(self) -> int:
        """Size of the biggest group (0 for an empty plan)."""
        if not self.groups:
            return 0
        return max(len(group) for group in self.groups)


def plan_batches(queries: Iterable, model: FaultModel) -> BatchPlan:
    """Group ``queries`` by ``(source, canonical fault set)``.

    Each query is anything exposing ``source`` / ``target`` / ``faults``
    attributes (:class:`repro.engine.workload.Query`) or a plain
    ``(source, target, faults)`` / ``(source, target)`` tuple.  Groups come
    out in first-seen order and positions index into the original stream, so
    executing the plan and scattering results reproduces per-query order
    exactly.
    """
    index: Dict[Tuple[Node, FaultSet], BatchGroup] = {}
    groups: List[BatchGroup] = []
    count = 0
    for position, query in enumerate(queries):
        count += 1
        if hasattr(query, "source"):
            source, target, faults = query.source, query.target, query.faults
        elif len(query) == 2:
            (source, target), faults = query, ()
        else:
            source, target, faults = query
        canonical = model.canonical(faults)
        key = (source, canonical)
        group = index.get(key)
        if group is None:
            group = BatchGroup(source=source, faults=canonical)
            index[key] = group
            groups.append(group)
        group.targets.append(target)
        group.positions.append(position)
    return BatchPlan(groups=groups, num_queries=count)


class MaskBuffer:
    """A reusable fault mask over one CSR snapshot.

    Allocating a fresh ``bytearray(n)`` per group is what the PR 1 oracles
    stopped doing; the engine keeps one buffer per served graph and flips
    only the faulted bytes in and out.  The buffer transparently re-sizes
    when the underlying snapshot grew (incremental appends add nodes/edges
    without recompiling).
    """

    __slots__ = ("csr", "model", "_mask", "_set_indices")

    def __init__(self, csr: CSRGraph, model: FaultModel):
        self.csr = csr
        self.model = model
        self._mask = model.new_mask(csr)
        self._set_indices: List[int] = []

    def apply(self, faults: Iterable) -> Tuple[bytearray, bytearray]:
        """Mask ``faults`` and return the kernel ``(vertex_mask, edge_mask)`` pair.

        Fault elements unknown to the snapshot are dropped, matching
        :class:`~repro.graph.views.ExclusionView` semantics.  Call
        :meth:`reset` after the kernel run.
        """
        if self._set_indices:
            raise RuntimeError("MaskBuffer.apply called before reset")
        required = (self.csr.num_nodes if self.model.uses_vertex_mask
                    else self.csr.num_edges)
        if len(self._mask) != required:
            self._mask = self.model.new_mask(self.csr)
        indices = self.model.mask_indices(self.csr, faults)
        mask = self._mask
        for index in indices:
            mask[index] = 1
        self._set_indices = indices
        return self.model.kernel_masks(mask)

    def reset(self) -> None:
        """Clear exactly the bytes the last :meth:`apply` set."""
        mask = self._mask
        for index in self._set_indices:
            mask[index] = 0
        self._set_indices = []


class MaskMatrix:
    """A reusable stack of per-group fault mask rows (numpy backends only).

    Where :class:`MaskBuffer` serves one group at a time, the matrix holds
    one boolean row per group of a plan so the whole fault-set batch can be
    handed to a multi-source kernel in a single call.  Rows are reused across
    plans with the same O(|F|)-per-group cost discipline: applying a plan
    writes only the faulted cells, and the next apply clears exactly the
    cells the previous one set.  Row capacity grows geometrically.
    """

    __slots__ = ("csr", "model", "_matrix", "_set_cells")

    def __init__(self, csr: CSRGraph, model: FaultModel):
        self.csr = csr
        self.model = model
        self._matrix = None
        self._set_cells: List[Tuple[int, List[int]]] = []

    def apply(self, fault_sets: Sequence[Iterable]):
        """Mask ``fault_sets`` row-by-row; returns ``(vertex_masks, edge_masks)``.

        One of the two is the ``(len(fault_sets), width)`` uint8 matrix (per
        the fault model), the other ``None`` — mirroring
        :meth:`FaultModel.kernel_masks` shape-for-shape, one row per group.
        """
        import numpy as np

        width = (self.csr.num_nodes if self.model.uses_vertex_mask
                 else self.csr.num_edges)
        rows = len(fault_sets)
        matrix = self._matrix
        if matrix is None or matrix.shape[1] != width or matrix.shape[0] < rows:
            capacity = rows if matrix is None else max(rows, 2 * matrix.shape[0])
            matrix = np.zeros((capacity, width), dtype=np.uint8)
            self._matrix = matrix
            self._set_cells = []
        for row, indices in self._set_cells:
            matrix[row, indices] = 0
        self._set_cells = []
        for row, faults in enumerate(fault_sets):
            indices = self.model.mask_indices(self.csr, faults)
            if indices:
                matrix[row, indices] = 1
                self._set_cells.append((row, indices))
        view = matrix[:rows]
        if self.model.uses_vertex_mask:
            return view, None
        return None, view


class GroupMasks:
    """The reusable fault masks of one CSR snapshot, as :func:`run_groups` needs them.

    A :class:`MaskBuffer` serves runs of one group at a time, a
    :class:`MaskMatrix` serves fused sweeps; both keep the O(|F|)-per-group
    reuse discipline across calls.
    """

    __slots__ = ("csr", "buffer", "matrix")

    def __init__(self, csr: CSRGraph, model: FaultModel):
        self.csr = csr
        self.buffer = MaskBuffer(csr, model)
        self.matrix = MaskMatrix(csr, model)


def run_groups(masks: GroupMasks, kernels: KernelBackend,
               groups: Sequence[Tuple[int, FaultSet]],
               targets: Optional[Sequence[List[int]]] = None, *,
               observe: Optional[Callable[[float], None]] = None
               ) -> Tuple[List[List[float]], int]:
    """Answer ``(source_index, faults)`` groups on ``masks.csr``.

    Without ``targets`` every group gets its full masked distance vector
    (the cacheable form); with ``targets`` (one list of target indices per
    group) every group gets its distances in target order from a run that
    early-exits once they settle.  ``kernels`` resolves for serving on
    ``masks.csr``.  With at least two groups and a resolved backend that
    has the multi-source kernel of that form, fused sweeps of at most
    :data:`FUSED_CELL_CAP` cells answer them all; otherwise each group runs
    its own kernel.  Both give the same distances.  ``observe`` receives the
    seconds of each kernel invocation.  Returns the rows in group order and
    the number of fused sweeps that ran.
    """
    csr = masks.csr
    backend = kernels.resolve_serving(csr)
    fused = (backend.multi_source_sssp if targets is None
             else backend.multi_source_multi_target)
    if fused is not None and len(groups) > 1:
        rows: List[List[float]] = []
        step = max(1, FUSED_CELL_CAP // csr.num_nodes)
        sweeps = 0
        for first in range(0, len(groups), step):
            started = time.perf_counter()
            chunk = groups[first:first + step]
            sources = [source for source, _ in chunk]
            vertex_masks, edge_masks = masks.matrix.apply(
                [faults for _, faults in chunk])
            if targets is None:
                rows.extend(fused(csr, sources, vertex_masks, edge_masks))
            else:
                rows.extend(fused(csr, sources, targets[first:first + step],
                                  vertex_masks, edge_masks))
            sweeps += 1
            if observe is not None:
                observe(time.perf_counter() - started)
        return rows, sweeps
    rows = []
    for index, (source, faults) in enumerate(groups):
        started = time.perf_counter()
        vertex_mask, edge_mask = masks.buffer.apply(faults)
        try:
            if targets is None:
                rows.append(backend.sssp_dijkstra_csr(
                    csr, source, None, vertex_mask, edge_mask)[0])
            else:
                rows.append(backend.multi_target_dijkstra_csr(
                    csr, source, targets[index], vertex_mask, edge_mask))
        finally:
            masks.buffer.reset()
        if observe is not None:
            observe(time.perf_counter() - started)
    return rows, 0
