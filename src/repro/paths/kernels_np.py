"""Vectorized (numpy) versions of the loop kernels numpy wins on.

The numpy kernel backend (:mod:`repro.paths.registry`) is the loop backend
with four calls replaced by the kernels here: full single-source sweeps
(:func:`sssp_dijkstra_csr`), early-exit sweeps
(:func:`multi_target_dijkstra_csr`) and their fused multi-source forms
(:func:`multi_source_sssp_csr`, :func:`multi_source_multi_target_csr`).
The first two keep the signatures, masks and return types of their
:mod:`repro.paths.kernels` namesakes, but the per-frontier work is numpy
gathers/scatters over the zero-copy CSR ndarray views
(:meth:`~repro.graph.csr.CSRGraph.as_ndarrays`) instead of per-edge Python
bytecode.  The module is only importable when numpy is; the kernel registry
gates on that.

**Byte-identity.**  The hard invariant — enforced by
``tests/test_kernel_backends.py`` — is that every kernel here returns values
*bit-identical* to the loop kernel it replaces: distances, settle order,
early-exit answers.  Two observations make that possible without
replaying the heap:

1.  *Distances are relaxation-order independent.*  Edge weights are strictly
    positive and finite, so float addition of a weight is monotone
    (``a <= b  =>  a + w <= b + w``) and extending a walk never lowers its
    rounded prefix sum.  Both heap Dijkstra and frontier Bellman–Ford
    therefore converge to the same per-node value: the minimum over walks of
    the left-to-right float sum.  Budget/cutoff pruning drops exactly the
    walks whose (monotone) prefix exceeds the bound in both.

2.  *The settle order is reconstructible after the fact.*  The loop kernel
    settles nodes by ``(distance, push counter)``.  All pushes that achieve a
    node's final distance ``d`` are issued by parents settled strictly
    earlier (``dist[u] + w == d`` with ``w > 0`` forces ``dist[u] < d``), so
    within an equal-distance group the settle order is the ascending order of
    each node's *first achieving push* — the lexicographically smallest
    ``(parent settle position, arc position in the parent's scan)`` over
    unmasked arcs with ``dist[u] + w == d`` exactly.  Sorting distance groups
    by that key reproduces the counter order without ever materialising it.

The same two facts drive the multi-source kernels: one flat ``(group, node)``
address space answers an entire ``(source, fault set)`` group plan from
:mod:`repro.engine.batch` in a single sweep, with per-group boolean mask rows
instead of per-query mask churn.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

_INF = math.inf
#: Sentinel "no achieving push" key; real keys are < n * (2m + 1) << 2**63.
_NO_KEY = np.iinfo(np.int64).max


def _mask_nd(mask) -> Optional[np.ndarray]:
    """Zero-copy uint8 view of a kernel ``bytearray`` mask (or ``None``)."""
    if mask is None:
        return None
    return np.frombuffer(mask, dtype=np.uint8)


def _expand(indptr: np.ndarray, frontier: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Flat arc indices of every arc leaving ``frontier``, plus the per-arc
    position of its tail in ``frontier`` (``reps``)."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    reps = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    arcs = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
    return arcs, reps


def _relax(nd, n: int, source: int, cutoff: Optional[float],
           vmask: Optional[np.ndarray], emask: Optional[np.ndarray],
           targets: Optional[np.ndarray] = None) -> np.ndarray:
    """Final Dijkstra distance array via frontier relaxation (see module doc).

    ``targets`` enables the early exit: the sweep stops once every target's
    tentative distance is at most the frontier minimum — no future candidate
    can beat it (positive weights keep candidates >= the frontier minimum).
    Only the target entries are guaranteed final in that mode.
    """
    indptr, indices, weights, edge_ids = nd
    dist = np.full(n, np.inf)
    if cutoff is not None and cutoff < 0.0:
        # The reference pops (0.0, source) and bails before settling anything.
        return dist
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    touched = np.zeros(n, dtype=bool)  # scatter-dedup scratch (beats sorting)
    while frontier.size:
        if targets is not None:
            frontier_min = dist[frontier].min()
            if (dist[targets] <= frontier_min).all():
                break
        arcs, reps = _expand(indptr, frontier)
        if arcs.size == 0:
            break
        nbr = indices[arcs]
        cand = dist[frontier][reps] + weights[arcs]
        keep = cand < dist[nbr]
        if emask is not None:
            keep &= emask[edge_ids[arcs]] == 0
        if vmask is not None:
            keep &= vmask[nbr] == 0
        if cutoff is not None:
            keep &= cand <= cutoff
        nbr = nbr[keep]
        if nbr.size == 0:
            break
        np.minimum.at(dist, nbr, cand[keep])
        touched[nbr] = True
        frontier = np.nonzero(touched)[0]
        touched[frontier] = False
    return dist


def _settle_order(csr: CSRGraph, nd, dist: np.ndarray,
                  emask: Optional[np.ndarray]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Reconstruct the loop kernel's settle order from final distances.

    Returns ``(order, settle_pos)`` where ``order`` lists the settled node
    indices in settle order and ``settle_pos`` is its inverse (meaningful for
    settled nodes only).  Singleton distance values — the common case on
    real-weighted graphs — cost nothing beyond one argsort; only groups of
    equal distances run the achieving-push key computation.
    """
    indptr, indices, weights, edge_ids = nd
    settled = np.flatnonzero(np.isfinite(dist))
    settle_pos = np.zeros(len(dist), dtype=np.int64)
    if settled.size == 0:
        return settled, settle_pos
    order = settled[np.argsort(dist[settled], kind="stable")]
    dvals = dist[order]
    settle_pos[order] = np.arange(order.size)
    group_starts = np.flatnonzero(
        np.concatenate(([True], dvals[1:] != dvals[:-1])))
    group_ends = np.concatenate((group_starts[1:], [order.size]))
    multi = np.flatnonzero(group_ends - group_starts > 1)
    if multi.size == 0:
        return order, settle_pos
    rev = csr.reverse_arcs()
    key_base = np.int64(len(indices) + 1)
    # Ascending distance: parents of a group live in strictly earlier groups,
    # whose positions are final by the time the group is reordered.
    for gi in multi:
        a, b = int(group_starts[gi]), int(group_ends[gi])
        members = order[a:b]
        d = dvals[a]
        arcs, reps = _expand(indptr, members)
        parent = indices[arcs]
        achieving = dist[parent] + weights[arcs] == d
        if emask is not None:
            achieving &= emask[edge_ids[arcs]] == 0
        key = np.where(achieving, settle_pos[parent] * key_base + rev[arcs],
                       _NO_KEY)
        # Per-member minimum over its (contiguous) arc segment.
        seg_starts = indptr[members]
        counts = indptr[members + 1] - seg_starts
        offsets = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        first_keys = np.minimum.reduceat(key, offsets)
        members = members[np.argsort(first_keys, kind="stable")]
        order[a:b] = members
        settle_pos[members] = np.arange(a, b)
    return order, settle_pos


# --------------------------------------------------------------------------
# Single-source sweeps
# --------------------------------------------------------------------------

def sssp_dijkstra_csr(csr: CSRGraph, source: int,
                      cutoff: Optional[float] = None,
                      vertex_mask: Optional[bytearray] = None,
                      edge_mask: Optional[bytearray] = None
                      ) -> Tuple[List[float], List[int]]:
    """Vectorized twin of :func:`repro.paths.kernels.sssp_dijkstra_csr`."""
    n = csr.num_nodes
    if vertex_mask is not None and vertex_mask[source]:
        return [_INF] * n, []
    nd = csr.as_ndarrays()
    emask = _mask_nd(edge_mask)
    dist = _relax(nd, n, source, cutoff, _mask_nd(vertex_mask), emask)
    order, _ = _settle_order(csr, nd, dist, emask)
    return dist.tolist(), order.tolist()


def multi_target_dijkstra_csr(csr: CSRGraph, source: int, targets: List[int],
                              vertex_mask: Optional[bytearray] = None,
                              edge_mask: Optional[bytearray] = None
                              ) -> List[float]:
    """Vectorized twin of :func:`repro.paths.kernels.multi_target_dijkstra_csr`."""
    result = [_INF] * len(targets)
    if vertex_mask is not None and vertex_mask[source]:
        return result
    pending: List[int] = []
    for position, target in enumerate(targets):
        if vertex_mask is not None and vertex_mask[target]:
            continue
        if target == source:
            result[position] = 0.0
            continue
        pending.append(position)
    if not pending:
        return result
    # sorted(set()) over np.unique: unique's first call imports numpy.ma.
    live = np.array(sorted({targets[p] for p in pending}), dtype=np.int64)
    nd = csr.as_ndarrays()
    dist = _relax(nd, csr.num_nodes, source, None, _mask_nd(vertex_mask),
                  _mask_nd(edge_mask), targets=live)
    for position in pending:
        result[position] = float(dist[targets[position]])
    return result


# --------------------------------------------------------------------------
# Multi-source batched kernels (one sweep per group plan)
# --------------------------------------------------------------------------

def _multi_source_sweep(csr: CSRGraph, sources: Sequence[int],
                        vertex_masks: Optional[np.ndarray],
                        edge_masks: Optional[np.ndarray],
                        target_lists: Optional[Sequence[np.ndarray]] = None
                        ) -> np.ndarray:
    """Run ``len(sources)`` independent masked SSSPs in one flat sweep.

    The state is one ``(groups, n)`` distance matrix relaxed over a flat
    ``group * n + node`` address space; each row converges to exactly the
    bits :func:`_relax` produces for that row's source and mask row (rows
    never interact).  With ``target_lists`` the per-group early exit drops a
    group's frontier entries once all of its targets are final — only the
    target entries of such rows are guaranteed final.
    """
    nd = csr.as_ndarrays()
    indptr, indices, weights, edge_ids = nd
    n = csr.num_nodes
    m = csr.num_edges
    groups = len(sources)
    dist = np.full((groups, n), np.inf)
    flat = dist.ravel()
    vm_flat = None if vertex_masks is None else np.ascontiguousarray(vertex_masks).ravel()
    em_flat = None if edge_masks is None else np.ascontiguousarray(edge_masks).ravel()

    live_groups: List[int] = []
    for g, src in enumerate(sources):
        if vm_flat is not None and vm_flat[g * n + src]:
            continue  # masked source: the row stays all-inf, like the twin
        flat[g * n + src] = 0.0
        live_groups.append(g)
    grp = np.array(live_groups, dtype=np.int64)
    node = np.array([sources[g] for g in live_groups], dtype=np.int64)

    t_grp = t_idx = None
    if target_lists is not None:
        pairs = [(g, t) for g in live_groups for t in target_lists[g]]
        if pairs:
            t_grp = np.array([p[0] for p in pairs], dtype=np.int64)
            t_idx = np.array([p[1] for p in pairs], dtype=np.int64)

    touched = np.zeros(groups * n, dtype=bool)  # scatter-dedup scratch
    while grp.size:
        entry_dist = flat[grp * n + node]
        if t_grp is not None:
            frontier_min = np.full(groups, np.inf)
            np.minimum.at(frontier_min, grp, entry_dist)
            target_max = np.full(groups, -np.inf)
            np.maximum.at(target_max, t_grp, flat[t_grp * n + t_idx])
            finished = target_max <= frontier_min
            if finished.any():
                alive = ~finished[grp]
                grp, node, entry_dist = grp[alive], node[alive], entry_dist[alive]
                if not grp.size:
                    break
        arcs, reps = _expand(indptr, node)
        if arcs.size == 0:
            break
        garc = grp[reps]
        nbr = indices[arcs]
        cell = garc * n + nbr
        cand = entry_dist[reps] + weights[arcs]
        keep = cand < flat[cell]
        if em_flat is not None:
            keep &= em_flat[garc * m + edge_ids[arcs]] == 0
        if vm_flat is not None:
            keep &= vm_flat[cell] == 0
        cell = cell[keep]
        if cell.size == 0:
            break
        np.minimum.at(flat, cell, cand[keep])
        touched[cell] = True
        cell = np.nonzero(touched)[0]
        touched[cell] = False
        grp = cell // n
        node = cell - grp * n
    return dist


def multi_source_sssp_csr(csr: CSRGraph, sources: Sequence[int],
                          vertex_masks: Optional[np.ndarray] = None,
                          edge_masks: Optional[np.ndarray] = None
                          ) -> List[List[float]]:
    """Full distance vectors for a whole ``(source, fault set)`` group plan.

    Returns one list per group, bit-identical to running
    :func:`sssp_dijkstra_csr` with that group's mask row — the cacheable
    form the query engine admits, produced by one fused sweep.
    """
    dist = _multi_source_sweep(csr, sources, vertex_masks, edge_masks)
    return [row.tolist() for row in dist]


def multi_source_multi_target_csr(csr: CSRGraph, sources: Sequence[int],
                                  target_lists: Sequence[Sequence[int]],
                                  vertex_masks: Optional[np.ndarray] = None,
                                  edge_masks: Optional[np.ndarray] = None
                                  ) -> List[List[float]]:
    """Early-exiting batched twin of :func:`multi_target_dijkstra_csr`.

    ``target_lists[g]`` aligns with the returned ``result[g]``; per-group
    semantics (masked targets stay inf, ``target == source`` answers 0.0,
    duplicates fill independently) replicate the single-source kernel.
    """
    n = csr.num_nodes
    groups = len(sources)
    results = [[_INF] * len(target_lists[g]) for g in range(groups)]
    pending: List[List[int]] = [[] for _ in range(groups)]
    live: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * groups
    for g, src in enumerate(sources):
        vrow = None if vertex_masks is None else vertex_masks[g]
        if vrow is not None and vrow[src]:
            continue
        row_pending = pending[g]
        for position, target in enumerate(target_lists[g]):
            if vrow is not None and vrow[target]:
                continue
            if target == src:
                results[g][position] = 0.0
                continue
            row_pending.append(position)
        if row_pending:
            live[g] = np.array(sorted({target_lists[g][p] for p in row_pending}),
                               dtype=np.int64)
    if not any(len(row) for row in pending):
        return results
    dist = _multi_source_sweep(csr, sources, vertex_masks, edge_masks,
                               target_lists=live)
    flat = dist.ravel()
    for g, row_pending in enumerate(pending):
        for position in row_pending:
            results[g][position] = float(flat[g * n + target_lists[g][position]])
    return results
