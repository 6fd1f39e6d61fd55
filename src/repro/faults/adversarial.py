"""Adversarial fault search: which fault set hurts a spanner the most?

Given an original graph ``G``, a candidate spanner ``H``, and a fault budget
``f``, these routines find (exhaustively for small instances, greedily for
large ones) the fault set maximising the worst pairwise stretch of
``H \\ F`` relative to ``G \\ F``.  Experiment E9 uses them to show that the
FT-greedy output really keeps its stretch under the worst faults while
non-fault-tolerant baselines do not.

Every entry point takes plain :class:`~repro.graph.core.Graph` inputs and
evaluates each fault set as kernel masks over their CSR snapshots; views
raise ``TypeError``.  :func:`worst_case_fault_set` and
:func:`random_fault_trial` are Definition 2's fault-set sweep
(:func:`repro.spanners.verify.sweep_fault_sets`, shared with
``is_ft_spanner``) with their own stop rules: the search stops at the first
infinite stretch or the first one beyond ``stop_stretch``, the trials never
stop.  Both accept ``workers`` / ``backend`` and shard their candidates
through :mod:`repro.runtime` with results bit-identical to the serial scan.

The sweep builds the verify memo (:func:`source_trees`) once in the calling
process and ships it with the snapshots, so each fault set re-searches only
the sources whose recorded unfaulted paths it touches (see
:func:`stretch_between_csr`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.faults.models import FaultModel, FaultSet, get_fault_model
from repro.graph.core import Graph, Node
from repro.graph.csr import CSRGraph, csr_snapshot
from repro.paths.registry import KernelLike, get_kernels
from repro.runtime.backend import BackendLike


def stretch_under_faults(original: Graph, spanner: Graph,
                         fault_model: "str | FaultModel",
                         faults: Iterable,
                         *, pairs: Optional[List[Tuple[Node, Node]]] = None,
                         kernel: KernelLike = None) -> float:
    """Worst multiplicative stretch of ``spanner \\ F`` w.r.t. ``original \\ F``.

    The stretch of a pair that is disconnected in ``original \\ F`` is ignored
    (Definition 2 only constrains pairs with a finite distance in the faulted
    original); a pair connected in ``original \\ F`` but disconnected in
    ``spanner \\ F`` yields ``inf``.

    Parameters
    ----------
    pairs:
        Restrict attention to these pairs; default is all pairs, evaluated
        over the edges of ``original \\ F`` (see :func:`stretch_between_csr`).
    """
    return stretch_between_csr(csr_snapshot(original), csr_snapshot(spanner),
                               get_fault_model(fault_model), list(faults),
                               pairs, kernel=kernel)


def _edge_plan(csr_g: CSRGraph, csr_h: CSRGraph) -> List:
    """The G edges whose stretch must be searched for, grouped by source.

    Entry ``u`` (a ``csr_g`` index) is ``None`` when no edge needs a search,
    else ``(h_source, edges)``: ``h_source`` is ``u``'s index in ``csr_h``
    (``None`` if absent) and ``edges`` lists ``(v, h_v, weight, edge_id)``
    for the G edges ``(u, v)`` with ``v > u``, so each undirected edge is
    listed once, under its lower endpoint.  An edge that H covers with an
    edge of weight ``<= weight`` is left out: unfaulted it has ratio
    ``<= 1`` and cannot raise the running maximum above its 1.0 start, and
    faulted it is dropped anyway (both fault models name an edge by its
    endpoints, so F removes it from G and H alike).

    Memoised on ``csr_h`` — the candidate spanner, usually the shorter-
    lived snapshot, so a plan never keeps a discarded spanner alive —
    keyed on a strong reference to ``csr_g`` (object identity cannot be
    recycled while the entry lives) and both snapshots' node and edge
    counts: a snapshot only grows in place, and a weight overwrite or
    removal recompiles the graph into a new snapshot object.
    """
    key = (csr_g.num_nodes, csr_g.num_edges, csr_h.num_nodes, csr_h.num_edges)
    cached = csr_h._nd_views.get("edge_plan")
    if cached is not None and cached[0] is csr_g and cached[1] == key:
        return cached[2]
    h_weight = [0.0] * csr_h.num_edges
    for index in range(csr_h.num_nodes):
        for _, weight, eid in csr_h.arcs(index):
            h_weight[eid] = weight
    h_index = csr_h.index_of
    h_edge_index = csr_h.edge_index
    plan: List = [None] * csr_g.num_nodes
    for u, node in enumerate(csr_g.node_of):
        hu = h_index.get(node)
        edges = []
        for v, weight, eid in csr_g.arcs(u):
            if v < u:
                continue
            hv = h_index.get(csr_g.node_of[v])
            if hu is not None and hv is not None:
                h_eid = h_edge_index.get((hu, hv) if hu < hv else (hv, hu))
                if h_eid is not None and h_weight[h_eid] <= weight:
                    continue
            edges.append((v, hv, weight, eid))
        if edges:
            plan[u] = (hu, edges)
    csr_h._nd_views["edge_plan"] = (csr_g, key, plan)
    return plan


@dataclass(frozen=True)
class SourceTrees:
    """Unfaulted shortest paths of every planned source: the verify memo.

    Built by :func:`source_trees` from one search per source of
    :func:`_edge_plan` in the unfaulted ``csr_h``; indices follow the plan
    (``ratios[u][p]`` belongs to ``plan[u][1][p]``).
    """

    #: Per ``csr_g`` source index, the unfaulted ``d_H(u, v) / w(u, v)`` of
    #: each plan position (``inf`` when H lacks an endpoint or a path), or
    #: ``None`` for a source with nothing to check.
    ratios: List[Optional[List[float]]]
    #: Faultable ``csr_h`` element (internal vertex index, or edge id) ->
    #: the ``(source, position)`` entries whose recorded path uses it.
    paths: Dict[int, List[Tuple[int, int]]]
    #: Faultable ``csr_g`` element -> the sources whose plan rows it drops
    #: a target from (a faulted vertex also drops its own row).
    rows: Dict[int, List[int]]
    #: ``(row maximum, source)`` for every row whose maximum exceeds 1,
    #: largest first.
    ranked: List[Tuple[float, int]]

    def affected(self, g_faults: List[int], h_faults: List[int]
                 ) -> Tuple[Dict[int, Set[int]], Set[int]]:
        """``(dirty, visit)`` under a fault set given by its mask indices.

        ``dirty`` maps a source to the plan positions whose recorded path
        a fault removes; ``visit`` adds the sources whose rows the G-side
        faults change.  Every other source keeps its unfaulted row.
        """
        dirty: Dict[int, Set[int]] = {}
        for element in h_faults:
            for source, position in self.paths.get(element, ()):
                positions = dirty.get(source)
                if positions is None:
                    dirty[source] = {position}
                else:
                    positions.add(position)
        visit = set(dirty)
        for element in g_faults:
            visit.update(self.rows.get(element, ()))
        return dirty, visit

    def clean_max(self, visit: Set[int]) -> float:
        """The largest row maximum outside ``visit`` (``1.0`` if none exceeds 1)."""
        for value, source in self.ranked:
            if source not in visit:
                return value
        return 1.0


def source_trees(csr_g: CSRGraph, csr_h: CSRGraph, model: FaultModel,
                 kernel: KernelLike = None) -> SourceTrees:
    """The :class:`SourceTrees` memo of ``(csr_g, csr_h, model)``.

    One :func:`~repro.paths.kernels.multi_target_tree_csr` search per
    planned source in the unfaulted ``csr_h`` records each target's ratio
    and the faultable elements on its recorded path: the internal vertices
    under vertex faults, every edge under edge faults (an endpoint fault
    drops the target from G anyway).

    Memoised on ``csr_h`` like :func:`_edge_plan`, with the fault model in
    the key.  The backend is resolved on every call, hit or miss, so the
    ``kernels.dispatch`` counter moves by exactly one per call and the
    searches of a build are not counted one by one: a cached memo and a
    fresh one cost the counter the same.
    """
    tree = get_kernels(kernel).resolve(csr_h).multi_target_tree
    key = (csr_g.num_nodes, csr_g.num_edges, csr_h.num_nodes,
           csr_h.num_edges, model.name)
    cached = csr_h._nd_views.get("source_trees")
    if cached is not None and cached[0] is csr_g and cached[1] == key:
        return cached[2]
    vertex = model.uses_vertex_mask
    plan = _edge_plan(csr_g, csr_h)
    ratios: List[Optional[List[float]]] = [None] * csr_g.num_nodes
    paths: Dict[int, List[Tuple[int, int]]] = {}
    rows: Dict[int, List[int]] = {}
    ranked: List[Tuple[float, int]] = []
    for u, entry in enumerate(plan):
        if entry is None:
            continue
        hs, edges = entry
        if vertex:
            rows.setdefault(u, []).append(u)
        row = [math.inf] * len(edges)
        targets = [] if hs is None else [hv for _, hv, _, _ in edges
                                         if hv is not None]
        if targets:
            distances, parents, arcs = tree(csr_h, hs, targets)
            reached = iter(distances)
        for position, (v, hv, weight, eid) in enumerate(edges):
            rows.setdefault(v if vertex else eid, []).append(u)
            if not targets or hv is None:
                continue
            distance = next(reached)
            row[position] = distance / weight
            if distance == math.inf:
                continue
            node = hv
            while node != hs:
                if vertex:
                    node = parents[node]
                    if node != hs:
                        paths.setdefault(node, []).append((u, position))
                else:
                    paths.setdefault(arcs[node], []).append((u, position))
                    node = parents[node]
        ratios[u] = row
        top = max(row)
        if top > 1.0:
            ranked.append((top, u))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    memo = SourceTrees(ratios=ratios, paths=paths, rows=rows, ranked=ranked)
    csr_h._nd_views["source_trees"] = (csr_g, key, memo)
    return memo


def stretch_between_csr(csr_g: CSRGraph, csr_h: CSRGraph, model: FaultModel,
                        fault_list: List,
                        pairs: Optional[List[Tuple[Node, Node]]] = None,
                        *, sources: Optional[List[Node]] = None,
                        restrict: Optional[Dict[Node, frozenset]] = None,
                        memo: Optional[SourceTrees] = None,
                        kernel: KernelLike = None) -> float:
    """Mask-based stretch of ``csr_h \\ F`` w.r.t. ``csr_g \\ F``.

    The implementation behind :func:`stretch_under_faults`: applies the
    fault set as kernel masks over the two snapshots.  Operating on
    snapshots alone is what lets worker processes evaluate fault sets
    against a context shipped once (:mod:`repro.runtime.backend`).

    **All pairs reduce to the edges of G.**  Any shortest path in
    ``G \\ F`` is made of edges, so if every edge ``(u, v)`` of ``G \\ F``
    has ``d_{H\\F}(u, v) <= r * w(u, v)`` then every pair has stretch at
    most ``r``; conversely ``w(u, v) >= d_{G\\F}(u, v)``, so an edge ratio
    never exceeds the pairwise maximum.  The worst pairwise stretch
    therefore equals ``max d_{H\\F}(u, v) / w(u, v)`` over the edges of
    ``G \\ F`` (Althöfer et al., 1993), up to float rounding (a distance
    may be summed along the other direction of a path).  Without a target
    restriction this is what runs: per unfaulted source, one multi-target
    search in ``H \\ F`` that stops when its last target settles
    (see :func:`_edge_plan`) — no search in G at all.

    **A fault set re-searches only what it touches.**  With ``memo`` (the
    caller's :func:`source_trees` of these snapshots and this model) the
    search above runs only for the targets whose recorded unfaulted path
    contains a faulted H element; a target a G fault drops is skipped with
    no search, and every other target keeps its unfaulted ratio.  Sources
    the fault set does not touch at all are read in one step, from the
    memo's rows ranked by maximum.  The result is bit-identical to
    searching every source.  The kernels add ``fl(a + w)`` left to right
    and ``fl`` is monotone with ``fl(a + w) >= a`` for ``w >= 0``, so each
    settled label is the minimum, over all live paths, of the path's
    left-to-right float sum, and the recorded path's sum is exactly that
    label.  A fault set only removes paths, so it cannot lower the
    minimum; if it spares the recorded path, that path still attains it,
    and the faulted label is the unfaulted one to the last bit.  Without
    ``memo`` every source counts as touched: the same loop, searching
    everything.  ``memo`` serves the all-sources sweep only (``sources``,
    ``pairs`` and ``restrict`` leave it unused).

    ``pairs`` / ``restrict`` instead compare arbitrary pairs, which need G
    distances: per source one SSSP in each snapshot.  ``sources`` limits
    either sweep to a chunk of sources — this is how sharded source sweeps
    hand one chunk (and a prebuilt source → allowed-targets map) to each
    worker; ``csr_g.node_of`` preserves the graph's node order, so chunks
    partition the serial sweep.
    """
    vertex = model.uses_vertex_mask
    g_faults = model.mask_indices(csr_g, fault_list)
    mask_g = model.new_mask(csr_g)
    for index in g_faults:
        mask_g[index] = 1
    h_faults = model.mask_indices(csr_h, fault_list)
    mask_h = model.new_mask(csr_h)
    for index in h_faults:
        mask_h[index] = 1
    vm_h, em_h = model.kernel_masks(mask_h)

    g_index = csr_g.index_of
    h_index = csr_h.index_of
    kernels = get_kernels(kernel)

    if pairs is not None:
        restrict = {}
        for u, v in pairs:
            restrict.setdefault(u, set()).add(v)
        sources = sorted({pair[0] for pair in pairs}, key=repr)

    if restrict is None:
        plan = _edge_plan(csr_g, csr_h)
        worst = 1.0
        dirty: Optional[Dict[int, Set[int]]] = None
        if memo is not None and sources is None:
            dirty, visit = memo.affected(g_faults, h_faults)
            worst = memo.clean_max(visit)
            source_indices: Iterable = sorted(visit)
        elif sources is None:
            source_indices = range(csr_g.num_nodes)
        else:
            source_indices = (g_index.get(source) for source in sources)
        for si in source_indices:
            if worst == math.inf:
                return worst
            if si is None or (vertex and mask_g[si]):
                continue
            entry = plan[si]
            if entry is None:
                continue
            hs, edges = entry
            if dirty is not None:
                base = memo.ratios[si]
                touched = dirty.get(si, ())
            targets = []
            lengths = []
            for position, (v, hv, weight, eid) in enumerate(edges):
                if mask_g[v] if vertex else mask_g[eid]:
                    continue
                if dirty is not None and position not in touched:
                    if base[position] > worst:
                        worst = base[position]
                    continue
                if hv is None:
                    return math.inf
                targets.append(hv)
                lengths.append(weight)
            if not targets:
                continue
            if hs is None:
                return math.inf
            # One resolve per search: the ``kernels.dispatch`` counter then
            # counts the searches a fault set cost.
            search = kernels.resolve(csr_h).multi_target_dijkstra_csr
            for distance, weight in zip(search(csr_h, hs, targets, vm_h, em_h),
                                        lengths):
                ratio = distance / weight
                if ratio > worst:
                    worst = ratio
        return worst

    vm_g, em_g = model.kernel_masks(mask_g)
    node_of_g = csr_g.node_of
    sssp_g = kernels.resolve(csr_g).sssp_dijkstra_csr
    sssp_h = kernels.resolve(csr_h).sssp_dijkstra_csr
    worst = 1.0
    for source in (node_of_g if sources is None else sources):
        si = g_index.get(source)
        if si is None or (vertex and mask_g[si]):
            continue
        base_dist, base_order = sssp_g(csr_g, si, None, vm_g, em_g)
        hs = h_index.get(source)
        if hs is None or (vertex and mask_h[hs]):
            sub_dist = None
        else:
            sub_dist = sssp_h(csr_h, hs, None, vm_h, em_h)[0]
        allowed = restrict.get(source, ())
        for index in base_order:
            target = node_of_g[index]
            base_distance = base_dist[index]
            if target == source or base_distance == 0:
                continue
            if target not in allowed:
                continue
            if sub_dist is None:
                ratio = math.inf
            else:
                j = h_index.get(target)
                ratio = (sub_dist[j] if j is not None else math.inf) / base_distance
            if ratio > worst:
                worst = ratio
    return worst


def worst_case_fault_set(original: Graph, spanner: Graph,
                         fault_model: "str | FaultModel", max_faults: int,
                         *, method: str = "auto",
                         samples: int = 200, rng=None,
                         exhaustive_limit: int = 200_000,
                         stop_stretch: Optional[float] = None,
                         workers: int = 1,
                         backend: BackendLike = None,
                         kernel: KernelLike = None
                         ) -> Tuple[FaultSet, float]:
    """Find a fault set (approximately) maximising the stretch of the spanner.

    Parameters
    ----------
    method:
        ``"exhaustive"`` tries every fault set of size ``<= max_faults``;
        ``"sampled"`` evaluates ``samples`` random fault sets of exactly
        ``max_faults`` elements; ``"auto"`` picks exhaustive when the number of
        fault sets is below ``exhaustive_limit``.
    stop_stretch:
        Stop the search at the first fault set whose stretch strictly exceeds
        this value (a *refutation* — e.g. pass the required stretch ``k`` to
        stop as soon as the spanner property is disproven).  An infinite
        stretch always stops the search, as before.
    workers / backend:
        Shard the candidate scan through :func:`repro.runtime.get_backend`.
        Chunks past the first refutation are cancelled; the returned fault
        set and stretch are bit-identical to the serial scan.

    Returns
    -------
    (fault_set, stretch):
        The worst fault set found and the stretch it induces.
    """
    # A function-level import: ``repro.spanners.verify`` imports this module.
    from repro.spanners.verify import fault_set_candidates, sweep_fault_sets

    csr_g, csr_h = csr_snapshot(original), csr_snapshot(spanner)
    model = get_fault_model(fault_model)
    candidates, total, _ = fault_set_candidates(
        original, model, max_faults, method, samples, rng, exhaustive_limit)
    # Only an infinite stretch exceeds the largest float, so it always stops.
    stop = (sys.float_info.max if stop_stretch is None
            else min(sys.float_info.max, stop_stretch))
    values, witness = sweep_fault_sets(csr_g, csr_h, model, candidates, total,
                                       stop, workers=workers, backend=backend,
                                       kernel=kernel)
    if witness is None:
        return model.canonical(()), 0.0
    return witness, max(values)


def random_fault_trial(original: Graph, spanner: Graph,
                       fault_model: "str | FaultModel", max_faults: int,
                       trials: int, *, rng=None, workers: int = 1,
                       backend: BackendLike = None,
                       kernel: KernelLike = None) -> List[float]:
    """Stretch of the spanner under ``trials`` random fault sets (one value per trial).

    Fault sets are sampled up front in the calling process (so the random
    stream is untouched by parallelism); the stretch evaluations shard
    across the backend and concatenate back in trial order.
    """
    from repro.spanners.verify import fault_set_candidates, sweep_fault_sets

    csr_g, csr_h = csr_snapshot(original), csr_snapshot(spanner)
    model = get_fault_model(fault_model)
    fault_sets, total, _ = fault_set_candidates(
        original, model, max_faults, "sampled", samples=trials, rng=rng,
        exhaustive_limit=0)
    return sweep_fault_sets(csr_g, csr_h, model, fault_sets, total, None,
                            workers=workers, backend=backend,
                            kernel=kernel)[0]
