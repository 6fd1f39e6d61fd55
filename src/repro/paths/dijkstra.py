"""Dijkstra variants.

The FT greedy algorithm asks one question over and over: *is the distance from
``u`` to ``v`` in ``H \\ F`` larger than ``k · w(u, v)``?*  Answering it does
not require the full shortest-path tree — :func:`bounded_distance` stops as
soon as the target is settled or the budget is exceeded.  The oracles in
:mod:`repro.spanners.fault_check` ask it through the CSR kernels directly;
the routines here are the dict reference those kernels mirror.

All functions take a graph-like object exposing ``nodes()``, ``neighbors()``,
``adjacency()`` and ``has_node()`` — i.e. either :class:`repro.graph.Graph`
or :class:`repro.graph.ExclusionView`.  Plain :class:`Graph` inputs are
dispatched to the array-native kernels in :mod:`repro.paths.kernels` over a
compiled CSR snapshot (cached per graph, keyed on :attr:`Graph.version`);
views and other duck-typed graphs fall back to the dict-based reference
implementations below, which the kernels mirror result-for-result.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Dict, Hashable, List, Optional, Tuple

from repro.graph.core import Graph
from repro.graph.csr import csr_snapshot
from repro.paths.registry import KernelLike, get_kernels

Node = Hashable


def dijkstra_distances(graph, source: Node,
                       cutoff: Optional[float] = None, *,
                       kernel: KernelLike = None) -> Dict[Node, float]:
    """Single-source shortest-path distances from ``source``.

    Parameters
    ----------
    cutoff:
        If given, nodes farther than ``cutoff`` are omitted from the result
        and never expanded; unreachable nodes are always omitted.
    kernel:
        Kernel backend (name or :class:`~repro.paths.registry.KernelBackend`)
        for the CSR fast path; ``None`` auto-selects.
    """
    if not graph.has_node(source):
        raise ValueError(f"source {source!r} not in graph")
    if isinstance(graph, Graph):
        csr = csr_snapshot(graph)
        kernels = get_kernels(kernel).resolve(csr)
        dist, order = kernels.sssp_dijkstra_csr(csr, csr.index_of[source],
                                                cutoff)
        node_of = csr.node_of
        return {node_of[index]: dist[index] for index in order}
    distances: Dict[Node, float] = {}
    tiebreak = count()
    heap: List[Tuple[float, int, Node]] = [(0.0, next(tiebreak), source)]
    while heap:
        dist, _, node = heappop(heap)
        if node in distances:
            continue
        if cutoff is not None and dist > cutoff:
            continue
        distances[node] = dist
        for neighbor, weight in graph.adjacency(node).items():
            if neighbor in distances:
                continue
            candidate = dist + weight
            if cutoff is not None and candidate > cutoff:
                continue
            heappush(heap, (candidate, next(tiebreak), neighbor))
    return distances


def dijkstra_tree(graph, source: Node,
                  cutoff: Optional[float] = None
                  ) -> Tuple[Dict[Node, float], Dict[Node, Optional[Node]]]:
    """Distances and shortest-path-tree parents from ``source``."""
    if not graph.has_node(source):
        raise ValueError(f"source {source!r} not in graph")
    distances: Dict[Node, float] = {}
    parents: Dict[Node, Optional[Node]] = {}
    tiebreak = count()
    heap: List[Tuple[float, int, Node, Optional[Node]]] = [(0.0, next(tiebreak), source, None)]
    while heap:
        dist, _, node, parent = heappop(heap)
        if node in distances:
            continue
        if cutoff is not None and dist > cutoff:
            continue
        distances[node] = dist
        parents[node] = parent
        for neighbor, weight in graph.adjacency(node).items():
            if neighbor in distances:
                continue
            candidate = dist + weight
            if cutoff is not None and candidate > cutoff:
                continue
            heappush(heap, (candidate, next(tiebreak), neighbor, node))
    return distances, parents


def shortest_path_distance(graph, source: Node, target: Node, *,
                           kernel: KernelLike = None) -> float:
    """Distance from ``source`` to ``target`` (``inf`` if disconnected)."""
    return bounded_distance(graph, source, target, budget=math.inf,
                            kernel=kernel)


def shortest_path(graph, source: Node, target: Node) -> Tuple[float, List[Node]]:
    """Distance and one shortest path from ``source`` to ``target``.

    Returns ``(inf, [])`` when the target is unreachable.
    """
    if not graph.has_node(source):
        raise ValueError(f"source {source!r} not in graph")
    if not graph.has_node(target):
        raise ValueError(f"target {target!r} not in graph")
    if source == target:
        return 0.0, [source]
    distances, parents = dijkstra_tree(graph, source)
    if target not in distances:
        return math.inf, []
    path: List[Node] = []
    node: Optional[Node] = target
    while node is not None:
        path.append(node)
        node = parents[node]
    path.reverse()
    return distances[target], path


def bounded_distance(graph, source: Node, target: Node, budget: float, *,
                     kernel: KernelLike = None) -> float:
    """Distance from ``source`` to ``target``, or ``inf`` if it exceeds ``budget``.

    This is the innermost primitive of the whole library.  The search settles
    nodes in increasing distance order and terminates as soon as either the
    target is settled (exact distance returned, even if above the budget when
    it happens to be settled within it — callers only compare against the
    budget) or the smallest tentative distance exceeds ``budget`` (``inf``
    returned, meaning "farther than the budget").
    """
    if isinstance(graph, Graph):
        csr = csr_snapshot(graph)
        s = csr.index_of.get(source)
        t = csr.index_of.get(target)
        if s is None or t is None:
            return math.inf
        kernels = get_kernels(kernel).resolve(csr)
        return kernels.bounded_dijkstra_csr(csr, s, t, budget)
    if not graph.has_node(source) or not graph.has_node(target):
        return math.inf
    if source == target:
        return 0.0
    visited: set[Node] = set()
    tiebreak = count()
    heap: List[Tuple[float, int, Node]] = [(0.0, next(tiebreak), source)]
    while heap:
        dist, _, node = heappop(heap)
        if node in visited:
            continue
        if dist > budget:
            return math.inf
        if node == target:
            return dist
        visited.add(node)
        for neighbor, weight in graph.adjacency(node).items():
            if neighbor in visited:
                continue
            candidate = dist + weight
            if candidate <= budget:
                heappush(heap, (candidate, next(tiebreak), neighbor))
    return math.inf


def bounded_path(graph, source: Node, target: Node, budget: float, *,
                 kernel: KernelLike = None) -> Tuple[float, List[Node]]:
    """Like :func:`bounded_distance` but also returns a witness path.

    Used by the greedy path-packing fault oracle, which needs the internal
    vertices of a short path in order to block it.
    """
    if isinstance(graph, Graph):
        csr = csr_snapshot(graph)
        s = csr.index_of.get(source)
        t = csr.index_of.get(target)
        if s is None or t is None:
            return math.inf, []
        kernels = get_kernels(kernel).resolve(csr)
        distance, index_path = kernels.bounded_dijkstra_path_csr(
            csr, s, t, budget)
        node_of = csr.node_of
        return distance, [node_of[index] for index in index_path]
    if not graph.has_node(source) or not graph.has_node(target):
        return math.inf, []
    if source == target:
        return 0.0, [source]
    visited: set[Node] = set()
    parents: Dict[Node, Node] = {}
    tiebreak = count()
    heap: List[Tuple[float, int, Node, Optional[Node]]] = [(0.0, next(tiebreak), source, None)]
    while heap:
        dist, _, node, parent = heappop(heap)
        if node in visited:
            continue
        if dist > budget:
            return math.inf, []
        if parent is not None:
            parents[node] = parent
        if node == target:
            path: List[Node] = [target]
            while path[-1] != source:
                path.append(parents[path[-1]])
            path.reverse()
            return dist, path
        visited.add(node)
        for neighbor, weight in graph.adjacency(node).items():
            if neighbor in visited:
                continue
            candidate = dist + weight
            if candidate <= budget:
                heappush(heap, (candidate, next(tiebreak), neighbor, node))
    return math.inf, []


def bidirectional_distance(graph, source: Node, target: Node,
                           budget: float = math.inf) -> float:
    """Bidirectional Dijkstra distance query with an optional budget.

    Expands the smaller frontier of two simultaneous searches; terminates when
    the sum of the two frontier minima exceeds the best meeting distance (or
    the budget).  Exact, and typically ~2x faster than the unidirectional
    query on the random instances used in the benchmarks; exposed so the
    ablation benchmark (E8) can compare the two.
    """
    if not graph.has_node(source) or not graph.has_node(target):
        return math.inf
    if source == target:
        return 0.0

    dist_forward: Dict[Node, float] = {}
    dist_backward: Dict[Node, float] = {}
    tiebreak = count()
    heap_forward: List[Tuple[float, int, Node]] = [(0.0, next(tiebreak), source)]
    heap_backward: List[Tuple[float, int, Node]] = [(0.0, next(tiebreak), target)]
    seen_forward: Dict[Node, float] = {source: 0.0}
    seen_backward: Dict[Node, float] = {target: 0.0}
    best = math.inf

    def expand(heap, dist_this, seen_this, seen_other) -> float:
        nonlocal best
        dist, _, node = heappop(heap)
        if node in dist_this:
            return dist
        dist_this[node] = dist
        for neighbor, weight in graph.adjacency(node).items():
            candidate = dist + weight
            if candidate > budget:
                continue
            if neighbor not in seen_this or candidate < seen_this[neighbor]:
                seen_this[neighbor] = candidate
                heappush(heap, (candidate, next(tiebreak), neighbor))
            if neighbor in seen_other:
                total = candidate + seen_other[neighbor]
                if total < best:
                    best = total
        return dist

    while heap_forward and heap_backward:
        top_forward = heap_forward[0][0]
        top_backward = heap_backward[0][0]
        if top_forward + top_backward >= min(best, budget + 1e-12):
            break
        if top_forward <= top_backward:
            expand(heap_forward, dist_forward, seen_forward, seen_backward)
        else:
            expand(heap_backward, dist_backward, seen_backward, seen_forward)

    return best if best <= budget else math.inf
