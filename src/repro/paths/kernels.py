"""Array-native shortest-path kernels over :class:`~repro.graph.csr.CSRGraph`.

These are the innermost loops of the whole library: every fault-check oracle
query and every verification sweep ends up here.  Kernels take dense node
indices and optional *fault masks* —

* ``vertex_mask``: ``bytearray`` over node indices, ``1`` = faulted;
* ``edge_mask``: ``bytearray`` over undirected edge ids, ``1`` = faulted —

which replace the ``ExclusionView`` wrapper of the dict-based path: masking a
fault is one byte write instead of building a view, and the inner expansion
pays nothing for vertex faults at all, because the vertex mask is *folded
into the visited/seen bytearray* at query start (a faulted vertex is simply
born "already settled", which is exactly "never expanded, never pushed").

Every kernel except one mirrors its dict-based reference in
:mod:`repro.paths.dijkstra` / :mod:`repro.paths.bfs` *exactly* — same heap
tie-breaking (push-order counter), same neighbor order (CSR arcs preserve the
graph's per-node insertion order), same budget semantics — so kernel-built
spanners are byte-identical to reference-built ones.  The equivalence is
enforced by ``tests/test_csr_kernels.py``.

The exception is :func:`bidirectional_bounded_path_csr`, a decision kernel
with no reference twin: it sums paths from both ends, so its distances can
differ from the forward kernels' in the last bits and its path is *a*
shortest path, not the forward kernels' one.  Its consumers, the exact
fault-check oracles, read a verdict that a band around the budget keeps
equal to the forward kernel's, and branch on its path, which is short and
live but otherwise any; ``tests/test_csr_kernels.py`` checks it against
:func:`bounded_dijkstra_csr` on that contract.  The numpy backend registers
this same function, so every backend returns the same path.
:func:`multi_target_tree_csr` is :func:`multi_target_dijkstra_csr` with its
shortest-path tree returned as well, for the verification memo in
:mod:`repro.faults.adversarial`.

All kernels tolerate a snapshot with a pending overflow (edges appended since
the last compaction); the overflow arcs are walked after the compact slice,
which together matches the source graph's per-node insertion order.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from repro.graph.csr import CSRGraph

_INF = math.inf


def bounded_dijkstra_csr(csr: CSRGraph, source: int, target: int, budget: float,
                         vertex_mask: Optional[bytearray] = None,
                         edge_mask: Optional[bytearray] = None) -> float:
    """Distance from ``source`` to ``target`` or ``inf`` beyond ``budget``.

    Kernel twin of :func:`repro.paths.dijkstra.bounded_distance` with fault
    masks applied on the fly.  A masked source or target is unreachable.
    """
    if vertex_mask is None:
        visited = bytearray(len(csr.node_of))
    else:
        if vertex_mask[source] or vertex_mask[target]:
            return _INF
        visited = bytearray(vertex_mask)
    if source == target:
        return 0.0
    indptr, indices, weights, edge_ids = csr.arc_lists()
    get_extra = csr._extra.get
    best = [_INF] * len(visited)
    best[source] = 0.0
    tiebreak = 0
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    while heap:
        dist, _, node = heappop(heap)
        if visited[node]:
            continue
        if dist > budget:
            return _INF
        if node == target:
            return dist
        visited[node] = 1
        for t in range(indptr[node], indptr[node + 1]):
            neighbor = indices[t]
            if visited[neighbor]:
                continue
            if edge_mask is not None and edge_mask[edge_ids[t]]:
                continue
            candidate = dist + weights[t]
            if candidate <= budget and candidate < best[neighbor]:
                best[neighbor] = candidate
                tiebreak += 1
                heappush(heap, (candidate, tiebreak, neighbor))
        bucket = get_extra(node)
        if bucket is not None:
            for neighbor, weight, eid in bucket:
                if visited[neighbor]:
                    continue
                if edge_mask is not None and edge_mask[eid]:
                    continue
                candidate = dist + weight
                if candidate <= budget and candidate < best[neighbor]:
                    best[neighbor] = candidate
                    tiebreak += 1
                    heappush(heap, (candidate, tiebreak, neighbor))
    return _INF


def bounded_dijkstra_path_csr(csr: CSRGraph, source: int, target: int, budget: float,
                              vertex_mask: Optional[bytearray] = None,
                              edge_mask: Optional[bytearray] = None
                              ) -> Tuple[float, List[int]]:
    """Like :func:`bounded_dijkstra_csr` but also returns a witness path.

    Kernel twin of :func:`repro.paths.dijkstra.bounded_path`; the returned
    path is a list of node *indices* (``source`` first), ``[]`` on failure.
    """
    n = len(csr.node_of)
    if vertex_mask is None:
        visited = bytearray(n)
    else:
        if vertex_mask[source] or vertex_mask[target]:
            return _INF, []
        visited = bytearray(vertex_mask)
    if source == target:
        return 0.0, [source]
    indptr, indices, weights, edge_ids = csr.arc_lists()
    get_extra = csr._extra.get
    parents = [-1] * n
    best = [_INF] * n
    best[source] = 0.0
    tiebreak = 0
    heap: List[Tuple[float, int, int, int]] = [(0.0, 0, source, -1)]
    while heap:
        dist, _, node, parent = heappop(heap)
        if visited[node]:
            continue
        if dist > budget:
            return _INF, []
        if parent >= 0:
            parents[node] = parent
        if node == target:
            path = [target]
            while path[-1] != source:
                path.append(parents[path[-1]])
            path.reverse()
            return dist, path
        visited[node] = 1
        for t in range(indptr[node], indptr[node + 1]):
            neighbor = indices[t]
            if visited[neighbor]:
                continue
            if edge_mask is not None and edge_mask[edge_ids[t]]:
                continue
            candidate = dist + weights[t]
            if candidate <= budget and candidate < best[neighbor]:
                best[neighbor] = candidate
                tiebreak += 1
                heappush(heap, (candidate, tiebreak, neighbor, node))
        bucket = get_extra(node)
        if bucket is not None:
            for neighbor, weight, eid in bucket:
                if visited[neighbor]:
                    continue
                if edge_mask is not None and edge_mask[eid]:
                    continue
                candidate = dist + weight
                if candidate <= budget and candidate < best[neighbor]:
                    best[neighbor] = candidate
                    tiebreak += 1
                    heappush(heap, (candidate, tiebreak, neighbor, node))
    return _INF, []


def bidirectional_bounded_path_csr(csr: CSRGraph, source: int, target: int,
                                   budget: float,
                                   vertex_mask: Optional[bytearray] = None,
                                   edge_mask: Optional[bytearray] = None
                                   ) -> Tuple[float, List[int]]:
    """A shortest ``source``–``target`` path within ``budget``, searched from both ends.

    Bounded bidirectional Dijkstra (Pohl, 1971): a forward search from
    ``source`` and a backward one from ``target`` take turns, each step
    settling whichever frontier has the smaller key, so a query whose answer
    is near ``budget`` explores two balls of radius about ``budget / 2``
    instead of one of radius ``budget``.  Returns ``(dist, index_path)``
    (``source`` first) or ``(inf, [])`` when no path fits the budget.

    Every label improvement on either side is checked against the other
    side's label of the same node, so ``mu`` — the best meeting found —
    never exceeds ``label_f(x) + label_b(x)`` for any ``x``.  Once the two
    frontier keys sum past ``mu`` (or past ``budget``) no shorter path can
    remain: a shortest path has an arc from a forward-settled node into a
    backward-settled one (or ends in a fully explored side), and that arc's
    relaxation bounded ``mu`` by its length.  A label is pushed only while
    it plus the other frontier's key stays within ``budget`` and below
    ``mu``: a node the other side has not settled is at least that key
    from the other end, and one it has settled was just counted in ``mu``.

    Not a twin of a dict reference: ``dist`` is the path's length summed
    from both ends toward the meeting arc, which can differ from the forward
    kernels' left-to-right sum in the last bits, and which of several tied
    shortest paths comes back is not the forward kernels' choice.  Callers
    that need the forward kernels' exact ``> budget`` verdict decide a band
    around ``budget`` themselves (see
    :meth:`repro.spanners.fault_check.BranchAndBoundOracle._exceeds`).
    """
    n = len(csr.node_of)
    if vertex_mask is None:
        closed_f = bytearray(n)
    else:
        if vertex_mask[source] or vertex_mask[target]:
            return _INF, []
        closed_f = bytearray(vertex_mask)
    if source == target:
        return 0.0, [source]
    closed_b = bytearray(closed_f)
    indptr, indices, weights, edge_ids = csr.arc_lists()
    get_extra = csr._extra.get
    best_f = [_INF] * n
    best_b = [_INF] * n
    parent_f = [-1] * n
    parent_b = [-1] * n
    best_f[source] = 0.0
    best_b[target] = 0.0
    heap_f: List[Tuple[float, int]] = [(0.0, source)]
    heap_b: List[Tuple[float, int]] = [(0.0, target)]
    mu = _INF
    meet = -1
    while heap_f and heap_b:
        top_f = heap_f[0][0]
        top_b = heap_b[0][0]
        reach = top_f + top_b
        if reach >= mu or reach > budget:
            break
        # One settle on the side with the smaller key: both radii grow in
        # step.  The sides differ only in which arrays are "mine".
        if top_f <= top_b:
            heap, closed, best, parent, other, top_other = (
                heap_f, closed_f, best_f, parent_f, best_b, top_b)
        else:
            heap, closed, best, parent, other, top_other = (
                heap_b, closed_b, best_b, parent_b, best_f, top_f)
        dist, node = heappop(heap)
        if closed[node]:
            continue
        closed[node] = 1
        for t in range(indptr[node], indptr[node + 1]):
            neighbor = indices[t]
            if closed[neighbor]:
                continue
            if edge_mask is not None and edge_mask[edge_ids[t]]:
                continue
            candidate = dist + weights[t]
            if candidate < best[neighbor]:
                best[neighbor] = candidate
                parent[neighbor] = node
                through = candidate + other[neighbor]
                if through < mu:
                    mu = through
                    meet = neighbor
                reach = candidate + top_other
                if reach <= budget and reach < mu:
                    heappush(heap, (candidate, neighbor))
        bucket = get_extra(node)
        if bucket is not None:
            for neighbor, weight, eid in bucket:
                if closed[neighbor]:
                    continue
                if edge_mask is not None and edge_mask[eid]:
                    continue
                candidate = dist + weight
                if candidate < best[neighbor]:
                    best[neighbor] = candidate
                    parent[neighbor] = node
                    through = candidate + other[neighbor]
                    if through < mu:
                        mu = through
                        meet = neighbor
                    reach = candidate + top_other
                    if reach <= budget and reach < mu:
                        heappush(heap, (candidate, neighbor))
    if meet < 0 or mu > budget:
        return _INF, []
    path = [meet]
    while path[-1] != source:
        path.append(parent_f[path[-1]])
    path.reverse()
    node = meet
    while node != target:
        node = parent_b[node]
        path.append(node)
    return mu, path


def path_length_csr(csr: CSRGraph, index_path: List[int]) -> float:
    """Length of a node-index path, summed left to right from its first node.

    This is the association the forward kernels use (each label is the
    parent's label plus one arc), so when the path is live under some masks,
    :func:`bounded_dijkstra_csr` from ``index_path[0]`` under those masks
    answers at most this length.  Costs one scan of each path node's arcs.
    """
    indptr, indices, weights, _ = csr.arc_lists()
    get_extra = csr._extra.get
    total = 0.0
    for node, neighbor in zip(index_path, index_path[1:]):
        for t in range(indptr[node], indptr[node + 1]):
            if indices[t] == neighbor:
                total += weights[t]
                break
        else:
            for other, weight, _ in get_extra(node) or ():
                if other == neighbor:
                    total += weight
                    break
            else:
                raise ValueError(f"no arc {node} -> {neighbor} in the snapshot")
    return total


def sssp_dijkstra_csr(csr: CSRGraph, source: int,
                      cutoff: Optional[float] = None,
                      vertex_mask: Optional[bytearray] = None,
                      edge_mask: Optional[bytearray] = None
                      ) -> Tuple[List[float], List[int]]:
    """Single-source distances; kernel twin of ``dijkstra_distances``.

    Returns ``(dist, order)``: ``dist[i]`` is the distance to node index
    ``i`` (``inf`` if unreached / beyond ``cutoff`` / masked) and ``order``
    lists the settled indices in settling order — callers that build dicts
    iterate ``order`` so dict insertion order matches the reference.
    """
    n = len(csr.node_of)
    dist: List[float] = [_INF] * n
    order: List[int] = []
    if vertex_mask is None:
        visited = bytearray(n)
    else:
        if vertex_mask[source]:
            return dist, order
        visited = bytearray(vertex_mask)
    indptr, indices, weights, edge_ids = csr.arc_lists()
    get_extra = csr._extra.get
    best = [_INF] * n
    best[source] = 0.0
    tiebreak = 0
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    while heap:
        d, _, node = heappop(heap)
        if visited[node]:
            continue
        if cutoff is not None and d > cutoff:
            break
        visited[node] = 1
        dist[node] = d
        order.append(node)
        for t in range(indptr[node], indptr[node + 1]):
            neighbor = indices[t]
            if visited[neighbor]:
                continue
            if edge_mask is not None and edge_mask[edge_ids[t]]:
                continue
            candidate = d + weights[t]
            if cutoff is not None and candidate > cutoff:
                continue
            if candidate >= best[neighbor]:
                continue
            best[neighbor] = candidate
            tiebreak += 1
            heappush(heap, (candidate, tiebreak, neighbor))
        bucket = get_extra(node)
        if bucket is not None:
            for neighbor, weight, eid in bucket:
                if visited[neighbor]:
                    continue
                if edge_mask is not None and edge_mask[eid]:
                    continue
                candidate = d + weight
                if cutoff is not None and candidate > cutoff:
                    continue
                if candidate >= best[neighbor]:
                    continue
                best[neighbor] = candidate
                tiebreak += 1
                heappush(heap, (candidate, tiebreak, neighbor))
    return dist, order


def multi_target_dijkstra_csr(csr: CSRGraph, source: int, targets: List[int],
                              vertex_mask: Optional[bytearray] = None,
                              edge_mask: Optional[bytearray] = None
                              ) -> List[float]:
    """Distances from ``source`` to each of ``targets`` in one Dijkstra run.

    The batched entry point of the query engine (:mod:`repro.engine.batch`):
    a group of queries sharing ``(source, fault mask)`` is answered by one
    search that stops as soon as the last live target settles, instead of one
    :func:`bounded_dijkstra_csr` per query.  Expansion order, tie-breaking,
    and pruning are identical to the single-target kernel with an infinite
    budget, so each returned distance equals the per-query answer exactly
    (``inf`` for unreachable or masked endpoints); duplicate targets are
    allowed and each position is filled independently.
    """
    result = [_INF] * len(targets)
    if vertex_mask is None:
        visited = bytearray(len(csr.node_of))
    else:
        if vertex_mask[source]:
            return result
        visited = bytearray(vertex_mask)
    # Positions still waiting on each target index; masked targets are left
    # out (they can never settle — folded into visited — and stay inf).
    pending: dict = {}
    for position, target in enumerate(targets):
        if visited[target]:
            continue
        if target == source:
            result[position] = 0.0
            continue
        bucket = pending.get(target)
        if bucket is None:
            pending[target] = [position]
        else:
            bucket.append(position)
    if not pending:
        return result
    remaining = len(pending)
    indptr, indices, weights, edge_ids = csr.arc_lists()
    get_extra = csr._extra.get
    best = [_INF] * len(visited)
    best[source] = 0.0
    tiebreak = 0
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    while heap:
        dist, _, node = heappop(heap)
        if visited[node]:
            continue
        positions = pending.get(node)
        if positions is not None:
            for position in positions:
                result[position] = dist
            del pending[node]
            remaining -= 1
            if not remaining:
                return result
        visited[node] = 1
        for t in range(indptr[node], indptr[node + 1]):
            neighbor = indices[t]
            if visited[neighbor]:
                continue
            if edge_mask is not None and edge_mask[edge_ids[t]]:
                continue
            candidate = dist + weights[t]
            if candidate < best[neighbor]:
                best[neighbor] = candidate
                tiebreak += 1
                heappush(heap, (candidate, tiebreak, neighbor))
        bucket = get_extra(node)
        if bucket is not None:
            for neighbor, weight, eid in bucket:
                if visited[neighbor]:
                    continue
                if edge_mask is not None and edge_mask[eid]:
                    continue
                candidate = dist + weight
                if candidate < best[neighbor]:
                    best[neighbor] = candidate
                    tiebreak += 1
                    heappush(heap, (candidate, tiebreak, neighbor))
    return result


def multi_target_tree_csr(csr: CSRGraph, source: int, targets: List[int],
                          vertex_mask: Optional[bytearray] = None,
                          edge_mask: Optional[bytearray] = None
                          ) -> Tuple[List[float], List[int], List[int]]:
    """:func:`multi_target_dijkstra_csr` plus the shortest-path tree it grew.

    Returns ``(distances, parents, parent_arcs)``: ``distances`` is exactly
    :func:`multi_target_dijkstra_csr`'s answer (same expansion, tie-breaking
    and early exit), and for every settled node ``x`` other than ``source``,
    ``parents[x]`` is the node it was settled from and ``parent_arcs[x]``
    the edge id of that arc (``-1`` elsewhere).  Walking ``parents`` back
    from a reached target gives the recorded path, and its left-to-right
    sum from ``source`` is the returned distance: each label is the
    parent's settled label plus the arc's weight, which is the last
    improvement of the label before it settled.
    """
    n = len(csr.node_of)
    result = [_INF] * len(targets)
    parents = [-1] * n
    parent_arcs = [-1] * n
    if vertex_mask is None:
        visited = bytearray(n)
    else:
        if vertex_mask[source]:
            return result, parents, parent_arcs
        visited = bytearray(vertex_mask)
    # From here on, line for line the search of multi_target_dijkstra_csr
    # plus the two tree writes beside each label improvement.
    pending: dict = {}
    for position, target in enumerate(targets):
        if visited[target]:
            continue
        if target == source:
            result[position] = 0.0
            continue
        bucket = pending.get(target)
        if bucket is None:
            pending[target] = [position]
        else:
            bucket.append(position)
    if not pending:
        return result, parents, parent_arcs
    remaining = len(pending)
    indptr, indices, weights, edge_ids = csr.arc_lists()
    get_extra = csr._extra.get
    best = [_INF] * n
    best[source] = 0.0
    tiebreak = 0
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    while heap:
        dist, _, node = heappop(heap)
        if visited[node]:
            continue
        positions = pending.get(node)
        if positions is not None:
            for position in positions:
                result[position] = dist
            del pending[node]
            remaining -= 1
            if not remaining:
                return result, parents, parent_arcs
        visited[node] = 1
        for t in range(indptr[node], indptr[node + 1]):
            neighbor = indices[t]
            if visited[neighbor]:
                continue
            eid = edge_ids[t]
            if edge_mask is not None and edge_mask[eid]:
                continue
            candidate = dist + weights[t]
            if candidate < best[neighbor]:
                best[neighbor] = candidate
                parents[neighbor] = node
                parent_arcs[neighbor] = eid
                tiebreak += 1
                heappush(heap, (candidate, tiebreak, neighbor))
        bucket = get_extra(node)
        if bucket is not None:
            for neighbor, weight, eid in bucket:
                if visited[neighbor]:
                    continue
                if edge_mask is not None and edge_mask[eid]:
                    continue
                candidate = dist + weight
                if candidate < best[neighbor]:
                    best[neighbor] = candidate
                    parents[neighbor] = node
                    parent_arcs[neighbor] = eid
                    tiebreak += 1
                    heappush(heap, (candidate, tiebreak, neighbor))
    return result, parents, parent_arcs


def bfs_distances_csr(csr: CSRGraph, source: int,
                      max_hops: Optional[int] = None,
                      vertex_mask: Optional[bytearray] = None,
                      edge_mask: Optional[bytearray] = None
                      ) -> Tuple[List[int], List[int]]:
    """Hop distances; kernel twin of ``bfs_distances``.

    Returns ``(dist, order)`` with ``dist[i] = -1`` for unreached nodes and
    ``order`` the discovery order (matching the reference dict's insertion
    order, source first).
    """
    n = len(csr.node_of)
    dist = [-1] * n
    order: List[int] = []
    if vertex_mask is None:
        seen = bytearray(n)
    else:
        if vertex_mask[source]:
            return dist, order
        seen = bytearray(vertex_mask)
    seen[source] = 1
    dist[source] = 0
    order.append(source)
    indptr, indices, _, edge_ids = csr.arc_lists()
    get_extra = csr._extra.get
    queue = deque([source])
    while queue:
        node = queue.popleft()
        next_dist = dist[node] + 1
        if max_hops is not None and next_dist > max_hops:
            continue
        for t in range(indptr[node], indptr[node + 1]):
            neighbor = indices[t]
            if seen[neighbor]:
                continue
            if edge_mask is not None and edge_mask[edge_ids[t]]:
                continue
            seen[neighbor] = 1
            dist[neighbor] = next_dist
            order.append(neighbor)
            queue.append(neighbor)
        bucket = get_extra(node)
        if bucket is not None:
            for neighbor, _, eid in bucket:
                if seen[neighbor]:
                    continue
                if edge_mask is not None and edge_mask[eid]:
                    continue
                seen[neighbor] = 1
                dist[neighbor] = next_dist
                order.append(neighbor)
                queue.append(neighbor)
    return dist, order


def bounded_bfs_csr(csr: CSRGraph, source: int, target: int,
                    max_hops: Optional[int] = None,
                    vertex_mask: Optional[bytearray] = None,
                    edge_mask: Optional[bytearray] = None) -> float:
    """Hop distance between two indices; kernel twin of ``hop_distance``.

    Early-exits the moment ``target`` enters the frontier; ``inf`` when it is
    unreachable within ``max_hops`` (or masked).
    """
    n = len(csr.node_of)
    if vertex_mask is None:
        seen = bytearray(n)
    else:
        if vertex_mask[source] or vertex_mask[target]:
            return _INF
        seen = bytearray(vertex_mask)
    if source == target:
        return 0.0
    seen[source] = 1
    dist = [-1] * n
    dist[source] = 0
    indptr, indices, _, edge_ids = csr.arc_lists()
    get_extra = csr._extra.get
    queue = deque([source])
    while queue:
        node = queue.popleft()
        next_dist = dist[node] + 1
        if max_hops is not None and next_dist > max_hops:
            continue
        for t in range(indptr[node], indptr[node + 1]):
            neighbor = indices[t]
            if seen[neighbor]:
                continue
            if edge_mask is not None and edge_mask[edge_ids[t]]:
                continue
            if neighbor == target:
                return float(next_dist)
            seen[neighbor] = 1
            dist[neighbor] = next_dist
            queue.append(neighbor)
        bucket = get_extra(node)
        if bucket is not None:
            for neighbor, _, eid in bucket:
                if seen[neighbor]:
                    continue
                if edge_mask is not None and edge_mask[eid]:
                    continue
                if neighbor == target:
                    return float(next_dist)
                seen[neighbor] = 1
                dist[neighbor] = next_dist
                queue.append(neighbor)
    return _INF
