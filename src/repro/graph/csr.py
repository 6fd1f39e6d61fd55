"""Compiled CSR snapshots of :class:`~repro.graph.core.Graph`.

The dict-of-dict :class:`Graph` is the mutable, user-facing representation;
every *hot-path* distance query instead runs on a :class:`CSRGraph` — an
immutable-ish compiled form with

* a node ↔ index interner (``index_of`` / ``node_of``), so kernels work on
  dense ints instead of hashable node objects;
* ``indptr`` / ``indices`` / ``weights`` arrays (``array`` module) holding the
  adjacency in CSR layout, in the exact per-node insertion order of the source
  graph (this is what keeps kernel-produced spanners byte-identical to the
  reference dict implementation);
* per-arc ``edge_ids`` mapping each directed arc to its undirected edge id,
  so *edge fault masks* can hide an edge in O(1) without building a view;
* cheap incremental edge append: the growing greedy spanner ``H`` gains one
  edge at a time between thousands of queries, so appends land in a small
  per-node overflow (``_extra``) that kernels traverse after the compact
  slice, and the arrays are re-compacted geometrically.

Snapshots are cached on the graph itself (``Graph._csr_cache``) keyed on
:attr:`Graph.version`; :func:`csr_snapshot` is the only entry point.  The
mutators of :class:`Graph` keep a live snapshot in sync on ``add_node`` /
``add_edge`` and drop it on removals or weight overwrites.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.core import Graph, Node

#: Recompact when the overflow holds more than 1/8 of the compact arcs.
_COMPACT_RATIO = 8
#: ... but never bother below this many overflow arcs.
_COMPACT_MIN = 64


class CSRGraph:
    """A compiled, int-indexed snapshot of a weighted undirected graph.

    Not constructed directly in normal use — call :func:`csr_snapshot` (or
    :meth:`from_graph`).  All attributes are public because the kernels in
    :mod:`repro.paths.kernels` read them in tight loops.
    """

    __slots__ = (
        "index_of",      # node -> dense index
        "node_of",       # dense index -> node
        "indptr",        # array('q'), len n + 1
        "indices",       # array('q'), neighbor index per arc
        "weights",       # array('d'), weight per arc
        "edge_ids",      # array('q'), undirected edge id per arc
        "edge_index",    # (min_idx, max_idx) -> edge id
        "_indptr_l",     # list mirrors of the arrays for the kernels:
        "_indices_l",    # indexing a list returns the stored object, while
        "_weights_l",    # indexing an array boxes a fresh int/float on every
        "_edge_ids_l",   # access — measurably slower in the inner loops.
        "_extra",        # overflow: node index -> list of (v, w, eid) arcs
        "_extra_count",  # number of overflow arcs
        "_mirrors_stale",  # list mirrors need a rebuild before loop kernels run
        "_nd_views",     # zero-copy ndarray views keyed per source array
        "graph_version", # Graph.version this snapshot corresponds to
    )

    def __init__(self) -> None:
        self.index_of: Dict[Node, int] = {}
        self.node_of: List[Node] = []
        self.indptr = array("q", [0])
        self.indices = array("q")
        self.weights = array("d")
        self.edge_ids = array("q")
        self.edge_index: Dict[Tuple[int, int], int] = {}
        self._indptr_l: List[int] = [0]
        self._indices_l: List[int] = []
        self._weights_l: List[float] = []
        self._edge_ids_l: List[int] = []
        self._extra: Dict[int, List[Tuple[int, float, int]]] = {}
        self._extra_count = 0
        self._mirrors_stale = False
        self._nd_views: Dict[str, object] = {}
        self.graph_version = -1

    def __getstate__(self):
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        # The ndarray views borrow the arrays' buffers; they are rebuilt on
        # demand on the other side instead of travelling through pickle.
        state["_nd_views"] = {}
        return state

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    # ------------------------------------------------------------- building
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Compile ``graph`` into CSR form (nodes/arcs in insertion order)."""
        snap = cls()
        index_of = snap.index_of
        node_of = snap.node_of
        for node in graph.nodes():
            index_of[node] = len(node_of)
            node_of.append(node)
        edge_index = snap.edge_index
        for u, v, _ in graph.edges():
            a, b = index_of[u], index_of[v]
            if a > b:
                a, b = b, a
            edge_index[(a, b)] = len(edge_index)
        indptr = snap.indptr
        indices = snap.indices
        weights = snap.weights
        edge_ids = snap.edge_ids
        position = 0
        for u in node_of:
            ui = index_of[u]
            for v, w in graph.adjacency(u).items():
                vi = index_of[v]
                indices.append(vi)
                weights.append(w)
                edge_ids.append(edge_index[(ui, vi) if ui < vi else (vi, ui)])
                position += 1
            indptr.append(position)
        snap._refresh_mirrors()
        return snap

    def _refresh_mirrors(self) -> None:
        """Rebuild the kernel-facing list mirrors of the CSR arrays."""
        self._indptr_l = self.indptr.tolist()
        self._indices_l = self.indices.tolist()
        self._weights_l = self.weights.tolist()
        self._edge_ids_l = self.edge_ids.tolist()
        self._mirrors_stale = False

    def arc_lists(self) -> Tuple[List[int], List[int], List[float], List[int]]:
        """The list mirrors ``(indptr, indices, weights, edge_ids)``.

        The loop kernels read these instead of the ``array`` objects
        (list indexing returns the stored object; array indexing boxes a
        fresh int/float per access).  A compaction only marks the mirrors
        stale — they are rebuilt here, on the first loop-kernel query after
        it, so a numpy-backend build never pays ``tolist`` at all.
        """
        if self._mirrors_stale:
            self._refresh_mirrors()
        return self._indptr_l, self._indices_l, self._weights_l, self._edge_ids_l

    def intern(self, node: Node) -> int:
        """Index of ``node``, adding it (with an empty adjacency) if new."""
        index = self.index_of.get(node)
        if index is None:
            index = len(self.node_of)
            self.index_of[node] = index
            self.node_of.append(node)
            # Only the indptr view must go: appending resizes the array, which
            # is illegal while an ndarray borrows its buffer.  The data-array
            # views (and the derived reverse-arc table) stay valid.
            self._nd_views.pop("indptr", None)
            # Duplicate the running prefix sum: the new node owns an empty
            # compact slice, so kernels can index indptr[u+1] safely.
            self.indptr.append(self.indptr[-1])
            self._indptr_l.append(self._indptr_l[-1])
        return index

    def append_edge(self, u: Node, v: Node, weight: float) -> int:
        """Append the (new) undirected edge ``{u, v}``; returns its edge id.

        The arcs land in the per-node overflow and are folded into the
        compact arrays once the overflow exceeds ``1/8`` of the compact part
        (geometric, so total recompaction work is O(m log m)).
        """
        ui = self.intern(u)
        vi = self.intern(v)
        key = (ui, vi) if ui < vi else (vi, ui)
        eid = len(self.edge_index)
        self.edge_index[key] = eid
        extra = self._extra
        bucket = extra.get(ui)
        if bucket is None:
            extra[ui] = [(vi, weight, eid)]
        else:
            bucket.append((vi, weight, eid))
        bucket = extra.get(vi)
        if bucket is None:
            extra[vi] = [(ui, weight, eid)]
        else:
            bucket.append((ui, weight, eid))
        self._extra_count += 2
        if (self._extra_count >= _COMPACT_MIN
                and self._extra_count * _COMPACT_RATIO >= len(self.indices)):
            self.compact()
        return eid

    def compact(self) -> None:
        """Fold the overflow arcs into the compact ``indptr``/``indices``/... form.

        ``indptr`` keeps its length (one slot per node plus one) across a
        compaction, so it is rewritten *in place* — the array object survives,
        and any cached zero-copy ndarray view of it stays valid and simply
        sees the new prefix sums.  The data arrays change length and are
        replaced, dropping only their views (and the derived reverse-arc
        table).
        """
        if not self._extra_count:
            return
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - numpy is present in CI
            np = None
        if np is not None:
            self._compact_vectorized(np)
        else:
            self._compact_loop()
        self._nd_views.pop("data", None)
        self._nd_views.pop("rev", None)
        self._mirrors_stale = True
        self._extra = {}
        self._extra_count = 0

    def _compact_vectorized(self, np) -> None:
        """Numpy body of :meth:`compact`: scatter-move instead of Python loops.

        The numpy kernel backend folds the overflow before *every* sweep, so
        a growing greedy spanner compacts once per accepted edge; the Python
        rebuild made that O(n·m) of interpreter work and dominated large
        builds.  Same output layout as :meth:`_compact_loop` — each node's
        compact slice shifts by the number of overflow arcs owned by earlier
        nodes, and its own overflow lands after the slice in append order.
        """
        extra = self._extra
        n = len(self.node_of)
        old_indptr = np.frombuffer(self.indptr, dtype=np.int64)
        old_indices = np.frombuffer(self.indices, dtype=np.int64)
        old_weights = np.frombuffer(self.weights, dtype=np.float64)
        old_edge_ids = np.frombuffer(self.edge_ids, dtype=np.int64)
        counts = np.zeros(n + 1, dtype=np.int64)
        for u, bucket in extra.items():
            counts[u + 1] = len(bucket)
        offsets = np.cumsum(counts)  # overflow arcs owned by nodes before u
        total = len(old_indices) + self._extra_count
        new_indices = np.empty(total, dtype=np.int64)
        new_weights = np.empty(total, dtype=np.float64)
        new_edge_ids = np.empty(total, dtype=np.int64)
        dest = np.arange(len(old_indices), dtype=np.int64)
        dest += np.repeat(offsets[:-1], np.diff(old_indptr))
        new_indices[dest] = old_indices
        new_weights[dest] = old_weights
        new_edge_ids[dest] = old_edge_ids
        for u, bucket in extra.items():
            pos = int(old_indptr[u + 1] + offsets[u])
            for j, (v, w, eid) in enumerate(bucket):
                new_indices[pos + j] = v
                new_weights[pos + j] = w
                new_edge_ids[pos + j] = eid
        # In-place element writes through the view never resize the indptr
        # array, so they are legal even while an exported ndarray view pins
        # the buffer — identity preserved, the cached view sees the update.
        old_indptr += offsets
        indices = array("q")
        indices.frombytes(new_indices.tobytes())
        weights = array("d")
        weights.frombytes(new_weights.tobytes())
        edge_ids = array("q")
        edge_ids.frombytes(new_edge_ids.tobytes())
        self.indices = indices
        self.weights = weights
        self.edge_ids = edge_ids

    def _compact_loop(self) -> None:
        """Pure-Python body of :meth:`compact` (no-numpy fallback)."""
        old_indptr = self.indptr
        old_indices = self.indices
        old_weights = self.weights
        old_edge_ids = self.edge_ids
        extra = self._extra
        new_indptr: List[int] = [0]
        indices = array("q")
        weights = array("d")
        edge_ids = array("q")
        position = 0
        for u in range(len(self.node_of)):
            start, end = old_indptr[u], old_indptr[u + 1]
            if end > start:
                indices.extend(old_indices[start:end])
                weights.extend(old_weights[start:end])
                edge_ids.extend(old_edge_ids[start:end])
                position += end - start
            bucket = extra.get(u)
            if bucket:
                for v, w, eid in bucket:
                    indices.append(v)
                    weights.append(w)
                    edge_ids.append(eid)
                position += len(bucket)
            new_indptr.append(position)
        # Item-wise writes never resize, so they are legal even while an
        # exported ndarray view pins the buffer — identity preserved.
        for i, p in enumerate(new_indptr):
            old_indptr[i] = p
        self.indices = indices
        self.weights = weights
        self.edge_ids = edge_ids

    # -------------------------------------------------------------- queries
    @property
    def num_nodes(self) -> int:
        """Number of interned nodes."""
        return len(self.node_of)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (== the edge-id space for masks)."""
        return len(self.edge_index)

    def edge_id(self, u: Node, v: Node) -> Optional[int]:
        """Undirected edge id of ``{u, v}``, or ``None`` if absent."""
        ui = self.index_of.get(u)
        vi = self.index_of.get(v)
        if ui is None or vi is None:
            return None
        return self.edge_index.get((ui, vi) if ui < vi else (vi, ui))

    def degree(self, index: int) -> int:
        """Degree of the node with dense ``index``."""
        count = self.indptr[index + 1] - self.indptr[index]
        bucket = self._extra.get(index)
        return count + (len(bucket) if bucket else 0)

    def arcs(self, index: int):
        """Iterate ``(neighbor_index, weight, edge_id)`` arcs of one node.

        Convenience/debugging accessor; the kernels inline this loop.
        """
        indptr = self.indptr
        indices = self.indices
        weights = self.weights
        edge_ids = self.edge_ids
        for t in range(indptr[index], indptr[index + 1]):
            yield indices[t], weights[t], edge_ids[t]
        bucket = self._extra.get(index)
        if bucket:
            for arc in bucket:
                yield arc

    # ------------------------------------------------------------- ndarrays
    def as_ndarrays(self):
        """Zero-copy ndarray views ``(indptr, indices, weights, edge_ids)``.

        Requires numpy (the vectorized kernel backend gates on it).  Views
        borrow the underlying ``array`` buffers — no copy per call — and are
        cached per source array:

        * :meth:`intern` drops only the ``indptr`` view (appending a node
          resizes that array); the data views and the derived reverse-arc
          table survive node growth untouched;
        * :meth:`compact` rewrites ``indptr`` in place (same object, view
          stays live) and replaces only the data arrays, whose views are
          rebuilt on the next call.

        A pending overflow is folded in first: the vectorized kernels sweep
        the compact slices only, and compaction preserves the per-node
        insertion order the loop kernels see, so results are unaffected.

        The views are *borrowed*: holding one across a mutation of the
        snapshot raises ``BufferError`` on the resize instead of corrupting
        memory — callers (the kernels) take them per call and let go.
        """
        import numpy as np

        if self._extra_count:
            self.compact()
        views = self._nd_views
        entry = views.get("indptr")
        if (entry is None or entry[0] is not self.indptr
                or len(entry[1]) != len(self.indptr)):
            entry = (self.indptr, np.frombuffer(self.indptr, dtype=np.int64))
            views["indptr"] = entry
        indptr_nd = entry[1]
        entry = views.get("data")
        if entry is None or entry[0] is not self.indices:
            entry = (self.indices,
                     np.frombuffer(self.indices, dtype=np.int64),
                     np.frombuffer(self.weights, dtype=np.float64),
                     np.frombuffer(self.edge_ids, dtype=np.int64))
            views["data"] = entry
        return indptr_nd, entry[1], entry[2], entry[3]

    def reverse_arcs(self):
        """Per-arc index of the opposite arc of the same undirected edge.

        ``rev[t]`` is the position of the arc ``(v, u)`` when arc ``t`` is
        ``(u, v)`` — the vectorized kernels use it to recover, for a settled
        node, where the achieving arc sits in the *parent's* scan order.
        Computed with one stable argsort over ``edge_ids`` (each undirected
        edge id appears on exactly two arcs) and cached until the data
        arrays are replaced by a compaction.
        """
        import numpy as np

        _, _, _, edge_ids_nd = self.as_ndarrays()
        cached = self._nd_views.get("rev")
        if cached is not None:
            return cached
        order = np.argsort(edge_ids_nd, kind="stable")
        rev = np.empty(len(order), dtype=np.int64)
        rev[order[0::2]] = order[1::2]
        rev[order[1::2]] = order[0::2]
        self._nd_views["rev"] = rev
        return rev

    # ---------------------------------------------------------------- masks
    def vertex_fault_mask(self, nodes: Iterable[Node]) -> bytearray:
        """Bytearray mask over node indices; unknown nodes are ignored."""
        mask = bytearray(len(self.node_of))
        index_of = self.index_of
        for node in nodes:
            index = index_of.get(node)
            if index is not None:
                mask[index] = 1
        return mask

    def edge_fault_mask(self, edges: Iterable[Tuple[Node, Node]]) -> bytearray:
        """Bytearray mask over edge ids; edges absent from the snapshot are ignored."""
        mask = bytearray(len(self.edge_index))
        for u, v in edges:
            eid = self.edge_id(u, v)
            if eid is not None:
                mask[eid] = 1
        return mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CSRGraph n={len(self.node_of)} m={len(self.edge_index)} "
            f"overflow={self._extra_count} v={self.graph_version}>"
        )


def csr_snapshot(graph: Graph) -> CSRGraph:
    """The compiled CSR snapshot of ``graph``, cached on :attr:`Graph.version`.

    Compiling is O(n + m); a cache hit is two attribute reads.  The snapshot
    stays valid across ``add_node``/``add_edge`` (the graph appends into it
    incrementally) and is recompiled after removals or weight overwrites.
    Anything but a :class:`Graph` raises ``TypeError``: a view has no
    snapshot, and fault sets apply as kernel masks over the graph's one.
    """
    if not isinstance(graph, Graph):
        raise TypeError(
            f"expected a Graph, got {type(graph).__name__}: fault sets "
            f"apply as masks on the graph's CSR snapshot, not as views")
    cache = graph._csr_cache
    if cache is not None and cache.graph_version == graph.version:
        return cache
    snap = CSRGraph.from_graph(graph)
    snap.graph_version = graph.version
    graph._csr_cache = snap
    return snap
