"""Read-only graph views, most importantly "graph minus a fault set".

:class:`ExclusionView` exposes the same adjacency interface as
:class:`repro.graph.Graph` while filtering out excluded vertices and edges on
the fly, so ``H \\ F`` costs no copy.  The dict-based shortest-path routines
in :mod:`repro.paths` accept either type; they are the reference the CSR
kernels are tested against.  The product paths (fault-check oracles,
verification, adversarial search) apply fault sets as kernel masks over a
CSR snapshot instead and accept no views.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Mapping, Optional, Tuple

from repro.graph.core import Graph, GraphError, Node, edge_key


class ExclusionView:
    """A live view of ``graph`` with some vertices and/or edges hidden.

    The view never copies adjacency data; it holds the excluded vertex set and
    the excluded (canonicalised) edge set and filters during iteration.  It is
    therefore O(1) to construct.

    Parameters
    ----------
    graph:
        The underlying graph (or another view; nesting is allowed).
    excluded_nodes:
        Vertices to hide; incident edges are hidden implicitly.
    excluded_edges:
        Edges to hide, given as ``(u, v)`` pairs in either orientation.
    """

    __slots__ = ("_graph", "_excluded_nodes", "_excluded_edges")

    def __init__(
        self,
        graph: "Graph | ExclusionView",
        excluded_nodes: Optional[Iterable[Node]] = None,
        excluded_edges: Optional[Iterable[Tuple[Node, Node]]] = None,
    ):
        self._graph = graph
        self._excluded_nodes: frozenset = frozenset(excluded_nodes or ())
        self._excluded_edges: frozenset = frozenset(
            edge_key(u, v) for u, v in (excluded_edges or ())
        )

    # ---------------------------------------------------------------- nodes
    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is visible in the view."""
        return node not in self._excluded_nodes and self._graph.has_node(node)

    def nodes(self) -> Iterator[Node]:
        """Iterate visible nodes in the underlying insertion order."""
        for node in self._graph.nodes():
            if node not in self._excluded_nodes:
                yield node

    def number_of_nodes(self) -> int:
        """Number of visible nodes."""
        return sum(1 for _ in self.nodes())

    # ---------------------------------------------------------------- edges
    def _edge_visible(self, u: Node, v: Node) -> bool:
        if u in self._excluded_nodes or v in self._excluded_nodes:
            return False
        return edge_key(u, v) not in self._excluded_edges

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the edge ``{u, v}`` is visible."""
        return self._graph.has_edge(u, v) and self._edge_visible(u, v)

    def weight(self, u: Node, v: Node) -> float:
        """Weight of a visible edge; raises :class:`GraphError` otherwise."""
        if not self._edge_visible(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) is excluded from the view")
        return self._graph.weight(u, v)

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate visible edges as ``(u, v, weight)``."""
        for u, v, w in self._graph.edges():
            if self._edge_visible(u, v):
                yield (u, v, w)

    def number_of_edges(self) -> int:
        """Number of visible edges."""
        return sum(1 for _ in self.edges())

    # ------------------------------------------------------------ adjacency
    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate visible neighbours of a visible node."""
        if node in self._excluded_nodes:
            raise GraphError(f"node {node!r} is excluded from the view")
        for neighbor in self._graph.neighbors(node):
            if self._edge_visible(node, neighbor):
                yield neighbor

    def adjacency(self, node: Node) -> Mapping[Node, float]:
        """Visible neighbour→weight mapping of ``node``.

        Unlike :meth:`Graph.adjacency` this may build a filtered dict when
        exclusions touch the node's neighbourhood; when nothing nearby is
        excluded it returns the underlying dict directly (no copy).
        """
        if node in self._excluded_nodes:
            raise GraphError(f"node {node!r} is excluded from the view")
        base = self._graph.adjacency(node)
        if not self._excluded_nodes and not self._excluded_edges:
            return base
        return {
            neighbor: weight
            for neighbor, weight in base.items()
            if self._edge_visible(node, neighbor)
        }

    def degree(self, node: Node) -> int:
        """Degree of ``node`` counting only visible edges."""
        return sum(1 for _ in self.neighbors(node))

    # -------------------------------------------------------------- exports
    def materialize(self, name: str = "") -> Graph:
        """Copy the visible part of the view into a standalone :class:`Graph`."""
        result = Graph(name=name)
        for node in self.nodes():
            result.add_node(node)
        for u, v, w in self.edges():
            result.add_edge(u, v, w)
        return result

    @property
    def excluded_nodes(self) -> AbstractSet[Node]:
        """The hidden vertex set."""
        return self._excluded_nodes

    @property
    def excluded_edges(self) -> AbstractSet[Tuple[Node, Node]]:
        """The hidden (canonicalised) edge set."""
        return self._excluded_edges

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __iter__(self) -> Iterator[Node]:
        return self.nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ExclusionView -{len(self._excluded_nodes)} nodes "
            f"-{len(self._excluded_edges)} edges over {self._graph!r}>"
        )


def graph_minus(
    graph: "Graph | ExclusionView",
    nodes: Optional[Iterable[Node]] = None,
    edges: Optional[Iterable[Tuple[Node, Node]]] = None,
) -> ExclusionView:
    """Return a view of ``graph`` with the given vertices and edges removed.

    This is the ``H \\ F`` operation from the paper.  For a vertex fault set
    pass ``nodes=F``; for an edge fault set pass ``edges=F``.
    """
    return ExclusionView(graph, excluded_nodes=nodes, excluded_edges=edges)


def induced_subgraph(graph: Graph, nodes: Iterable[Node]) -> Graph:
    """Materialised induced subgraph on ``nodes`` (alias of :meth:`Graph.subgraph`)."""
    return graph.subgraph(nodes)
