"""The Bodwin–Dinitz–Parter–Williams lower-bound instance and its checkers.

The paper cites a "simple lower bound construction in [9]" to argue Theorem 1
is best possible in the VFT setting, and reuses the same graph in the closing
remark of Section 2: take an arbitrary graph ``G*`` of girth ``> k + 1`` and
combine it with a biclique on ``⌊f/2⌋`` nodes so that every vertex of ``G*``
is represented by ``⌊f/2⌋ + 1``-ish many copies and every edge of ``G*``
becomes a complete bipartite graph between the copy sets.

Concretely, this module implements the construction as the **vertex blow-up**
``blowup(G*, t)``: each vertex ``u`` becomes ``t`` copies ``(u, 0..t-1)`` and
each edge ``{u, v}`` becomes the biclique between the copies of ``u`` and the
copies of ``v`` (this is the tensor product of ``G*`` with the complete
bipartite pattern the paper describes).  With ``t = ⌊f/2⌋ + 1``:

* the instance has ``t² · |E(G*)|  = Θ(f² · b(n/f, k+1))`` edges when ``G*``
  is extremal for its girth;
* every edge is *forced*: for edge ``{(u,i), (v,j)}`` the adversary faults the
  other ``t − 1`` copies of ``u`` and the other ``t − 1`` copies of ``v``
  (``2(t−1) ≤ f`` faults), after which every surviving alternative
  ``(u,i)``–``(v,j)`` path projects to a ``u``–``v`` walk in ``G*`` avoiding
  the edge ``{u, v}``, hence has at least ``k + 1`` edges because
  ``girth(G*) > k + 1`` — so any ``f``-VFT ``k``-spanner must keep the edge;
* it nevertheless admits an **edge** ``(k+1)``-blocking set of size at most
  ``f · |E|`` (the closing-remark witness), which is why blocking sets alone
  cannot give a better EFT bound.

:func:`forced_edge_fraction` verifies the "every edge is forced" property
empirically with the exact fault-check oracle, and
:func:`edge_blocking_set_for_blowup` builds the closing-remark edge blocking
set explicitly so experiment E10 can validate it with the short-cycle oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph.core import Graph, Node, edge_key
from repro.graph.generators import cage, high_girth_greedy
from repro.graph.girth import girth
from repro.spanners.blocking import BlockingSet
from repro.spanners.fault_check import FaultCheckOracle, get_oracle
from repro.utils.rng import ensure_rng


def vertex_blowup(base: Graph, copies: int, *, weight: float = 1.0) -> Graph:
    """Blow up every vertex of ``base`` into ``copies`` copies.

    Nodes of the result are ``(u, i)`` for ``u ∈ V(base)`` and
    ``0 ≤ i < copies``; each base edge ``{u, v}`` becomes the complete
    bipartite graph between the copies of ``u`` and the copies of ``v``.
    Copies of the same base vertex are *not* adjacent.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    result = Graph(name=f"blowup({base.name or 'G'},{copies})")
    result.metadata.update({
        "family": "blowup",
        "base": base.name,
        "copies": copies,
        "base_nodes": base.number_of_nodes(),
        "base_edges": base.number_of_edges(),
    })
    for u in base.nodes():
        for i in range(copies):
            result.add_node((u, i))
    for u, v, _ in base.edges():
        for i in range(copies):
            for j in range(copies):
                result.add_edge((u, i), (v, j), weight)
    return result


@dataclass
class LowerBoundInstance:
    """A constructed lower-bound instance plus the quantities the bound predicts."""

    graph: Graph
    base: Graph
    copies: int
    stretch: float
    max_faults: int
    #: ``f² · b(n/f, k+1)``-style prediction using the *actual* base density.
    predicted_forced_edges: int

    @property
    def nodes(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def edges(self) -> int:
        return self.graph.number_of_edges()


def bdpw_lower_bound_instance(max_faults: int, stretch: float, *,
                              base: Optional[Graph] = None,
                              base_nodes: int = 20,
                              rng=None) -> LowerBoundInstance:
    """Build the BDPW lower-bound instance for the given ``f`` and ``k``.

    Parameters
    ----------
    max_faults:
        The fault budget ``f ≥ 1`` the instance is hard for.
    stretch:
        The stretch ``k``; the base graph must have girth ``> k + 1``.
    base:
        Optional explicit base graph of girth ``> k + 1``.  By default a
        suitable base is chosen automatically: the degree-3 cage of girth
        ``k + 2`` when one exists for small ``k``, otherwise a random greedy
        high-girth graph on ``base_nodes`` nodes.
    base_nodes:
        Size of the automatically generated base (ignored when ``base`` given).

    Notes
    -----
    The number of copies is ``⌊f/2⌋ + 1`` so that the adversary's
    ``2(t − 1) ≤ f`` faults exist; the total number of forced edges is
    ``copies² · |E(base)|``, which is the value stored in
    ``predicted_forced_edges`` (it equals the edge count of the instance).
    """
    if max_faults < 1:
        raise ValueError("max_faults must be at least 1")
    girth_needed = int(math.floor(stretch)) + 2  # girth > k + 1
    if base is None:
        base = _default_base(girth_needed, base_nodes, rng)
    else:
        base_girth = girth(base, cutoff=girth_needed - 1)
        if base_girth <= girth_needed - 1:
            raise ValueError(
                f"base graph has girth {base_girth} <= {girth_needed - 1}; "
                f"the construction needs girth > k + 1"
            )
    copies = max_faults // 2 + 1
    blowup = vertex_blowup(base, copies)
    blowup.metadata.update({"stretch": stretch, "max_faults": max_faults})
    return LowerBoundInstance(
        graph=blowup,
        base=base,
        copies=copies,
        stretch=stretch,
        max_faults=max_faults,
        predicted_forced_edges=copies * copies * base.number_of_edges(),
    )


def _default_base(girth_needed: int, base_nodes: int, rng) -> Graph:
    """Pick a girth-``>= girth_needed`` base: a cage when available, else random greedy."""
    for cage_girth in (girth_needed, girth_needed + 1):
        if cage_girth in (5, 6, 7, 8):
            candidate = cage(cage_girth)
            if candidate.number_of_nodes() <= max(base_nodes * 2, 30):
                return candidate
    return high_girth_greedy(base_nodes, girth_needed - 1, rng=ensure_rng(rng))


def forced_edge_fraction(instance: LowerBoundInstance, *,
                         oracle: Optional[FaultCheckOracle] = None,
                         sample_edges: Optional[int] = None,
                         rng=None) -> float:
    """Fraction of instance edges that are provably forced into any f-VFT spanner.

    An edge ``e = {x, y}`` is forced when there is a fault set ``F`` of size at
    most ``f`` such that ``dist_{(G − e) \\ F}(x, y) > k · w(e)`` — then any
    subgraph missing ``e`` violates Definition 2 for that ``F``.  The check
    reuses the exact fault-check oracle on ``G − e``.

    ``sample_edges`` limits the check to a random sample (the instances grow
    quadratically with ``f``); the default checks every edge.
    """
    checker = get_oracle(oracle)
    graph = instance.graph
    edges = list(graph.edges())
    if sample_edges is not None and sample_edges < len(edges):
        rng = ensure_rng(rng)
        edges = rng.sample(edges, sample_edges)
    if not edges:
        return 1.0
    forced = 0
    for u, v, w in edges:
        without = Graph(nodes=graph.nodes())
        for a, b, weight in graph.edges():
            if edge_key(a, b) != edge_key(u, v):
                without.add_edge(a, b, weight)
        witness = checker.find_breaking_fault_set(
            without, u, v, instance.stretch * w, instance.max_faults, "vertex"
        )
        if witness is not None:
            forced += 1
    return forced / len(edges)


def adversarial_fault_set_for_edge(instance: LowerBoundInstance,
                                   u: Tuple, v: Tuple) -> List[Tuple]:
    """The explicit fault set that forces the edge ``{(u_base, i), (v_base, j)}``.

    Faults every other copy of the two base endpoints — ``2(copies − 1) ≤ f``
    vertices.  Exposed so tests can check the analytic construction against
    the oracle's output.
    """
    (base_u, i), (base_v, j) = u, v
    faults = [(base_u, c) for c in range(instance.copies) if c != i]
    faults += [(base_v, c) for c in range(instance.copies) if c != j]
    return faults


def edge_blocking_set_for_blowup(instance: LowerBoundInstance) -> BlockingSet:
    """The closing-remark edge blocking set of the lower-bound instance.

    The set contains every pair of distinct blow-up edges that (a) come from
    the same base edge and (b) share an endpoint.  Any cycle of the blow-up on
    at most ``k + 1`` edges must reuse some base edge consecutively (its
    projection to the base would otherwise be a closed walk containing a cycle
    of length ``≤ k + 1``, impossible since the base has girth ``> k + 1``),
    and two consecutive traversals of the same base edge are exactly such a
    pair.  The size is at most ``f · |E|``: each edge ``((u,i),(v,j))`` is
    paired with the ``2(copies − 1) ≤ f`` edges sharing one endpoint and the
    same base edge.
    """
    base_of: Dict[Tuple, Tuple] = {}
    for (u, i), (v, j), _ in instance.graph.edges():
        base_of[edge_key((u, i), (v, j))] = edge_key(u, v)

    # Group blow-up edges by (base edge, shared endpoint).
    by_endpoint: Dict[Tuple, List[Tuple]] = {}
    for blow_edge, base_edge in base_of.items():
        for endpoint in blow_edge:
            by_endpoint.setdefault((base_edge, endpoint), []).append(blow_edge)

    pairs = set()
    for (_, _endpoint), edges in by_endpoint.items():
        for index, first in enumerate(edges):
            for second in edges[index + 1:]:
                ordered = tuple(sorted((first, second), key=repr))
                pairs.add(ordered)
    cycle_bound = int(math.floor(instance.stretch)) + 1
    return BlockingSet(
        kind="edge",
        pairs=frozenset(pairs),
        cycle_bound=cycle_bound,
        source=f"bdpw-blowup(copies={instance.copies})",
    )
