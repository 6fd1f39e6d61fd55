"""Dirty-region tracking and certification for incremental repairs.

When an edge leaves the spanner (deletion, or a weight increase that makes
old witness paths longer), the maintained invariant — *every non-spanner
edge of ``G`` passes the greedy rejection test against ``H``* — can break,
but only for pairs whose short fault-free detours actually routed through
the touched edge.  :func:`dirty_candidates` computes a provably sufficient
superset of those pairs with two unmasked SSSP runs, so the repair sweep
re-checks a small dirty region instead of every rejected edge:

    A rejected edge ``(u, v, w)`` satisfied ``dist_{H\\F}(u, v) <= k*w`` for
    every ``|F| <= f`` against the old spanner ``H`` (which contained the
    touched edge ``e = {a, b}`` at weight ``w_e``).  If the condition fails
    against ``H - e``, the old witness path for the failing ``F`` must have
    used ``e``, so it decomposes as ``u ~> a, e, b ~> v`` (or the reverse
    orientation) with total length ``<= k*w``.  Unmasked distances lower-
    bound masked ones, hence ``dist_H(u, a) + w_e + dist_H(b, v) <= k*w``
    (or the cross orientation) — exactly the filter below.  Candidates
    failing both orientations provably still pass and are skipped.

The distance filter forgets *why* a candidate was rejected.  A
:class:`CertificateIndex` remembers it for the rejects the tiered oracle's
packing screen proved: the set of ``H`` edges on ``f + 1`` element-disjoint
``u``–``v`` paths, each of length ``<= k*w`` in ``H`` (the sound packing
rule of Dinitz–Robelle).  If the touched edge ``e`` lies on none of them,
all ``f + 1`` paths survive in ``H - e`` with the same lengths, every
``|F| <= f`` misses one, and the candidate provably still passes — so the
maintainer re-checks a filtered candidate only when it has no certificate
or its certificate uses ``e``.  The index drops a certificate when an edge
on its paths is deleted or made heavier (:meth:`CertificateIndex.pop_users`)
and when its own edge is accepted, re-tested or deleted, so every held
certificate stays true of the live ``H``.

The region is recorded as a :class:`DirtyRegion` keyed on the
:attr:`Graph.version` delta of the mutation, so a maintenance log reads as
"version X -> Y: these candidates were re-checked, these re-entered H".

A :class:`CertificationRecord` ties one
:func:`~repro.spanners.verify.is_ft_spanner` report on the maintained
spanner to the graph and spanner versions it saw: "maintained" and "built
from scratch" are held to one standard, the static verifier.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.graph.core import EdgeTuple, Graph, Node, edge_key
from repro.graph.csr import csr_snapshot
from repro.paths.registry import KernelLike, get_kernels
from repro.spanners.verify import FTVerificationReport

#: A candidate replacement edge, in rejection-test order: ``(u, v, weight)``.
Candidate = Tuple[Node, Node, float]


@dataclass(frozen=True)
class DirtyRegion:
    """The re-check work one destructive update induced.

    ``version_before``/``version_after`` bracket the mutation on the *graph*
    version counter, so a sequence of regions is an auditable log of what
    changed and what was re-certified in response.
    """

    #: Canonical key of the edge whose removal/re-weighting opened the region.
    trigger: EdgeTuple
    #: Why the region opened: ``"delete"`` or ``"reweight"``.
    reason: str
    #: Rejected edges whose acceptance test must be re-run — those the
    #: distance filter kept that hold no certificate avoiding the trigger —
    #: in the greedy sweep order (increasing weight, ties on the canonical
    #: key).
    candidates: Tuple[Candidate, ...]
    #: How many rejected edges existed in total (the filter's denominator).
    candidate_pool: int
    #: :attr:`Graph.version` of ``G`` before/after the triggering mutation.
    version_before: int = 0
    version_after: int = 0
    #: Candidates the distance filter kept but a certificate avoiding the
    #: trigger proved still rejected, so the repair skipped them.
    certificate_skips: int = 0

    @property
    def selectivity(self) -> float:
        """Fraction of the rejected-edge pool the filter kept (0 when empty)."""
        if self.candidate_pool == 0:
            return 0.0
        return len(self.candidates) / self.candidate_pool


def _sorted_candidates(candidates: List[Candidate]) -> Tuple[Candidate, ...]:
    """Greedy sweep order: increasing weight, ties on the canonical key."""
    return tuple(sorted(
        candidates, key=lambda item: (item[2], repr(edge_key(item[0], item[1])))))


def dirty_candidates(graph: Graph, spanner: Graph, edge: EdgeTuple,
                     stretch: float, *,
                     edge_weight: Optional[float] = None,
                     kernel: KernelLike = None) -> Tuple[Tuple[Candidate, ...], int]:
    """Rejected edges whose acceptance test may flip when ``edge`` leaves ``spanner``.

    **Call before mutating**: both ``graph`` and ``spanner`` must still
    contain ``edge`` (at its old weight), because the filter reasons about
    the old witness paths.  Returns ``(candidates, pool)`` where
    ``candidates`` is the dirty subset of the pool of all rejected edges, in
    greedy sweep order, and ``pool`` is that pool's size.

    The filter is sound, not tight: it may keep a candidate whose test still
    passes (the sweep just re-rejects it), but provably never drops one
    whose test now fails — see the module docstring for the argument.
    """
    a, b = edge
    if not spanner.has_edge(a, b):
        raise ValueError(f"edge {edge!r} is not in the spanner")
    w_edge = spanner.weight(a, b) if edge_weight is None else float(edge_weight)
    csr = csr_snapshot(spanner)
    sssp = get_kernels(kernel).resolve(csr).sssp_dijkstra_csr
    dist_a, _ = sssp(csr, csr.index_of[a])
    dist_b, _ = sssp(csr, csr.index_of[b])
    index_of = csr.index_of
    dirty: List[Candidate] = []
    pool = 0
    for u, v, w in graph.edges():
        if spanner.has_edge(u, v):
            continue
        pool += 1
        ui = index_of.get(u)
        vi = index_of.get(v)
        if ui is None or vi is None:
            # A rejected edge whose endpoint the spanner has never seen can
            # have no witness path at all — it is vacuously clean.
            continue
        budget = stretch * w
        through = min(dist_a[ui] + dist_b[vi], dist_b[ui] + dist_a[vi]) + w_edge
        if through <= budget:
            dirty.append((u, v, w))
    return _sorted_candidates(dirty), pool


class CertificateIndex(MutableMapping):
    """Packing certificates of rejected edges, indexed by the ``H`` edges they use.

    Maps a rejected edge's key to the frozenset of ``H`` edge keys on the
    ``f + 1`` element-disjoint short paths that certified its reject (see
    :attr:`~repro.spanners.fault_check.FaultCheckOracle.packed_paths`).  A
    reverse index from each ``H`` edge to the certificates using it makes
    :meth:`pop_users` — the drop on a delete or weight increase of that
    edge — cost the number of certificates it touches.
    """

    def __init__(self) -> None:
        self._edges: Dict[EdgeTuple, FrozenSet[EdgeTuple]] = {}
        self._users: Dict[EdgeTuple, Set[EdgeTuple]] = {}

    def __getitem__(self, key: EdgeTuple) -> FrozenSet[EdgeTuple]:
        return self._edges[key]

    def __setitem__(self, key: EdgeTuple, edges: FrozenSet[EdgeTuple]) -> None:
        self.pop(key, None)
        self._edges[key] = edges
        for edge in edges:
            self._users.setdefault(edge, set()).add(key)

    def __delitem__(self, key: EdgeTuple) -> None:
        for edge in self._edges.pop(key):
            users = self._users[edge]
            users.discard(key)
            if not users:
                del self._users[edge]

    def __iter__(self) -> Iterator[EdgeTuple]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def pop_users(self, edge: EdgeTuple) -> None:
        """Drop every certificate with a path through ``edge``."""
        for key in tuple(self._users.get(edge, ())):
            del self[key]


def all_rejected_candidates(graph: Graph, spanner: Graph) -> Tuple[Candidate, ...]:
    """Every edge of ``graph`` outside ``spanner``, in greedy sweep order.

    The unfiltered fallback the maintainer uses when no sound filter applies
    (and the reference the filter's soundness tests compare against).
    """
    return _sorted_candidates(
        [(u, v, w) for u, v, w in graph.edges() if not spanner.has_edge(u, v)])


@dataclass
class CertificationRecord:
    """One certification outcome tied to the graph/spanner versions it saw."""

    report: FTVerificationReport
    graph_version: int
    spanner_version: int
    updates_applied: int

    @property
    def ok(self) -> bool:
        return self.report.ok
