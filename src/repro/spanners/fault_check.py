"""Fault-check oracles: the inner decision problem of the FT greedy algorithm.

Algorithm 1 adds the edge ``(u, v)`` to ``H`` exactly when

    ∃ F, |F| ≤ f :  dist_{H \\ F}(u, v) > k · w(u, v).

Answering this is the only hard part of the algorithm — the paper notes the
naive implementation is exponential in ``f`` and leaves a faster algorithm as
an open problem.  This module provides four oracles behind one interface:

* :class:`ExhaustiveOracle` — literally tries every fault set of size ≤ f.
  Exponential in ``f`` with a huge base (``n choose f``); only sensible for
  tiny instances, kept as the ground-truth oracle for tests.
* :class:`BranchAndBoundOracle` — exact.  It branches only on
  the elements of some *short witness path*: if ``dist_{H\\F}(u, v) ≤ k·w``
  then every fault set that works must hit every ``u``–``v`` path of length
  ``≤ k·w``, in particular whichever short path the decision query returns,
  so it suffices to try faulting each of its elements and recurse with
  budget ``f - 1``.  Still exponential in ``f`` (the paper's open problem
  stands) but the branching factor is the hop-length of a short path rather
  than ``n``.
* :class:`GreedyPathPackingOracle` — polynomial-time heuristic: repeatedly
  fault one element of the current shortest short path, up to ``f`` times.
  One-sided: a returned fault set is always a genuine witness, but a ``None``
  answer may be wrong, so a spanner built with this oracle can be slightly
  sparser than required and is *not guaranteed* to be ``f``-fault tolerant.
  It exists for the runtime experiment (E8) and as the "better and simpler"
  style baseline.
* :class:`TieredOracle` — exact, and the default (:data:`DEFAULT_ORACLE`):
  cheap *sound* screens (warm-started distance vectors shared across
  consecutive candidates with the same source, disjoint short-path packing)
  answer most candidates outright, and only the undecided margin falls
  through to the branch-and-bound search — the same
  :meth:`BranchAndBoundOracle._search`, handed a per-query *pool* of every
  short path the query has found so far, so that a search node
  whose spared pooled paths admit no hitting set within its remaining
  budget is decided without a kernel call.  The screens may certify a
  reject or certify the exact oracle's accept (with the identical empty
  witness), and the pool only cuts subtrees the exact search would answer
  ``None`` for; every other node asks the same deterministic decision query
  as the plain search, so spanners and witnesses are byte-identical to
  :class:`BranchAndBoundOracle` (property-tested in
  ``tests/test_fault_check.py``).

All oracles return either a canonical fault set ``F`` witnessing the distance
blow-up, or ``None`` when no such set exists (or was found, for the
heuristic).

Every oracle runs on the compiled CSR snapshot of the queried
:class:`~repro.graph.core.Graph` (inside the greedy driver, the growing
spanner ``H``) with *fault masks*: trying a candidate fault set is a few byte
writes on a mask, and the distance query itself runs the array-native
kernels.  The exhaustive and heuristic oracles ask only the forward kernels
(``bounded_dijkstra_csr`` and its path twin).  The exact search asks one
*decision query* (:meth:`BranchAndBoundOracle._exceeds`) per search node:
the bidirectional kernel ``bidirectional_bounded_path``, with a band around
the budget re-asked of the forward path kernel, and it branches on the
short path it returns.  The tiered oracle's screens ask the same decision
query, or a cached ``sssp_dijkstra_csr`` vector for warm root tests.  The
``Graph`` entry point
:meth:`FaultCheckOracle.find_breaking_fault_set` only resolves that
snapshot; anything that is not a ``Graph`` (an
:class:`~repro.graph.views.ExclusionView`, a duck-typed double) has no
snapshot and raises ``TypeError``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.faults.enumeration import enumerate_fault_sets
from repro.faults.models import FaultModel, FaultSet, get_fault_model
from repro.graph.core import Graph, Node, edge_key
from repro.graph.csr import CSRGraph, csr_snapshot
from repro.obs.metrics import MetricsRegistry, component_registry, get_registry
from repro.paths.kernels import path_length_csr
from repro.paths.registry import KernelLike, get_kernels

#: Screen outcomes that resolved the query without the exact search.
SCREEN_RESOLVED_OUTCOMES = ("accept", "reject")

#: Buckets for the per-build screen hit-rate histogram (a fraction in [0, 1]).
RATE_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


class OracleStats:
    """Oracle work counters shared between an oracle and the greedy driver.

    The counters live on a per-oracle metrics registry (``oracle.*`` family,
    attached to the process default — see :mod:`repro.obs`), so oracle work
    shows up in ``repro-spanner stats`` and span traces.  Reads keep the
    historical attribute names (``queries``, ``distance_queries``,
    ``nodes_expanded``); writes go through the ``count_*`` methods.
    ``reset()`` zeroes this oracle's counters only — the greedy driver calls
    it at build start so finished builds report per-build work.
    """

    __slots__ = ("metrics", "_queries", "_distance_queries", "_nodes_expanded",
                 "_screen", "_screen_children", "_exact", "_band_fallbacks",
                 "_pool_hits", "_screen_hit_rate")

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = (metrics if metrics is not None
                        else component_registry("oracle"))
        self._queries = self.metrics.counter(
            "oracle.queries", "fault-check oracle calls")
        self._distance_queries = self.metrics.counter(
            "oracle.distance_queries",
            "bounded distance queries issued by oracles")
        self._nodes_expanded = self.metrics.counter(
            "oracle.nodes_expanded", "branch-and-bound search tree nodes")
        # Tiered-oracle observability: every tiered query lands exactly one
        # screen outcome ("accept" / "reject" resolved by the screen,
        # "fallthrough" handed to the exact search) and fallthroughs also
        # count one exact check, so accept+reject+fallthrough == queries and
        # exact == fallthrough reconcile per build — including parallel
        # sweeps, where the workers ship these as flat labeled counters.
        self._screen = self.metrics.counter(
            "oracle.screen", "tiered-oracle screen decisions, by outcome")
        self._screen_children: Dict[str, object] = {}
        self._exact = self.metrics.counter(
            "oracle.exact", "fault checks answered by the exact search")
        # The decision query's only forward path-kernel calls.  Rare (0 on
        # perfbench's builds).
        self._band_fallbacks = self.metrics.counter(
            "oracle.band_fallbacks",
            "bidirectional decisions too close to the budget to call, "
            "re-asked of the forward kernel")
        self._pool_hits = self.metrics.counter(
            "oracle.pool_hits",
            "exact-search leaves and subtrees decided from the query's "
            "pool of short paths, without a kernel call")
        # The hit-rate histogram lives on the *process* registry: per-build
        # observations are process history, and the per-oracle component
        # registry (weakly attached) dies with the oracle — usually before
        # a ``--metrics-json`` snapshot is written.
        self._screen_hit_rate = get_registry().histogram(
            "oracle.screen_hit_rate",
            "fraction of fault checks the screen resolved, per build",
            buckets=RATE_BUCKETS)

    @property
    def queries(self) -> int:
        return self._queries.value

    @property
    def distance_queries(self) -> int:
        return self._distance_queries.value

    @property
    def nodes_expanded(self) -> int:
        return self._nodes_expanded.value

    @property
    def screen_outcomes(self) -> Dict[str, int]:
        """Screen outcome → count (empty unless a tiered oracle ran)."""
        return {outcome: child.value
                for outcome, child in self._screen_children.items()
                if child.value}

    @property
    def screen_checks(self) -> int:
        """Total screen decisions (every tiered query makes exactly one)."""
        return sum(child.value for child in self._screen_children.values())

    @property
    def screen_resolved(self) -> int:
        """Queries the screen answered without running the exact search."""
        return sum(child.value
                   for outcome, child in self._screen_children.items()
                   if outcome in SCREEN_RESOLVED_OUTCOMES)

    @property
    def exact_checks(self) -> int:
        return self._exact.value

    @property
    def band_fallbacks(self) -> int:
        return self._band_fallbacks.value

    @property
    def pool_hits(self) -> int:
        return self._pool_hits.value

    def count_query(self) -> None:
        self._queries.inc()

    def count_distance_query(self) -> None:
        self._distance_queries.inc()

    def count_nodes_expanded(self) -> None:
        self._nodes_expanded.inc()

    def count_screen(self, outcome: str) -> None:
        child = self._screen_children.get(outcome)
        if child is None:
            child = self._screen_children[outcome] = self._screen.labels(
                outcome=outcome)
        child.inc()

    def count_exact(self) -> None:
        self._exact.inc()

    def count_band_fallback(self) -> None:
        self._band_fallbacks.inc()

    def count_pool_hit(self) -> None:
        self._pool_hits.inc()

    def screen_outcomes_with(
            self, extra: Optional[Mapping[str, float]] = None) -> Dict[str, int]:
        """:attr:`screen_outcomes` plus screen counts collected elsewhere.

        ``extra`` holds the flat ``oracle.screen{outcome="..."}`` counters
        a speculative sweep's workers shipped home (see
        :func:`repro.spanners.ft_greedy.acceptance_sweep`).
        """
        outcomes = self.screen_outcomes
        prefix = 'oracle.screen{outcome="'
        for flat, amount in (extra or {}).items():
            if flat.startswith(prefix) and flat.endswith('"}') and amount:
                outcome = flat[len(prefix):-2]
                outcomes[outcome] = outcomes.get(outcome, 0) + int(amount)
        return outcomes

    def observe_screen_hit_rate(
            self, extra: Optional[Mapping[str, float]] = None) -> Optional[float]:
        """Record this build's screen hit rate; returns the rate (or ``None``).

        ``extra`` is folded in as in :meth:`screen_outcomes_with`.
        """
        outcomes = self.screen_outcomes_with(extra)
        total = sum(outcomes.values())
        if not total:
            return None
        rate = sum(count for outcome, count in outcomes.items()
                   if outcome in SCREEN_RESOLVED_OUTCOMES) / total
        self._screen_hit_rate.observe(rate)
        return rate

    def reset(self) -> None:
        self.metrics.reset()

    def publish(self) -> None:
        """Fold this oracle's counters into the process registry, then zero.

        Build drivers call this once per finished build (after reading the
        per-build numbers into the result): the per-oracle component
        registry is only weakly attached and dies with the oracle, so a
        ``--metrics-json`` snapshot written after the build would otherwise
        miss the ``oracle.*`` family entirely.  Zeroing after the fold
        keeps a long-lived oracle instance from double-counting in
        ``include_sources`` views.
        """
        counters = self.metrics.counters()
        if counters:
            get_registry().merge_counters(counters)
            self.metrics.reset()


def candidate_elements_csr(model: FaultModel, csr: CSRGraph, source: Node,
                           target: Node) -> List:
    """Faultable elements derived from a CSR snapshot (no ``Graph`` needed).

    Vertex candidates come back in ``csr.node_of`` order, which equals the
    source graph's node-insertion order; edge candidates come back in
    undirected-edge-id order (the compile/append order of the snapshot),
    which can differ from :meth:`Graph.edges` order.  The exhaustive oracle
    enumerates fault sets in this order, and the order decides which witness
    a tie returns, so serial and worker checks of one snapshot agree.
    """
    if model.uses_vertex_mask:
        return [node for node in csr.node_of
                if node != source and node != target]
    node_of = csr.node_of
    return [edge_key(node_of[a], node_of[b]) for a, b in csr.edge_index]


class FaultCheckOracle(ABC):
    """Interface for the "find a breaking fault set" decision/search problem.

    Subclasses implement :meth:`find_breaking_fault_set_csr`; the ``Graph``
    entry point resolves the cached snapshot and delegates to it.
    """

    #: Short name used in experiment tables.
    name: str = "abstract"

    #: Whether a ``None`` answer is guaranteed to mean "no fault set exists".
    exact: bool = True

    #: The evidence behind the last answer when it was a reject certified by
    #: disjoint short paths: ``(snapshot, index paths)``, the paths in the
    #: snapshot's index space.  ``None`` after any other answer; only the
    #: tiered oracle's packing screen ever sets it.
    packed_paths: Optional[Tuple[CSRGraph, List[List[int]]]] = None

    def __init__(self, kernel: KernelLike = None) -> None:
        self.stats = OracleStats()
        #: Kernel backend answering the CSR distance queries (auto if None).
        self.kernels = get_kernels(kernel)

    def find_breaking_fault_set(self, graph: Graph, source: Node, target: Node,
                                budget: float, max_faults: int,
                                fault_model: "str | FaultModel") -> Optional[FaultSet]:
        """Return ``F`` with ``|F| ≤ max_faults`` and ``dist_{graph\\F}(source, target) > budget``.

        Returns ``None`` if no such set exists (exact oracles) or none was
        found (heuristic oracles).  The distance comparison treats
        unreachability as ``inf > budget``.  ``graph`` must be a
        :class:`Graph`; anything else raises ``TypeError``.
        """
        return self.find_breaking_fault_set_csr(
            csr_snapshot(graph), source, target, budget, max_faults,
            fault_model)

    @abstractmethod
    def find_breaking_fault_set_csr(self, csr: CSRGraph, source: Node,
                                    target: Node, budget: float,
                                    max_faults: int,
                                    fault_model: "str | FaultModel") -> Optional[FaultSet]:
        """:meth:`find_breaking_fault_set` on a compiled snapshot.

        Operates directly on the snapshot, so the check can run in a worker
        process that only received the (picklable) CSR — this is what a
        speculative :func:`repro.spanners.ft_greedy.acceptance_sweep` (a
        parallel build or repair) ships through :mod:`repro.runtime`.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class ExhaustiveOracle(FaultCheckOracle):
    """Ground-truth oracle: enumerate every fault set of size at most ``f``.

    The paper's "naive implementation"; complexity ``O(n^f)`` distance
    queries per edge.  Use only on very small instances.
    """

    name = "exhaustive"
    exact = True

    def find_breaking_fault_set_csr(self, csr: CSRGraph, source: Node,
                                    target: Node, budget: float,
                                    max_faults: int,
                                    fault_model: "str | FaultModel") -> Optional[FaultSet]:
        model = get_fault_model(fault_model)
        self.stats.count_query()
        elements = candidate_elements_csr(model, csr, source, target)
        s = csr.index_of.get(source)
        t = csr.index_of.get(target)
        mask = model.new_mask(csr)
        vertex_mask, edge_mask = model.kernel_masks(mask)
        bounded_query = self.kernels.resolve(csr).bounded_dijkstra_csr
        for faults in enumerate_fault_sets(elements, max_faults):
            indices = model.mask_indices(csr, faults)
            for index in indices:
                mask[index] = 1
            self.stats.count_distance_query()
            if s is None or t is None:
                exceeded = True
            else:
                exceeded = bounded_query(
                    csr, s, t, budget, vertex_mask, edge_mask) > budget
            for index in indices:
                mask[index] = 0
            if exceeded:
                return model.canonical(faults)
        return None


#: Relative half-width of the band around a budget inside which the exact
#: oracles do not take the bidirectional kernel's word for ``> budget``.
#: The forward kernels sum a path left to right from the source; the
#: bidirectional kernel sums the same arcs from both ends toward the meeting
#: arc.  Each of the ``h`` additions of non-negative weights rounds by at
#: most ``ε = 2**-53`` of the running sum, so re-associating a sum of ``h``
#: weights moves it by at most ``h·ε·dist``, and the two searches' shortest
#: distances differ by at most ``2·h·ε·dist``.  1e-9 exceeds that for every
#: path under four million hops: if the forward distance is ``<= budget``,
#: the bidirectional search at ``budget·(1 + _BAND)`` finds a path, and a
#: bidirectional distance ``<= budget·(1 - _BAND)`` puts the forward one
#: below ``budget``.  A constant, not a knob: any value past the drift and
#: far below the gaps between real distances gives the same answers.
_BAND = 1e-9


class BranchAndBoundOracle(FaultCheckOracle):
    """Exact oracle that branches only on elements of short witness paths.

    Correctness: suppose some fault set ``F*`` of size ``≤ f`` works.  Take
    any live ``source``–``target`` path ``P`` in the current (partially
    faulted) graph whose left-to-right length is ``≤ budget``; since
    removing ``F*`` pushes the forward distance above the budget, ``F*``
    must contain at least one element of ``P`` (an internal vertex for
    vertex faults, an edge for edge faults).  Hence trying every element of
    ``P`` as "the next fault" and recursing with budget ``f - 1`` explores a
    superset of some ordering of ``F*``.  Each search node asks one
    decision query (:meth:`_exceeds`) and branches on the path it returns,
    so which path that is never changes a verdict, only which witness a tie
    returns — and the query is deterministic, so witnesses are reproducible
    and equal on every kernel backend.

    The worst-case complexity is ``O(L^f)`` distance queries per edge, where
    ``L`` is the hop-length of short paths — exponential in ``f`` as the paper
    says, but with a far smaller base than :class:`ExhaustiveOracle`.
    :class:`TieredOracle` runs this same search (:meth:`_search`) behind its
    screens, with a path pool that decides some nodes without a kernel call.
    """

    name = "branch-and-bound"
    exact = True

    def find_breaking_fault_set_csr(self, csr: CSRGraph, source: Node,
                                    target: Node, budget: float,
                                    max_faults: int,
                                    fault_model: "str | FaultModel") -> Optional[FaultSet]:
        model = get_fault_model(fault_model)
        self.stats.count_query()
        s = csr.index_of.get(source)
        t = csr.index_of.get(target)
        if s is None or t is None:
            # No path reaches an endpoint the snapshot lacks: the root node
            # reads ``inf`` and the empty set breaks the pair.
            self.stats.count_nodes_expanded()
            self.stats.count_distance_query()
            return model.canonical([])
        found = self._search(csr, source, target, s, t, budget, max_faults,
                             model, [], model.new_mask(csr), None)
        return model.canonical(found) if found is not None else None

    def _exceeds(self, backend, csr: CSRGraph, s: int, t: int, budget: float,
                 vertex_mask: Optional[bytearray],
                 edge_mask: Optional[bytearray]
                 ) -> Tuple[bool, Optional[List[int]]]:
        """Exactly ``bounded_dijkstra_csr(...) > budget``, with a path if not.

        Returns ``(exceeded, index_path)``.  When not exceeded,
        ``index_path`` is a live ``s``–``t`` path whose left-to-right length
        is ``<= budget``: the forward kernel reads ``<= budget`` under these
        masks and under any larger mask that spares the path, which is what
        lets the search branch on it and the tiered oracle pool it.

        The bidirectional kernel answers at ``budget·(1 + _BAND)``.  ``inf``
        proves "exceeded" (see :data:`_BAND`).  A path proves "within" when
        its bidirectional length is ``<= budget·(1 - _BAND)``, or when its
        own left-to-right sum (:func:`~repro.paths.kernels.path_length_csr`)
        is ``<= budget`` — which keeps exact ties, ``d == budget`` on
        integer weights, out of the band.  Anything else is re-asked of the
        forward path kernel and counted on ``oracle.band_fallbacks``.
        """
        self.stats.count_distance_query()
        distance, index_path = backend.bidirectional_bounded_path(
            csr, s, t, budget * (1 + _BAND), vertex_mask, edge_mask)
        if not index_path:
            return True, None
        if (distance <= budget * (1 - _BAND)
                or path_length_csr(csr, index_path) <= budget):
            return False, index_path
        self.stats.count_band_fallback()
        self.stats.count_distance_query()
        distance, index_path = backend.bounded_dijkstra_path_csr(
            csr, s, t, budget, vertex_mask, edge_mask)
        if distance > budget:
            return True, None
        return False, index_path

    def _search(self, csr: CSRGraph, source: Node, target: Node, s: int,
                t: int, budget: float, remaining: int, model: FaultModel,
                current: List, mask: bytearray, pool: Optional[_PathPool],
                index_path: Optional[List[int]] = None) -> Optional[List]:
        """One search-tree node: faults ``current`` (set in ``mask``), and
        up to ``remaining`` more.  Returns a breaking fault list or ``None``.

        ``pool`` is the tiered query's :class:`_PathPool` (``None`` for the
        plain search).  A node the pool decides returns ``None`` with no
        kernel call; any other asks one decision query (:meth:`_exceeds`),
        pools its path and branches on it.  ``index_path`` is that query's
        path when the caller already holds it (the tiered root test's).
        """
        if pool is not None and pool.decides(
                set(model.mask_indices(csr, current)), remaining):
            self.stats.count_pool_hit()
            return None
        self.stats.count_nodes_expanded()
        backend = self.kernels.resolve(csr)
        if index_path is None:
            vertex_mask, edge_mask = model.kernel_masks(mask)
            exceeded, index_path = self._exceeds(backend, csr, s, t, budget,
                                                 vertex_mask, edge_mask)
            if exceeded:
                return list(current)
            if pool is not None:
                pool.add(index_path)
        if remaining == 0:
            return None
        node_of = csr.node_of
        elements = self._path_elements([node_of[index] for index in index_path],
                                       source, target, model)
        for element in elements:
            index = model.mask_indices(csr, (element,))[0]
            current.append(element)
            mask[index] = 1
            result = self._search(csr, source, target, s, t, budget,
                                  remaining - 1, model, current, mask, pool)
            mask[index] = 0
            current.pop()
            if result is not None:
                return result
        return None

    @staticmethod
    def _path_elements(path: List[Node], source: Node, target: Node,
                       model: FaultModel) -> List:
        """Faultable elements of a witness path for the given model."""
        if model.name == "vertex":
            return [node for node in path if node != source and node != target]
        return [edge_key(path[i], path[i + 1]) for i in range(len(path) - 1)]


def has_hitting_set(sets: List[FrozenSet[int]], size: int) -> bool:
    """Whether some ``size`` elements (or fewer) meet every set in ``sets``.

    A bounded search: any hitting set contains an element of the smallest
    set, so branching on each of its elements and recursing with one
    element fewer explores every candidate; at ``size == 1`` the question
    is whether all the sets share an element.  An empty set can never be
    hit.  The tiered oracle asks it with ``size <= f`` over its handful of
    pooled paths, so the ``O(L^size)`` worst case stays tiny.
    """
    if not sets:
        return True
    if size <= 0:
        return False
    smallest = min(sets, key=len)
    if size == 1:
        return bool(smallest.intersection(*sets))
    for element in smallest:
        if has_hitting_set([other for other in sets if element not in other],
                           size - 1):
            return True
    return False


class _PathPool:
    """The short ``s``–``t`` paths one tiered query has found so far.

    Every path in the pool was found live under some fault mask and has a
    left-to-right length ``<= budget``, so under *any* mask that spares its
    elements the forward kernel reads ``<= budget`` too (the labels along
    the path only round down to it; see
    :func:`~repro.paths.kernels.path_length_csr`).  A path is kept as the
    frozenset of its faultable mask indices: internal vertex indices under
    vertex faults, edge ids under edge faults.  The pool lives for one
    query: the next query has other endpoints, budget or snapshot.
    """

    __slots__ = ("paths", "_seen", "_edge_index")

    def __init__(self, csr: CSRGraph, model: FaultModel) -> None:
        self.paths: List[FrozenSet[int]] = []
        self._seen: set = set()
        self._edge_index = None if model.uses_vertex_mask else csr.edge_index

    def add(self, index_path: List[int]) -> None:
        edge_index = self._edge_index
        if edge_index is None:
            key = frozenset(index_path[1:-1])
        else:
            key = frozenset(edge_index[(a, b) if a < b else (b, a)]
                            for a, b in zip(index_path, index_path[1:]))
        if key not in self._seen:
            self._seen.add(key)
            self.paths.append(key)

    def spared(self, faulted: set) -> List[FrozenSet[int]]:
        """The pooled paths no element of ``faulted`` lies on."""
        return [path for path in self.paths if faulted.isdisjoint(path)]

    def decides(self, faulted: set, remaining: int) -> bool:
        """Whether every ``remaining``-extension of ``faulted`` stays within budget.

        True when the spared paths admit no hitting set of size
        ``<= remaining``: every extension misses a pooled path, which then
        keeps the forward distance ``<= budget``.  At a leaf that is "some
        pooled path is spared".
        """
        if not remaining:
            return any(faulted.isdisjoint(path) for path in self.paths)
        return not has_hitting_set(self.spared(faulted), remaining)


class TieredOracle(BranchAndBoundOracle):
    """Exact oracle with certified screens in front of the branch-and-bound search.

    Every query runs a pipeline of cheap *sound* screens; only the undecided
    margin pays for the exact search.  Each screen carries its own
    correctness certificate, so the decision — and, for accepts, the
    canonical witness — is byte-identical to :class:`BranchAndBoundOracle`:

    1. **Isolated endpoints** — an endpoint that is missing from the
       snapshot, or present with no incident arcs, has no ``u``–``v`` path
       at all: the exact search's root query would read ``inf`` and return
       ``model.canonical([])``, so the screen certifies that accept from
       the degree alone, with no sweep.
    2. **Root accept test** — is ``dist_H(u, v) > budget``?  Answered from
       a full SSSP vector (``sssp_dijkstra_csr``) cached across
       consecutive candidates sharing a source (the sorted-edges order the
       greedy driver feeds makes those runs common; the cache key is the
       snapshot object itself plus its edge count, so growing ``H`` or
       recompiling its snapshot invalidates it), else by one decision query
       (:meth:`_exceeds`).  If it exceeds, the exact search's very first
       bounded query would too and return ``model.canonical([])`` — the
       screen returns that same empty canonical witness.  Otherwise, with
       ``f = 0`` the exact search would reject; the screen rejects.
    3. **Disjoint short-path packing** — greedily pack element-disjoint
       ``u``–``v`` paths of length ``≤ budget``: each found path has its
       faultable elements masked before the next decision query, and the
       root test's path serves as the first.  ``f + 1`` such paths (or any
       one path with no faultable element) certify that every fault set of
       size ``≤ f`` leaves some short path intact, i.e. the exact search
       must answer ``None``.  Costs at most ``f + 1`` queries, against the
       exact search's ``O(L^f)``.  The packed paths stay readable as
       :attr:`packed_paths` until the next query: they remain a proof for
       as long as their edges stay in ``H`` no heavier, which is what
       :class:`~repro.dynamic.DynamicSpanner` keeps them for.

    A fallthrough runs the branch-and-bound search
    (:meth:`BranchAndBoundOracle._search`) with a per-query **path pool**
    (:class:`_PathPool`): every live short path the query has met — the
    root test's, packing's and each search node's decision-query path — as
    the set of its faultable mask indices.  A search node with current
    faults ``C`` and remaining budget ``r`` first asks the pool: if the
    pooled paths ``C`` spares admit no hitting set of size ``≤ r``
    (:func:`has_hitting_set`; at a leaf, if any pooled path survives), every
    extension ``F'`` with ``|F'| ≤ r`` misses a pooled path, which stays
    live in ``H \\ (C ∪ F')`` with left-to-right length ``≤ budget``; the
    forward kernel then reads ``≤ budget`` throughout the subtree, so the
    plain search's subtree answers ``None`` and the node returns ``None``
    with no kernel call.  Nodes the pool cannot decide run exactly as in
    the plain search: one decision query (:meth:`_exceeds`), then branch on
    its path.  Screens 2–3 ask the same query, so the root branches on the
    root test's path whenever the root test holds one.  The pool never
    decides the root: packing failed, so it holds at most ``f`` disjoint
    paths, which ``f`` elements hit.

    Outcomes land on the ``oracle.screen{outcome=}`` counter ("accept",
    "reject", "fallthrough"); fallthroughs also count ``oracle.exact``,
    band re-asks count ``oracle.band_fallbacks``, nodes the pool decides
    count ``oracle.pool_hits``, and the per-build hit rate feeds the
    ``oracle.screen_hit_rate`` histogram.
    """

    name = "tiered"
    exact = True

    def __init__(self, kernel: KernelLike = None) -> None:
        super().__init__(kernel)
        # Warm SSSP cache: (csr, num_edges, source index) -> distances.
        # One entry suffices — the greedy driver's candidate stream visits
        # sources in runs, and any accepted edge invalidates via num_edges.
        # The key holds the snapshot itself, not its id(): a weight
        # overwrite recompiles the snapshot, and the strong reference keeps
        # the old one's address from being recycled for the new one.
        self._sssp_key: Optional[Tuple] = None
        self._sssp_dist: Optional[List[float]] = None
        self._previous_key: Optional[Tuple] = None
        # Reusable packing mask (MaskBuffer discipline: writes are tracked
        # and cleared, so masking costs O(elements), not O(n)).
        self._scratch: Optional[bytearray] = None

    def find_breaking_fault_set_csr(self, csr: CSRGraph, source: Node,
                                    target: Node, budget: float,
                                    max_faults: int,
                                    fault_model: "str | FaultModel") -> Optional[FaultSet]:
        model = get_fault_model(fault_model)
        self.stats.count_query()
        self.packed_paths = None
        s = csr.index_of.get(source)
        t = csr.index_of.get(target)
        if s is None or t is None or not csr.degree(s) or not csr.degree(t):
            # An endpoint unknown to the snapshot or isolated in it has no
            # u–v path at all: the exact search's root query would read
            # dist = inf > budget and accept with the empty canonical
            # witness.  Certifying that accept from the degree alone skips
            # the sweep *and* — on graphs where most candidates attach a new
            # leaf node, the dominant shape at datacenter scale — lets the
            # snapshot's overflow arcs pile up across a whole run of such
            # accepts instead of forcing one compaction per accepted edge.
            self.stats.count_screen("accept")
            return model.canonical([])
        exceeded, root_path = self._root_query(csr, s, t, budget)
        if exceeded:
            # Certified accept: the exact search's unfaulted root query sees
            # the same verdict and returns the empty canonical witness.
            self.stats.count_screen("accept")
            return model.canonical([])
        if max_faults == 0:
            # Root distance within budget with no fault budget left: the
            # exact search answers None from its root.
            self.stats.count_screen("reject")
            return None
        pool = _PathPool(csr, model)
        if self._packs_disjoint_paths(csr, source, target, s, t, budget,
                                      max_faults, model, pool, root_path):
            # f+1 element-disjoint short paths (or one unfaultable path):
            # every fault set of size <= f leaves a short path intact, so
            # the exact search must reject.
            self.stats.count_screen("reject")
            return None
        self.stats.count_screen("fallthrough")
        self.stats.count_exact()
        # The root test asked the root node's decision query (an all-zero
        # mask reads as no mask), so the root branches on its path; after a
        # warm-cache read there is none, and the root asks for itself.
        found = self._search(csr, source, target, s, t, budget, max_faults,
                             model, [], model.new_mask(csr), pool, root_path)
        return model.canonical(found) if found is not None else None

    def _root_query(self, csr: CSRGraph, s: int, t: int,
                    budget: float) -> Tuple[bool, Optional[List[int]]]:
        """``(dist_H(u, v) > budget, short index path or None)``, warm-started.

        Consecutive candidates sharing a source are common (``sorted_edges``
        tie-breaks cluster them within weight classes): the second same-source
        query against an unchanged snapshot computes one *full* SSSP vector
        and every later one reads ``dist[t]`` for free.  The vector must be
        cutoff-free — a budget-bounded vector would read ``inf`` for
        reachable nodes past the cutoff and wrongly certify accepts for later
        candidates with larger budgets.  Any accepted edge invalidates the
        cache through the ``num_edges`` component of the key, and a
        recompiled snapshot through its (strongly held) object.  Vector reads
        return no path; the first candidate of a run asks :meth:`_exceeds`,
        whose path seeds the packing screen and the exact search's root.
        """
        key = (csr, csr.num_edges, s)
        if self._sssp_key == key and self._sssp_dist is not None:
            return self._sssp_dist[t] > budget, None
        backend = self.kernels.resolve(csr)
        if self._previous_key == key:
            self.stats.count_distance_query()
            dist, _ = backend.sssp_dijkstra_csr(csr, s, None, None, None)
            self._sssp_key = key
            self._sssp_dist = dist
            return dist[t] > budget, None
        self._previous_key = key
        return self._exceeds(backend, csr, s, t, budget, None, None)

    def _scratch_mask(self, csr: CSRGraph, model: FaultModel) -> bytearray:
        width = csr.num_nodes if model.uses_vertex_mask else csr.num_edges
        if self._scratch is None or len(self._scratch) != width:
            self._scratch = model.new_mask(csr)
        return self._scratch

    def _packs_disjoint_paths(self, csr: CSRGraph, source: Node, target: Node,
                              s: int, t: int, budget: float, max_faults: int,
                              model: FaultModel, pool: _PathPool,
                              root_path: Optional[List[int]] = None) -> bool:
        """Certify a reject by packing ``max_faults + 1`` disjoint short paths.

        Greedy packing, not max-flow: a ``True`` answer is a sound
        certificate (some short path survives every fault set of size
        ``≤ max_faults``), a ``False`` answer only sends the query on to the
        exact search.  Every packed path comes from :meth:`_exceeds`, so
        its left-to-right length is ``<= budget``: the forward kernel finds
        it short under every fault set that spares it.  ``root_path``, when
        the caller holds one, serves as the first packed path for free (the
        mask starts empty, so the first query would repeat the root's).
        Every packed path joins ``pool``; on ``True`` the packed paths
        themselves (not copies) become :attr:`packed_paths`, the reject's
        evidence.
        """
        backend = self.kernels.resolve(csr)
        mask = self._scratch_mask(csr, model)
        vertex_mask, edge_mask = model.kernel_masks(mask)
        node_of = csr.node_of
        set_indices: List[int] = []
        packed: List[List[int]] = []
        index_path = root_path
        try:
            for count in range(max_faults + 1):
                if index_path is None:
                    exceeded, index_path = self._exceeds(
                        backend, csr, s, t, budget, vertex_mask, edge_mask)
                    if exceeded:
                        return False
                pool.add(index_path)
                packed.append(index_path)
                path = [node_of[index] for index in index_path]
                elements = self._path_elements(path, source, target, model)
                if not elements:
                    # A short path with nothing to fault survives every
                    # fault set outright.
                    break
                if count < max_faults:
                    indices = model.mask_indices(csr, elements)
                    for index in indices:
                        mask[index] = 1
                    set_indices.extend(indices)
                index_path = None
            self.packed_paths = (csr, packed)
            return True
        finally:
            for index in set_indices:
                mask[index] = 0


class GreedyPathPackingOracle(FaultCheckOracle):
    """Polynomial heuristic: greedily hit the current shortest short path.

    Repeats at most ``f`` times: find the shortest ``source``–``target`` path
    of length ``≤ budget`` in the currently-faulted graph; fault its most
    central element (the middle internal vertex / middle edge).  If after at
    most ``f`` rounds the distance exceeds the budget, the accumulated fault
    set is returned (and is a genuine witness).  Otherwise ``None`` is
    returned, which may be a false negative.

    Spanners built with this oracle are therefore *heuristic* FT spanners:
    still valid k-spanners in the fault-free sense, but possibly missing edges
    needed for full fault tolerance.  Experiment E8 quantifies the
    speed/quality trade-off against the exact oracles.
    """

    name = "greedy-path-packing"
    exact = False

    def find_breaking_fault_set_csr(self, csr: CSRGraph, source: Node,
                                    target: Node, budget: float,
                                    max_faults: int,
                                    fault_model: "str | FaultModel") -> Optional[FaultSet]:
        model = get_fault_model(fault_model)
        self.stats.count_query()
        s = csr.index_of.get(source)
        t = csr.index_of.get(target)
        mask = model.new_mask(csr)
        vertex_mask, edge_mask = model.kernel_masks(mask)
        node_of = csr.node_of
        chosen: List = []
        for _ in range(max_faults + 1):
            self.stats.count_distance_query()
            if s is None or t is None:
                return model.canonical(chosen)
            distance, index_path = self.kernels.resolve(csr).bounded_dijkstra_path_csr(
                csr, s, t, budget, vertex_mask, edge_mask)
            if distance > budget:
                return model.canonical(chosen)
            if len(chosen) >= max_faults:
                return None
            path = [node_of[index] for index in index_path]
            elements = BranchAndBoundOracle._path_elements(path, source, target, model)
            if not elements:
                # The short path has no faultable element (e.g. a direct edge
                # under vertex faults): no fault set can break this pair.
                return None
            element = elements[len(elements) // 2]
            chosen.append(element)
            mask[model.mask_indices(csr, (element,))[0]] = 1
        return None


#: The oracle behind ``oracle=None`` and the ``exact`` alias: byte-identical
#: to :class:`BranchAndBoundOracle`, and faster.
DEFAULT_ORACLE = TieredOracle

_ORACLES = {
    "exhaustive": ExhaustiveOracle,
    "branch-and-bound": BranchAndBoundOracle,
    "bnb": BranchAndBoundOracle,
    "exact": DEFAULT_ORACLE,
    "greedy-path-packing": GreedyPathPackingOracle,
    "heuristic": GreedyPathPackingOracle,
    "tiered": TieredOracle,
}


def available_oracles() -> List[str]:
    """Sorted names (including aliases) accepted by :func:`get_oracle`."""
    return sorted(_ORACLES)


def _oracle_class(name: "str | None") -> type:
    """The oracle class a name or alias denotes; ``None`` is the default."""
    if name is None:
        return DEFAULT_ORACLE
    if isinstance(name, str) and name.lower() in _ORACLES:
        return _ORACLES[name.lower()]
    raise ValueError(
        f"unknown oracle {name!r}; available: {available_oracles()}")


def oracle_name(name: "str | FaultCheckOracle | None") -> str:
    """Resolve a name, alias, or instance to its canonical oracle name."""
    if isinstance(name, FaultCheckOracle):
        return name.name
    return _oracle_class(name).name


def describe_oracles() -> List[dict]:
    """One row per canonical oracle: name, exactness, and accepted aliases."""
    rows = []
    for cls in sorted({cls for cls in _ORACLES.values()},
                      key=lambda cls: cls.name):
        aliases = sorted(alias for alias, target in _ORACLES.items()
                         if target is cls and alias != cls.name)
        rows.append({"name": cls.name, "exact": cls.exact, "aliases": aliases})
    return rows


def get_oracle(name: "str | FaultCheckOracle | None",
               kernel: KernelLike = None) -> FaultCheckOracle:
    """Resolve an oracle by name; ``None`` gives the default exact oracle.

    Already-constructed oracle instances pass through unchanged (``kernel``
    is ignored for them).  For names, ``kernel`` picks the kernel backend
    the oracle's CSR distance queries run on.
    """
    if isinstance(name, FaultCheckOracle):
        return name
    return _oracle_class(name)(kernel)
