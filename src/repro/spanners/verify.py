"""Spanner and fault-tolerant-spanner verification.

These routines are the library's notion of ground truth: every construction
and every experiment ultimately defends itself by passing them.

* :func:`stretch_of` — worst multiplicative stretch of a subgraph (no faults).
* :func:`is_spanner` — Definition 1.
* :func:`is_ft_spanner` — Definition 2, checked either exhaustively over all
  fault sets of size ``≤ f`` (exponential, exact — used on small instances)
  or over a random sample of fault sets (one-sided: can only refute).

Both the fault-set sweep of :func:`is_ft_spanner` and the source-vertex
sweep of :func:`stretch_of` shard through :mod:`repro.runtime`: pass
``workers``/``backend`` to fan the work out over a process pool.  Parallel
runs are **bit-identical** to serial ones — same verdict, same worst
stretch, same witness fault set, and the same ``fault_sets_checked`` counter
(chunks are contiguous slices of the serial enumeration order, merged in
order; chunks speculatively executed past the first violation are discarded,
so the counter always means "the serial prefix up to the stopping point",
never "work performed").  ``tests/test_runtime.py`` enforces the identity
property-style for both fault models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.faults.adversarial import SourceTrees, source_trees, stretch_between_csr
from repro.faults.enumeration import count_fault_sets, enumerate_fault_sets, sample_fault_sets
from repro.faults.models import FaultModel, FaultSet, get_fault_model
from repro.graph.core import Graph, Node
from repro.graph.csr import CSRGraph, csr_snapshot
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.paths.registry import KernelLike, get_kernels
from repro.runtime.backend import BackendLike, get_backend
from repro.runtime.merge import ChunkVerdict, merge_verdicts
from repro.runtime.shard import chunk_size_for, iter_chunks, split_sequence

#: Relative slack on every stretch comparison, absorbing float noise in the
#: distance sums.  The CLI reuses this so its verdicts match the library's.
STRETCH_TOLERANCE = 1e-9

_RELATIVE_TOLERANCE = STRETCH_TOLERANCE

# Verification counters on the process registry.  ``fault_sets_checked``
# counts the serial prefix (the merge rule above), so serial and parallel
# runs report identical values — property-tested in ``tests/test_obs.py``.
_VERIFY_RUNS = get_registry().counter(
    "verify.runs", "is_ft_spanner verification runs")
_VERIFY_CHECKED = get_registry().counter(
    "verify.fault_sets_checked", "fault sets checked across verifications")
_VERIFY_VIOLATIONS = get_registry().counter(
    "verify.violations", "verifications that found a violating fault set")


@dataclass(frozen=True)
class _SweepContext:
    """Picklable payload for the sharded per-source stretch sweep."""

    csr_g: CSRGraph
    csr_h: CSRGraph
    #: ``None`` means "all targets"; otherwise source -> allowed target set.
    restrict: Optional[Dict[Node, frozenset]]
    kernel: Optional[str] = None


def _sweep_chunk(ctx: _SweepContext, sources: List[Node]) -> float:
    """Worst stretch over one chunk of source vertices (no faults).

    Delegates to :func:`stretch_between_csr` with an empty fault set so the
    per-source scan lives in exactly one place; an all-zero mask gates
    nothing, so the floats match the unmasked kernels bit-for-bit.
    """
    return stretch_between_csr(ctx.csr_g, ctx.csr_h, get_fault_model("vertex"),
                               [], sources=sources, restrict=ctx.restrict,
                               kernel=ctx.kernel)


def stretch_of(original: Graph, subgraph: Graph,
               pairs: Optional[List[Tuple[Node, Node]]] = None,
               *, workers: int = 1, backend: BackendLike = None,
               kernel: KernelLike = None) -> float:
    """Worst stretch ``dist_H(s, t) / dist_G(s, t)`` over pairs connected in ``G``.

    Returns ``inf`` if some pair connected in ``original`` is disconnected in
    ``subgraph`` and ``1.0`` for graphs with fewer than two nodes.  Without
    ``pairs`` the maximum is taken over the edges of ``original`` instead,
    ``dist_H(u, v) / w(u, v)``: every shortest path of ``G`` is made of
    edges, so this is the same maximum up to float rounding, at one early-
    exit search in ``H`` per source and none in ``G``.  The per-source sweep
    shards across ``workers`` (the merge is a plain maximum, so parallel
    results are bit-identical to serial).  Both graphs must be
    :class:`Graph` instances (views raise ``TypeError``).
    """
    csr_g, csr_h = csr_snapshot(original), csr_snapshot(subgraph)
    sources: Iterable[Node]
    restrict = None
    if pairs is not None:
        restrict = {}
        for u, v in pairs:
            restrict.setdefault(u, set()).add(v)
        sources = list(restrict)
    else:
        sources = list(original.nodes())

    # Per-source sweep over the cached CSR snapshots (per edge without
    # ``pairs``, per pair with them) — no per-source dicts.
    for source in sources:
        if not original.has_node(source):
            raise ValueError(f"source {source!r} not in graph")
    resolved = get_backend(backend, workers)
    context = _SweepContext(
        csr_g=csr_g, csr_h=csr_h,
        restrict=(None if restrict is None else
                  {node: frozenset(targets)
                   for node, targets in restrict.items()}),
        kernel=get_kernels(kernel).name,
    )
    worst = 1.0
    for chunk_worst in resolved.map(_sweep_chunk,
                                    split_sequence(sources, resolved.workers),
                                    context=context,
                                    metrics=get_registry()):
        if chunk_worst > worst:
            worst = chunk_worst
    return worst


def is_spanner(original: Graph, subgraph: Graph, stretch: float,
               *, workers: int = 1, backend: BackendLike = None,
               kernel: KernelLike = None) -> bool:
    """Definition 1: whether ``subgraph`` is a ``stretch``-spanner of ``original``."""
    return (stretch_of(original, subgraph, workers=workers, backend=backend,
                       kernel=kernel)
            <= stretch * (1.0 + _RELATIVE_TOLERANCE))


@dataclass
class FTVerificationReport:
    """Outcome of a fault-tolerant spanner verification run.

    ``ok`` is the verdict over the fault sets actually checked; ``exhaustive``
    records whether that was all of them.  When a violation is found the
    offending fault set and its stretch are reported so experiments can show
    concrete counterexamples for the non-FT baselines.
    """

    ok: bool
    stretch_required: float
    worst_stretch: float
    fault_model: str
    max_faults: int
    fault_sets_checked: int
    exhaustive: bool
    violating_fault_set: Optional[FaultSet] = None
    notes: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


@dataclass(frozen=True)
class _VerifyContext:
    """Picklable payload shipped once per worker for fault-set checking."""

    csr_g: CSRGraph
    csr_h: CSRGraph
    fault_model: str
    threshold: float
    kernel: Optional[str] = None
    #: Built once by the caller (:func:`source_trees`); workers never rebuild it.
    memo: Optional[SourceTrees] = None


def _verify_chunk(ctx: _VerifyContext, chunk: List) -> ChunkVerdict:
    """Check one chunk of fault sets, stopping at its first violation.

    The exact twin of the serial loop restricted to the chunk: scan in
    order, track the running maximum, stop the moment the threshold is
    exceeded.
    """
    model = get_fault_model(ctx.fault_model)
    worst = 1.0
    checked = 0
    for faults in chunk:
        checked += 1
        value = stretch_between_csr(ctx.csr_g, ctx.csr_h, model, list(faults),
                                    memo=ctx.memo, kernel=ctx.kernel)
        if value > worst:
            worst = value
        if value > ctx.threshold:
            return ChunkVerdict(checked=checked, worst=worst,
                                witness=model.canonical(faults),
                                witness_value=value)
    return ChunkVerdict(checked=checked, worst=worst)


def is_ft_spanner(original: Graph, subgraph: Graph, stretch: float, max_faults: int,
                  fault_model: "str | FaultModel" = "vertex",
                  *, method: str = "auto", samples: int = 200, rng=None,
                  exhaustive_limit: int = 50_000,
                  workers: int = 1,
                  backend: BackendLike = None,
                  kernel: KernelLike = None) -> FTVerificationReport:
    """Definition 2: verify that ``subgraph`` is an ``f``-fault-tolerant spanner.

    Parameters
    ----------
    method:
        ``"exhaustive"`` checks every fault set of size ``≤ max_faults`` —
        exact but exponential; ``"sampled"`` checks ``samples`` random fault
        sets — can only refute, never fully confirm; ``"auto"`` picks
        exhaustive when the number of fault sets is at most
        ``exhaustive_limit``.
    workers / backend:
        Shard the fault-set sweep through :func:`repro.runtime.get_backend`.
        The report is bit-identical to a serial run (see the module
        docstring for the counter-merge rule); a found violation cancels the
        chunks enumerated after it.

    Notes
    -----
    Each fault set is checked per edge (see
    :func:`~repro.faults.adversarial.stretch_between_csr`): ``H \\ F`` is a
    ``k``-spanner of ``G \\ F`` iff every edge ``(u, v)`` of ``G \\ F`` has
    ``d_{H\\F}(u, v) <= k * w(u, v)``.  This is why the sampled mode draws
    fault sets of size exactly ``max_faults`` only: an edge that violates
    under ``F`` still violates under any ``F' ⊇ F`` with ``|F'| <= f`` that
    spares ``u``, ``v`` and the edge ``(u, v)`` itself, because removing
    more of ``H`` never shortens a path (``d_{H\\F'} >= d_{H\\F}``) while
    ``w(u, v)`` stays put.  So a violation found by a small fault set is
    also found by its full-size supersets that spare the violated edge.
    The exhaustive mode still enumerates every size, as Definition 2
    quantifies over ``|F| <= f``.  Both graphs must be :class:`Graph`
    instances (views raise ``TypeError``).

    Before the sweep, the calling process builds the verify memo
    (:func:`~repro.faults.adversarial.source_trees`: one search per source
    in the unfaulted ``H``, cached on ``H``'s snapshot) and ships it to
    every chunk, so a fault set re-searches only the sources whose
    recorded shortest paths it removes an element from.  That is exact,
    not an approximation: the kernels' labels are minima of left-to-right
    float sums, ``fl(a + w)`` is monotone, and removing elements only
    removes paths, so a fault set that spares a recorded path leaves its
    distance unchanged to the last bit.  The report is identical to
    searching every source; without the tree kernel (numpy) every source
    is searched.
    """
    if stretch < 1:
        raise ValueError("stretch must be at least 1")
    if max_faults < 0:
        raise ValueError("max_faults must be non-negative")
    csr_g, csr_h = csr_snapshot(original), csr_snapshot(subgraph)
    model = get_fault_model(fault_model)
    elements = model.all_elements(original)
    total_sets = count_fault_sets(len(elements), max_faults)

    if method == "auto":
        method = "exhaustive" if total_sets <= exhaustive_limit else "sampled"
    if method not in ("exhaustive", "sampled"):
        raise ValueError("method must be 'auto', 'exhaustive', or 'sampled'")

    if method == "exhaustive":
        candidates: Iterable = enumerate_fault_sets(elements, max_faults)
        total = total_sets
        exhaustive = True
    else:
        candidates = sample_fault_sets(original, model, max_faults, samples, rng=rng)
        total = len(candidates)
        exhaustive = False

    threshold = stretch * (1.0 + _RELATIVE_TOLERANCE)

    _VERIFY_RUNS.inc()
    with get_tracer().span("verify.is_ft_spanner", method=method,
                           max_faults=max_faults, workers=workers) as span:
        resolved = get_backend(backend, workers)
        context = _VerifyContext(csr_g=csr_g, csr_h=csr_h,
                                 fault_model=model.name, threshold=threshold,
                                 kernel=get_kernels(kernel).name,
                                 memo=source_trees(csr_g, csr_h, model, kernel))
        chunks = iter_chunks(candidates,
                             chunk_size_for(total, resolved.workers))
        verdict = merge_verdicts(
            resolved.imap(_verify_chunk, chunks, context=context,
                          metrics=get_registry()))
        worst, checked = verdict.worst, verdict.checked
        violating = verdict.witness
        _VERIFY_CHECKED.inc(checked)
        if violating is not None:
            _VERIFY_VIOLATIONS.inc()
        span.set(checked=checked, ok=violating is None)

    if violating is not None:
        return FTVerificationReport(
            ok=False,
            stretch_required=stretch,
            worst_stretch=worst,
            fault_model=model.name,
            max_faults=max_faults,
            fault_sets_checked=checked,
            exhaustive=exhaustive,
            violating_fault_set=violating,
            notes="found a fault set exceeding the required stretch",
        )
    return FTVerificationReport(
        ok=True,
        stretch_required=stretch,
        worst_stretch=worst,
        fault_model=model.name,
        max_faults=max_faults,
        fault_sets_checked=checked,
        exhaustive=exhaustive,
        notes="all checked fault sets respected the stretch"
              + ("" if exhaustive else " (sampled check only)"),
    )
