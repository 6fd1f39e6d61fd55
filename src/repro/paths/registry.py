"""Kernel backend registry: named, swappable implementations of the CSR kernels.

Mirrors the execution-backend registry in :mod:`repro.runtime.backend`: each
backend is a named bundle of the CSR kernel callables, consumers resolve
one by name (or take the default), and unknown names fail loudly with the
list of registered names.  Two backends ship:

``loop``
    The pure-Python reference kernels from :mod:`repro.paths.kernels`.
    Always available; the semantics baseline.

``numpy``
    The vectorized twins from :mod:`repro.paths.kernels_np`, byte-identical
    to ``loop`` on every output (distances, witness paths, visit orders,
    early exits) but doing per-frontier work in array operations.  Registered
    only when numpy imports; resolving it without numpy raises
    ``RuntimeError`` with the import failure.

Every backend carries the decision kernel ``bidirectional_bounded_path``,
and both shipped ones carry the same one: the loop
:func:`~repro.paths.kernels.bidirectional_bounded_path_csr`, which reads
the same snapshot.  It has no twin rule (its tied paths are its own
choice), so one implementation is what keeps the exact oracles, which
branch on its path, returning the same witnesses on every backend.
``loop`` also carries ``multi_target_tree`` (a multi-target search that
also returns its shortest-path tree), with no numpy twin.  The optional
fields are ``None`` on ``auto``; consumers call them on the backend
:meth:`KernelBackend.resolve` returns and fall back without them (to
per-query calls, and to searching every verification source).  numpy's
multi-source kernels have one consumer, the serving runner
:func:`repro.engine.batch.run_groups`.

The default is ``auto``, a dispatching backend with two resolutions:

* :meth:`KernelBackend.resolve` (oracles, verification, builds, repairs)
  picks ``numpy`` for CSR snapshots with at least
  :data:`AUTO_NODE_THRESHOLD` nodes (where the array sweep wins
  decisively) and ``loop`` below it (where Python loop overhead is lower
  than numpy's per-call setup);
* :meth:`KernelBackend.resolve_serving` (``run_groups`` only) picks per
  serving call kind — full distance vectors or early-exit runs, fused or
  single-group — from :data:`SERVING_NODE_THRESHOLDS`, the measured
  serving crossover.

``REPRO_KERNEL`` in the environment overrides the default; an explicit
``kernel=`` argument beats both.

Every resolution counts one selection on the process metrics registry
(``kernels.dispatch{backend="loop"|"numpy"}``), so ``repro-spanner stats``
shows which implementation actually served a run — in particular how often
the ``auto`` gates went each way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.graph.csr import CSRGraph
from repro.obs.metrics import Counter, get_registry
from repro.paths import kernels as _loop

#: Node count at which the ``auto`` backend switches from loop to numpy
#: kernels.  Below it the numpy per-call setup overhead dominates.
AUTO_NODE_THRESHOLD = 100_000

#: The serving crossover: per call kind of
#: :func:`repro.engine.batch.run_groups`, the node count from which ``auto``
#: serves it with numpy (fused or single-group).  ``"full"`` is full masked
#: distance vectors (the cacheable form), ``"early_exit"`` runs that stop
#: once their targets settle.  Read off the ``serving_crossover`` table of
#: ``BENCH_kernels.json`` (``benchmarks/bench_kernels.py`` writes it: ms per
#: call on G(n, 3n) k=3 f=1 spanners, numpy against loop, for groups of
#: 1/2/4/8).  Fused plans of >= 2 groups win from 100-500 nodes (full) and
#: 200-500 (early exit), sooner the more groups they hold; single groups
#: lose at 200 on both kinds, win from 500 (full) and are even at 500,
#: winning from 1,000 (early exit).  One cut of
#: 500 serves both kinds, and keeps 200-node daemons on loop.  Decision
#: queries, which numpy loses up to about 1,000 nodes, are not served here
#: and keep :data:`AUTO_NODE_THRESHOLD`.
SERVING_NODE_THRESHOLDS: Dict[str, int] = {"full": 500, "early_exit": 500}

#: Environment variable consulted when no explicit kernel is requested.
KERNEL_ENV_VAR = "REPRO_KERNEL"

_DISPATCH = get_registry().counter(
    "kernels.dispatch", "kernel backend selections, by resolved backend")
_DISPATCH_CHILDREN: Dict[str, Counter] = {}


def _count_dispatch(name: str) -> None:
    # resolve() runs on per-call hot paths; cache the labeled children so a
    # selection costs one dict probe and one counter bump.
    child = _DISPATCH_CHILDREN.get(name)
    if child is None:
        child = _DISPATCH_CHILDREN[name] = _DISPATCH.labels(backend=name)
    child.inc()


@dataclass(frozen=True)
class KernelBackend:
    """A named bundle of CSR kernel callables.

    The seven required kernels share signatures with their reference
    definitions in :mod:`repro.paths.kernels`; ``bidirectional_bounded_path``
    is the exact oracles' decision kernel
    (:func:`repro.paths.kernels.bidirectional_bounded_path_csr`).  The
    optional entry points are ``None`` when a backend has no
    implementation: consumers fall back to per-query calls of the batched
    ones, and to unmemoised verification sweeps without
    ``multi_target_tree`` (:func:`repro.paths.kernels.multi_target_tree_csr`,
    ``loop`` only).
    """

    name: str
    description: str
    bounded_dijkstra_csr: Callable
    bounded_dijkstra_path_csr: Callable
    sssp_dijkstra_csr: Callable
    multi_target_dijkstra_csr: Callable
    bfs_distances_csr: Callable
    bounded_bfs_csr: Callable
    bidirectional_bounded_path: Callable
    multi_source_sssp: Optional[Callable] = None
    multi_source_multi_target: Optional[Callable] = None
    multi_target_tree: Optional[Callable] = None

    def resolve(self, csr: CSRGraph) -> "KernelBackend":
        """The concrete backend serving ``csr`` (identity for real backends)."""
        _count_dispatch(self.name)
        return self

    def resolve_serving(self, csr: CSRGraph, call: str) -> "KernelBackend":
        """The concrete backend answering one serving ``call`` on ``csr``.

        ``call`` is a :data:`SERVING_NODE_THRESHOLDS` key; only
        :func:`repro.engine.batch.run_groups` asks.  :meth:`resolve` for
        real backends.
        """
        return self.resolve(csr)


class _AutoKernelBackend(KernelBackend):
    """Size-gated dispatcher: numpy at scale, loop below the threshold."""

    @staticmethod
    def _pick(num_nodes: int, threshold: int) -> KernelBackend:
        if "numpy" in _REGISTRY and num_nodes >= threshold:
            chosen = _REGISTRY["numpy"]
        else:
            chosen = _REGISTRY["loop"]
        _count_dispatch(chosen.name)
        return chosen

    def resolve(self, csr: CSRGraph) -> KernelBackend:
        return self._pick(csr.num_nodes, AUTO_NODE_THRESHOLD)

    def resolve_serving(self, csr: CSRGraph, call: str) -> KernelBackend:
        return self._pick(csr.num_nodes, SERVING_NODE_THRESHOLDS[call])


KernelLike = Union[None, str, KernelBackend]

_REGISTRY: Dict[str, KernelBackend] = {}
#: Backends that exist by name but cannot be constructed here, mapped to the
#: human-readable reason (e.g. numpy missing).  Requesting one raises
#: ``RuntimeError`` instead of the unknown-name ``ValueError``.
_UNAVAILABLE: Dict[str, str] = {}


def register_kernel_backend(backend: KernelBackend) -> None:
    """Register ``backend`` under its name, replacing any previous holder."""
    _REGISTRY[backend.name] = backend
    _UNAVAILABLE.pop(backend.name, None)


def kernel_backend_names() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def describe_kernel_backends() -> List[dict]:
    """Name/description/availability rows for every known backend."""
    rows = [
        {"name": name, "description": _REGISTRY[name].description,
         "available": True}
        for name in sorted(_REGISTRY)
    ]
    rows.extend(
        {"name": name, "description": reason, "available": False}
        for name, reason in sorted(_UNAVAILABLE.items())
    )
    return rows


def get_kernels(kernel: KernelLike = None) -> KernelBackend:
    """Resolve a kernel spec to a backend.

    ``None`` consults :data:`KERNEL_ENV_VAR` and falls back to ``auto``;
    a string is looked up in the registry; a :class:`KernelBackend` passes
    through.  Unknown names raise ``ValueError`` listing the registry;
    known-but-unavailable names raise ``RuntimeError`` with the reason.
    """
    if isinstance(kernel, KernelBackend):
        return kernel
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV_VAR) or "auto"
    try:
        return _REGISTRY[kernel]
    except KeyError:
        if kernel in _UNAVAILABLE:
            raise RuntimeError(
                f"kernel backend {kernel!r} is not available: "
                f"{_UNAVAILABLE[kernel]}"
            ) from None
        raise ValueError(
            f"unknown kernel backend {kernel!r}; registered: "
            f"{', '.join(kernel_backend_names())}"
        ) from None


register_kernel_backend(KernelBackend(
    name="loop",
    description="pure-Python reference kernels (always available)",
    bounded_dijkstra_csr=_loop.bounded_dijkstra_csr,
    bounded_dijkstra_path_csr=_loop.bounded_dijkstra_path_csr,
    sssp_dijkstra_csr=_loop.sssp_dijkstra_csr,
    multi_target_dijkstra_csr=_loop.multi_target_dijkstra_csr,
    bfs_distances_csr=_loop.bfs_distances_csr,
    bounded_bfs_csr=_loop.bounded_bfs_csr,
    bidirectional_bounded_path=_loop.bidirectional_bounded_path_csr,
    multi_target_tree=_loop.multi_target_tree_csr,
))

try:
    from repro.paths import kernels_np as _np_kernels
except ImportError as exc:  # pragma: no cover - exercised only without numpy
    _UNAVAILABLE["numpy"] = f"numpy import failed ({exc})"
else:
    register_kernel_backend(KernelBackend(
        name="numpy",
        description="vectorized array kernels (requires numpy)",
        bounded_dijkstra_csr=_np_kernels.bounded_dijkstra_csr,
        bounded_dijkstra_path_csr=_np_kernels.bounded_dijkstra_path_csr,
        sssp_dijkstra_csr=_np_kernels.sssp_dijkstra_csr,
        multi_target_dijkstra_csr=_np_kernels.multi_target_dijkstra_csr,
        bfs_distances_csr=_np_kernels.bfs_distances_csr,
        bounded_bfs_csr=_np_kernels.bounded_bfs_csr,
        multi_source_sssp=_np_kernels.multi_source_sssp_csr,
        multi_source_multi_target=_np_kernels.multi_source_multi_target_csr,
        bidirectional_bounded_path=_loop.bidirectional_bounded_path_csr,
    ))

def _auto_dispatch(kernel_name: str) -> Callable:
    # Per-call dispatch so even consumers that skip resolve() get the gate.
    def call(csr: CSRGraph, *args, **kwargs):
        backend = _REGISTRY["auto"].resolve(csr)
        return getattr(backend, kernel_name)(csr, *args, **kwargs)
    call.__name__ = kernel_name
    return call


_REGISTRY["auto"] = _AutoKernelBackend(
    name="auto",
    description=(
        f"numpy kernels at >= {AUTO_NODE_THRESHOLD} nodes when available "
        f"(serving: >= {min(SERVING_NODE_THRESHOLDS.values())}), "
        "loop kernels otherwise"
    ),
    bounded_dijkstra_csr=_auto_dispatch("bounded_dijkstra_csr"),
    bounded_dijkstra_path_csr=_auto_dispatch("bounded_dijkstra_path_csr"),
    sssp_dijkstra_csr=_auto_dispatch("sssp_dijkstra_csr"),
    multi_target_dijkstra_csr=_auto_dispatch("multi_target_dijkstra_csr"),
    bfs_distances_csr=_auto_dispatch("bfs_distances_csr"),
    bounded_bfs_csr=_auto_dispatch("bounded_bfs_csr"),
    bidirectional_bounded_path=_auto_dispatch("bidirectional_bounded_path"),
)
