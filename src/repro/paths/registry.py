"""Kernel backend registry: named, swappable implementations of the CSR kernels.

Mirrors the execution-backend registry in :mod:`repro.runtime.backend`: each
backend is a named bundle of the CSR kernel callables, consumers resolve
one by name (or take the default), and unknown names fail loudly with the
list of registered names.  Two backends ship:

``loop``
    The pure-Python kernels from :mod:`repro.paths.kernels`.  Always
    available; the semantics baseline, and the implementation of every
    call no other backend overrides.

``numpy``
    ``loop`` with the four calls that array sweeps win replaced by their
    :mod:`repro.paths.kernels_np` versions: full single-source sweeps
    (``sssp_dijkstra_csr``), early-exit sweeps
    (``multi_target_dijkstra_csr``) and their fused multi-source forms
    (``multi_source_sssp``, ``multi_source_multi_target``, which ``loop``
    lacks).  Each returns values bit-identical to the loop kernel it
    replaces.  Every other call *is* the loop function, so the exact
    oracles' decision kernel, the verify memo's tree kernel and the
    bounded and BFS kernels answer the same on both backends by
    construction.  Registered only when numpy imports; resolving it
    without numpy raises ``RuntimeError`` with the import failure.

The multi-source entry points are ``None`` on ``loop`` and ``auto``; their
one consumer, the serving runner :func:`repro.engine.batch.run_groups`,
runs one kernel per group without them.

The default is ``auto``, a dispatching backend with two resolutions:

* :meth:`KernelBackend.resolve` (oracles, verification, builds, repairs)
  picks ``numpy`` for CSR snapshots with at least
  :data:`AUTO_NODE_THRESHOLD` nodes (where the array sweep wins
  decisively) and ``loop`` below it (where Python loop overhead is lower
  than numpy's per-call setup);
* :meth:`KernelBackend.resolve_serving` (``run_groups`` only) picks
  ``numpy`` from :data:`SERVING_NODE_THRESHOLD` nodes, the measured
  serving crossover, and ``loop`` below it.

``REPRO_KERNEL`` in the environment overrides the default; an explicit
``kernel=`` argument beats both.

Every resolution counts one selection on the process metrics registry
(``kernels.dispatch{backend="loop"|"numpy"}``), so ``repro-spanner stats``
shows which implementation actually served a run — in particular how often
the ``auto`` gates went each way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Union

from repro.graph.csr import CSRGraph
from repro.obs.metrics import Counter, get_registry
from repro.paths import kernels as _loop

#: Node count at which the ``auto`` backend switches from loop to numpy
#: kernels.  Below it the numpy per-call setup overhead dominates.
AUTO_NODE_THRESHOLD = 100_000

#: The serving crossover: the node count from which ``auto`` serves the
#: calls of :func:`repro.engine.batch.run_groups` (full masked distance
#: vectors and early-exit runs, fused or single-group) with numpy.  Read off
#: the ``serving_crossover`` table of ``BENCH_kernels.json``
#: (``benchmarks/bench_kernels.py`` writes it: ms per call on G(n, 3n) k=3
#: f=1 spanners, numpy against loop, for groups of 1/2/4/8).  Fused plans of
#: >= 2 groups win from 100-500 nodes, sooner the more groups they hold;
#: single groups lose at 200 on both kinds, win from 500 (full) and are even
#: at 500, winning from 1,000 (early exit).  One cut of 500 serves both
#: kinds, and keeps 200-node daemons on loop.
SERVING_NODE_THRESHOLD = 500

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

    The eight required kernels share signatures with their definitions in
    :mod:`repro.paths.kernels`; ``bidirectional_bounded_path`` is the exact
    oracles' decision kernel
    (:func:`repro.paths.kernels.bidirectional_bounded_path_csr`) and
    ``multi_target_tree`` the verify memo's
    (:func:`repro.paths.kernels.multi_target_tree_csr`).  The fused
    multi-source entry points are ``None`` when a backend has none:
    :func:`repro.engine.batch.run_groups` then runs one kernel per group.
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
    multi_target_tree: Callable
    multi_source_sssp: Optional[Callable] = None
    multi_source_multi_target: Optional[Callable] = None

    def resolve(self, csr: CSRGraph) -> "KernelBackend":
        """The concrete backend serving ``csr`` (identity for real backends)."""
        _count_dispatch(self.name)
        return self

    def resolve_serving(self, csr: CSRGraph) -> "KernelBackend":
        """The concrete backend answering a serving call on ``csr``.

        Only :func:`repro.engine.batch.run_groups` asks.  :meth:`resolve`
        for real backends.
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

    def resolve_serving(self, csr: CSRGraph) -> KernelBackend:
        return self._pick(csr.num_nodes, SERVING_NODE_THRESHOLD)


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


_LOOP = KernelBackend(
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
)
register_kernel_backend(_LOOP)

try:
    from repro.paths import kernels_np as _np_kernels
except ImportError as exc:  # pragma: no cover - exercised only without numpy
    _UNAVAILABLE["numpy"] = f"numpy import failed ({exc})"
else:
    register_kernel_backend(replace(
        _LOOP,
        name="numpy",
        description=("loop kernels with numpy array sweeps for single- and "
                     "multi-source distances (requires numpy)"),
        sssp_dijkstra_csr=_np_kernels.sssp_dijkstra_csr,
        multi_target_dijkstra_csr=_np_kernels.multi_target_dijkstra_csr,
        multi_source_sssp=_np_kernels.multi_source_sssp_csr,
        multi_source_multi_target=_np_kernels.multi_source_multi_target_csr,
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
        f"(serving: >= {SERVING_NODE_THRESHOLD}), loop kernels otherwise"
    ),
    bounded_dijkstra_csr=_auto_dispatch("bounded_dijkstra_csr"),
    bounded_dijkstra_path_csr=_auto_dispatch("bounded_dijkstra_path_csr"),
    sssp_dijkstra_csr=_auto_dispatch("sssp_dijkstra_csr"),
    multi_target_dijkstra_csr=_auto_dispatch("multi_target_dijkstra_csr"),
    bfs_distances_csr=_auto_dispatch("bfs_distances_csr"),
    bounded_bfs_csr=_auto_dispatch("bounded_bfs_csr"),
    bidirectional_bounded_path=_auto_dispatch("bidirectional_bounded_path"),
    multi_target_tree=_auto_dispatch("multi_target_tree"),
)
