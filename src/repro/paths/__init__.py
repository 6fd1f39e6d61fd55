"""Shortest-path primitives.

Everything the spanner algorithms need: single-source Dijkstra, distance
queries that stop early once a budget is exceeded (the hot path of the greedy
algorithms), bidirectional search, unweighted BFS, and all-pairs helpers.
All functions accept either a :class:`repro.graph.Graph` or an
:class:`repro.graph.ExclusionView` (``H \\ F``).

Plain :class:`Graph` inputs are executed by the array-native CSR kernels in
:mod:`repro.paths.kernels` (compiled snapshots cached per graph version); the
``*_csr`` functions re-exported here are the raw kernels for callers that
manage their own snapshots and fault masks.

Kernels come in swappable backends (pure-Python ``loop``, and ``numpy``:
``loop`` with vectorized full and early-exit sweeps) registered in
:mod:`repro.paths.registry`; see :func:`get_kernels`.  The re-exported ``*_csr`` names are the ``loop``
reference implementations.
"""

from repro.paths.dijkstra import (
    dijkstra_distances,
    dijkstra_tree,
    shortest_path,
    shortest_path_distance,
    bounded_distance,
    bidirectional_distance,
)
from repro.paths.bfs import bfs_distances, bfs_path, hop_distance, eccentricity
from repro.paths.apsp import all_pairs_distances, all_pairs_hop_distances, diameter
from repro.paths.kernels import (
    bounded_dijkstra_csr,
    bounded_dijkstra_path_csr,
    sssp_dijkstra_csr,
    multi_target_dijkstra_csr,
    bfs_distances_csr,
    bounded_bfs_csr,
)
from repro.paths.registry import (
    AUTO_NODE_THRESHOLD,
    KernelBackend,
    KernelLike,
    describe_kernel_backends,
    get_kernels,
    kernel_backend_names,
    register_kernel_backend,
)

__all__ = [
    "dijkstra_distances",
    "dijkstra_tree",
    "shortest_path",
    "shortest_path_distance",
    "bounded_distance",
    "bidirectional_distance",
    "bfs_distances",
    "bfs_path",
    "hop_distance",
    "eccentricity",
    "all_pairs_distances",
    "all_pairs_hop_distances",
    "diameter",
    "bounded_dijkstra_csr",
    "bounded_dijkstra_path_csr",
    "sssp_dijkstra_csr",
    "multi_target_dijkstra_csr",
    "bfs_distances_csr",
    "bounded_bfs_csr",
    "AUTO_NODE_THRESHOLD",
    "KernelBackend",
    "KernelLike",
    "describe_kernel_backends",
    "get_kernels",
    "kernel_backend_names",
    "register_kernel_backend",
]
