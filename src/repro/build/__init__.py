"""Unified construction API: build specs, the algorithm registry, and sessions.

The one declarative surface every consumer constructs spanners through:

>>> from repro.build import BuildSpec, build
>>> from repro.graph import generators
>>> graph = generators.gnm(40, 160, rng=0, connected=True)
>>> result = build(graph, BuildSpec("ft-greedy", stretch=3, max_faults=1))
>>> result.algorithm
'ft-greedy[tiered]'

* :class:`BuildSpec` — a frozen, JSON round-trippable description of one
  construction (algorithm, stretch, fault budget/model, oracle, seed,
  workers/backend, algorithm-specific params);
* the **registry** (:func:`register_algorithm` / :func:`get_algorithm` /
  :func:`available_algorithms`) — every construction in
  :mod:`repro.spanners` and :mod:`repro.baselines` registered with declared
  :class:`AlgorithmCapabilities`, validated against specs before running;
* :func:`build` — the facade the CLI, experiments, engine, and benchmarks
  all go through;
* :class:`BuildSession` — build → verify → snapshot → serve behind one spec,
  with shared execution backend, progress callbacks, and cancellation.

The classic entry points (``ft_greedy_spanner`` and friends) remain as thin
shims over this registry with byte-identical outputs.
"""

from repro.build.spec import SPEC_FORMAT, BuildCancelled, BuildError, BuildSpec
from repro.build.registry import (
    ALGORITHMS,
    AlgorithmCapabilities,
    RegisteredAlgorithm,
    available_algorithms,
    get_algorithm,
    register_algorithm,
    validate_spec,
)
from repro.build.session import BuildContext, BuildSession, build

# Importing the adapters populates the registry with the six paper
# constructions (plus the vft/eft pinned variants).
import repro.build.algorithms  # noqa: F401  (registration side effect)

__all__ = [
    "SPEC_FORMAT",
    "BuildCancelled",
    "BuildError",
    "BuildSpec",
    "ALGORITHMS",
    "AlgorithmCapabilities",
    "RegisteredAlgorithm",
    "available_algorithms",
    "get_algorithm",
    "register_algorithm",
    "validate_spec",
    "BuildContext",
    "BuildSession",
    "build",
]
