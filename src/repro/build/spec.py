"""Declarative build specifications for spanner constructions.

A :class:`BuildSpec` is the single value that describes *which* construction
to run and *how*: the registry name of the algorithm, the paper parameters
(stretch ``k``, fault budget ``f``, fault model), the oracle choice, the
randomness seed, the execution knobs (``workers`` / ``backend`` from
:mod:`repro.runtime`), and a dict of algorithm-specific parameters.

Specs are frozen and JSON round-trippable, so they can live inside snapshot
metadata (:class:`repro.engine.snapshot.SpannerSnapshot` records the spec it
was built from and can rebuild itself), experiment configs, and CLI
invocations — one declarative surface for every consumer.

Only *structural* invariants are checked here (numeric ranges, known fault
model / backend names).  Whether an algorithm exists and whether it supports
the requested fault model, oracle, parallelism, and parameters is the
registry's job: see :func:`repro.build.registry.validate_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional

from repro.faults.models import get_fault_model

#: The ``format`` field of a serialised spec document.
SPEC_FORMAT = "repro-build-spec"

_VALID_BACKENDS = (None, "auto", "serial", "process")


class BuildError(ValueError):
    """A build spec is malformed or incompatible with its algorithm."""


class BuildCancelled(RuntimeError):
    """Raised when a build is cancelled through its ``should_cancel`` hook."""


@dataclass(frozen=True)
class BuildSpec:
    """Everything needed to (re)run one spanner construction.

    Attributes
    ----------
    algorithm:
        Registry name of the construction (see
        :func:`repro.build.registry.available_algorithms`).
    stretch:
        The stretch factor ``k >= 1``.
    max_faults:
        The fault budget ``f >= 0`` (must be 0 for non-fault-tolerant
        algorithms).
    fault_model:
        ``"vertex"`` or ``"edge"``; ignored by non-fault-tolerant algorithms.
    oracle:
        Fault-check oracle *name* for algorithms that accept one
        (``"tiered"``, ``"branch-and-bound"``, ``"exhaustive"``,
        ``"greedy-path-packing"``); ``None`` keeps the algorithm default.
    seed:
        Integer seed for randomized algorithms; ignored by deterministic
        ones (so one spec can be reused across a registry sweep).
    workers / backend:
        Execution knobs resolved through
        :func:`repro.runtime.backend.get_backend`.  ``workers > 1`` requires
        the algorithm to declare itself parallelizable.
    kernel:
        Kernel backend name resolved through
        :func:`repro.paths.get_kernels` (``"loop"``, ``"numpy"``,
        ``"auto"``); ``None`` auto-selects by graph size.  An execution
        knob like ``workers``/``backend``: it changes how distances are
        computed, never what they are.
    params:
        Algorithm-specific parameters (e.g. ``samples`` for
        ``sampling-union``).  Keys are validated against the algorithm's
        declared parameter names before the build runs.
    """

    algorithm: str
    stretch: float = 3.0
    max_faults: int = 0
    fault_model: str = "vertex"
    oracle: Optional[str] = None
    seed: Optional[int] = None
    workers: int = 1
    backend: Optional[str] = None
    kernel: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Defensive copy so a caller-held dict cannot mutate a frozen spec.
        object.__setattr__(self, "params", dict(self.params))
        if not self.algorithm or not isinstance(self.algorithm, str):
            raise BuildError("spec.algorithm must be a non-empty string")
        if self.stretch < 1:
            raise BuildError("spec.stretch must be at least 1")
        if self.max_faults < 0:
            raise BuildError("spec.max_faults must be non-negative")
        if self.workers < 1:
            raise BuildError("spec.workers must be at least 1")
        if self.backend not in _VALID_BACKENDS:
            raise BuildError(
                f"spec.backend must be one of {_VALID_BACKENDS[1:]} or None, "
                f"got {self.backend!r}")
        if self.seed is not None and not isinstance(self.seed, int):
            raise BuildError("spec.seed must be an int or None "
                             "(specs are JSON documents; pass rng objects to "
                             "the direct construction functions instead)")
        if self.kernel is not None:
            if not isinstance(self.kernel, str):
                raise BuildError("spec.kernel must be a backend name or None "
                                 "(specs are JSON documents; pass backend "
                                 "objects to the direct functions instead)")
            from repro.paths.registry import kernel_backend_names
            # Unknown names fail fast; known-but-unavailable ones (numpy
            # missing) are left to fail at resolve time with the reason.
            from repro.paths.registry import _UNAVAILABLE
            if (self.kernel not in kernel_backend_names()
                    and self.kernel not in _UNAVAILABLE):
                raise BuildError(
                    f"spec.kernel must be one of "
                    f"{kernel_backend_names()} or None, got {self.kernel!r}")
        # Fail fast on unknown fault models rather than mid-construction.
        get_fault_model(self.fault_model)

    # ------------------------------------------------------------ derivation
    def replace(self, **changes: Any) -> "BuildSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------- I/O
    def to_json(self) -> Dict[str, Any]:
        """JSON-serialisable document (inverse of :meth:`from_json`)."""
        return {
            "format": SPEC_FORMAT,
            "version": 1,
            "algorithm": self.algorithm,
            "stretch": self.stretch,
            "max_faults": self.max_faults,
            "fault_model": self.fault_model,
            "oracle": self.oracle,
            "seed": self.seed,
            "workers": self.workers,
            "backend": self.backend,
            "kernel": self.kernel,
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, document: Mapping[str, Any]) -> "BuildSpec":
        """Rebuild a spec from :meth:`to_json` output.

        Unknown keys are rejected rather than silently dropped: a spec is a
        contract about how a spanner was built, and a typo'd or
        future-version field that silently vanished would make "rebuild from
        snapshot metadata" lie.
        """
        if document.get("format", SPEC_FORMAT) != SPEC_FORMAT:
            raise BuildError(
                f"not a {SPEC_FORMAT} document: format={document.get('format')!r}")
        known = {f.name for f in fields(cls)}
        envelope = {"format", "version"}
        unknown = sorted(set(document) - known - envelope)
        if unknown:
            raise BuildError(
                f"unknown build-spec field(s) {unknown}; "
                f"known fields: {sorted(known)}")
        kwargs: Dict[str, Any] = {
            name: document[name] for name in known if name in document}
        if "algorithm" not in kwargs:
            raise BuildError("build-spec document is missing 'algorithm'")
        if "params" in kwargs and not isinstance(kwargs["params"], Mapping):
            raise BuildError("build-spec 'params' must be an object")
        return cls(**kwargs)

    def summary(self) -> str:
        """One-line human-readable form (CLI and log output)."""
        bits = [f"{self.algorithm} k={self.stretch}"]
        if self.max_faults:
            bits.append(f"f={self.max_faults} ({self.fault_model})")
        if self.oracle:
            bits.append(f"oracle={self.oracle}")
        if self.seed is not None:
            bits.append(f"seed={self.seed}")
        if self.workers > 1:
            bits.append(f"workers={self.workers}")
        if self.kernel:
            bits.append(f"kernel={self.kernel}")
        if self.params:
            bits.append(", ".join(f"{k}={v}" for k, v in sorted(self.params.items())))
        return " ".join(bits)
