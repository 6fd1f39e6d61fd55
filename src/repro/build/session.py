"""The ``build()`` facade and the build → verify → snapshot → serve session.

:func:`build` is the one call every consumer (CLI, experiments, engine,
benchmarks) makes to construct a spanner: validate the spec against the
registry, then hand the graph to the registered builder.  The result is
byte-identical to calling the underlying construction function directly —
same spanner, same witness fault sets, same work counters.

:class:`BuildSession` chains the full serving pipeline behind one spec: the
construction, the fault-tolerance verification, the serving snapshot (which
records the spec so it can rebuild itself), and the query engine, with
optional progress callbacks and cooperative cancellation.  Construction and
verification shard over the spec's ``workers``/``backend`` execution knobs;
the engine serves in-process on the spec's ``kernel``.

>>> from repro.graph import generators
>>> from repro.build import BuildSpec, BuildSession
>>> graph = generators.gnm(30, 90, rng=0, connected=True)
>>> session = BuildSession(graph, BuildSpec("ft-greedy", stretch=3, max_faults=1))
>>> result = session.build()
>>> report = session.verify(samples=20, rng=0)
>>> snapshot = session.snapshot()
>>> engine = session.engine()
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.build.registry import validate_spec
from repro.build.spec import BuildCancelled, BuildSpec
from repro.graph.core import Graph
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.spanners.base import SpannerResult
from repro.utils.logging import get_logger
from repro.utils.rng import RandomSource, ensure_rng

_LOGGER = get_logger("build.session")

_BUILDS = get_registry().counter(
    "build.builds", "spanner constructions run, by algorithm")
_BUILD_SECONDS = get_registry().histogram(
    "build.seconds", "construction wall time")


def _run_builder(algorithm, graph: Graph, spec: BuildSpec, ctx) -> SpannerResult:
    """Run one registered builder inside the build span and counters.

    Shared by the :func:`build` facade and :meth:`BuildSession.build` (which
    calls the builder directly to reuse its validated algorithm entry), so
    every construction — whatever the entry point — lands in the same
    ``build.*`` metric family and trace phase.
    """
    started = time.perf_counter()
    with get_tracer().span("build.construct", algorithm=spec.algorithm,
                           stretch=spec.stretch, max_faults=spec.max_faults,
                           workers=spec.workers) as span:
        result = algorithm.builder(graph, spec, ctx)
        span.set(edges_added=result.edges_added)
    _BUILDS.labels(algorithm=spec.algorithm).inc()
    _BUILD_SECONDS.observe(time.perf_counter() - started)
    return result

#: ``on_progress(stage, done, total)`` — ``total`` may be 0 when unknown.
ProgressCallback = Callable[[str, int, int], None]
#: ``should_cancel()`` — polled between units of work; ``True`` aborts.
CancelCallback = Callable[[], bool]


@dataclass
class BuildContext:
    """Per-build hooks handed to the registered builders.

    Builders poll :meth:`check_cancelled` between units of work and report
    through :meth:`progress`; both hooks are optional and default to no-ops,
    so direct construction-function calls pay nothing.
    """

    on_progress: Optional[ProgressCallback] = None
    should_cancel: Optional[CancelCallback] = None

    def progress(self, stage: str, done: int, total: int) -> None:
        if self.on_progress is not None:
            self.on_progress(stage, done, total)

    def cancelled(self) -> bool:
        return self.should_cancel is not None and bool(self.should_cancel())

    def check_cancelled(self) -> None:
        if self.cancelled():
            raise BuildCancelled("build cancelled by its should_cancel hook")

    def rng(self, spec: BuildSpec) -> RandomSource:
        """The spec's deterministic random stream (randomized algorithms)."""
        return ensure_rng(spec.seed)


def build(graph: Graph, spec: BuildSpec, *,
          on_progress: Optional[ProgressCallback] = None,
          should_cancel: Optional[CancelCallback] = None) -> SpannerResult:
    """Run the construction described by ``spec`` on ``graph``.

    The spec is validated against the algorithm's declared capabilities
    first (:func:`repro.build.registry.validate_spec`), so incompatible
    requests fail before any work happens.
    """
    algorithm = validate_spec(spec)
    ctx = BuildContext(on_progress=on_progress, should_cancel=should_cancel)
    ctx.check_cancelled()
    return _run_builder(algorithm, graph, spec, ctx)


class BuildSession:
    """One spec driven through build → verify → snapshot → serve.

    Stages are lazy and cached: :meth:`build` runs the construction once,
    :meth:`verify` checks the result under the spec's fault budget,
    :meth:`snapshot` wraps it for serving (recording the spec so the
    snapshot can rebuild itself), and :meth:`engine` opens a
    :class:`~repro.engine.engine.QueryEngine` over it.  Build and verify
    share the spec's ``workers``/``backend`` execution knobs; the engine
    serves in-process on the spec's ``kernel``.
    """

    def __init__(self, graph: Graph, spec: BuildSpec, *,
                 on_progress: Optional[ProgressCallback] = None,
                 should_cancel: Optional[CancelCallback] = None):
        self.graph = graph
        self.spec = spec
        self.algorithm = validate_spec(spec)  # fail fast, before any stage
        self._ctx = BuildContext(on_progress=on_progress,
                                 should_cancel=should_cancel)
        self._result: Optional[SpannerResult] = None
        self._report = None
        self._snapshot = None
        self._snapshot_keep_original: Optional[bool] = None

    # ---------------------------------------------------------------- stages
    @property
    def result(self) -> Optional[SpannerResult]:
        """The construction result, if :meth:`build` has run."""
        return self._result

    def build(self) -> SpannerResult:
        """Run (or reuse) the construction stage."""
        if self._result is None:
            self._ctx.check_cancelled()
            self._ctx.progress("build", 0, 1)
            self._result = _run_builder(self.algorithm, self.graph, self.spec,
                                        self._ctx)
            self._ctx.progress("build", 1, 1)
        return self._result

    def verify(self, *, method: str = "auto", samples: int = 200, rng=None):
        """Verify the built spanner under the spec's fault budget.

        Runs :func:`repro.spanners.verify.is_ft_spanner` with the spec's
        stretch, fault budget, fault model, and execution knobs (a budget of
        0 degenerates to the plain stretch check over the empty fault set).
        The report is cached on the session.
        """
        from repro.spanners.verify import is_ft_spanner

        result = self.build()
        self._ctx.check_cancelled()
        self._ctx.progress("verify", 0, 1)
        fault_model = (result.fault_model if result.fault_model != "none"
                       else self.spec.fault_model)
        with get_tracer().span("session.verify",
                               algorithm=self.spec.algorithm):
            self._report = is_ft_spanner(
                self.graph, result.spanner, self.spec.stretch,
                self.spec.max_faults, fault_model=fault_model, method=method,
                samples=samples, rng=self.spec.seed if rng is None else rng,
                workers=self.spec.workers, backend=self.spec.backend,
                kernel=self.spec.kernel)
        self._ctx.progress("verify", 1, 1)
        return self._report

    @property
    def report(self):
        """The verification report, if :meth:`verify` has run."""
        return self._report

    def snapshot(self, *, keep_original: bool = True):
        """Wrap the built spanner as a spec-carrying serving snapshot.

        Cached per ``keep_original`` value: asking for the other flavour
        re-wraps the (already built) result rather than returning a
        snapshot that ignores the flag.
        """
        from repro.engine.snapshot import SpannerSnapshot

        if self._snapshot is None or self._snapshot_keep_original != keep_original:
            result = self.build()
            with get_tracer().span("session.snapshot",
                                   keep_original=keep_original):
                self._snapshot = SpannerSnapshot.from_result(
                    result, keep_original=keep_original, spec=self.spec)
            self._snapshot_keep_original = keep_original
        return self._snapshot

    def save_snapshot(self, path) -> None:
        """Write the (built) snapshot to ``path`` as one JSON document."""
        self.snapshot().save(path)

    def engine(self, *, cache_size: int = 256):
        """A query engine over the snapshot, on the spec's kernel backend."""
        from repro.engine.engine import QueryEngine

        return QueryEngine(self.snapshot(), cache_size=cache_size,
                           kernel=self.spec.kernel)

    def dynamic(self):
        """A :class:`~repro.dynamic.maintain.DynamicSpanner` over the result.

        The entry point into incremental maintenance: adopts the (built)
        construction — witnesses included — and maintains its ``k``/``f``
        guarantee across edge updates without rebuilding; repair sweeps and
        certifications share the spec's ``workers``/``backend`` knobs.  Wrap
        it in :class:`~repro.dynamic.live.LiveEngine` to keep serving
        queries while updates flow.  Requires an FT-greedy-family spec.
        """
        from repro.dynamic.maintain import DynamicSpanner

        return DynamicSpanner(self.graph, self.spec, result=self.build())

    # --------------------------------------------------------------- summary
    def summary(self) -> dict:
        """Flat dict describing the session's spec and completed stages."""
        document = {"spec": self.spec.to_json(),
                    "algorithm": self.spec.algorithm,
                    "built": self._result is not None,
                    "verified": self._report is not None}
        if self._result is not None:
            document.update(self._result.summary())
        if self._report is not None:
            document["verify_ok"] = self._report.ok
            document["worst_stretch"] = self._report.worst_stretch
        return document

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<BuildSession {self.spec.summary()} "
                f"built={self._result is not None} "
                f"verified={self._report is not None}>")
