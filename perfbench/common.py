"""Shared plumbing for the benchmark: checkout layout, child processes,
statistics, memory readings and the Prometheus parser.

Everything here is stdlib-only so that ``run.py`` can validate the checkout
before anything from ``src/`` is imported.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: The benchmark's own directory and the checkout root it lives in.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Cold starts per run; ``setup_s`` is their median (one start varies by
#: +-15% with the host).
SETUP_STARTS = 5


class CheckoutError(RuntimeError):
    """The checkout lacks the program sources the benchmark measures."""


def require_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` or refuse to run.

    The benchmark must measure the code in this checkout, never some other
    installed copy, so a missing ``src/repro`` is an error even when a
    ``repro`` package would import from elsewhere.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no program sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 - the import itself is the check

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise CheckoutError(
            f"imported repro from {repro.__file__}, not from {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for child processes: this checkout's sources, one thread
    per numeric library, no bytecode writes into the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for var in ("REPRO_TRACE", "REPRO_METRICS", "REPRO_KERNEL"):
        env.pop(var, None)
    return env


def environment_info() -> Dict[str, object]:
    """Machine facts recorded with every result."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency here
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine()}


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: Wall time of the measured phase, and the part of it that a traced
    #: run's wrappers are estimated to have added (``trace.overhead_pct``).
    measured_s: float = 0.0
    wrapper_s: float = 0.0

    def check(self, ok: bool, message: str) -> None:
        """A correctness gate; a failed one is reported and counted."""
        if not ok:
            self.problems.append(message)
            self.failed += 1


# ---------------------------------------------------------------- processes
class Child:
    """One child process whose stdout is read line by line.

    ``spawned`` is taken right before ``Popen``, so ``wait_for`` measures
    spawn-to-line time including interpreter start-up.  Every child is
    tracked in ``LIVE`` until stopped, so :func:`stop_all` can guarantee
    that a run leaves no process behind, whatever failed.
    """

    LIVE: "set[Child]" = set()

    def __init__(self, argv: Sequence[str], *, stderr_path: Path):
        self._stderr = open(stderr_path, "ab")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), cwd=str(ROOT), env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, bufsize=1)
        Child.LIVE.add(self)

    def wait_for(self, prefix: str, timeout: float) -> str:
        """Block until a stdout line starts with ``prefix``; returns it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith(prefix):
                return line.rstrip("\n")
        raise RuntimeError(
            f"child {self.proc.args!r} never printed {prefix!r} "
            f"(exit code {self.proc.poll()})")

    def rest_of_stdout(self, timeout: float) -> List[str]:
        """Wait for exit and return the remaining stdout lines."""
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        finally:
            self.stop()
        return out.splitlines()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def terminate(self, timeout: float = 30.0) -> int:
        """SIGTERM (a daemon drains on it) and wait for the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        finally:
            self.stop()
        return self.proc.returncode

    def stop(self) -> None:
        """Kill if still running and release every handle (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None and not self.proc.stdout.closed:
            self.proc.stdout.close()
        if not self._stderr.closed:
            self._stderr.close()
        Child.LIVE.discard(self)


def stop_all() -> None:
    """Kill and reap every child that is still running."""
    for child in list(Child.LIVE):
        child.stop()


# ------------------------------------------------------------------ memory
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    path = Path(f"/proc/{pid or 'self'}/status")
    for line in path.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# -------------------------------------------------------------- statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def latency_metrics(latencies_ms: Sequence[float], seconds: float
                    ) -> Dict[str, float]:
    """``op_p50_ms``, ``op_p99_ms`` and ``ops_per_s`` of a run's operations,
    ``seconds`` being the wall time they were measured over."""
    return {"op_p50_ms": percentile(latencies_ms, 50),
            "op_p99_ms": percentile(latencies_ms, 99),
            "ops_per_s": len(latencies_ms) / seconds}


# --------------------------------------------------------------- prometheus
_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="([^"]*)"')


def parse_prometheus(text: str) -> List[tuple]:
    """``[(family, {label: value}, float)]`` for every sample line."""
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        family, labels, value = match.groups()
        samples.append((family, dict(_LABEL.findall(labels or "")),
                        float(value)))
    return samples


def prom_value(samples: List[tuple], family: str, **labels: str) -> float:
    """Sum of a family's samples whose labels include ``labels``.

    A counter with labeled children renders its (zero) parent line plus one
    line per child; summing over all of them gives the family total.
    """
    return sum(value for name, have, value in samples
               if name == family
               and all(have.get(key) == want for key, want in labels.items()))


def emit(document: Dict) -> None:
    """Print one JSON line on stdout (the result line must be the last)."""
    print(json.dumps(document, sort_keys=True), flush=True)
