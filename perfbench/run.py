"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``build-vft``   — a corpus of G(n, 5n) instances through
  ``BuildSession.build()`` + ``.verify()`` (k=5, f=2, vertex faults,
  tiered oracle, serial), in a fresh worker process;
* ``serve-zipf``  — pipelined read-only Zipf traffic against
  ``repro-spanner daemon`` over two WebSocket sessions;
* ``serve-churn`` — depth-1 reads beside single-op ``/v1/update`` posts
  against a live daemon.

``--trace 0`` prints every end-to-end metric.  Each workload defines one
operation, the unit of work a user waits for, and the latency metrics are
taken over it: a certified build (``build()`` then ``verify()`` of one
instance) on build-vft, one distance read on the serving workloads.
``--trace 1`` runs the workload with benchmark-owned timers
around the layer entry points (``tracer.py``) and prints every per-layer
metric plus ``trace.overhead_pct``: the wrapped calls times the in-process
cost of one wrapper, as a share of the measured phase.  No end-to-end number
comes from a traced run.

Every run checks its outputs (``correct``) and counts failed operations
against attempted ones.  The last stdout line is the result document; the
line before it records the machine (nproc, Python and numpy versions).
Exits non-zero without a result when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import Outcome  # noqa: E402

#: Hard ceiling for any single child process of one run.
CHILD_TIMEOUT = 170.0
#: A run that is not done by then is abandoned (the limit is 180 s).
RUN_DEADLINE = 175


def _out_of_time(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE} s")


def _terminated(signum, frame):
    # Unwind through the finally blocks that stop children and clean up.
    raise SystemExit(128 + signum)


@dataclass
class RunContext:
    seed: int
    seconds: int
    workdir: Path


# ----------------------------------------------------------------- build-vft
def run_build_vft(ctx: RunContext, traced: bool) -> Outcome:
    import layers
    import inputs

    outcome = Outcome()
    worker = ["perfbench/build_vft.py", "--seed", str(ctx.seed),
              "--seconds", str(ctx.seconds)]
    stderr = ctx.workdir / "build_vft.stderr"
    ready_times = []
    for _ in range(common.SETUP_STARTS - 1):
        child = common.Child([sys.executable, *worker, "--setup-only"],
                             stderr_path=stderr)
        try:
            child.wait_for("ready", CHILD_TIMEOUT)
            ready_times.append(time.perf_counter() - child.spawned)
            child.rest_of_stdout(CHILD_TIMEOUT)
        finally:
            child.stop()
    extra = ["--trace"] if traced else []
    child = common.Child([sys.executable, *worker, *extra],
                         stderr_path=stderr)
    try:
        child.wait_for("ready", CHILD_TIMEOUT)
        ready_times.append(time.perf_counter() - child.spawned)
        lines = child.rest_of_stdout(CHILD_TIMEOUT)
        code = child.proc.returncode
    finally:
        child.stop()
    if code != 0 or not lines:
        raise RuntimeError(f"build-vft worker exited {code}; see {stderr}")
    document = json.loads(lines[-1])

    instances = document["instances"]
    expected = inputs.build_corpus_size(ctx.seconds)
    outcome.check(len(instances) == expected,
                  f"worker built {len(instances)} of {expected} instances")
    for index, item in enumerate(instances):
        outcome.attempted += 1
        outcome.check(item["verify_ok"] and item["within_bound"],
                      f"instance {index} failed its gates: {item}")

    # One operation is a certified build: what a user waits for before the
    # spanner is both built and checked.
    operations_ms = [1000.0 * (item["build_s"] + item["certify_s"])
                     for item in instances]
    outcome.measured_s = sum(operations_ms) / 1000.0
    outcome.end_to_end = {
        "setup_s": common.median(ready_times),
        **common.latency_metrics(operations_ms, outcome.measured_s),
        "spanner_edges": float(sum(item["spanner_edges"] for item in instances)),
        "peak_rss_mb": document["peak_rss_mb"],
    }
    trace = document["trace"]
    outcome.layers = layers.layer_metrics(
        layers.registry_getter(document["counters"]), None, trace, {})
    outcome.wrapper_s = trace["wrapper_seconds"] if trace else 0.0
    return outcome


# ------------------------------------------------------------- orchestration
def runners() -> Dict[str, Callable[[RunContext, bool], Outcome]]:
    import serving

    return {"build-vft": run_build_vft,
            "serve-zipf": serving.run_serve_zipf,
            "serve-churn": serving.run_serve_churn}


def declared_units(section: str) -> Dict[str, str]:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def result_document(workload: str, outcome: Outcome, trace: bool) -> Dict:
    if trace:
        units = declared_units("per_layer")
        values = dict(outcome.layers)
        values["trace.overhead_pct"] = (
            100.0 * outcome.wrapper_s / outcome.measured_s
            if outcome.measured_s else 0.0)
    else:
        units = declared_units("end_to_end")
        values = outcome.end_to_end
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"{workload} measured no {sorted(missing)}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in sorted(units)}
    correct = (outcome.attempted > 0 and outcome.failed == 0
               and not outcome.problems)
    return {"correct": correct, "attempted": max(1, outcome.attempted),
            "failed": outcome.failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(runners()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        common.require_sources()
    except common.CheckoutError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    workdir = common.ROOT / ".perfbench_run" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(seed=args.seed, seconds=args.seconds, workdir=workdir)
    run = runners()[args.workload]
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(RUN_DEADLINE)
    try:
        outcome = run(ctx, bool(args.trace))
        document = result_document(args.workload, outcome, bool(args.trace))
        for problem in outcome.problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    except Exception:
        for log in sorted(workdir.glob("*.stderr")):
            sys.stderr.write(f"--- {log.name} (tail)\n")
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        raise
    finally:
        signal.alarm(0)
        common.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    common.emit({"environment": common.environment_info(),
                 "workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace})
    common.emit(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
