"""The serving workloads: a real daemon process driven by one client process.

The daemon is ``python -m repro daemon <snapshot> --port 0`` (the
``repro-spanner daemon`` verb with its default window, batch, queue and cache
settings) or, for traced runs, ``daemon_launcher.py``, which runs that same
verb after wrapping the layer entry points.  This process is the client: it
never has more threads or connections than ``nproc`` (2 here), and it does
its reference computations only while the daemon is idle or gone.

Daemon answers are checked against a local ``QueryEngine`` (or, on
serve-churn, a local ``DynamicSpanner`` replay), and that reference is
checked in turn without the engine or the repair code: against a plain
heap Dijkstra over the spanner minus the failed vertices (no planner, cache
or kernel), and, after churn, by a sampled ``is_ft_spanner`` of the
replayed spanner against the replayed graph.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import common
import inputs
import layers

START_TIMEOUT = 60.0
CLIENT_TIMEOUT = 60.0


class Daemon:
    """One daemon process, started and polled until ``/health`` answers."""

    def __init__(self, snapshot_path, workdir, *, trace_out=None):
        if trace_out is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, "perfbench/daemon_launcher.py",
                    "--trace-out", str(trace_out), "--"]
        argv += ["daemon", str(snapshot_path), "--port", "0"]
        self.child = common.Child(argv, stderr_path=workdir / "daemon.stderr")
        try:
            line = self.child.wait_for("daemon listening on ", START_TIMEOUT)
            self.host, port = line.rsplit("/", 1)[-1].rsplit(":", 1)
            self.port = int(port)
            self._wait_healthy()
        except BaseException:
            self.child.stop()
            raise
        self.ready_s = time.perf_counter() - self.child.spawned

    def _wait_healthy(self) -> None:
        from repro.serve.client import DaemonClient, DaemonError

        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                with DaemonClient(self.host, self.port, timeout=5.0) as client:
                    if client.health().get("status") == "ok":
                        return
            except (OSError, DaemonError):
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.005)

    def client(self):
        from repro.serve.client import DaemonClient

        return DaemonClient(self.host, self.port, timeout=CLIENT_TIMEOUT)

    def session(self):
        from repro.serve.client import WebSocketSession

        return WebSocketSession(self.host, self.port, timeout=CLIENT_TIMEOUT)

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        return self.child.terminate(timeout=60.0)


def start_measured_daemon(snapshot_path, workdir, trace_out=None
                          ) -> Tuple[Daemon, float]:
    """Cold-start the daemon ``common.SETUP_STARTS`` times; keep the last.

    Returns it with the median spawn-to-``/health`` time of all starts.
    """
    ready = []
    for _ in range(common.SETUP_STARTS - 1):
        daemon = Daemon(snapshot_path, workdir)
        ready.append(daemon.ready_s)
        if daemon.stop() != 0:
            raise RuntimeError("a set-up daemon did not drain cleanly")
    daemon = Daemon(snapshot_path, workdir, trace_out=trace_out)
    ready.append(daemon.ready_s)
    return daemon, common.median(ready)


def finish_daemon(daemon: Daemon, outcome, trace_out) -> Tuple[str, Optional[Dict]]:
    """Read ``/metrics`` and peak RSS, drain the daemon, load its trace."""
    try:
        with daemon.client() as client:
            metrics_text = client.metrics_text()
        outcome.end_to_end["peak_rss_mb"] = daemon.child.peak_rss_mb()
    finally:
        code = daemon.stop()
    outcome.check(code == 0, f"daemon exited {code} after drain")
    trace = None
    if trace_out is not None:
        with open(trace_out) as handle:
            trace = json.load(handle)
        outcome.wrapper_s = trace["wrapper_seconds"]
    return metrics_text, trace


def transport_overhead_ms(outcome, trace: Dict) -> float:
    """Client read p50 minus the daemon's median ``distance`` dispatch time:
    what the wire, parsing outside the protocol and the client add."""
    dispatch = trace["dispatch_seconds"].get("distance") or [0.0]
    return outcome.end_to_end["op_p50_ms"] - 1000.0 * common.median(dispatch)


def independent_distance(spanner, query) -> float:
    """Distance by plain Dijkstra over the spanner minus the failed vertices.

    The fault model's exclusion view is not a ``Graph``, so
    ``shortest_path_distance`` runs its heap search over the view's
    adjacency: no CSR, kernel registry, planner or cache is involved.
    """
    from repro.faults.models import get_fault_model
    from repro.paths.dijkstra import shortest_path_distance

    source, target, faults = query
    view = get_fault_model("vertex").apply(spanner, faults)
    return shortest_path_distance(view, source, target)


def same_distance(first: float, second: float) -> bool:
    """Equal, up to the rounding of summing a path's weights in another
    order (a sweep may run from either end)."""
    return first == second or math.isclose(first, second, rel_tol=1e-9)


def check_independently(outcome, spanner, queries, answers, what: str) -> None:
    for query, answer in zip(queries, answers):
        independent = independent_distance(spanner, query)
        outcome.check(same_distance(answer, independent),
                      f"{what} {query}: {answer} != Dijkstra {independent}")


#: Reads a run needs so that at least ten lie beyond its p99.
MIN_READS = 1000


def _latency_metrics(outcome, latencies_ms: List[float], seconds: float) -> None:
    outcome.check(len(latencies_ms) >= MIN_READS,
                  f"only {len(latencies_ms)} reads; p99 needs {MIN_READS}")
    outcome.end_to_end.update(common.latency_metrics(latencies_ms, seconds))


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(CLIENT_TIMEOUT * 4)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish in time")


# ---------------------------------------------------------------- serve-zipf
def _zipf_session(daemon: Daemon, queries, first: int, stride: int,
                  depth: int, deadline: float, records: List,
                  errors: List) -> None:
    """Closed loop with ``depth`` requests in flight on one session."""
    try:
        session = daemon.session()
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        errors.append(repr(error))
        return
    inflight: Dict[int, Tuple[float, int]] = {}
    cursor = first
    try:
        def send_next() -> None:
            nonlocal cursor
            source, target, faults = queries[cursor % len(queries)]
            sent = time.perf_counter()
            message_id = session.send("distance", {
                "source": source, "target": target, "faults": faults})
            inflight[message_id] = (sent, cursor)
            cursor += stride

        for _ in range(depth):
            send_next()
        while inflight:
            response = session.recv()
            received = time.perf_counter()
            sent, index = inflight.pop(response["id"])
            records.append((index, received - sent, response.get("ok", False),
                            (response.get("result") or {}).get("distance")))
            if received < deadline:
                send_next()
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        errors.append(repr(error))
    finally:
        session.close()


def run_serve_zipf(ctx, traced: bool):
    from repro.engine.engine import QueryEngine
    from repro.engine.snapshot import SpannerSnapshot
    from repro.serve.protocol import from_wire_distance

    outcome = common.Outcome()
    snapshot_path = ctx.workdir / "zipf-snapshot.json"
    inputs.serve_snapshot(ctx.seed, inputs.ZIPF_NODES, inputs.ZIPF_EDGES,
                          live=False).save(snapshot_path)
    snapshot = SpannerSnapshot.load(snapshot_path)
    queries = [inputs.wire_query(q)
               for q in inputs.zipf_queries(ctx.seed, snapshot.spanner)]
    checked = set(inputs.checked_indices(ctx.seed, len(queries),
                                         inputs.CHECKED_READS))
    trace_out = ctx.workdir / "zipf-trace.json" if traced else None

    daemon, setup_s = start_measured_daemon(snapshot_path, ctx.workdir,
                                            trace_out)
    outcome.end_to_end["setup_s"] = setup_s
    sessions = inputs.zipf_sessions()
    records: List[List] = [[] for _ in range(sessions)]
    errors: List[str] = []
    try:
        started = time.perf_counter()
        deadline = started + ctx.seconds
        _run_threads([
            (lambda i=i: _zipf_session(
                daemon, queries, i, sessions, inputs.ZIPF_DEPTH // sessions,
                deadline, records[i], errors))
            for i in range(sessions)])
        outcome.measured_s = time.perf_counter() - started
        with daemon.client() as client:
            health = client.health()
    finally:
        metrics_text, trace = finish_daemon(daemon, outcome, trace_out)
    for error in errors:
        outcome.check(False, f"client session failed: {error}")

    reads = [record for per_session in records for record in per_session]
    outcome.attempted += len(reads)
    latencies_ms = []
    answers: Dict[int, List[float]] = {}
    for index, seconds, ok, distance in reads:
        if not ok:
            outcome.check(False, f"read {index} was refused or failed")
            continue
        latencies_ms.append(seconds * 1000.0)
        if index % len(queries) in checked:
            answers.setdefault(index % len(queries), []).append(
                from_wire_distance(distance))
    _latency_metrics(outcome, latencies_ms, outcome.measured_s)

    # Reference answers from a local engine over the same snapshot file,
    # themselves checked against plain Dijkstra.
    order = sorted(answers)
    checked_queries = [queries[i] for i in order]
    expected = QueryEngine(snapshot, cache_size=0).distances_batch(
        checked_queries)
    check_independently(outcome, snapshot.spanner, checked_queries, expected,
                        "engine answer to")
    for index, want in zip(order, expected):
        for got in answers[index]:
            outcome.check(got == want, f"read {index}: daemon {got} != {want}")
    outcome.check(bool(order), "no checked read completed")
    served_edges = health["engine"]["snapshot"]["edges"]
    outcome.end_to_end["spanner_edges"] = float(served_edges)
    outcome.check(served_edges == snapshot.spanner.number_of_edges(),
                  "daemon serves a different spanner than the snapshot")

    get, hist = layers.prometheus_getters(metrics_text)
    client_side = {}
    if trace is not None:
        client_side["transport.overhead_ms_p50"] = transport_overhead_ms(
            outcome, trace)
    outcome.layers = layers.layer_metrics(get, hist, trace, client_side)
    return outcome


# --------------------------------------------------------------- serve-churn
def _churn_reader(daemon: Daemon, queries, stop: threading.Event,
                  records: List, errors: List) -> None:
    """Closed loop, one request in flight, until the writer is done."""
    try:
        session = daemon.session()
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        errors.append(repr(error))
        return
    cursor = 0
    try:
        while not stop.is_set():
            source, target, faults = queries[cursor % len(queries)]
            cursor += 1
            sent = time.perf_counter()
            message_id = session.send("distance", {
                "source": source, "target": target, "faults": faults})
            response = session.recv()
            received = time.perf_counter()
            records.append((sent, received,
                            response.get("ok", False)
                            and response.get("id") == message_id))
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        errors.append(repr(error))
    finally:
        session.close()


def _churn_writer(daemon: Daemon, journal, stop: threading.Event,
                  records: List, errors: List) -> None:
    """Post each journal op as its own ``/v1/update``, pausing between."""
    from repro.serve.client import DaemonError

    try:
        with daemon.client() as client:
            for offset, op in enumerate(journal, start=1):
                sent = time.perf_counter()
                try:
                    report = client.update([op])
                    ok = (report["applied"] == 1
                          and report["journal_offset"] == offset)
                except DaemonError:
                    ok = False
                received = time.perf_counter()
                records.append((sent, received, ok))
                time.sleep(inputs.CHURN_PAUSE_SECONDS)
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        errors.append(repr(error))
    finally:
        stop.set()


def reads_behind_updates(reads, updates) -> int:
    """Reads whose interval overlaps an update's (updates never overlap)."""
    starts = [sent for sent, _, _ in updates]
    behind = 0
    for sent, received, _ in reads:
        position = bisect.bisect_right(starts, received) - 1
        if position >= 0 and updates[position][1] >= sent:
            behind += 1
    return behind


def run_serve_churn(ctx, traced: bool):
    from repro.dynamic.live import LiveEngine
    from repro.dynamic.maintain import DynamicSpanner
    from repro.engine.snapshot import SpannerSnapshot
    from repro.spanners.verify import is_ft_spanner

    outcome = common.Outcome()
    snapshot_path = ctx.workdir / "churn-snapshot.json"
    inputs.serve_snapshot(ctx.seed, inputs.CHURN_NODES, inputs.CHURN_EDGES,
                          live=True).save(snapshot_path)
    snapshot = SpannerSnapshot.load(snapshot_path)
    journal = inputs.churn_journal(ctx.seed, snapshot.original, ctx.seconds)
    queries = [inputs.wire_query(q)
               for q in inputs.churn_queries(ctx.seed, snapshot.spanner)]
    final_queries = [inputs.wire_query(q) for q in inputs.churn_queries(
        ctx.seed, snapshot.spanner, inputs.CHECKED_READS, salt=6)]

    # The local replay runs before any daemon exists, so it contends with
    # nothing; it is the reference the daemon's final state must match.
    # It shares the daemon's repair code, so its spanner is certified and its
    # answers are recomputed without it.
    reference = LiveEngine(DynamicSpanner.from_snapshot(
        SpannerSnapshot.load(snapshot_path)), cache_size=0)
    for op in journal:
        reference.apply(op)
    replayed = reference.dynamic
    expected_edges = replayed.spanner.number_of_edges()
    expected_final = reference.distances_batch(final_queries)
    check_independently(outcome, replayed.spanner, final_queries,
                        expected_final, "replayed answer to")
    report = is_ft_spanner(
        replayed.graph, replayed.spanner, replayed.stretch,
        replayed.max_faults, fault_model="vertex", method="sampled",
        samples=inputs.CHURN_CERTIFY_SAMPLES,
        rng=inputs.churn_certify_seed(ctx.seed))
    outcome.check(report.ok, f"replayed spanner is not fault tolerant: "
                  f"{report.violating_fault_set} stretches "
                  f"{report.worst_stretch}")

    trace_out = ctx.workdir / "churn-trace.json" if traced else None
    daemon, setup_s = start_measured_daemon(snapshot_path, ctx.workdir,
                                            trace_out)
    outcome.end_to_end["setup_s"] = setup_s
    reads: List = []
    updates: List = []
    errors: List[str] = []
    stop = threading.Event()
    try:
        started = time.perf_counter()
        _run_threads([
            lambda: _churn_reader(daemon, queries, stop, reads, errors),
            lambda: _churn_writer(daemon, journal, stop, updates, errors)])
        outcome.measured_s = time.perf_counter() - started
        with daemon.client() as client:
            final = client.distances_batch(final_queries)
            health = client.health()
    finally:
        metrics_text, trace = finish_daemon(daemon, outcome, trace_out)
    for error in errors:
        outcome.check(False, f"client failed: {error}")

    outcome.attempted += len(reads) + len(updates) + len(final)
    for kind, records in (("read", reads), ("update", updates)):
        refused = sum(1 for *_, ok in records if not ok)
        outcome.check(refused == 0, f"{refused} {kind}s failed")
    latencies_ms = [1000.0 * (received - sent) for sent, received, _ in reads]
    _latency_metrics(outcome, latencies_ms, outcome.measured_s)

    engine = health["engine"]
    live_edges = engine["snapshot"]["edges"]
    outcome.end_to_end["spanner_edges"] = float(live_edges)
    outcome.check(engine["journal_offset"] == len(journal),
                  f"journal offset {engine['journal_offset']} != "
                  f"{len(journal)} updates sent")
    outcome.check(live_edges == expected_edges,
                  f"live spanner has {live_edges} edges, local replay "
                  f"{expected_edges}")
    mismatched = sum(1 for got, want in zip(final, expected_final)
                     if got != want)
    outcome.check(mismatched == 0 and len(final) == len(expected_final),
                  f"{mismatched} final reads differ from the local replay")

    get, hist = layers.prometheus_getters(metrics_text)
    update_ms = [1000.0 * (received - sent) for sent, received, _ in updates]
    client_side = {"churn.reads_behind_update":
                   float(reads_behind_updates(reads, updates)),
                   "churn.update_p50_ms": common.percentile(update_ms, 50),
                   "churn.update_p90_ms": common.percentile(update_ms, 90)}
    if trace is not None:
        client_side["transport.overhead_ms_p50"] = transport_overhead_ms(
            outcome, trace)
    outcome.layers = layers.layer_metrics(get, hist, trace, client_side)
    return outcome
