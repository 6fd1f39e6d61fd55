"""Tests for the serving subsystem (:mod:`repro.serve`).

Layer by layer, matching the subsystem's import discipline:

* the wire layer parses/serializes HTTP and WebSocket frames from literal
  bytes (no sockets, no engine);
* the protocol layer's verb registry and dispatch run against a *fake*
  core, proving transport and engine stay separable — backed by a
  subprocess check that importing the transport loads neither the engine
  nor numpy;
* the coalescing window merges concurrent submits into single runner
  calls with positional answer slices, and degenerates cleanly at
  ``window_seconds=0``;
* the daemon itself is exercised end-to-end over real sockets (background
  event-loop thread): routing, admission control (429 saturation, 503
  drain), graceful drain finishing in-flight work, WebSocket sessions,
  ``/health`` and ``/metrics``;
* the acceptance anchor: with coalescing *on*, concurrent clients get
  answers byte-identical to a directly-queried reference engine, across a
  mid-session ``/v1/update``.
"""

import asyncio
import contextlib
import http.client
import json
import math
import os
import subprocess
import sys
import threading

import pytest

from repro.dynamic.updates import EdgeDelete, EdgeInsert, update_to_json
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import DaemonClient, DaemonError
from repro.serve.coalesce import CoalescingWindow
from repro.serve.daemon import WS_PATH, ServingDaemon
from repro.serve.protocol import (
    VERBS,
    RequestError,
    describe_verbs,
    dispatch,
    dispatch_sync,
    from_wire_distance,
    get_verb,
    parse_faults,
    parse_queries,
    parse_query,
    register_verb,
    verb_for_path,
    wire_distance,
)
from repro.serve.wire import (
    OP_CLOSE,
    OP_PING,
    OP_TEXT,
    WireError,
    encode_frame,
    read_frame,
    read_frame_sync,
    read_http_request,
    response_bytes,
    websocket_accept_key,
)

VERB_NAMES = ("connectivity", "distance", "distances_batch",
              "stretch_audit", "update")


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------

class FakeCore:
    """Engine-free protocol core with arithmetic answers.

    ``distance(s, t, F) = |s - t| + |F|``; negative endpoints are
    unreachable.  Deterministic, instant, and import-free — exactly what
    the protocol layer's duck-typed core contract promises tests.
    """

    fault_model = "vertex"

    def __init__(self, *, delay: float = 0.0, writable: bool = False):
        self.delay = delay
        self.writable = writable
        self.calls = []
        self.applied = []
        self.window = None

    @staticmethod
    def _answer(query):
        source, target, faults = query
        if source < 0 or target < 0:
            return math.inf
        return float(abs(source - target) + len(faults))

    async def distances(self, queries):
        self.calls.append(list(queries))
        if self.delay:
            await asyncio.sleep(self.delay)
        return [self._answer(query) for query in queries]

    async def audit(self, source, target, faults):
        raise RequestError("this fake kept no original graph", status=409)

    async def apply_updates(self, ops):
        if not self.writable:
            raise RequestError("read-only snapshot", status=409)
        self.applied.extend(ops)
        return {"applied": len(ops), "spanner_changed": 0,
                "journal_offset": len(self.applied), "outcomes": []}

    def describe(self):
        return {"writable": self.writable, "fake": True}


class ExplodingCore(FakeCore):
    async def distances(self, queries):
        raise RuntimeError("kernel exploded")


@contextlib.contextmanager
def run_daemon(core, **kwargs):
    """A daemon serving ``core`` on an ephemeral port, loop in a thread."""
    daemon = ServingDaemon(core, port=0, **kwargs)
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.run(install_signals=False)),
        daemon=True)
    thread.start()
    host, port = daemon.wait_until_started()
    try:
        yield daemon, host, port
    finally:
        daemon.request_drain()
        thread.join(timeout=15)
        assert not thread.is_alive(), "daemon loop failed to drain"


def feed_reader(blob: bytes) -> asyncio.StreamReader:
    # Must run inside a live event loop (StreamReader binds to one).
    reader = asyncio.StreamReader()
    reader.feed_data(blob)
    reader.feed_eof()
    return reader


def read_request_bytes(blob: bytes, **kwargs):
    async def scenario():
        return await read_http_request(feed_reader(blob), **kwargs)

    return asyncio.run(scenario())


def read_frame_bytes(blob: bytes):
    async def scenario():
        return await read_frame(feed_reader(blob))

    return asyncio.run(scenario())


class FakeSocket:
    """Just enough socket for :func:`read_frame_sync`: recv from a buffer."""

    def __init__(self, blob: bytes):
        self._blob = blob

    def recv(self, count: int) -> bytes:
        chunk, self._blob = self._blob[:count], self._blob[count:]
        return chunk


# --------------------------------------------------------------------------
# Wire layer
# --------------------------------------------------------------------------

class TestHttpWire:
    def _read(self, blob: bytes):
        return read_request_bytes(blob)

    def test_parses_request_line_headers_and_body(self):
        body = b'{"source": 0, "target": 5}'
        blob = (b"POST /v1/distance HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        request = self._read(blob)
        assert request.method == "POST"
        assert request.path == "/v1/distance"
        assert request.header("content-type") == "application/json"
        assert request.header("Content-Type") == "application/json"
        assert request.body == body
        assert request.keep_alive
        assert not request.wants_websocket

    def test_query_string_is_dropped_and_connection_close_honoured(self):
        request = self._read(b"GET /health?verbose=1 HTTP/1.1\r\n"
                             b"Connection: close\r\n\r\n")
        assert request.path == "/health"
        assert not request.keep_alive

    def test_websocket_upgrade_detection(self):
        request = self._read(b"GET /v1/ws HTTP/1.1\r\n"
                             b"Upgrade: websocket\r\n"
                             b"Connection: keep-alive, Upgrade\r\n"
                             b"Sec-WebSocket-Key: abc\r\n\r\n")
        assert request.wants_websocket

    def test_clean_eof_is_none_truncated_head_raises(self):
        assert self._read(b"") is None
        with pytest.raises(WireError):
            self._read(b"GET / HTTP/1.1\r\nHost: x")

    def test_rejects_bad_length_oversize_and_chunked(self):
        with pytest.raises(WireError):
            self._read(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        with pytest.raises(WireError):
            read_request_bytes(
                b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n",
                max_body=8)
        with pytest.raises(WireError):
            self._read(b"POST / HTTP/1.1\r\n"
                       b"Transfer-Encoding: chunked\r\n\r\n")

    def test_malformed_request_and_header_lines_raise(self):
        with pytest.raises(WireError):
            self._read(b"GARBAGE\r\n\r\n")
        with pytest.raises(WireError):
            self._read(b"GET / HTTP/1.1\r\nno-separator-here\r\n\r\n")

    def test_response_bytes_round_trip(self):
        blob = response_bytes(429, b'{"error": "saturated"}',
                              keep_alive=False,
                              extra_headers={"Retry-After": "1"})
        head, _, body = blob.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests")
        assert b"Content-Length: 22" in head
        assert b"Connection: close" in head
        assert b"Retry-After: 1" in head
        assert body == b'{"error": "saturated"}'


class TestWebSocketWire:
    def test_accept_key_matches_rfc6455_vector(self):
        # The worked example from RFC 6455 section 1.3.
        assert (websocket_accept_key("dGhlIHNhbXBsZSBub25jZQ==")
                == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=")

    @pytest.mark.parametrize("size", [0, 5, 125, 126, 400, 1 << 16])
    @pytest.mark.parametrize("mask", [False, True])
    def test_frame_round_trip_async_and_sync(self, size, mask):
        payload = bytes(range(256)) * (size // 256 + 1)
        payload = payload[:size]
        blob = encode_frame(payload, OP_TEXT, mask=mask)
        opcode, decoded = read_frame_bytes(blob)
        assert (opcode, decoded) == (OP_TEXT, payload)
        opcode, decoded = read_frame_sync(FakeSocket(blob))
        assert (opcode, decoded) == (OP_TEXT, payload)

    def test_fragmented_and_truncated_frames_raise(self):
        blob = bytearray(encode_frame(b"hi", OP_TEXT))
        blob[0] &= 0x7F  # clear FIN
        with pytest.raises(WireError):
            read_frame_sync(FakeSocket(bytes(blob)))
        with pytest.raises(WireError):
            read_frame_bytes(encode_frame(b"hello")[:3])

    def test_control_opcodes_survive(self):
        opcode, payload = read_frame_sync(
            FakeSocket(encode_frame(b"bye", OP_CLOSE, mask=True)))
        assert (opcode, payload) == (OP_CLOSE, b"bye")


# --------------------------------------------------------------------------
# Protocol layer (fake core; no engine anywhere)
# --------------------------------------------------------------------------

class TestProtocolParsing:
    def test_wire_distance_convention(self):
        assert wire_distance(math.inf) is None
        assert wire_distance(3.5) == 3.5
        assert from_wire_distance(None) == math.inf
        assert from_wire_distance(3.5) == 3.5

    def test_parse_query_dict_and_list_forms(self):
        assert parse_query({"source": 0, "target": 5}, "vertex") == (0, 5, ())
        assert parse_query([0, 5], "vertex") == (0, 5, ())
        assert parse_query([0, 5, [2, 3]], "vertex") == (0, 5, (2, 3))
        # Tuple node labels travel as lists and come back as tuples.
        parsed = parse_query({"source": [0, 1], "target": [2, 0],
                              "faults": [[1, 1]]}, "vertex")
        assert parsed == ((0, 1), (2, 0), ((1, 1),))

    def test_parse_faults_edge_model(self):
        assert parse_faults([[0, 1], [2, 3]], "edge") == ((0, 1), (2, 3))
        with pytest.raises(RequestError):
            parse_faults([0], "edge")  # an edge fault must be a pair
        with pytest.raises(RequestError):
            parse_faults("nope", "vertex")

    def test_parse_query_rejects_bad_shapes(self):
        # Besides bad shapes: a JSON object cannot name a node, at the top
        # level or inside a list label, as a source, a target, or a fault
        # of either model.
        bad = {"x": 1}
        for payload, model in (({"source": 0}, "vertex"), ([0], "vertex"),
                               ([0, 1, 2, 3], "vertex"), ("text", "vertex"),
                               (None, "vertex"),
                               ({"source": bad, "target": 5}, "vertex"),
                               ([0, bad], "vertex"),
                               ([[0, bad], 5], "vertex"),
                               ([0, 5, [2, bad]], "vertex"),
                               ([0, 5, [[2, bad]]], "edge"),
                               ([0, 5, [[bad, 3]]], "edge")):
            with pytest.raises(RequestError) as excinfo:
                parse_query(payload, model)
            assert excinfo.value.status == 400

    def test_parse_queries_requires_list_envelope(self):
        assert parse_queries({"queries": [[0, 1]]}, "vertex") == [(0, 1, ())]
        with pytest.raises(RequestError):
            parse_queries({"nope": []}, "vertex")
        with pytest.raises(RequestError):
            parse_queries({"queries": "not-a-list"}, "vertex")


class TestVerbRegistry:
    def test_all_verbs_registered_with_paths(self):
        assert tuple(sorted(VERBS)) == VERB_NAMES
        for name in VERB_NAMES:
            verb = get_verb(name)
            assert verb.path == f"/v1/{name}"
            assert verb_for_path(verb.path) is verb
        assert get_verb("update").write
        assert not get_verb("distance").write

    def test_unknown_verb_is_a_404_request_error(self):
        with pytest.raises(RequestError) as excinfo:
            get_verb("teleport")
        assert excinfo.value.status == 404
        assert verb_for_path("/v1/teleport") is None

    def test_describe_verbs_is_the_index_table(self):
        table = describe_verbs()
        assert [entry["verb"] for entry in table] == list(VERB_NAMES)
        assert all(entry["summary"] for entry in table)

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ValueError):
            @register_verb("distance", path="/v1/distance-again", summary="x")
            class _Clash:
                parse = execute = render = staticmethod(lambda *a: None)
        assert "/v1/distance-again" not in [v.path for v in VERBS.values()]


class TestDispatch:
    def _dispatch(self, core, verb, payload):
        return asyncio.run(dispatch(core, verb, payload))

    def test_distance_document(self):
        document = self._dispatch(FakeCore(), "distance",
                                  {"source": 2, "target": 9, "faults": [4]})
        assert document == {"verb": "distance", "source": 2, "target": 9,
                            "faults": [4], "distance": 8.0,
                            "reachable": True}

    def test_unreachable_distance_travels_as_null(self):
        document = self._dispatch(FakeCore(), "distance",
                                  {"source": -1, "target": 3})
        assert document["distance"] is None
        assert document["reachable"] is False

    def test_distances_batch_document(self):
        document = self._dispatch(
            FakeCore(), "distances_batch",
            {"queries": [[0, 4], [1, 1, [2]], [-1, 2]]})
        assert document["verb"] == "distances_batch"
        assert document["count"] == 3
        assert document["distances"] == [4.0, 1.0, None]
        empty = self._dispatch(FakeCore(), "distances_batch", {"queries": []})
        assert empty["count"] == 0 and empty["distances"] == []

    def test_connectivity_document(self):
        document = self._dispatch(FakeCore(), "connectivity",
                                  {"source": 0, "target": -5})
        assert document["connected"] is False

    def test_audit_error_carries_its_status(self):
        with pytest.raises(RequestError) as excinfo:
            self._dispatch(FakeCore(), "stretch_audit",
                           {"source": 0, "target": 1})
        assert excinfo.value.status == 409

    def test_update_parses_journal_ops(self):
        core = FakeCore(writable=True)
        document = self._dispatch(core, "update", {"updates": [
            update_to_json(EdgeInsert(3, 4, weight=2.0)),
            update_to_json(EdgeDelete(0, 1)),
        ]})
        assert document["verb"] == "update"
        assert document["applied"] == 2
        assert [op.kind for op in core.applied] == ["insert", "delete"]
        assert core.applied[0].weight == 2.0

    def test_update_rejections(self):
        with pytest.raises(RequestError) as excinfo:
            self._dispatch(FakeCore(), "update",
                           {"updates": [update_to_json(EdgeDelete(0, 1))]})
        assert excinfo.value.status == 409  # read-only core
        for payload in ({}, {"updates": "x"},
                        {"updates": [{"op": "explode", "u": 0, "v": 1}]},
                        {"updates": [{"op": "delete", "u": 0, "v": 1},
                                     {"op": "delete", "u": {"x": 1}, "v": 2}]}):
            core = FakeCore(writable=True)
            with pytest.raises(RequestError) as excinfo:
                self._dispatch(core, "update", payload)
            assert excinfo.value.status == 400
            assert core.applied == []

    def test_dispatch_sync_runs_without_a_loop(self):
        document = dispatch_sync(FakeCore(), "distance",
                                 {"source": 1, "target": 7})
        assert document["distance"] == 6.0


def test_transport_imports_without_engine_or_numpy():
    """The serving transport must load on the stdlib alone."""
    probe = (
        "import sys\n"
        "import repro.serve.wire, repro.serve.protocol\n"
        "import repro.serve.coalesce, repro.serve.daemon, repro.serve.client\n"
        "heavy = [m for m in sys.modules\n"
        "         if m.split('.')[0] == 'numpy'\n"
        "         or m.startswith(('repro.engine', 'repro.paths',\n"
        "                          'repro.spanners', 'repro.build'))]\n"
        "assert not heavy, heavy\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


# --------------------------------------------------------------------------
# Coalescing window
# --------------------------------------------------------------------------

class TestCoalescingWindow:
    def _window(self, runner, **kwargs):
        kwargs.setdefault("metrics", MetricsRegistry(name="test"))
        return CoalescingWindow(runner, **kwargs)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self._window(lambda q: q, window_seconds=-1)
        with pytest.raises(ValueError):
            self._window(lambda q: q, max_batch=0)

    def test_zero_window_flushes_every_submit(self):
        calls = []

        def runner(queries):
            calls.append(list(queries))
            return [float(source) for source, _, _ in queries]

        async def scenario():
            window = self._window(runner, window_seconds=0)
            first = await window.submit([(1, 2, ())])
            second = await window.submit([(3, 4, ())])
            return first, second, window

        first, second, window = asyncio.run(scenario())
        assert (first, second) == ([1.0], [3.0])
        assert len(calls) == 2
        assert window.batches_flushed == 2
        assert window.pending_queries == 0

    def test_concurrent_submits_merge_into_one_batch(self):
        calls = []

        def runner(queries):
            calls.append(list(queries))
            return [float(source * 10 + target)
                    for source, target, _ in queries]

        async def scenario():
            window = self._window(runner, window_seconds=0.01)
            answers = await asyncio.gather(
                window.submit([(1, 2, ())]),
                window.submit([(3, 4, ()), (5, 6, ())]),
                window.submit([(7, 8, ())]))
            return answers, window

        answers, window = asyncio.run(scenario())
        # One merged batch, positional slices back to each submitter.
        assert len(calls) == 1 and len(calls[0]) == 4
        assert answers == [[12.0], [34.0, 56.0], [78.0]]
        assert window.batches_flushed == 1
        assert window.requests_coalesced == 3

    def test_max_batch_flushes_early(self):
        calls = []

        def runner(queries):
            calls.append(list(queries))
            return [0.0] * len(queries)

        async def scenario():
            window = self._window(runner, window_seconds=30.0, max_batch=3)
            await asyncio.gather(window.submit([(0, 1, ()), (1, 2, ())]),
                                 window.submit([(2, 3, ())]))
            return window

        window = asyncio.run(scenario())  # returns => no 30s timer waited on
        assert window.batches_flushed == 1
        assert len(calls[0]) == 3

    def test_runner_exception_reaches_every_parked_request(self):
        def runner(queries):
            raise ValueError("engine on fire")

        async def scenario():
            window = self._window(runner, window_seconds=0.005)
            return await asyncio.gather(window.submit([(0, 1, ())]),
                                        window.submit([(1, 2, ())]),
                                        return_exceptions=True)

        results = asyncio.run(scenario())
        assert all(isinstance(error, ValueError) for error in results)

    def test_short_answer_is_a_runtime_error(self):
        async def scenario():
            window = self._window(lambda queries: [1.0], window_seconds=0)
            return await asyncio.gather(window.submit([(0, 1, ()), (1, 2, ())]),
                                        return_exceptions=True)

        (error,) = asyncio.run(scenario())
        assert isinstance(error, RuntimeError)


# --------------------------------------------------------------------------
# The daemon over real sockets (fake core)
# --------------------------------------------------------------------------

class TestDaemonTransport:
    def test_index_health_and_verb_round_trips(self):
        core = FakeCore(writable=True)
        with run_daemon(core) as (daemon, host, port):
            with DaemonClient(host, port) as client:
                index = client.index()
                paths = {entry["path"] for entry in index["endpoints"]}
                assert {"/v1/distance", "/v1/distances_batch",
                        "/v1/connectivity", "/v1/stretch_audit", "/v1/update",
                        "/health", "/metrics", WS_PATH} <= paths

                assert client.distance(2, 9, [4]) == 8.0
                assert client.distance(-1, 3) == math.inf
                assert client.distances_batch([(0, 4), (1, 1, [2])]) \
                    == [4.0, 1.0]
                assert client.connectivity(0, 4)
                assert not client.connectivity(0, -4)
                report = client.update([EdgeInsert(1, 2)])
                assert report["applied"] == 1

                health = client.health()
                assert health["status"] == "ok"
                assert health["inflight"] == 0
                assert health["engine"] == {"writable": True, "fake": True}

    def test_error_statuses_and_daemon_survival(self):
        with run_daemon(FakeCore()) as (daemon, host, port):
            with DaemonClient(host, port) as client:
                with pytest.raises(DaemonError) as excinfo:
                    client._request("GET", "/v1/nowhere")
                assert excinfo.value.status == 404
                with pytest.raises(DaemonError) as excinfo:
                    client.stretch_audit(0, 1)
                assert excinfo.value.status == 409
                with pytest.raises(DaemonError) as excinfo:
                    client.update([EdgeDelete(0, 1)])
                assert excinfo.value.status == 409

            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.request("GET", "/v1/distance")  # verbs expect POST
            response = connection.getresponse()
            response.read()
            assert response.status == 405
            connection.request("POST", "/v1/distance", body=b"{broken",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
            assert b"bad JSON" in response.read()
            connection.close()

        with run_daemon(ExplodingCore()) as (daemon, host, port):
            with DaemonClient(host, port) as client:
                with pytest.raises(DaemonError) as excinfo:
                    client.distance(0, 1)
                assert excinfo.value.status == 500
                # A 500 must not kill the daemon.
                assert client.health()["status"] == "ok"

    def test_saturation_answers_429(self):
        core = FakeCore(delay=0.6)
        with run_daemon(core, queue_limit=1) as (daemon, host, port):
            slow_answer = []
            def slow_client():
                with DaemonClient(host, port) as client:
                    slow_answer.append(client.distance(0, 7))
            thread = threading.Thread(target=slow_client)
            thread.start()
            try:
                deadline = 50  # wait until the slow request is admitted
                while daemon._inflight == 0 and deadline:
                    threading.Event().wait(0.01)
                    deadline -= 1
                with DaemonClient(host, port) as client:
                    with pytest.raises(DaemonError) as excinfo:
                        client.distance(1, 2)
                assert excinfo.value.status == 429
            finally:
                thread.join(timeout=10)
            assert slow_answer == [7.0]  # the admitted request still landed

    def test_drain_finishes_inflight_then_rejects_with_503(self):
        core = FakeCore(delay=0.5)
        with run_daemon(core) as (daemon, host, port):
            probe = DaemonClient(host, port)
            assert probe.health()["status"] == "ok"  # open a keep-alive conn
            slow_answer = []
            def slow_client():
                with DaemonClient(host, port) as client:
                    slow_answer.append(client.distance(3, 9))
            thread = threading.Thread(target=slow_client)
            thread.start()
            deadline = 50
            while daemon._inflight == 0 and deadline:
                threading.Event().wait(0.01)
                deadline -= 1
            daemon.request_drain()
            deadline = 50
            while not daemon._draining and deadline:
                threading.Event().wait(0.01)
                deadline -= 1
            # New work on the existing connection is shed with 503...
            with pytest.raises(DaemonError) as excinfo:
                probe.call("distance", {"source": 0, "target": 1})
            assert excinfo.value.status == 503
            # ...while the admitted request runs to completion.
            thread.join(timeout=10)
            assert slow_answer == [6.0]
            probe.close()

    def test_request_drain_after_the_loop_closed_is_a_no_op(self):
        daemon = ServingDaemon(FakeCore(), port=0)
        thread = threading.Thread(
            target=lambda: asyncio.run(daemon.run(install_signals=False)))
        thread.start()
        daemon.wait_until_started()
        daemon.request_drain()
        thread.join(timeout=15)
        assert not thread.is_alive()
        daemon.request_drain()  # the drained daemon's loop is closed

    def test_websocket_session_pipelines_and_reports_errors(self):
        with run_daemon(FakeCore()) as (daemon, host, port):
            client = DaemonClient(host, port)
            with client.session() as session:
                assert session.distance(2, 11) == 9.0
                # Pipelined frames: fire three, collect three, match by id.
                sent = {session.send("distance",
                                     {"source": 0, "target": t}): float(t)
                        for t in (3, 5, 8)}
                seen = {}
                for _ in range(len(sent)):
                    response = session.recv()
                    assert response["ok"]
                    seen[response["id"]] = response["result"]["distance"]
                assert seen == sent
                with pytest.raises(DaemonError) as excinfo:
                    session.ask("teleport", {})
                assert excinfo.value.status == 404
            client.close()


# --------------------------------------------------------------------------
# End-to-end over a live engine (the acceptance anchor)
# --------------------------------------------------------------------------

def _live_engine(rng: int = 31):
    from repro.build import BuildSession, BuildSpec
    from repro.dynamic import LiveEngine
    from repro.graph import generators

    graph = generators.gnm(18, 48, rng=rng, connected=True, weighted=True)
    spec = BuildSpec(algorithm="ft-greedy", stretch=3, max_faults=1)
    return LiveEngine(BuildSession(graph, spec).dynamic())


def _query_plan(nodes):
    queries = []
    for i in range(12):
        source = nodes[(5 * i) % len(nodes)]
        target = nodes[(7 * i + 3) % len(nodes)]
        fault = nodes[(11 * i + 1) % len(nodes)]
        faults = [fault] if fault not in (source, target) else []
        if source != target:
            queries.append((source, target, faults))
    return queries


class TestDaemonEndToEnd:
    def _engine_core(self, live, **kwargs):
        from repro.serve.core import EngineCore

        return EngineCore(live, **kwargs)

    def test_cross_client_coalescing_merges_into_one_batch(self):
        live = _live_engine()
        core = self._engine_core(live, window_seconds=0.25)
        with run_daemon(core) as (daemon, host, port):
            barrier = threading.Barrier(2)
            answers = {}
            def client_thread(name, source, target):
                client = DaemonClient(host, port)
                barrier.wait()
                answers[name] = client.distance(source, target)
                client.close()
            threads = [
                threading.Thread(target=client_thread, args=("a", 0, 9)),
                threading.Thread(target=client_thread, args=("b", 1, 7)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15)
        # Two clients, two requests, ONE engine batch: the daemon's point.
        assert core.window.requests_coalesced == 2
        assert core.window.batches_flushed == 1
        assert answers["a"] == live.distance(0, 9)
        assert answers["b"] == live.distance(1, 7)

    def test_malformed_label_fails_alone_in_its_window(self):
        # Both requests park in the same window; the malformed one is
        # refused at parse time, so the valid one still gets its distance.
        live = _live_engine()
        core = self._engine_core(live, window_seconds=0.05)

        async def both():
            return await asyncio.gather(
                dispatch(core, "distance", {"source": 0, "target": 5}),
                dispatch(core, "distance",
                         {"source": {"x": 1}, "target": 5}),
                return_exceptions=True)

        good, bad = asyncio.run(both())
        assert good["distance"] == wire_distance(live.distance(0, 5))
        assert isinstance(bad, RequestError) and bad.status == 400
        assert core.window.requests_coalesced == 1

    def test_partially_failing_update_keeps_the_applied_prefix(self):
        live = _live_engine()
        core = self._engine_core(live, window_seconds=0.0)
        edge = next(iter(sorted(live.dynamic.spanner.edge_keys(), key=repr)))
        missing = next((u, v) for u in live.snapshot.spanner.nodes()
                       for v in live.snapshot.spanner.nodes()
                       if u != v and not live.dynamic.graph.has_edge(u, v))
        with run_daemon(core) as (daemon, host, port):
            with DaemonClient(host, port) as client:
                with pytest.raises(DaemonError) as excinfo:
                    client.update([EdgeDelete(*edge), EdgeDelete(*missing)])
                assert excinfo.value.status == 409
                assert "update 1 of 2 failed after 1 applied" \
                    in str(excinfo.value)
                health = client.health()
        assert health["engine"]["journal_offset"] == 1
        assert core.describe()["journal_offset"] == 1
        assert len(live.dynamic.journal) == 1
        assert not live.dynamic.graph.has_edge(*edge)
        assert not live.dynamic.spanner.has_edge(*edge)

    def test_concurrent_answers_identical_to_reference_across_update(self):
        served = _live_engine()
        reference = _live_engine()  # same rng => structurally identical
        core = self._engine_core(served, window_seconds=0.05, max_batch=64)
        nodes = sorted(served.snapshot.spanner.nodes())
        plan = _query_plan(nodes)

        def fan_out(host, port, workers=4):
            shards = [plan[i::workers] for i in range(workers)]
            collected = {}
            barrier = threading.Barrier(workers)
            def worker(shard):
                client = DaemonClient(host, port)
                barrier.wait()
                for source, target, faults in shard:
                    collected[(source, target, tuple(faults))] = \
                        client.distance(source, target, faults)
                client.close()
            threads = [threading.Thread(target=worker, args=(shard,))
                       for shard in shards]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            return collected

        with run_daemon(core) as (daemon, host, port):
            client = DaemonClient(host, port)

            phase_one = fan_out(host, port)
            expected = reference.distances_batch(
                [(s, t, tuple(f)) for s, t, f in plan])
            for (s, t, f), want in zip(plan, expected):
                assert phase_one[(s, t, tuple(f))] == want

            # A mid-session update through the daemon's write path, mirrored
            # onto the reference engine.
            edge = next(iter(sorted(served.dynamic.spanner.edge_keys(),
                                    key=repr)))
            report = client.update([EdgeDelete(*edge)])
            assert report["applied"] == 1
            assert report["journal_offset"] == 1
            assert report["outcomes"][0]["op"] == "delete"
            reference.apply(EdgeDelete(*edge))

            phase_two = fan_out(host, port)
            expected = reference.distances_batch(
                [(s, t, tuple(f)) for s, t, f in plan])
            for (s, t, f), want in zip(plan, expected):
                assert phase_two[(s, t, tuple(f))] == want

            health = client.health()
            assert health["engine"]["writable"]
            assert health["engine"]["journal_offset"] == 1
            assert health["engine"]["snapshot"]["algorithm"] \
                == "ft-greedy[dynamic]"

            metrics = client.metrics_text()
            assert "repro_serve_requests" in metrics
            assert "repro_serve_request_seconds" in metrics
            assert "repro_serve_coalesce_batches" in metrics
            assert "repro_serve_coalesce_occupancy" in metrics
            assert "repro_engine_queries_served" in metrics
            client.close()
        assert core.window.requests_coalesced >= 2 * len(plan)
