"""The persistent serving daemon: an asyncio network API over one core.

:class:`ServingDaemon` is pure transport + policy: it owns the listening
socket, routes HTTP and WebSocket traffic through the verb registry of
:mod:`repro.serve.protocol`, enforces admission control, and exposes the
operational endpoints.  Everything engine-shaped lives behind the core
(:mod:`repro.serve.core` in production, a fake in tests), so this module
imports no engine code and runs on the stdlib alone.

Endpoints
---------
* ``GET /``            — index: the verb registry plus operational routes;
* ``GET /health``      — liveness + snapshot lineage (build spec, journal
  offset, spanner version); reports ``"draining"`` during shutdown;
* ``GET /metrics``     — Prometheus text exposition of the process metrics
  registry (:func:`repro.obs.export.render_prometheus`), including the
  ``repro_serve_*`` families;
* ``POST /v1/<verb>``  — every verb registered in the protocol
  (``distance``, ``distances_batch``, ``connectivity``, ``stretch_audit``,
  ``update``), one JSON document in, one out;
* ``GET /v1/ws``       — WebSocket upgrade for streaming query sessions:
  each text frame is ``{"id", "verb", "payload"}``, answered by
  ``{"id", "ok", "result" | "error"}``; requests within one session run
  concurrently, so pipelined frames coalesce like separate connections.

Admission control
-----------------
The daemon bounds its in-flight request count: past ``queue_limit``
requests (HTTP and WebSocket alike) are answered ``429`` immediately, so a
saturated daemon sheds load instead of queueing unboundedly.  During drain
(SIGTERM/SIGINT or :meth:`ServingDaemon.drain`) new work is answered
``503`` while in-flight requests — including batches parked in the
coalescing window — run to completion before the process exits.

Threading: the daemon is single-loop.  :meth:`wait_until_started` and
:meth:`request_drain` are the only thread-safe entry points, provided so
tests and benchmarks can run the loop in a background thread.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from typing import Any, Dict, Optional, Set, Tuple

from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry, component_registry, get_registry
from repro.serve.protocol import (
    RequestError,
    describe_verbs,
    dispatch,
    verb_for_path,
)
from repro.serve.wire import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    HttpRequest,
    WireError,
    encode_frame,
    read_frame,
    read_http_request,
    response_bytes,
    websocket_accept_key,
)

__all__ = ["ServingDaemon", "WS_PATH"]

#: The WebSocket mount point for streaming query sessions.
WS_PATH = "/v1/ws"

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


def _json_bytes(document: Any) -> bytes:
    return (json.dumps(document) + "\n").encode("utf-8")


class ServingDaemon:
    """Serve one core over HTTP + WebSocket until told to drain.

    Parameters
    ----------
    core:
        The protocol core (see :mod:`repro.serve.protocol`) answering the
        verbs.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    queue_limit:
        Max in-flight requests before new ones are answered ``429``.
    drain_grace_seconds:
        How long :meth:`drain` waits for in-flight requests before
        force-closing connections.
    """

    def __init__(self, core, *, host: str = "127.0.0.1", port: int = 0,
                 queue_limit: int = 256, drain_grace_seconds: float = 10.0,
                 metrics: Optional[MetricsRegistry] = None):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.core = core
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        self.drain_grace_seconds = drain_grace_seconds
        self.metrics = (metrics if metrics is not None
                        else component_registry("serve"))
        self._requests = self.metrics.counter(
            "serve.requests", "API requests by verb and status")
        self._request_seconds = self.metrics.histogram(
            "serve.request_seconds",
            "wall time from request parsed to response written")
        self._queue_depth = self.metrics.gauge(
            "serve.queue_depth", "requests currently in flight")
        self._connections = self.metrics.gauge(
            "serve.connections", "open client connections")
        self._inflight = 0
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._started_at = time.monotonic()
        self._writers: Set[asyncio.StreamWriter] = set()

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._started.set()

    async def run(self, *, install_signals: bool = True) -> None:
        """Start (if needed), serve until drained, then close the socket."""
        if self._server is None:
            await self.start()
        if install_signals:
            self.install_signal_handlers()
        try:
            await self._stopped.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()

    def install_signal_handlers(self) -> None:
        """SIGTERM / SIGINT trigger a graceful drain."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(self.drain()))
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loops; drain stays reachable via the API

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work, stop.

        Idempotent.  New requests are answered ``503`` the moment draining
        starts; requests already past admission — including distance
        batches parked in the coalescing window — complete normally (up to
        the grace period), then remaining connections are force-closed.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        deadline = time.monotonic() + self.drain_grace_seconds
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        # Anything still parked in an open window resolves now.
        window = getattr(self.core, "window", None)
        if window is not None:
            window.flush()
        for writer in list(self._writers):
            writer.close()
        self._stopped.set()

    # ------------------------------------------------- thread-safe entry points
    def wait_until_started(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Block (from another thread) until the socket is bound."""
        if not self._started.wait(timeout):
            raise TimeoutError("daemon did not start in time")
        return self.host, self.port

    def request_drain(self) -> None:
        """Trigger :meth:`drain` from any thread; a no-op once stopped."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.drain()))
        except RuntimeError:
            # The loop has closed: an earlier drain already stopped the
            # daemon, so there is nothing left to drain.
            pass

    # ------------------------------------------------------------ connections
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._connections.inc()
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except WireError as error:
                    writer.write(response_bytes(
                        400, _json_bytes({"error": str(error)}),
                        keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                if request.wants_websocket:
                    await self._websocket_session(request, reader, writer)
                    return
                keep_alive = await self._handle_http(request, writer)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            self._connections.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------- HTTP
    async def _handle_http(self, request: HttpRequest,
                           writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection."""
        keep_alive = request.keep_alive and not self._draining
        status, body, content_type, verb_name = await self._route(request)
        writer.write(response_bytes(status, body, content_type=content_type,
                                    keep_alive=keep_alive))
        await writer.drain()
        self._requests.labels(verb=verb_name, status=str(status)).inc()
        return keep_alive

    async def _route(self, request: HttpRequest) -> Tuple[int, bytes, str, str]:
        path = request.path.rstrip("/") or "/"
        if path == "/" and request.method == "GET":
            return 200, _json_bytes(self._index_document()), _JSON, "index"
        if path == "/health" and request.method == "GET":
            return 200, _json_bytes(self.health_document()), _JSON, "health"
        if path == "/metrics" and request.method == "GET":
            body = render_prometheus(get_registry().snapshot())
            return 200, body.encode("utf-8"), _PROMETHEUS, "metrics"
        verb = verb_for_path(path)
        if verb is None:
            return (404, _json_bytes({"error": f"no endpoint at {path}"}),
                    _JSON, "unknown")
        if request.method != "POST":
            return (405, _json_bytes(
                {"error": f"{verb.path} expects POST, got {request.method}"}),
                _JSON, verb.name)
        try:
            payload = json.loads(request.body) if request.body else {}
        except json.JSONDecodeError as error:
            return (400, _json_bytes({"error": f"bad JSON body: {error}"}),
                    _JSON, verb.name)
        status, document = await self._admit_and_dispatch(verb.name, payload)
        return status, _json_bytes(document), _JSON, verb.name

    async def _admit_and_dispatch(self, verb_name: str,
                                  payload: Any) -> Tuple[int, Dict[str, Any]]:
        """Admission control + dispatch, shared by HTTP and WebSocket."""
        if self._draining:
            return 503, {"error": "daemon is draining", "status": 503}
        if self._inflight >= self.queue_limit:
            return 429, {"error": f"daemon saturated "
                                  f"({self._inflight} requests in flight, "
                                  f"limit {self.queue_limit}); retry",
                         "status": 429}
        self._inflight += 1
        self._queue_depth.set(self._inflight)
        started = time.perf_counter()
        try:
            document = await dispatch(self.core, verb_name, payload)
            return 200, document
        except RequestError as error:
            return error.status, {"error": str(error), "status": error.status}
        except Exception as error:  # noqa: BLE001 - the daemon must not die
            return 500, {"error": f"internal error: {error}", "status": 500}
        finally:
            self._inflight -= 1
            self._queue_depth.set(self._inflight)
            self._request_seconds.observe(time.perf_counter() - started)

    # -------------------------------------------------------------- WebSocket
    async def _websocket_session(self, request: HttpRequest,
                                 reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        key = request.header("sec-websocket-key")
        if request.path != WS_PATH or not key:
            writer.write(response_bytes(
                404 if request.path != WS_PATH else 400,
                _json_bytes({"error": "websocket sessions live at "
                                      f"{WS_PATH} and need a key"}),
                keep_alive=False))
            await writer.drain()
            return
        accept = websocket_accept_key(key)
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {accept}\r\n\r\n").encode("latin-1"))
        await writer.drain()
        self._requests.labels(verb="ws", status="101").inc()
        send_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    opcode, payload = await read_frame(reader)
                except WireError:
                    break
                if opcode == OP_CLOSE:
                    writer.write(encode_frame(payload, OP_CLOSE))
                    await writer.drain()
                    break
                if opcode == OP_PING:
                    async with send_lock:
                        writer.write(encode_frame(payload, OP_PONG))
                        await writer.drain()
                    continue
                if opcode != OP_TEXT:
                    continue
                # Concurrent per-message tasks: pipelined frames from one
                # session coalesce exactly like separate connections.
                task = asyncio.ensure_future(
                    self._ws_message(payload, writer, send_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    async def _ws_message(self, payload: bytes, writer: asyncio.StreamWriter,
                          send_lock: asyncio.Lock) -> None:
        message_id = None
        try:
            message = json.loads(payload)
            message_id = message.get("id") if isinstance(message, dict) else None
            if not isinstance(message, dict) or "verb" not in message:
                raise RequestError('frame must be {"id", "verb", "payload"}')
            verb_name = message["verb"]
            status, document = await self._admit_and_dispatch(
                verb_name, message.get("payload"))
        except RequestError as error:
            status, document = error.status, {"error": str(error)}
            verb_name = "ws"
        except json.JSONDecodeError as error:
            status, document = 400, {"error": f"bad JSON frame: {error}"}
            verb_name = "ws"
        response: Dict[str, Any] = {"id": message_id, "ok": status == 200}
        if status == 200:
            response["result"] = document
        else:
            response["status"] = status
            response["error"] = document.get("error", "request failed")
        self._requests.labels(verb=verb_name, status=str(status)).inc()
        try:
            async with send_lock:
                writer.write(encode_frame(_json_bytes(response), OP_TEXT))
                await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass

    # -------------------------------------------------------------- documents
    def _index_document(self) -> Dict[str, Any]:
        endpoints = describe_verbs()
        endpoints.extend([
            {"verb": "health", "path": "/health",
             "summary": "liveness + snapshot lineage", "write": False},
            {"verb": "metrics", "path": "/metrics",
             "summary": "Prometheus text exposition", "write": False},
            {"verb": "ws", "path": WS_PATH,
             "summary": "WebSocket streaming query session", "write": False},
        ])
        return {"service": "repro-spanner daemon", "endpoints": endpoints}

    def health_document(self) -> Dict[str, Any]:
        """The ``/health`` body: liveness, admission state, and lineage."""
        window = getattr(self.core, "window", None)
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.monotonic() - self._started_at,
            "inflight": self._inflight,
            "queue_limit": self.queue_limit,
            "pending_queries": (window.pending_queries
                                if window is not None else 0),
            "engine": self.core.describe(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "draining" if self._draining else "serving"
        return (f"<ServingDaemon {state} {self.host}:{self.port} "
                f"inflight={self._inflight}>")
