"""The persistent serving subsystem: a network API over the live engine.

Layering (transport stays importable without the engine loaded):

* :mod:`repro.serve.wire`     — stdlib HTTP/1.1 + WebSocket framing;
* :mod:`repro.serve.protocol` — request schemas, the verb registry, dispatch;
* :mod:`repro.serve.coalesce` — the cross-client batch coalescing window;
* :mod:`repro.serve.daemon`   — the asyncio daemon (routing, admission,
  drain, ``/health`` + ``/metrics``);
* :mod:`repro.serve.core`     — the only engine-aware module: binds the
  protocol onto a :class:`~repro.dynamic.live.LiveEngine`;
* :mod:`repro.serve.client`   — thin blocking HTTP/WebSocket client.
"""

from repro.serve.coalesce import CoalescingWindow
from repro.serve.daemon import ServingDaemon, WS_PATH
from repro.serve.protocol import (
    RequestError,
    audit_document,
    describe_verbs,
    dispatch,
    dispatch_sync,
    from_wire_distance,
    get_verb,
    register_verb,
    verb_for_path,
    wire_distance,
)

__all__ = [
    "CoalescingWindow",
    "ServingDaemon",
    "WS_PATH",
    "RequestError",
    "audit_document",
    "describe_verbs",
    "dispatch",
    "dispatch_sync",
    "from_wire_distance",
    "get_verb",
    "register_verb",
    "verb_for_path",
    "wire_distance",
]

