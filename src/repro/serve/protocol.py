"""Request schemas, the verb handler registry, and the dispatch loop.

This module is the *one* definition of the serving API's shapes: what a
request payload for each verb looks like, and what the response document
looks like.  Both serving surfaces run through it —

* the persistent daemon (:mod:`repro.serve.daemon`) routes every
  ``POST /v1/<verb>`` body and every WebSocket message here;
* the one-shot ``repro-spanner serve`` / ``query`` CLI verbs build their
  JSON reports from the same render functions —

so the two surfaces cannot drift apart.

Verbs register declaratively with :func:`register_verb`: a new endpoint is
one :class:`Verb` subclass with ``parse`` / ``execute`` / ``render``
methods, and the daemon picks up its route from the registry (the MAAS
websocket handler-registry shape).  Handlers never touch sockets and never
construct engines — they speak to a *core*, the duck-typed bridge described
below, so the whole protocol layer is importable and testable without the
query engine loaded.

The core protocol
-----------------
A core is any object with:

* ``fault_model`` — the snapshot's fault model name (``"vertex"``/``"edge"``);
* ``async distances(queries)`` — answer ``(source, target, faults)``
  triples (this is where the daemon's coalescing window lives);
* ``async audit(source, target, faults)`` — one stretch audit (an object
  with the :class:`repro.engine.engine.StretchAudit` attributes);
* ``async apply_updates(ops)`` — apply parsed update ops, returning an
  application report dict (raises :class:`RequestError` when read-only);
* ``describe()`` — a JSON-safe summary for ``/health``.

Wire conventions
----------------
* Node labels are JSON scalars; tuple labels (product graphs) travel as
  lists and are restored exactly like the graph JSON format.  A label that
  holds a JSON object cannot name a node and is refused with 400.
* A fault set is a list of nodes (vertex model) or ``[u, v]`` pairs (edge
  model).
* Distances are JSON numbers, with ``null`` for *unreachable* (JSON has no
  ``Infinity``); :func:`wire_distance` / :func:`from_wire_distance` are the
  only mapping.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dynamic.updates import UpdateError, update_from_json
from repro.faults.models import get_fault_model
from repro.graph.io import _restore_node

__all__ = [
    "RequestError",
    "Verb",
    "VERBS",
    "register_verb",
    "get_verb",
    "verb_for_path",
    "describe_verbs",
    "dispatch",
    "dispatch_sync",
    "parse_query",
    "parse_queries",
    "audit_document",
    "wire_distance",
    "from_wire_distance",
]


class RequestError(ValueError):
    """A request the protocol refuses; carries the HTTP status to answer."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def wire_distance(value: float) -> Optional[float]:
    """A distance as it travels in JSON: ``None`` for unreachable."""
    return None if math.isinf(value) else value


def from_wire_distance(value: Optional[float]) -> float:
    """Invert :func:`wire_distance` (client side)."""
    return math.inf if value is None else float(value)


# ---------------------------------------------------------------------------
# Payload parsing
# ---------------------------------------------------------------------------

def _parse_node(value: Any) -> Any:
    """Restore one node label from its JSON form (lists become tuples).

    A label must be hashable to name a node; a JSON object (at any depth)
    is refused here, so it never reaches a batch merged with other
    clients' requests.
    """
    node = _restore_node(value)
    try:
        hash(node)
    except TypeError:
        raise RequestError(
            f"node label {value!r} must be a JSON scalar or a list of them"
        ) from None
    return node


def parse_faults(value: Any, fault_model: str) -> Tuple:
    """Parse a request's fault list under the given model."""
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):
        raise RequestError(f"faults must be a list, got {type(value).__name__}")
    faults = []
    for element in value:
        if fault_model == "edge":
            if not isinstance(element, (list, tuple)) or len(element) != 2:
                raise RequestError(
                    f"edge fault {element!r} must be a [u, v] pair")
            faults.append((_parse_node(element[0]), _parse_node(element[1])))
        else:
            faults.append(_parse_node(element))
    return tuple(faults)


def _render_faults(faults: Sequence) -> List:
    """Faults back into their JSON form (tuples become lists)."""
    return [list(fault) if isinstance(fault, tuple) else fault
            for fault in faults]


def parse_query(payload: Any, fault_model: str) -> Tuple[Any, Any, Tuple]:
    """One ``(source, target, faults)`` triple from a dict or 2/3-list."""
    if isinstance(payload, dict):
        missing = [key for key in ("source", "target") if key not in payload]
        if missing:
            raise RequestError(f"query is missing {', '.join(missing)}")
        return (_parse_node(payload["source"]), _parse_node(payload["target"]),
                parse_faults(payload.get("faults"), fault_model))
    if isinstance(payload, (list, tuple)) and len(payload) in (2, 3):
        faults = payload[2] if len(payload) == 3 else ()
        return (_parse_node(payload[0]), _parse_node(payload[1]),
                parse_faults(faults, fault_model))
    raise RequestError(
        "query must be {source, target, faults?} or [source, target, faults?]")


def parse_queries(payload: Any, fault_model: str) -> List[Tuple]:
    """The ``queries`` list of a ``distances_batch`` request."""
    if not isinstance(payload, dict) or "queries" not in payload:
        raise RequestError("payload must be {\"queries\": [...]}")
    queries = payload["queries"]
    if not isinstance(queries, list):
        raise RequestError("queries must be a list")
    return [parse_query(entry, fault_model) for entry in queries]


def audit_document(audit: Any) -> Dict[str, Any]:
    """The JSON form of one stretch audit — shared with ``query --audit``."""
    return {
        "distance": wire_distance(audit.spanner_distance),
        "original_distance": wire_distance(audit.original_distance),
        "stretch": wire_distance(audit.stretch),
        "required_stretch": audit.required_stretch,
        "within_budget": audit.within_budget,
        "ok": audit.ok,
    }


# ---------------------------------------------------------------------------
# The verb registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verb:
    """One registered API verb: schema, execution, and rendering."""

    name: str
    path: str
    summary: str
    parse: Callable[[Any, str], Any]
    execute: Callable[..., Any]  # async (core, parsed) -> result
    render: Callable[[Any, Any], Dict[str, Any]]  # (parsed, result) -> doc
    write: bool = False  # whether the verb mutates the served spanner


VERBS: Dict[str, Verb] = {}
_PATHS: Dict[str, Verb] = {}


def register_verb(name: str, *, path: str, summary: str,
                  write: bool = False) -> Callable:
    """Class decorator registering a verb's parse/execute/render trio."""
    def decorator(namespace):
        verb = Verb(name=name, path=path, summary=summary,
                    parse=namespace.parse, execute=namespace.execute,
                    render=namespace.render, write=write)
        if name in VERBS:
            raise ValueError(f"verb {name!r} already registered")
        if path in _PATHS:
            raise ValueError(f"path {path!r} already registered")
        VERBS[name] = verb
        _PATHS[path] = verb
        return namespace
    return decorator


def get_verb(name: str) -> Verb:
    verb = VERBS.get(name)
    if verb is None:
        raise RequestError(
            f"unknown verb {name!r}; expected one of {sorted(VERBS)}",
            status=404)
    return verb


def verb_for_path(path: str) -> Optional[Verb]:
    """The verb mounted at an HTTP path, or ``None``."""
    return _PATHS.get(path)


def describe_verbs() -> List[Dict[str, Any]]:
    """The registry as a JSON-safe table (the daemon's index document)."""
    return [{"verb": verb.name, "path": verb.path, "summary": verb.summary,
             "write": verb.write}
            for verb in sorted(VERBS.values(), key=lambda v: v.name)]


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

async def dispatch(core, verb_name: str, payload: Any) -> Dict[str, Any]:
    """Parse → execute → render one request against ``core``.

    Everything the protocol can reject surfaces as :class:`RequestError`
    (with its HTTP status); anything else is a genuine server bug and is
    left to the caller's 500 handler.
    """
    verb = get_verb(verb_name)
    # Unknown fault models fail loudly here, before any engine work.
    get_fault_model(core.fault_model)
    parsed = verb.parse(payload if payload is not None else {},
                        core.fault_model)
    result = await verb.execute(core, parsed)
    return verb.render(parsed, result)


def dispatch_sync(core, verb_name: str, payload: Any) -> Dict[str, Any]:
    """Blocking :func:`dispatch` for the one-shot CLI surfaces.

    The core used here must resolve without a running event loop (the
    direct core's ``distances`` does — its coalescing window is degenerate),
    so ``asyncio.run`` completes in one pass.
    """
    return asyncio.run(dispatch(core, verb_name, payload))


# ---------------------------------------------------------------------------
# The verbs
# ---------------------------------------------------------------------------

@register_verb("distance", path="/v1/distance",
               summary="one fault-tolerant distance query")
class _DistanceVerb:
    @staticmethod
    def parse(payload, fault_model):
        return parse_query(payload, fault_model)

    @staticmethod
    async def execute(core, parsed):
        return (await core.distances([parsed]))[0]

    @staticmethod
    def render(parsed, result):
        source, target, faults = parsed
        return {
            "verb": "distance",
            "source": source,
            "target": target,
            "faults": _render_faults(faults),
            "distance": wire_distance(result),
            "reachable": not math.isinf(result),
        }


@register_verb("distances_batch", path="/v1/distances_batch",
               summary="a batch of distance queries (grouped and coalesced)")
class _DistancesBatchVerb:
    @staticmethod
    def parse(payload, fault_model):
        return parse_queries(payload, fault_model)

    @staticmethod
    async def execute(core, parsed):
        if not parsed:
            return []
        return await core.distances(parsed)

    @staticmethod
    def render(parsed, result):
        return {
            "verb": "distances_batch",
            "count": len(result),
            "distances": [wire_distance(value) for value in result],
        }


@register_verb("connectivity", path="/v1/connectivity",
               summary="reachability under a fault set")
class _ConnectivityVerb:
    @staticmethod
    def parse(payload, fault_model):
        return parse_query(payload, fault_model)

    @staticmethod
    async def execute(core, parsed):
        return (await core.distances([parsed]))[0]

    @staticmethod
    def render(parsed, result):
        source, target, faults = parsed
        return {
            "verb": "connectivity",
            "source": source,
            "target": target,
            "faults": _render_faults(faults),
            "connected": not math.isinf(result),
        }


@register_verb("stretch_audit", path="/v1/stretch_audit",
               summary="served distance vs the original graph's ground truth")
class _StretchAuditVerb:
    @staticmethod
    def parse(payload, fault_model):
        return parse_query(payload, fault_model)

    @staticmethod
    async def execute(core, parsed):
        source, target, faults = parsed
        return await core.audit(source, target, faults)

    @staticmethod
    def render(parsed, result):
        source, target, faults = parsed
        return {
            "verb": "stretch_audit",
            "source": source,
            "target": target,
            "faults": _render_faults(faults),
            "audit": audit_document(result),
        }


@register_verb("update", path="/v1/update", write=True,
               summary="apply update-journal ops through the maintainer")
class _UpdateVerb:
    @staticmethod
    def parse(payload, fault_model):
        if not isinstance(payload, dict) or "updates" not in payload:
            raise RequestError("payload must be {\"updates\": [...]}")
        documents = payload["updates"]
        if not isinstance(documents, list):
            raise RequestError("updates must be a list of journal op dicts")
        try:
            ops = [update_from_json(document) for document in documents]
        except (UpdateError, KeyError, TypeError, ValueError) as error:
            raise RequestError(f"bad update op: {error}") from None
        for op in ops:
            # Refused here, before any op of the batch applies.
            _parse_node(op.u)
            _parse_node(op.v)
        return ops

    @staticmethod
    async def execute(core, parsed):
        return await core.apply_updates(parsed)

    @staticmethod
    def render(parsed, result):
        return {"verb": "update", **result}
