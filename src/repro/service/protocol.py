"""Wire protocol of the compile service.

The daemon speaks newline-delimited JSON over a byte stream (unix
socket or TCP).  One frame is one JSON object on one line:

* **request** — ``{"id": <int|str>, "type": <op>, "version": 1,
  ...parameters}``.  ``id`` is chosen by the client and echoed back, so
  a client may pipeline requests and match replies.
* **response** — ``{"id": <echoed>, "ok": true, "result": {...}}`` on
  success, ``{"id": <echoed or null>, "ok": false, "error": {"code":
  <slug>, "message": <human text>}}`` on any failure.

Malformed input never tears the server down: every way a frame can be
wrong (not JSON, not an object, too large, missing or ill-typed
fields, unknown operation, wrong protocol version) maps to a
:class:`ProtocolError` with a stable ``code``, which the server turns
into a structured error response.  Only two conditions close the
connection afterwards: an oversized frame (the stream is desynced
beyond repair) and client EOF.

The operation vocabulary (see ``docs/SERVICE.md`` for the session
lifecycle): ``open_session``, ``edit``, ``compile``, ``profile``,
``stats``, ``close``, plus ``ping`` and ``shutdown``.
"""

from __future__ import annotations

import json
import os

from repro.backend.allocators.base import resolve_allocator

#: Bump on any incompatible change to the frame layout or operation
#: semantics; requests carrying another version are refused with a
#: structured ``version-mismatch`` error naming both versions.
PROTOCOL_VERSION = 1

#: Hard per-frame byte ceiling (sources ride inside frames, so the
#: default is generous).  ``REPRO_SERVICE_MAX_FRAME`` overrides.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024


def max_frame_bytes() -> int:
    raw = os.environ.get("REPRO_SERVICE_MAX_FRAME", "").strip()
    return int(raw) if raw else DEFAULT_MAX_FRAME_BYTES


class ServiceError(Exception):
    """A structured operation failure (``code`` is the wire slug).

    Raised server-side by operation handlers (and turned into an error
    response), and client-side by :class:`~repro.service.client.
    ServiceClient` when a reply carries an error object.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ProtocolError(Exception):
    """A structured protocol violation (``code`` is machine-readable).

    ``request_id`` carries the offending request's ``id`` when the
    frame was intact enough to have one, so the error response can
    still be correlated client-side.
    """

    def __init__(self, code: str, message: str, request_id=None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id


#: operation -> {field: (allowed types, required)}.  ``id``, ``type``
#: and ``version`` are frame-level and validated separately.  Every
#: operation accepts an optional ``trace`` context field — a
#: client-chosen trace id correlating the requests of one logical
#: session; when the daemon runs with ``REPRO_SERVICE_TRACE`` set,
#: each request's span tree is tagged with it in the daemon's trace
#: stream (untagged requests fall back to their session name).
REQUEST_SCHEMA = {
    "open_session": {
        "sources": ((dict,), False),
        "opt_level": ((int,), False),
        "config": ((str, type(None)), False),
        "allocator": ((str, type(None)), False),
        "max_cycles": ((int,), False),
    },
    "edit": {
        "session": ((str,), True),
        "module": ((str,), True),
        # null text removes the module from the session.
        "text": ((str, type(None)), True),
    },
    "compile": {
        "session": ((str,), True),
    },
    "profile": {
        "session": ((str,), True),
    },
    "stats": {
        "session": ((str, type(None)), False),
    },
    "close": {
        "session": ((str,), True),
    },
    "ping": {},
    "shutdown": {},
}

for _schema in REQUEST_SCHEMA.values():
    _schema["trace"] = ((str, type(None)), False)
del _schema

#: Analyzer configuration letters ``open_session`` accepts (plus null
#: for the level-2 baseline without interprocedural allocation).
CONFIG_LETTERS = frozenset("ABCDEF")


def encode_frame(payload: dict) -> bytes:
    """One response/request object as a wire frame (JSON + newline)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"


def decode_frame(line: bytes, limit: int | None = None) -> dict:
    """Parse one raw frame; raise :class:`ProtocolError` when bad."""
    if limit is not None and len(line) > limit:
        raise ProtocolError(
            "frame-too-large",
            f"frame of {len(line)} bytes exceeds the {limit}-byte limit",
        )
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError("bad-json", "frame is not valid JSON")
    if not isinstance(payload, dict):
        raise ProtocolError(
            "not-object",
            f"frame must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def validate_request(payload: dict):
    """Check one decoded frame against the schema.

    Returns ``(request_id, operation, params)``; raises
    :class:`ProtocolError` (carrying the request id whenever one was
    readable) on any violation.
    """
    # JSON booleans decode to bool, a subclass of int: wherever the
    # frame or the schema asks for an integer, a bool is refused.
    request_id = payload.get("id")
    if isinstance(request_id, bool) or not isinstance(
        request_id, (int, str)
    ):
        raise ProtocolError(
            "missing-id",
            "request must carry an integer or string 'id'",
            request_id=None,
        )
    version = payload.get("version")
    if isinstance(version, bool) or version != PROTOCOL_VERSION:
        raise ProtocolError(
            "version-mismatch",
            f"protocol version {version!r} not supported "
            f"(server speaks {PROTOCOL_VERSION})",
            request_id=request_id,
        )
    operation = payload.get("type")
    if not isinstance(operation, str):
        raise ProtocolError(
            "missing-type",
            "request must carry a string 'type'",
            request_id=request_id,
        )
    schema = REQUEST_SCHEMA.get(operation)
    if schema is None:
        raise ProtocolError(
            "unknown-type",
            f"unknown request type {operation!r} (known: "
            f"{', '.join(sorted(REQUEST_SCHEMA))})",
            request_id=request_id,
        )
    params = {}
    for field, (types, required) in schema.items():
        if field not in payload:
            if required:
                raise ProtocolError(
                    "missing-field",
                    f"{operation!r} requires field {field!r}",
                    request_id=request_id,
                )
            continue
        value = payload[field]
        if isinstance(value, bool) or not isinstance(value, types):
            names = "/".join(t.__name__ for t in types)
            raise ProtocolError(
                "bad-field",
                f"{operation!r} field {field!r} must be {names}, "
                f"got {type(value).__name__}",
                request_id=request_id,
            )
        params[field] = value
    unknown = (
        set(payload) - set(schema) - {"id", "type", "version"}
    )
    if unknown:
        raise ProtocolError(
            "bad-field",
            f"{operation!r} does not accept field(s) "
            f"{', '.join(sorted(unknown))}",
            request_id=request_id,
        )
    if operation == "open_session":
        sources = params.get("sources", {})
        for name, text in sources.items():
            if not isinstance(name, str) or not isinstance(text, str):
                raise ProtocolError(
                    "bad-field",
                    "'sources' must map module names to source text",
                    request_id=request_id,
                )
        config = params.get("config")
        if config is not None and config not in CONFIG_LETTERS:
            raise ProtocolError(
                "bad-field",
                f"'config' must be one of "
                f"{'/'.join(sorted(CONFIG_LETTERS))} or null, "
                f"got {config!r}",
                request_id=request_id,
            )
        try:
            resolve_allocator(params.get("allocator"))
        except ValueError as err:
            raise ProtocolError(
                "bad-field", f"'allocator': {err}", request_id=request_id
            )
        opt_level = params.get("opt_level")
        if opt_level is not None and opt_level not in (0, 1, 2):
            raise ProtocolError(
                "bad-field",
                f"'opt_level' must be 0, 1 or 2, got {opt_level!r}",
                request_id=request_id,
            )
    return request_id, operation, params


def request_frame(request_id, operation: str, **params) -> bytes:
    """Client-side helper: build one request frame."""
    payload = {
        "id": request_id,
        "type": operation,
        "version": PROTOCOL_VERSION,
    }
    payload.update(params)
    return encode_frame(payload)


def ok_response(request_id, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, code: str, message: str) -> dict:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
