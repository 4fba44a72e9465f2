"""Compile service: a long-lived multi-session daemon over the
compilation scheduler.

The paper's separate-compilation design — modules recompiled
independently against a persistent program database — is exactly the
shape of a compile server.  This package serves it: many concurrent
edit/compile sessions over a newline-JSON protocol (unix socket +
TCP), each with its own scheduler, all deduping phase-1/phase-2 work
through one shared artifact cache, with prometheus metrics at
``/metrics``.  See ``docs/SERVICE.md``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    request_frame,
    validate_request,
)
from repro.service.server import CompileService, ServiceThread

__all__ = [
    "PROTOCOL_VERSION",
    "CompileService",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "decode_frame",
    "encode_frame",
    "error_response",
    "ok_response",
    "request_frame",
    "validate_request",
]
