"""Structured event/span tracer for the compilation pipeline.

Zero-dependency (standard library only) and deliberately boring: a
:class:`Tracer` collects a flat stream of *records* — typed events and
begin/end markers of nested spans — each carrying a monotonically
increasing ordinal.  Records are kept in memory and, when the tracer
was given a path, appended to a JSONL file as they happen.

Determinism is a hard requirement: the test suite asserts that two
runs of the same compilation produce *identical* canonicalized
streams.  The rules that make that hold:

* payloads never contain wall-clock values, process ids, memory
  addresses, or hash-order-dependent collections (sets are sorted
  before they enter a record);
* the only timing field is the ``seconds`` slot of span-end records,
  and :func:`canonicalize_trace` strips it;
* the scheduler runs every module's job inline, in module order, so
  nothing can reorder the stream.

Spans are the one clock: each span adds its wall-clock to its
tracer's per-name ``totals`` (the span-end record carries the same
reading), and stage seconds, reply durations and ``/metrics`` read
those totals.  Schedulers and daemon requests default to the sinkless
:class:`SpanClock`: totals only, no records, ``enabled`` false.

Instrumentation sites never hold a tracer; they fetch the ambient one
via :func:`current_tracer`, which answers the no-op :data:`NULL_TRACER`
unless a tracer was installed with :func:`activate` (the scheduler
does this around the analyzer).  The ambient slot is a
:class:`~contextvars.ContextVar`, so concurrent service requests
running on separate threads each see their own request-scoped tracer.
The null tracer's methods are empty and its ``enabled`` flag is
``False``, so disabled tracing costs one context-variable read and one
attribute check per instrumentation site.

The compile service writes many requests' records into one daemon
stream, tagging each record with its request's ``trace`` id; see
:func:`trace_groups` / :func:`canonicalize_request_trace` for how those
interleaved streams are recovered and compared deterministically.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar

#: Keys holding timing values; stripped by :func:`canonicalize_trace`
#: (at the record top level *and* inside event ``data`` payloads, so
#: instrumentation may attach wall-clock readings to events without
#: breaking stream determinism).
TIMING_FIELDS = ("seconds",)

#: Record-level keys that vary between otherwise-equivalent service
#: runs: global write ordinals (interleaving-dependent) — stripped by
#: :func:`canonicalize_request_trace` only; in-process streams keep
#: their dense per-tracer ordinals.
VOLATILE_FIELDS = ("ord",)

#: ``data`` keys carrying server-assigned correlation ids whose values
#: depend on request arrival order (session names are handed out
#: first-come-first-served), stripped by
#: :func:`canonicalize_request_trace`.
VOLATILE_DATA_FIELDS = ("session",)

#: The scheduler's stage spans, in pipeline order.  Stage seconds, the
#: metrics fold, the per-request breakdown and the daemon's phase
#: histograms all read these span names.
STAGES = ("phase1", "analyze", "phase2", "link", "verify")


def _jsonable(value):
    """Render payload values deterministic and JSON-serializable.

    Sets (including frozensets) are sorted — they are the one standard
    container whose iteration order could differ between runs.
    """
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


class _NullSpan:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class _TimedSpan:
    """An open span's clock: on exit it adds its ``seconds`` to
    ``totals[name]``."""

    __slots__ = ("totals", "name", "start", "seconds")

    def __init__(self, totals: dict, name: str):
        self.totals, self.name = totals, name

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc_info):
        self.seconds = time.perf_counter() - self.start
        self.totals[self.name] = self.totals.get(self.name, 0) + self.seconds


class SpanClock:
    """The sinkless tracer: spans add their wall-clock to :attr:`totals`
    (seconds per span name); there are no records or events, and
    ``enabled`` is ``False`` so guarded sites skip payload construction
    entirely (``if tracer.enabled: ...``)."""

    enabled = False

    def __init__(self):
        self.totals: dict = {}

    def event(self, type_, **payload):
        pass

    def span(self, name, **attrs):
        return _TimedSpan(self.totals, name)

    def close(self):
        pass

    @property
    def records(self):
        return []


class NullTracer(SpanClock):
    """The disabled tracer: a clock whose spans clock nothing."""

    def span(self, name, **attrs):
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class Tracer:
    """Collects a deterministic stream of events and nested spans.

    Args:
        path: When given, every record is also appended to this JSONL
            file (created/truncated on construction).  Records are
            always retained in memory on :attr:`records` — traces are
            bounded by program structure (per-module, per-web,
            per-global events), never by execution length.
    """

    enabled = True

    def __init__(self, path=None):
        self.path = str(path) if path is not None else None
        self.records: list = []
        self._file = (
            open(self.path, "w", encoding="utf-8")
            if self.path is not None
            else None
        )
        self._ordinal = 0
        self._span_stack: list = []  # span ids, innermost last
        self._next_span_id = 1
        self.totals: dict = {}  # seconds per span name, as on SpanClock

    # -- emission ---------------------------------------------------------

    def _emit(self, record: dict) -> None:
        record["ord"] = self._ordinal
        self._ordinal += 1
        self.records.append(record)
        if self._file is not None:
            self._file.write(json.dumps(record, sort_keys=True))
            self._file.write("\n")

    def event(self, type_: str, **payload) -> None:
        """Record one typed event under the innermost open span."""
        self._emit(
            {
                "ev": "event",
                "type": type_,
                "span": self._span_stack[-1] if self._span_stack else 0,
                "data": _jsonable(payload),
            }
        )

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a nested span; the end record carries wall-clock
        ``seconds`` (the single timing field in the schema), the same
        reading the span adds to :attr:`totals`."""
        span_id = self._next_span_id
        self._next_span_id += 1
        self._emit(
            {
                "ev": "span-begin",
                "name": name,
                "id": span_id,
                "parent": self._span_stack[-1] if self._span_stack else 0,
                "data": _jsonable(attrs),
            }
        )
        self._span_stack.append(span_id)
        clock = _TimedSpan(self.totals, name)
        try:
            with clock:
                yield span_id
        finally:
            self._span_stack.pop()
            self._emit(
                {
                    "ev": "span-end",
                    "name": name,
                    "id": span_id,
                    "seconds": clock.seconds,
                }
            )

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- ambient tracer -------------------------------------------------------

#: Context-local so the compile service can activate one request-scoped
#: tracer per thread without cross-request contamination; plain
#: single-threaded callers see classic global behavior.
_CURRENT: ContextVar = ContextVar("repro_ambient_tracer",
                                  default=NULL_TRACER)


def current_tracer():
    """The ambient tracer (the no-op :data:`NULL_TRACER` by default)."""
    return _CURRENT.get()


@contextmanager
def activate(tracer):
    """Install ``tracer`` as the ambient tracer for the dynamic extent."""
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)


# -- reading and canonicalization -----------------------------------------


def read_trace(path) -> list:
    """Parse a JSONL trace file back into its record list."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _strip_timing(record: dict) -> dict:
    cleaned = {
        key: value
        for key, value in record.items()
        if key not in TIMING_FIELDS
    }
    data = cleaned.get("data")
    if isinstance(data, dict) and any(key in data
                                      for key in TIMING_FIELDS):
        cleaned["data"] = {
            key: value
            for key, value in data.items()
            if key not in TIMING_FIELDS
        }
    return cleaned


def canonicalize_trace(records) -> list:
    """Ordinal-sorted records with timing fields stripped.

    Two runs of the same compilation are *defined* to be equivalent
    when their canonicalized traces compare equal; the determinism
    suite asserts exactly this.
    """
    return [
        _strip_timing(record)
        for record in sorted(records, key=lambda r: r.get("ord", 0))
    ]


def trace_groups(records) -> dict:
    """Split a daemon trace into per-trace-id record streams.

    The compile service appends each finished request's records to one
    shared JSONL file, tagging every record with the request's
    ``trace`` id (client-chosen; defaults to the session name).  File
    order is preserved within each group: the service flushes a
    request's block atomically from the event loop, and requests
    within one trace are serialized by the client's request/response
    cycle, so per-group order is deterministic even when groups
    interleave arbitrarily in the file.  Untagged records (plain
    scheduler traces) land under ``""``.
    """
    groups: dict = {}
    for record in records:
        groups.setdefault(record.get("trace", ""), []).append(record)
    return groups


def canonicalize_request_trace(records) -> list:
    """Canonical form of one trace group's record stream.

    Like :func:`canonicalize_trace` but for service request streams:
    records keep their file order (per-request ordinals restart at
    zero, so a global ordinal sort would jumble multi-request traces),
    the interleaving-dependent fields in :data:`VOLATILE_FIELDS` are
    dropped, and server-assigned correlation ids
    (:data:`VOLATILE_DATA_FIELDS`) are dropped from span/event
    payloads.  A trace group from a concurrent daemon run compares
    byte-equal to the same session run serially exactly when their
    canonicalized streams match — the service tracing suite asserts
    this.
    """
    canonical = []
    for record in records:
        cleaned = _strip_timing(record)
        for key in VOLATILE_FIELDS:
            cleaned.pop(key, None)
        data = cleaned.get("data")
        if isinstance(data, dict) and any(
            key in data for key in VOLATILE_DATA_FIELDS
        ):
            cleaned["data"] = {
                key: value
                for key, value in data.items()
                if key not in VOLATILE_DATA_FIELDS
            }
        canonical.append(cleaned)
    return canonical
