"""End-to-end request tracing through the daemon.

The contract under test: with ``trace_path`` set, every request's span
tree lands in one daemon JSONL stream tagged with the client's trace
id, and each trace id's canonicalized stream is *deterministic* — a
session driven concurrently alongside others produces byte-identical
per-trace streams to the same session driven serially against a fresh
daemon.  Plus the supporting surface: timing fields on the compile
reply, span-tree accounting, and tracing staying fully off without a
trace path.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

from repro.obs.flame import request_summaries, span_tree
from repro.obs.tracer import (
    canonicalize_request_trace,
    read_trace,
    trace_groups,
)
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread
from repro.verify.progen import FuzzProgramGenerator

CONFIG = "C"
SESSIONS = 3


def _program(seed: int) -> dict:
    """Distinct program per seed: distinct artifact keys, so sessions
    cannot perturb each other's cache hit/miss pattern."""
    return FuzzProgramGenerator(100 + seed).generate()


def _drive(path: str, seed: int) -> None:
    """One session under trace id ``trace-<seed>``: compile, edit one
    module, recompile, close."""
    sources = _program(seed)
    with ServiceClient.connect_unix(
        path, trace=f"trace-{seed}"
    ) as conn:
        session = conn.open_session(
            dict(sources), config=CONFIG
        )["session"]
        conn.compile(session)
        module = sorted(sources)[0]
        conn.edit(
            session, module, sources[module] + "\nint extra_fn_t() { return 7; }\n"
        )
        conn.compile(session)
        conn.close_session(session)


def _traced_run(tmp_path, name, concurrent: bool) -> dict:
    """Run all sessions against one traced daemon; return the trace
    grouped by trace id."""
    trace = str(tmp_path / f"{name}.jsonl")
    with ServiceThread(
        unix_path=str(tmp_path / f"{name}.sock"), trace_path=trace
    ) as handle:
        path = handle.service.unix_path
        if concurrent:
            with ThreadPoolExecutor(max_workers=SESSIONS) as pool:
                list(pool.map(
                    lambda seed: _drive(path, seed), range(SESSIONS)
                ))
        else:
            for seed in range(SESSIONS):
                _drive(path, seed)
    return trace_groups(read_trace(trace))


def _stream_bytes(records) -> bytes:
    return "\n".join(
        json.dumps(record, sort_keys=True)
        for record in canonicalize_request_trace(records)
    ).encode()


def test_concurrent_traces_match_serial_byte_for_byte(tmp_path):
    concurrent = _traced_run(tmp_path, "concurrent", True)
    serial = _traced_run(tmp_path, "serial", False)
    assert sorted(concurrent) == sorted(serial) == [
        f"trace-{seed}" for seed in range(SESSIONS)
    ]
    for trace_id in serial:
        assert (
            _stream_bytes(concurrent[trace_id])
            == _stream_bytes(serial[trace_id])
        ), f"trace {trace_id} diverged between concurrent and serial"


def test_request_span_tree_shape(tmp_path):
    trace = str(tmp_path / "shape.jsonl")
    with ServiceThread(
        unix_path=str(tmp_path / "shape.sock"), trace_path=trace
    ) as handle:
        with ServiceClient.connect_unix(
            handle.service.unix_path, trace="shape"
        ) as conn:
            session = conn.open_session(
                _program(0), config=CONFIG
            )["session"]
            reply = conn.compile(session)
            conn.close_session(session)

    # The compile reply surfaces the server-side waits.
    assert reply["queue_seconds"] >= 0.0
    assert reply["lock_seconds"] >= 0.0
    assert reply["seconds"] > 0.0

    records = trace_groups(read_trace(trace))["shape"]
    roots = span_tree(records)
    assert [root["name"] for root in roots] == [
        "request", "request", "request"
    ]
    compile_root = roots[1]
    assert compile_root["data"]["op"] == "compile"
    child_names = [child["name"] for child in compile_root["children"]]
    assert child_names == ["lock-wait", "compile"]
    compile_span = compile_root["children"][1]
    inner = [child["name"] for child in compile_span["children"]]
    assert inner == ["queue-wait", "job"]
    # The job span is the compile thread's share: the reply's seconds.
    job_span = compile_span["children"][1]
    assert job_span["seconds"] == reply["seconds"]
    phases = [child["name"] for child in job_span["children"]]
    for phase in ("phase1", "analyze", "phase2", "link"):
        assert phase in phases, phases
    # The worker-handoff event rides on the compile span with its
    # timing in the payload.
    assert any(
        event["type"] == "worker-handoff"
        and "seconds" in event["data"]
        for event in compile_span["events"]
    )


def test_child_spans_sum_within_request_duration(tmp_path):
    """Self-time accounting: children never exceed their parent."""
    trace = str(tmp_path / "sum.jsonl")
    with ServiceThread(
        unix_path=str(tmp_path / "sum.sock"), trace_path=trace
    ) as handle:
        with ServiceClient.connect_unix(
            handle.service.unix_path, trace="sum"
        ) as conn:
            session = conn.open_session(
                _program(1), config=CONFIG
            )["session"]
            conn.compile(session)
            conn.close_session(session)

    def check(node):
        child_total = sum(
            child["seconds"] for child in node["children"]
        )
        assert child_total <= node["seconds"] + 1e-6, (
            node["name"], child_total, node["seconds"]
        )
        for child in node["children"]:
            check(child)

    roots = span_tree(trace_groups(read_trace(trace))["sum"])
    assert roots
    for root in roots:
        check(root)

    # And the per-request summary agrees with the raw tree.
    rows = request_summaries(read_trace(trace))
    compile_rows = [row for row in rows if row["op"] == "compile"]
    assert len(compile_rows) == 1
    row = compile_rows[0]
    breakdown = (
        row["queue_wait"]
        + row["lock_wait"]
        + sum(row["phases"].values())
    )
    assert 0.0 < breakdown <= row["seconds"] + 1e-6


def test_untraced_daemon_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_SERVICE_TRACE", raising=False)
    with ServiceThread(
        unix_path=str(tmp_path / "plain.sock")
    ) as handle:
        assert handle.service.trace_path is None
        with ServiceClient.connect_unix(
            handle.service.unix_path, trace="ignored"
        ) as conn:
            session = conn.open_session(
                _program(2), config=CONFIG
            )["session"]
            reply = conn.compile(session)
            stats = conn.stats()
            conn.close_session(session)
    # The trace field is accepted and dropped; timing still reported.
    assert reply["queue_seconds"] >= 0.0
    assert stats["trace_path"] is None
    assert not [
        name for name in os.listdir(tmp_path)
        if name.endswith(".jsonl")
    ]


def test_trace_env_knob(tmp_path, monkeypatch):
    trace = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("REPRO_SERVICE_TRACE", trace)
    with ServiceThread(
        unix_path=str(tmp_path / "env.sock")
    ) as handle:
        assert handle.service.trace_path == trace
        with ServiceClient.connect_unix(
            handle.service.unix_path
        ) as conn:
            conn.ping()
            assert conn.stats()["trace_path"] == trace
    records = read_trace(trace)
    assert records
    # Untagged clients fall back to "-" (no session either on ping).
    assert {record["trace"] for record in records} == {"-"}


def test_request_error_lands_in_trace(tmp_path):
    trace = str(tmp_path / "err.jsonl")
    with ServiceThread(
        unix_path=str(tmp_path / "err.sock"), trace_path=trace
    ) as handle:
        with ServiceClient.connect_unix(
            handle.service.unix_path, trace="err"
        ) as conn:
            try:
                conn.compile("no-such-session")
            except Exception:
                pass
    rows = request_summaries(read_trace(trace))
    assert rows[-1]["error"] == "unknown-session"
