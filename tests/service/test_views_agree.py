"""The compile reply, ``/metrics``, session ``stats`` and the trace are
views over one span stream, so they agree to the last bit.

Each stage, ``queue-wait`` and ``lock-wait`` span of a compile request
is read once: by the reply, by the registry's
``repro_service_phase_seconds`` histogram, and by the trace's span-end
record.  Summed in the same order, the three give the same float.
"""

import re
import urllib.request

from repro import AnalyzerOptions, CompilationScheduler
from repro.driver.scheduler import STAGES
from repro.obs.flame import request_summaries
from repro.obs.tracer import read_trace
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread
from repro.verify.progen import FuzzProgramGenerator

CONFIG = "C"
WAITS = {"queue-wait": "queue_seconds", "lock-wait": "lock_seconds"}

_SUM_RE = re.compile(
    r'^repro_service_(phase|request)_seconds_sum\{(?:phase|type)="([^"]+)"\}'
    r" (\S+)$",
    re.M,
)


def _scrape(address) -> dict:
    """``{(family, label): sum}`` from one ``/metrics`` scrape."""
    host, port = address
    with urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=30
    ) as response:
        body = response.read().decode("utf-8")
    return {
        (family, label): float(value)
        for family, label, value in _SUM_RE.findall(body)
    }


def test_reply_metrics_stats_and_trace_agree(tmp_path):
    sources = FuzzProgramGenerator(120).generate()
    module = sorted(sources)[0]
    trace = str(tmp_path / "views.jsonl")
    with ServiceThread(
        unix_path=str(tmp_path / "views.sock"),
        trace_path=trace,
        metrics_port=0,
    ) as handle:
        with ServiceClient.connect_unix(
            handle.service.unix_path, trace="views"
        ) as conn:
            session = conn.open_session(
                dict(sources), config=CONFIG
            )["session"]
            replies = [conn.compile(session), conn.compile(session)]
            conn.edit(
                session, module,
                sources[module] + "\nint views_fn() { return 3; }\n",
            )
            replies.append(conn.compile(session))
            stats = conn.stats(session)
        scraped = _scrape(handle.metrics_address)

    # One cold compile, one of nothing but cache hits, one after an edit.
    assert replies[0]["phase1_cached"] == 0
    assert replies[1]["phase1_compiled"] == replies[1]["phase2_compiled"] == 0
    assert replies[2]["phase1_compiled"] == 1

    rows = [
        row for row in request_summaries(read_trace(trace))
        if row["op"] == "compile"
    ]
    assert len(rows) == len(replies)
    stages = [
        stage for stage in STAGES if stage in replies[0]["stage_seconds"]
    ]
    assert stages == ["phase1", "analyze", "phase2", "link"]
    for stage in stages:
        from_replies = sum(reply["stage_seconds"][stage] for reply in replies)
        from_trace = sum(row["phases"][stage] for row in rows)
        assert from_replies == scraped[("phase", stage)] == from_trace, stage
        # The session's cumulative stats are the sum of its replies.
        assert stats["stage_seconds"][stage] == from_replies, stage
    for phase, field in WAITS.items():
        from_replies = sum(reply[field] for reply in replies)
        from_trace = sum(row[phase.replace("-", "_")] for row in rows)
        assert from_replies == scraped[("phase", phase)] == from_trace, phase
    # The request histogram observes the request spans themselves.
    assert scraped[("request", "compile")] == sum(
        row["seconds"] for row in rows
    )


def test_scheduler_stage_seconds_are_its_trace_spans():
    with CompilationScheduler(trace=True) as scheduler:
        result = scheduler.compile_program(
            FuzzProgramGenerator(121).generate(),
            analyzer_options=AnalyzerOptions.config(CONFIG),
        )
        records = scheduler.tracer.records
    from_trace: dict = {}
    for record in records:
        if record["ev"] == "span-end" and record["name"] in STAGES:
            from_trace[record["name"]] = (
                from_trace.get(record["name"], 0.0) + record["seconds"]
            )
    assert set(from_trace) == {"phase1", "analyze", "phase2", "link"}
    assert result.metrics.stage_seconds == from_trace
