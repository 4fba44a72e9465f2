"""Trace determinism (ISSUE satellite c).

Two runs of the same compilation are *defined* equivalent when their
canonicalized traces compare equal.  This suite pins that definition
against reality over seeded fuzz programs, run to run (same process,
fresh scheduler).
"""

import pytest

from repro.analyzer.options import AnalyzerOptions
from repro.driver.scheduler import CompilationScheduler
from repro.obs.tracer import Tracer, canonicalize_trace
from repro.verify.progen import generate_fuzz_program

SEEDS = (1, 2, 3)


def _traced_compile(sources):
    tracer = Tracer()
    with CompilationScheduler(trace=tracer) as scheduler:
        phase1 = scheduler.run_phase1(sources)
        database = scheduler.analyze(
            [result.summary for result in phase1],
            AnalyzerOptions.config("C"),
        )
        scheduler.compile_with_database(phase1, database)
    return canonicalize_trace(tracer.records)


@pytest.mark.parametrize("seed", SEEDS)
def test_two_serial_runs_trace_identically(seed):
    sources = generate_fuzz_program(seed)
    first = _traced_compile(sources)
    second = _traced_compile(sources)
    assert first == second


def test_trace_has_substance():
    """Guard against vacuous determinism (empty == empty)."""
    sources = generate_fuzz_program(SEEDS[0])
    records = _traced_compile(sources)
    kinds = {
        record.get("type")
        for record in records
        if record.get("ev") == "event"
    }
    assert "module-phase1" in kinds
    assert "global-decision" in kinds
    assert "directive" in kinds
    assert "link" in kinds
    spans = {
        record.get("name")
        for record in records
        if record.get("ev") == "span-begin"
    }
    assert {"phase1", "analyze", "coloring", "clusters",
            "register-sets", "phase2", "link"} <= spans
