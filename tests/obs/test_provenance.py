"""Provenance completeness: every decision is narrated, exactly once.

The contract under test (ISSUE satellite d): for the real workloads
under every Table 4 configuration, each eligible global appears exactly
once in the ``global-decision`` stream — promoted with registers or
rejected with machine-readable reasons — and every ineligible global is
reported with its screening reasons.  Separately, the simulator's
per-procedure attribution must account for every cycle of the program
total.
"""

import pytest

from repro.analyzer.database import ProgramDatabase
from repro.analyzer.driver import analyze_program
from repro.analyzer.options import AnalyzerOptions
from repro.callgraph.dataflow import classify_globals
from repro.driver.scheduler import CompilationScheduler
from repro.machine.profiler import ProfileData
from repro.machine.simulator import Simulator, run_executable
from repro.obs.provenance import (
    events_of,
    explain_global,
    format_explanation,
)
from repro.obs.tracer import Tracer, activate
from repro.workloads import get_workload

WORKLOADS = ("othello", "dhrystone")
CONFIGS = ("A", "B", "C", "D", "E", "F")

_PHASE1: dict = {}
_PROFILES: dict = {}


def _phase1(workload_name):
    """Phase-1 results, computed once per workload for the module."""
    if workload_name not in _PHASE1:
        workload = get_workload(workload_name)
        with CompilationScheduler() as scheduler:
            _PHASE1[workload_name] = scheduler.run_phase1(
                workload.sources
            )
    return _PHASE1[workload_name]


def _profile(workload_name):
    """Call-count profile for configs B/F, computed once per workload."""
    if workload_name not in _PROFILES:
        workload = get_workload(workload_name)
        phase1 = _phase1(workload_name)
        with CompilationScheduler() as scheduler:
            executable = scheduler.compile_with_database(
                phase1, ProgramDatabase()
            )
        stats = run_executable(executable, workload.max_cycles)
        _PROFILES[workload_name] = ProfileData.from_stats(stats)
    return _PROFILES[workload_name]


def _trace_analysis(workload_name, config):
    summaries = [result.summary for result in _phase1(workload_name)]
    profile = _profile(workload_name) if config in ("B", "F") else None
    options = AnalyzerOptions.config(config, profile)
    tracer = Tracer()
    with activate(tracer):
        database = analyze_program(summaries, options)
    return summaries, tracer.records, database


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_eligible_global_decided_exactly_once(workload, config):
    summaries, records, _database = _trace_analysis(workload, config)
    classes = classify_globals(summaries)
    eligible = sorted(
        name for name, reasons in classes.items() if not reasons
    )
    ineligible = sorted(
        name for name, reasons in classes.items() if reasons
    )
    assert eligible, "workload must exercise the promotion machinery"

    decisions = events_of(records, "global-decision")
    assert sorted(d["name"] for d in decisions) == eligible
    for decision in decisions:
        if decision["decision"] == "promoted":
            assert decision["registers"], decision
            assert decision["reasons"] == [], decision
        else:
            assert decision["decision"] == "rejected", decision
            assert decision["reasons"], decision
            assert decision["registers"] == [], decision

    marked = events_of(records, "global-ineligible")
    assert sorted(payload["name"] for payload in marked) == ineligible
    for payload in marked:
        assert payload["reasons"], payload


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_promoted_decisions_match_database(workload, config):
    _summaries, records, database = _trace_analysis(workload, config)
    promoted_in_db = set()
    for directives in database.procedures.values():
        for entry in directives.promoted:
            promoted_in_db.add(entry.name)
    promoted_in_trace = {
        decision["name"]
        for decision in events_of(records, "global-decision")
        if decision["decision"] == "promoted"
    }
    assert promoted_in_trace == promoted_in_db


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_procedure_cycles_sum_to_program_total(workload):
    workload_def = get_workload(workload)
    tracer = Tracer()
    with CompilationScheduler(trace=tracer) as scheduler:
        phase1 = scheduler.run_phase1(workload_def.sources)
        database = scheduler.analyze(
            [result.summary for result in phase1],
            AnalyzerOptions.config("C"),
        )
        executable = scheduler.compile_with_database(phase1, database)
        with activate(tracer):
            stats = Simulator(
                executable,
                volatile_registers=(
                    database.convention_volatile_registers()
                ),
            ).run(workload_def.max_cycles)

    assert stats.per_procedure
    totals = stats.per_procedure.values()
    assert sum(entry.cycles for entry in totals) == stats.cycles
    assert sum(
        entry.instructions for entry in totals
    ) == stats.instructions
    assert sum(
        entry.save_restore for entry in totals
    ) == stats.save_restore_executed

    # The trace's execution event carries the same attribution.
    execution = events_of(tracer.records, "execution")[-1]
    assert execution["cycles"] == stats.cycles
    assert execution["save_restore_executed"] == (
        stats.save_restore_executed
    )
    assert sum(
        entry["cycles"] for entry in execution["per_procedure"].values()
    ) == stats.cycles


def test_why_promoted_global_othello():
    """Acceptance: a promoted global explains its coloring win."""
    _summaries, records, _database = _trace_analysis("othello", "C")
    explanation = explain_global(records, "passes")
    assert explanation["status"] == "promoted"
    assert explanation["registers"]
    colored = [
        web for web in explanation["webs"] if web["status"] == "colored"
    ]
    assert colored
    assert colored[0]["register"] in explanation["registers"]
    assert colored[0]["benefit"] is not None
    assert colored[0]["entry_cost"] is not None
    text = format_explanation(explanation)
    assert "promoted" in text
    assert f"r{explanation['registers'][0]}" in text


def test_why_not_coloring_rejected_global_othello():
    """Acceptance: a coloring-rejected global names the winner webs."""
    _summaries, records, _database = _trace_analysis("othello", "C")
    rejected = [
        decision["name"]
        for decision in events_of(records, "global-decision")
        if decision["decision"] == "rejected"
        and "lost-coloring" in decision["reasons"]
    ]
    assert rejected, "config C on othello must reject some globals"
    name = rejected[0]

    explanation = explain_global(records, name)
    assert explanation["status"] == "rejected"
    assert "lost-coloring" in explanation["reasons"]
    uncolored = [
        web
        for web in explanation["webs"]
        if web["status"] == "uncolored"
    ]
    assert uncolored
    winners = uncolored[0]["winners"]
    assert winners, "the losing web must name its interfering winners"
    promoted = {
        decision["name"]
        for decision in events_of(records, "global-decision")
        if decision["decision"] == "promoted"
    }
    for winner in winners:
        assert winner["variable"] in promoted
        assert winner["register"] is not None
    text = format_explanation(explanation)
    assert "lost to web" in text


def test_explain_unknown_global():
    _summaries, records, database = _trace_analysis("dhrystone", "C")
    assert explain_global(records, "no_such")["status"] == "unknown"
    # A trace is the only source: a database is not taken for one.
    with pytest.raises(TypeError):
        explain_global(database, "no_such")


def test_ineligible_global_explained():
    _summaries, records, _database = _trace_analysis("othello", "C")
    explanation = explain_global(records, "board")
    assert explanation["status"] == "ineligible"
    assert "address-taken" in explanation["reasons"]
