"""Shared infrastructure for the paper-reproduction benchmarks.

``paper_results`` runs the full experimental matrix once per pytest
session: every Table 3 workload is compiled at the level-2 baseline and
under every analyzer configuration A-F, then simulated.  Individual
benchmark modules print their table from these cached results and use
``benchmark`` to time a representative kernel of the stage they cover.

The matrix is compiled through one shared
:class:`~repro.driver.scheduler.CompilationScheduler` with a per-session
artifact cache, so the seven analyzer configurations share every
phase-1 artifact and every phase-2 object module whose directives a
configuration change left untouched.  Alongside the printed tables the
session refreshes the sections it measured in the repo-root
``BENCH_results.json``: the per-workload counters, the scheduler's
wall-clock/cache statistics and each bench module's own section.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import pytest

from repro import (
    AnalyzerOptions,
    CompilationScheduler,
    ProgramDatabase,
    collect_profile,
    compile_with_database,
    run_executable,
    run_phase1,
)
from repro.machine.simulator import ExecutionStats
from repro.workloads import all_workloads

CONFIG_LEGEND = {
    "A": "Spill motion only",
    "B": "Spill motion w/profile info",
    "C": "Spill motion & 6 reg coloring",
    "D": "Spill motion & greedy coloring",
    "E": "Spill motion & blanket promotion",
    "F": "Spill motion & 6 reg coloring w/profile info",
}


@dataclass
class WorkloadResults:
    """Everything measured for one workload."""

    name: str
    baseline: ExecutionStats
    configs: dict = field(default_factory=dict)  # letter -> ExecutionStats
    databases: dict = field(default_factory=dict)  # letter -> ProgramDatabase
    phase1: list = field(default_factory=list)
    profile: object = None

    def cycle_improvement(self, config: str) -> float:
        stats = self.configs[config]
        return 100.0 * (self.baseline.cycles - stats.cycles) / self.baseline.cycles

    def singleton_reduction(self, config: str) -> float:
        stats = self.configs[config]
        base = max(1, self.baseline.singleton_references)
        return 100.0 * (base - stats.singleton_references) / base


def _run_workload(name, workload, scheduler) -> WorkloadResults:
    phase1 = run_phase1(workload.sources, 2, scheduler=scheduler)
    summaries = [r.summary for r in phase1]
    baseline = run_executable(
        compile_with_database(phase1, ProgramDatabase(), 2,
                              scheduler=scheduler),
        max_cycles=workload.max_cycles,
    )
    profile = collect_profile(phase1, max_cycles=workload.max_cycles,
                              scheduler=scheduler)
    results = WorkloadResults(name, baseline, phase1=phase1,
                              profile=profile)
    for config in "ABCDEF":
        options = AnalyzerOptions.config(
            config, profile if config in "BF" else None
        )
        database = scheduler.analyze(summaries, options)
        stats = run_executable(
            compile_with_database(phase1, database, 2,
                                  scheduler=scheduler),
            max_cycles=workload.max_cycles,
        )
        if stats.output != baseline.output:  # pragma: no cover
            raise AssertionError(
                f"{name}/{config}: output diverged from baseline"
            )
        results.configs[config] = stats
        results.databases[config] = database
    _BENCH_WORKLOADS[name] = {
        "baseline": _stats_payload(baseline),
        "configs": {
            config: _stats_payload(stats)
            for config, stats in results.configs.items()
        },
    }
    return results


def _stats_payload(stats: ExecutionStats) -> dict:
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "memory_references": stats.memory_references,
        "singleton_references": stats.singleton_references,
    }


# Machine-readable mirror of the printed tables, written at session end.
_BENCH_WORKLOADS: dict = {}


# Scheduler statistics for the whole matrix, captured for the JSON
# report written at session end.
_SCHEDULER_METRICS: dict = {}


# Disabled-tracing overhead measurements (bench_observability.py),
# written alongside the tables at session end.
_OBSERVABILITY: dict = {}


# Simulator backend throughput (bench_simulator_throughput.py), written
# alongside the tables at session end.
_SIM_THROUGHPUT: dict = {}


# Allocator-strategy tournament (bench_allocator_tournament.py): the
# full matrix re-measured under every registered allocation strategy,
# written alongside the tables at session end.
_ALLOCATOR_TOURNAMENT: dict = {}


# Analyzer scale harness (bench_analyzer_scale.py): procedures/sec of
# the packed vs reference dataflow kernels on synthesized 1k-50k
# procedure programs, written alongside the tables at session end.
_SCALABILITY: dict = {}


# Compile-service load harness (bench_service_load.py): concurrent
# edit-session throughput, cache hit rate, and request latency
# percentiles against the daemon, written alongside the tables at
# session end.
_SERVICE_LOAD: dict = {}


@pytest.fixture(scope="session")
def paper_results():
    """name -> :class:`WorkloadResults` for every Table 3 workload."""
    results = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache:
        with CompilationScheduler(cache_dir=cache) as scheduler:
            for name, workload in all_workloads().items():
                results[name] = _run_workload(name, workload, scheduler)
            _SCHEDULER_METRICS.update(
                scheduler.metrics_snapshot().to_json_dict()
            )
    return results


FIGURE3_PROCS = {
    "A": {"calls": {"B": 1, "C": 1}, "refs": {"g3": 10}},
    "B": {"calls": {"D": 1, "E": 1}, "refs": {"g1": 10, "g3": 10}},
    "C": {"calls": {"F": 1, "G": 1}, "refs": {"g2": 10, "g3": 10}},
    "D": {"refs": {"g1": 10}},
    "E": {"refs": {"g1": 10, "g2": 10}},
    "F": {"calls": {"H": 1}, "refs": {"g2": 10}},
    "G": {"calls": {"H": 1}, "refs": {"g2": 10}},
    "H": {},
}


def figure3_graph():
    """The paper's Figure 3 call graph, built from synthetic summaries."""
    from repro.callgraph.graph import CallGraph
    from repro.frontend.summary import (
        GlobalSummary,
        ModuleSummary,
        ProcedureSummary,
    )

    summary = ModuleSummary(module_name="fig3")
    for name, spec in FIGURE3_PROCS.items():
        summary.procedures.append(
            ProcedureSummary(
                name=name,
                module="fig3",
                calls=dict(spec.get("calls", {})),
                global_refs=dict(spec.get("refs", {})),
                global_stores=dict(spec.get("refs", {})),
            )
        )
    summary.globals = [
        GlobalSummary(name=g, module="fig3") for g in ("g1", "g2", "g3")
    ]
    graph = CallGraph.build([summary])
    graph.normalize_weights()
    return graph, summary


# Rendered tables accumulate here and are replayed at session end (pytest
# captures per-test stdout, which would otherwise hide them under
# --benchmark-only) and written to benchmarks/latest_results.txt.
_RESULT_LINES: list = []


def print_table(title, headers, rows):
    """Uniform table printer for benchmark output."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    lines = [
        "",
        title,
        "-" * len(title),
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row))
        )
    for line in lines:
        print(line)
    _RESULT_LINES.extend(lines)


def record_note(text):
    """Print and record a free-form line alongside the tables."""
    print(text)
    _RESULT_LINES.append(text)


def write_bench_report(json_path) -> dict:
    """Merge this session's sections over ``json_path`` and rewrite it.

    A partial session (one bench module selected) refreshes only the
    sections it measured instead of clobbering the full matrix.
    """
    payload = {}
    try:
        with open(json_path) as handle:
            payload.update(json.load(handle))
    except (OSError, ValueError):
        pass
    # The legend must come from this build, not the merged report: a
    # stale file written before a legend change would otherwise
    # resurrect the old wording.
    payload["legend"] = CONFIG_LEGEND
    for key, section in (
        ("workloads", _BENCH_WORKLOADS),
        ("scheduler", _SCHEDULER_METRICS),
        ("observability_overhead", _OBSERVABILITY),
        ("simulator_throughput", _SIM_THROUGHPUT),
        ("allocator_tournament", _ALLOCATOR_TOURNAMENT),
        ("scalability", _SCALABILITY),
        ("service_load", _SERVICE_LOAD),
    ):
        if section:
            payload[key] = section
        else:
            payload.setdefault(key, {})
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def pytest_sessionfinish(session, exitstatus):
    written = []
    if (_BENCH_WORKLOADS or _SCHEDULER_METRICS or _OBSERVABILITY
            or _SIM_THROUGHPUT or _ALLOCATOR_TOURNAMENT or _SCALABILITY
            or _SERVICE_LOAD):
        # The tracked repo-root report: each benchmark run leaves a
        # committable diff of the sections it measured.
        json_path = os.path.join(
            os.path.dirname(os.path.dirname(__file__)),
            "BENCH_results.json",
        )
        write_bench_report(json_path)
        written.append(json_path)
    if not _RESULT_LINES:
        return
    path = os.path.join(os.path.dirname(__file__), "latest_results.txt")
    with open(path, "w") as handle:
        handle.write("\n".join(_RESULT_LINES) + "\n")
    written.append(path)
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line("")
        reporter.write_line(
            "================ reproduced paper tables ================"
        )
        for line in _RESULT_LINES:
            reporter.write_line(line)
        reporter.write_line(
            f"(also written to {', '.join(written)})"
        )
