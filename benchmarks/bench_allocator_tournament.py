"""Allocator-strategy tournament: the paper's headline, finally measured.

The paper *claims* interprocedural webs + clusters beat purely
intraprocedural allocation on cycles and memory references; with only
one allocator in the tree that was an assertion.  This bench re-runs
the full A–F × workload matrix (reusing ``paper_results``' phase-1
artifacts, profiles, and databases) under every registered allocation
strategy, audits every executable with :mod:`repro.verify`, checks the
outputs are strategy-invariant, and emits the per-strategy
cycles/memrefs comparison into ``BENCH_results.json`` under
``allocator_tournament``.  A fuzz-corpus slice rides along so the
comparison is not workload-shaped by accident.
"""

from __future__ import annotations

import tempfile

from repro import (
    ALLOCATORS,
    AnalyzerOptions,
    CompilationScheduler,
    ProgramDatabase,
    run_executable,
    run_phase1,
)
from repro.analyzer.driver import analyze_program
from repro.verify.progen import generate_fuzz_program
from repro.workloads import get_workload

from conftest import (
    _ALLOCATOR_TOURNAMENT,
    _stats_payload,
    print_table,
    record_note,
)

#: The acceptance pair: the paper must beat both baselines on cycles
#: *and* memory references here, on every build.
HEADLINE_WORKLOADS = ("othello", "dhrystone")

FUZZ_SEEDS = range(5)


def _compile_run_audit(scheduler, phase1, database, allocator, max_cycles):
    executable = scheduler.compile_with_database(
        phase1, database, 2, allocator=allocator
    )
    report = scheduler.last_audit_report
    assert report is not None and report.ok, (
        allocator, report and report.format()
    )
    stats = run_executable(executable, max_cycles=max_cycles)
    return stats, report


def test_allocator_tournament(paper_results):
    audited = 0
    workload_section: dict = {}
    with tempfile.TemporaryDirectory(
        prefix="repro-tournament-cache-"
    ) as cache, CompilationScheduler(
        cache_dir=cache, verify=True
    ) as scheduler:
        for name, results in paper_results.items():
            max_cycles = get_workload(name).max_cycles
            builds = [("baseline", ProgramDatabase())] + [
                (config, results.databases[config]) for config in "ABCDEF"
            ]
            entry: dict = {"baseline": {}, "configs": {}}
            for config, database in builds:
                cell: dict = {}
                reference = None
                for allocator in ALLOCATORS:
                    stats, _report = _compile_run_audit(
                        scheduler, results.phase1, database, allocator,
                        max_cycles,
                    )
                    audited += 1
                    observed = (stats.output, stats.exit_code)
                    if reference is None:
                        reference = observed
                    assert observed == reference, (name, config, allocator)
                    cell[allocator] = _stats_payload(stats)
                if config == "baseline":
                    entry["baseline"] = cell
                else:
                    entry["configs"][config] = cell
            workload_section[name] = entry

        fuzz_clean = True
        for seed in FUZZ_SEEDS:
            sources = generate_fuzz_program(seed)
            phase1 = run_phase1(sources, scheduler=scheduler)
            summaries = [result.summary for result in phase1]
            for database in (
                ProgramDatabase(),
                analyze_program(summaries, AnalyzerOptions.config("A")),
            ):
                reference = None
                for allocator in ALLOCATORS:
                    stats, _report = _compile_run_audit(
                        scheduler, phase1, database, allocator, 60_000_000
                    )
                    audited += 1
                    observed = (stats.output, stats.exit_code)
                    if reference is None:
                        reference = observed
                    assert observed == reference, (seed, allocator)

    # -- the paper's headline, asserted on real numbers -----------------
    headline: dict = {}
    for name in HEADLINE_WORKLOADS:
        entry = workload_section[name]
        for config, cell in [("baseline", entry["baseline"])] + sorted(
            entry["configs"].items()
        ):
            paper = cell["paper"]
            for rival in ("linearscan", "spill-everywhere"):
                for metric in ("cycles", "memory_references"):
                    assert paper[metric] < cell[rival][metric], (
                        name, config, rival, metric
                    )
        headline[name] = {
            "config": "A",
            "cycles": {
                allocator: entry["configs"]["A"][allocator]["cycles"]
                for allocator in ALLOCATORS
            },
            "memory_references": {
                allocator: entry["configs"]["A"][allocator][
                    "memory_references"
                ]
                for allocator in ALLOCATORS
            },
        }

    _ALLOCATOR_TOURNAMENT.update(
        {
            "strategies": list(ALLOCATORS),
            "workloads": workload_section,
            "audit": {"executables_audited": audited, "clean": True},
            "fuzz": {
                "seeds": list(FUZZ_SEEDS),
                "builds": ["baseline", "A"],
                "clean": fuzz_clean,
            },
            "headline": headline,
        }
    )

    rows = []
    for name, entry in workload_section.items():
        cell = entry["configs"]["A"]
        rows.append(
            [
                name,
                cell["paper"]["cycles"],
                cell["linearscan"]["cycles"],
                cell["spill-everywhere"]["cycles"],
                cell["paper"]["memory_references"],
                cell["linearscan"]["memory_references"],
                cell["spill-everywhere"]["memory_references"],
            ]
        )
    print_table(
        "Allocator tournament - config A (cycles | memory references)",
        [
            "workload",
            "paper cyc", "linscan cyc", "spill-ev cyc",
            "paper mem", "linscan mem", "spill-ev mem",
        ],
        rows,
    )
    record_note(
        f"tournament: {audited} executables compiled, audited clean, "
        "outputs strategy-invariant"
    )
