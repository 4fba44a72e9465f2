"""Determinism / equivalence oracle for the compilation scheduler.

The fast path (a warm artifact cache) must be *bit-identical* to the
slow one: same canonical executable image, same simulated execution
down to the last counter.  Nothing here is allowed to tolerate "close
enough" — the paper's recompilation-avoidance story only holds if
cached and recomputed artifacts are interchangeable.

Covers generated programs (seeded fuzzing substrate) and Table-3
workloads, over cold vs warm-cache builds.
"""

import pytest

from repro import AnalyzerOptions, ProgramDatabase, run_executable
from repro.driver.scheduler import CompilationScheduler
from repro.linker.link import executable_fingerprint
from repro.machine.profiler import ProfileData
from repro.testing import generate_program
from repro.workloads import get_workload

MAX_CYCLES = 60_000_000

GENERATED_SEEDS = (11, 207)
WORKLOADS = ("dhrystone", "fgrep")


def _program_params():
    for seed in GENERATED_SEEDS:
        yield pytest.param(("seed", seed), id=f"generated-{seed}")
    for name in WORKLOADS:
        yield pytest.param(("workload", name), id=name)


def _sources_and_cycles(program):
    kind, which = program
    if kind == "seed":
        return generate_program(which), MAX_CYCLES
    workload = get_workload(which)
    return workload.sources, workload.max_cycles


def _build_matrix(scheduler, sources):
    """Fingerprints of the executable under the baseline and a sample
    of analyzer configurations, including the profile-driven ones."""
    fingerprints = {}
    phase1 = scheduler.run_phase1(sources)
    summaries = [result.summary for result in phase1]
    baseline = scheduler.compile_with_database(phase1, ProgramDatabase())
    fingerprints["baseline"] = executable_fingerprint(baseline)
    profile = None
    for config in ("A", "B", "C", "E"):
        if config == "B" and profile is None:
            stats = run_executable(baseline, MAX_CYCLES)
            profile = ProfileData.from_stats(stats)
        options = AnalyzerOptions.config(
            config, profile if config == "B" else None
        )
        database = scheduler.analyze(summaries, options)
        executable = scheduler.compile_with_database(phase1, database)
        fingerprints[config] = executable_fingerprint(executable)
    return fingerprints


def _run_stats(scheduler, sources, max_cycles):
    phase1 = scheduler.run_phase1(sources)
    database = scheduler.analyze(
        [result.summary for result in phase1], AnalyzerOptions.config("C")
    )
    executable = scheduler.compile_with_database(phase1, database)
    return executable_fingerprint(executable), run_executable(
        executable, max_cycles
    )


@pytest.mark.parametrize("program", _program_params())
def test_cold_vs_warm_cache_bit_identical(program, tmp_path):
    sources, max_cycles = _sources_and_cycles(program)
    cache_dir = tmp_path / "cache"
    with CompilationScheduler(cache_dir=cache_dir) as cold:
        cold_matrix = _build_matrix(cold, sources)
        cold_fp, cold_stats = _run_stats(cold, sources, max_cycles)
    # A fresh scheduler over the same cache replays every artifact.
    with CompilationScheduler(cache_dir=cache_dir) as warm:
        warm_matrix = _build_matrix(warm, sources)
        warm_fp, warm_stats = _run_stats(warm, sources, max_cycles)
        metrics = warm.metrics_snapshot()
    assert cold_matrix == warm_matrix
    assert cold_fp == warm_fp
    assert cold_stats == warm_stats
    assert not metrics.cache_misses, (
        "warm rebuild recomputed artifacts it should have replayed"
    )
    assert metrics.stage_tasks.get("phase1", 0) == 0
    assert metrics.stage_tasks.get("phase2", 0) == 0


def test_recompilation_in_same_scheduler_is_identical():
    """Phase 2 must never leak mutations back into phase-1 IR: the same
    phase-1 results compiled repeatedly give the same executable."""
    sources, _ = _sources_and_cycles(("seed", GENERATED_SEEDS[1]))
    with CompilationScheduler() as scheduler:
        phase1 = scheduler.run_phase1(sources)
        database = scheduler.analyze(
            [result.summary for result in phase1],
            AnalyzerOptions.config("D"),
        )
        first = executable_fingerprint(
            scheduler.compile_with_database(phase1, database)
        )
        second = executable_fingerprint(
            scheduler.compile_with_database(phase1, database)
        )
    assert first == second


def test_phase2_leaves_shared_phase1_results_untouched():
    """One phase-1 result list feeds config A, then E: both executables
    match builds from fresh phase-1 results, and no IR blob changes."""
    sources = get_workload("othello").sources

    def build(scheduler, phase1, config):
        database = scheduler.analyze(
            [result.summary for result in phase1],
            AnalyzerOptions.config(config),
        )
        return executable_fingerprint(
            scheduler.compile_with_database(phase1, database)
        )

    with CompilationScheduler() as scheduler:
        shared = scheduler.run_phase1(sources)
        blobs = [result.ir_blob for result in shared]
        reused = [build(scheduler, shared, config) for config in "AE"]
        fresh = [
            build(scheduler, scheduler.run_phase1(sources), config)
            for config in "AE"
        ]
    assert reused == fresh
    assert [result.ir_blob for result in shared] == blobs
