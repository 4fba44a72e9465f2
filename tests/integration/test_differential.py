"""The master correctness oracle: differential execution.

Every program must produce byte-identical output and the same exit code
at every optimization level and under every analyzer configuration
A-F (profile-driven B and F included, via :func:`collect_profile`).

All compilation is routed through a parallel, cached
:class:`~repro.driver.scheduler.CompilationScheduler`, so the fast path
— worker processes replaying warm cache entries — is exactly what gets
differentially tested against the simulator.
"""

import pytest

from repro import (
    AnalyzerOptions,
    ProgramDatabase,
    collect_profile,
    compile_and_run,
    compile_with_database,
    run_executable,
    run_phase1,
)
from repro.analyzer.driver import analyze_program
from repro.driver.scheduler import CompilationScheduler
from repro.testing import generate_program
from repro.workloads import get_workload

MAX_CYCLES = 60_000_000

ALL_CONFIGS = "ABCDEF"


@pytest.fixture(scope="module")
def scheduler(tmp_path_factory):
    """A warm artifact cache: exercises the cache-replay path."""
    with CompilationScheduler(
        cache_dir=tmp_path_factory.mktemp("diff-cache")
    ) as sched:
        yield sched


@pytest.mark.parametrize("seed", range(12))
def test_random_programs_all_levels_and_configs(seed, scheduler):
    sources = generate_program(seed * 31 + 7)
    phase1 = run_phase1(sources, scheduler=scheduler)
    summaries = [result.summary for result in phase1]
    reference = run_executable(
        compile_with_database(
            phase1, ProgramDatabase(), scheduler=scheduler
        ),
        max_cycles=MAX_CYCLES,
    )
    for level in (0, 1):
        stats = compile_and_run(
            sources, level, max_cycles=MAX_CYCLES, scheduler=scheduler
        )
        assert stats.output == reference.output, level
        assert stats.exit_code == reference.exit_code, level
    profile = collect_profile(
        phase1, max_cycles=MAX_CYCLES, scheduler=scheduler
    )
    for config in ALL_CONFIGS:
        database = analyze_program(
            summaries,
            AnalyzerOptions.config(
                config, profile if config in "BF" else None
            ),
        )
        stats = run_executable(
            compile_with_database(phase1, database, scheduler=scheduler),
            max_cycles=MAX_CYCLES,
        )
        assert stats.output == reference.output, config
        assert stats.exit_code == reference.exit_code, config


@pytest.mark.parametrize("seed", range(4))
def test_random_programs_with_profile_configs(seed, scheduler):
    sources = generate_program(seed * 17 + 3)
    phase1 = run_phase1(sources, scheduler=scheduler)
    profile = collect_profile(
        phase1, max_cycles=MAX_CYCLES, scheduler=scheduler
    )
    reference = run_executable(
        compile_with_database(
            phase1, ProgramDatabase(), scheduler=scheduler
        ),
        max_cycles=MAX_CYCLES,
    )
    summaries = [result.summary for result in phase1]
    for config in ("B", "F"):
        database = analyze_program(
            summaries, AnalyzerOptions.config(config, profile)
        )
        stats = run_executable(
            compile_with_database(phase1, database, scheduler=scheduler),
            max_cycles=MAX_CYCLES,
        )
        assert stats.output == reference.output, config


@pytest.mark.parametrize("name", ["dhrystone", "fgrep", "protoc"])
def test_workload_differential_fast(name, scheduler):
    """The three fastest workloads under every config."""
    workload = get_workload(name)
    phase1 = run_phase1(workload.sources, scheduler=scheduler)
    summaries = [result.summary for result in phase1]
    reference = run_executable(
        compile_with_database(
            phase1, ProgramDatabase(), scheduler=scheduler
        ),
        max_cycles=workload.max_cycles,
    )
    profile = collect_profile(
        phase1, max_cycles=workload.max_cycles, scheduler=scheduler
    )
    for config in ALL_CONFIGS:
        options = AnalyzerOptions.config(
            config, profile if config in "BF" else None
        )
        database = analyze_program(summaries, options)
        # Run under the calling-convention checker: outputs must match
        # AND every call must respect its declared clobber set.
        from repro.machine.simulator import Simulator

        stats = Simulator(
            compile_with_database(phase1, database, scheduler=scheduler),
            check_conventions=True,
            volatile_registers=database.convention_volatile_registers(),
        ).run(workload.max_cycles)
        assert stats.output == reference.output, (name, config)
        assert stats.exit_code == reference.exit_code, (name, config)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", ["othello", "war", "crtool", "paopt"]
)
def test_workload_differential_slow(name, scheduler):
    workload = get_workload(name)
    phase1 = run_phase1(workload.sources, scheduler=scheduler)
    summaries = [result.summary for result in phase1]
    reference = run_executable(
        compile_with_database(
            phase1, ProgramDatabase(), scheduler=scheduler
        ),
        max_cycles=workload.max_cycles,
    )
    profile = collect_profile(
        phase1, max_cycles=workload.max_cycles, scheduler=scheduler
    )
    for config in ALL_CONFIGS:
        database = analyze_program(
            summaries,
            AnalyzerOptions.config(
                config, profile if config in "BF" else None
            ),
        )
        stats = run_executable(
            compile_with_database(phase1, database, scheduler=scheduler),
            max_cycles=workload.max_cycles,
        )
        assert stats.output == reference.output, (name, config)
