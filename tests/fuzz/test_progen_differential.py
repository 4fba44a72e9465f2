"""Seeded differential fuzzing of the allocation machinery.

Every seed drives an allocator-hostile random program (register
pressure across calls, hot-global loops, multi-argument helpers —
:mod:`repro.verify.progen`) through the scheduler across analyzer
configurations with the post-link auditor enabled, and asserts

* the auditor finds **zero** directive violations (a violation raises
  :class:`~repro.verify.auditor.AuditError` out of the scheduler and
  additionally fails the report assertion below), and
* execution output and exit code are identical to configuration A's —
  the directive machinery may only change *where* values live, never
  what the program computes.

Configs B and F need a profiling run, so only a couple of seeds pay for
one; the others sweep the unprofiled configurations.  Seeds are fixed:
the suite is deterministic and sized for the tier-1 budget by default.
``REPRO_FUZZ_SEEDS`` widens the sweep — CI's verify-fuzz step runs 100
seeds, affordable now that the compiled simulator backend executes the
run-and-compare leg >=5x faster (docs/SIMULATOR.md).
"""

import os

import pytest

from repro import (
    AnalyzerOptions,
    collect_profile,
    compile_with_database,
    run_executable,
    run_phase1,
)
from repro.analyzer.driver import analyze_program
from repro.driver.scheduler import CompilationScheduler
from repro.verify.progen import generate_fuzz_program

MAX_CYCLES = 60_000_000

SEEDS = range(int(os.environ.get("REPRO_FUZZ_SEEDS", "10")))
PROFILE_SEEDS = {0, 7}


@pytest.fixture(scope="module")
def scheduler(tmp_path_factory):
    """Warm cache + post-link auditing: the configuration under test
    is the one real runs use."""
    with CompilationScheduler(
        cache_dir=tmp_path_factory.mktemp("fuzz-cache"),
        verify=True,
    ) as sched:
        yield sched


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_program_audits_clean_across_configs(seed, scheduler):
    sources = generate_fuzz_program(seed)
    phase1 = run_phase1(sources, scheduler=scheduler)
    summaries = [result.summary for result in phase1]

    if seed in PROFILE_SEEDS:
        profile = collect_profile(
            phase1, max_cycles=MAX_CYCLES, scheduler=scheduler
        )
        configs = "ABCDEF"
    else:
        profile = None
        configs = "ACDE"

    reference = None
    for config in configs:
        database = analyze_program(
            summaries,
            AnalyzerOptions.config(
                config, profile if config in "BF" else None
            ),
        )
        executable = compile_with_database(
            phase1, database, scheduler=scheduler
        )
        report = scheduler.last_audit_report
        assert report is not None and report.ok, (
            config, report and report.format()
        )
        assert report.functions_checked == len(executable.function_ranges)
        stats = run_executable(executable, max_cycles=MAX_CYCLES)
        observed = (tuple(stats.output), stats.exit_code)
        if reference is None:
            reference = observed  # config A sets the oracle
        else:
            assert observed == reference, (seed, config)


def test_fuzz_generator_is_deterministic():
    assert generate_fuzz_program(3) == generate_fuzz_program(3)
    assert generate_fuzz_program(3) != generate_fuzz_program(4)


def test_fuzz_programs_vary_in_shape():
    """The seed must steer program shape, or the sweep tests one
    program ten times."""
    shapes = {
        tuple(sorted(generate_fuzz_program(seed))) for seed in SEEDS
    }
    assert len(shapes) > 1
