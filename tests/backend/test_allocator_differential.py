"""Cross-strategy differential suite: allocation strategies may change
*where* values live — never what programs compute.

Every workload × analyzer-config cell is compiled under all three
allocation strategies (:mod:`repro.backend.allocators`) with the
post-link auditor armed, then executed; outputs and exit codes must be
identical across strategies and every executable must audit clean.
Ten fuzz-generator seeds ride along, and the paper's headline ordering
(``paper`` ≤ ``linearscan`` ≤ ``spill-everywhere`` on cycles) is
asserted directionally for dhrystone and othello under config A.
"""

import pytest

from repro import (
    ALLOCATORS,
    AnalyzerOptions,
    CompilationScheduler,
    ProgramDatabase,
    collect_profile,
    run_executable,
    run_phase1,
)
from repro.analyzer.driver import analyze_program
from repro.verify.progen import generate_fuzz_program
from repro.workloads import get_workload

FUZZ_SEEDS = range(10)

#: (workload, configs, needs_profile) — dhrystone takes the full A–F
#: sweep (it is cheap and B/F exercise the profiled analyses); the
#: heavier workloads ride the slow-marked matrix below.
FAST_MATRIX = [
    ("dhrystone", "ABCDEF", True),
    ("fgrep", "ACDE", False),
    ("protoc", "ACDE", False),
]

SLOW_MATRIX = [
    ("othello", "ABCDEF", True),
    ("war", "ABCDEF", True),
    ("crtool", "ACDE", False),
    ("paopt", "ACDE", False),
]


@pytest.fixture(scope="module")
def scheduler(tmp_path_factory):
    """Warm cache + post-link auditing."""
    with CompilationScheduler(
        cache_dir=tmp_path_factory.mktemp("alloc-diff-cache"),
        verify=True,
    ) as sched:
        yield sched


def _assert_strategies_agree(scheduler, phase1, database, max_cycles, tag):
    """Compile the same (phase1, database) under every strategy; audits
    must be clean and observable behavior identical."""
    reference = None
    cycles = {}
    for allocator in ALLOCATORS:
        executable = scheduler.compile_with_database(
            phase1, database, 2, allocator=allocator
        )
        report = scheduler.last_audit_report
        assert report is not None and report.ok, (
            tag, allocator, report and report.format()
        )
        assert report.functions_checked == len(executable.function_ranges)
        stats = run_executable(executable, max_cycles=max_cycles)
        observed = (tuple(stats.output), stats.exit_code)
        if reference is None:
            reference = observed
        assert observed == reference, (tag, allocator)
        cycles[allocator] = stats.cycles
    return cycles


def _databases(scheduler, phase1, configs, needs_profile, max_cycles):
    summaries = [result.summary for result in phase1]
    profile = (
        collect_profile(
            phase1, max_cycles=max_cycles, scheduler=scheduler
        )
        if needs_profile
        else None
    )
    yield "baseline", ProgramDatabase()
    for config in configs:
        yield config, analyze_program(
            summaries,
            AnalyzerOptions.config(
                config, profile if config in "BF" else None
            ),
        )


def _run_workload_matrix(scheduler, name, configs, needs_profile):
    workload = get_workload(name)
    phase1 = run_phase1(workload.sources, scheduler=scheduler)
    for config, database in _databases(
        scheduler, phase1, configs, needs_profile, workload.max_cycles
    ):
        _assert_strategies_agree(
            scheduler, phase1, database, workload.max_cycles,
            (name, config),
        )


@pytest.mark.parametrize(
    "name,configs,needs_profile",
    FAST_MATRIX,
    ids=[entry[0] for entry in FAST_MATRIX],
)
def test_workload_differential(scheduler, name, configs, needs_profile):
    _run_workload_matrix(scheduler, name, configs, needs_profile)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name,configs,needs_profile",
    SLOW_MATRIX,
    ids=[entry[0] for entry in SLOW_MATRIX],
)
def test_workload_differential_slow(
    scheduler, name, configs, needs_profile
):
    _run_workload_matrix(scheduler, name, configs, needs_profile)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_seed_differential(scheduler, seed):
    sources = generate_fuzz_program(seed)
    phase1 = run_phase1(sources, scheduler=scheduler)
    summaries = [result.summary for result in phase1]
    for tag, database in (
        ("baseline", ProgramDatabase()),
        ("A", analyze_program(summaries, AnalyzerOptions.config("A"))),
        ("D", analyze_program(summaries, AnalyzerOptions.config("D"))),
    ):
        _assert_strategies_agree(
            scheduler, phase1, database, 60_000_000, (seed, tag)
        )


def _config_a_cycles(scheduler, name):
    workload = get_workload(name)
    phase1 = run_phase1(workload.sources, scheduler=scheduler)
    database = analyze_program(
        [result.summary for result in phase1],
        AnalyzerOptions.config("A"),
    )
    return _assert_strategies_agree(
        scheduler, phase1, database, workload.max_cycles, (name, "A")
    )


def test_headline_ordering_dhrystone(scheduler):
    """The paper's claim, directionally: interprocedural coloring beats
    the intraprocedural scan, which beats spilling everything."""
    cycles = _config_a_cycles(scheduler, "dhrystone")
    assert (
        cycles["paper"]
        <= cycles["linearscan"]
        <= cycles["spill-everywhere"]
    ), cycles


@pytest.mark.slow
def test_headline_ordering_othello(scheduler):
    cycles = _config_a_cycles(scheduler, "othello")
    assert (
        cycles["paper"]
        <= cycles["linearscan"]
        <= cycles["spill-everywhere"]
    ), cycles


def test_env_knob_selects_strategy():
    """Strategy resolution: no name selects ``paper``, an explicit name
    wins in any case, and an unknown name raises."""
    from repro.backend.allocators import resolve_allocator

    assert resolve_allocator() == "paper"
    assert resolve_allocator("spill-everywhere") == "spill-everywhere"
    assert resolve_allocator("LinearScan") == "linearscan"
    with pytest.raises(ValueError):
        resolve_allocator("bogus")
