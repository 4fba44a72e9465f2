"""The ``paper`` strategy is provably behavior-preserving.

``golden_fingerprints.json`` holds
:func:`~repro.linker.link.executable_fingerprint` values (canonical
serialized-executable digests) for every workload × {baseline, A–F}
cell, captured from the tree *before* allocation moved behind the
strategy interface.  The extracted ``paper`` strategy must reproduce
every byte of them.
"""

import json
from pathlib import Path

import pytest

from repro import (
    AnalyzerOptions,
    CompilationScheduler,
    ProgramDatabase,
    collect_profile,
    run_phase1,
)
from repro.analyzer.driver import analyze_program
from repro.linker.link import executable_fingerprint
from repro.workloads import all_workloads, get_workload

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_fingerprints.json").read_text()
)

#: Cells needing no profiling run: every workload, baseline + A/C/D/E.
FAST_CONFIGS = ("baseline", "A", "C", "D", "E")


@pytest.fixture(scope="module")
def scheduler(tmp_path_factory):
    with CompilationScheduler(
        cache_dir=tmp_path_factory.mktemp("golden-cache")
    ) as sched:
        yield sched


def _fingerprint(scheduler, phase1, database):
    return executable_fingerprint(
        scheduler.compile_with_database(
            phase1, database, 2, allocator="paper"
        )
    )


@pytest.mark.parametrize("name", sorted(all_workloads()))
def test_paper_output_byte_identical_to_pre_refactor(scheduler, name):
    workload = get_workload(name)
    phase1 = run_phase1(workload.sources, scheduler=scheduler)
    summaries = [result.summary for result in phase1]
    for config in FAST_CONFIGS:
        if config == "baseline":
            database = ProgramDatabase()
        else:
            database = analyze_program(
                summaries, AnalyzerOptions.config(config)
            )
        assert _fingerprint(scheduler, phase1, database) == GOLDEN[name][
            config
        ], (name, config)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["dhrystone", "othello"])
def test_paper_output_byte_identical_profiled_configs(scheduler, name):
    """B and F fold profile data into the analysis; the profiling run
    itself must stay deterministic for these to hold."""
    workload = get_workload(name)
    phase1 = run_phase1(workload.sources, scheduler=scheduler)
    summaries = [result.summary for result in phase1]
    profile = collect_profile(
        phase1, max_cycles=workload.max_cycles, scheduler=scheduler
    )
    for config in "BF":
        database = analyze_program(
            summaries, AnalyzerOptions.config(config, profile)
        )
        assert _fingerprint(scheduler, phase1, database) == GOLDEN[name][
            config
        ], (name, config)
