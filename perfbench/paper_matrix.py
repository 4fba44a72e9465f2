"""paper-matrix: the paper's own experiment (Tables 4-5).

Every request builds one (program, configuration) pair cold, with a
fresh uncached ``CompilationScheduler(jobs=1)``, audits the executable
and simulates it.  A run is whole passes over the 7 programs x
{baseline, A-F}; the seed shuffles the order of the 49 requests.
Configurations B and F take their call counts from the same program's
baseline run in the same pass, which is exactly what ``collect_profile``
computes, so each program's baseline is moved ahead of its B and F.

This is the only workload that runs the simulator and the auditor.
"""

from __future__ import annotations

import importlib
import json
import random
from pathlib import Path

import repro.machine.simulator as simulator
import repro.verify.auditor as auditor
from repro.analyzer.database import ProgramDatabase
from repro.analyzer.options import AnalyzerOptions
from repro.driver.scheduler import CompilationScheduler
from repro.machine.profiler import ProfileData
from repro.workloads import all_workloads

from perfbench import frozen
from perfbench.harness import PROGRAMS, SETUP_REPEATS, twins

# The module, not the package attribute of the same name (the function),
# so the traced run's wrapper on ``repro.linker.link.link`` is seen.
linker = importlib.import_module("repro.linker.link")

NAME = "paper-matrix"
CONFIGS = ("baseline", "A", "B", "C", "D", "E", "F")
PROFILED = ("B", "F")
#: One pass takes about this long on the calibration host; a run makes
#: round(seconds / PASS_SECONDS) passes, at least one.
PASS_SECONDS = 30.0
EXPECTED_PATH = Path(__file__).with_name("expected") / "outputs.json"
WARMUP = ("dhrystone", "C")
SETTINGS = {
    "jobs": 1, "cache": None, "verify": False, "incremental": False,
    "allocator": "paper", "simulator": "compiled", "opt_level": 2,
}


def request_order(seed: int, passes: int, programs=PROGRAMS) -> list:
    """The seeded order of (program, config) requests."""
    rng = random.Random(f"perfbench-paper-matrix-{seed}")
    order = []
    for _ in range(passes):
        block = [(p, c) for p in programs for c in CONFIGS]
        rng.shuffle(block)
        for program in programs:
            positions = [
                i for i, (p, _c) in enumerate(block) if p == program
            ]
            baseline = block.index((program, "baseline"))
            block[positions[0]], block[baseline] = (
                block[baseline], block[positions[0]]
            )
        order.extend(block)
    return order


def build(sources: dict, config: str, profile, max_cycles: int):
    """One cold (program, config) build: phase 1, analyzer, phase 2,
    link, audit, simulate.  Returns (phase-1 results, scheduler
    metrics, executable, audit report, execution stats)."""
    scheduler = CompilationScheduler(
        jobs=1, cache_dir=None, verify=False, incremental=False,
        allocator=SETTINGS["allocator"],
    )
    with scheduler:
        phase1 = scheduler.run_phase1(sources, SETTINGS["opt_level"])
        if config == "baseline":
            database = ProgramDatabase()
        else:
            database = scheduler.analyze(
                [result.summary for result in phase1],
                AnalyzerOptions.config(
                    config, profile if config in PROFILED else None
                ),
            )
        objects = scheduler.compile_objects(
            phase1, database, SETTINGS["opt_level"]
        )
        metrics = scheduler.metrics_snapshot()
    executable = linker.link(objects)
    report = auditor.audit_executable(executable, database)
    stats = simulator.run_executable(
        executable, max_cycles, backend=SETTINGS["simulator"]
    )
    return phase1, metrics, executable, report, stats


def freeze_inputs() -> dict:
    """program -> sha256 of its sources (for ``frozen.json``)."""
    workloads = all_workloads()
    return {p: frozen.digest(sorted(workloads[p].sources.items()))
            for p in PROGRAMS}


def expected_outputs() -> dict:
    """program -> {output, exit_code} of an unoptimized (-O0) build
    run on the reference interpreter, the path that shares the least
    code with the builds the workload checks."""
    workloads = all_workloads()
    expected = {}
    for program in PROGRAMS:
        workload = workloads[program]
        with CompilationScheduler(
            jobs=1, cache_dir=None, verify=False, incremental=False,
            allocator=SETTINGS["allocator"],
        ) as scheduler:
            executable = scheduler.compile_program(
                workload.sources, 0
            ).executable
        stats = simulator.run_executable(
            executable, workload.max_cycles, backend="reference"
        )
        expected[program] = {
            "output": stats.output, "exit_code": stats.exit_code,
        }
    return expected


def _prepare(seed: int, passes: int, programs):
    record = frozen.load()
    workloads = all_workloads()
    for program in programs:
        frozen.check(record, NAME, program,
                     sorted(workloads[program].sources.items()))
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    order = request_order(seed, passes, programs)
    warm = workloads[WARMUP[0]]
    build(warm.sources, WARMUP[1], None, warm.max_cycles)
    return workloads, expected, order


def run_workload(run, seed: int, seconds: float, programs=PROGRAMS):
    passes = max(1, round(seconds / PASS_SECONDS))
    for _ in range(SETUP_REPEATS):
        with run.timed() as timing:
            workloads, expected, order = _prepare(seed, passes, programs)
        run.setups.append(timing)
    profiles: dict = {}
    with run.recorder.installed():
        for index, (program, config) in enumerate(order):
            workload = workloads[program]
            # A traced run builds every request twice, traced and
            # untraced, so the pair prices the tracing overhead; the
            # order alternates so that running second favours neither.
            for traced in twins(run.trace, index):
                run.attempted += 1
                try:
                    with run.timed(index, traced) as timing:
                        phase1, metrics, executable, report, stats = build(
                            workload.sources, config,
                            profiles.get(program), workload.max_cycles,
                        )
                except Exception as err:  # noqa: BLE001 - counted, and
                    # the run goes on to report the other requests
                    run.fail(f"{program}/{config}: "
                             f"{type(err).__name__}: {err}")
                    continue
                if not _check(run, program, config, expected[program],
                              report, stats):
                    continue
                run.record(index, timing, traced, procedures=sum(
                    len(result.summary.procedures) for result in phase1
                ))
                if traced:
                    run.counts["frontend.modules"] += (
                        metrics.stage_tasks.get("phase1", 0))
                    run.counts["backend.modules"] += (
                        metrics.stage_tasks.get("phase2", 0))
                elif index < len(order) // passes:
                    run.record_build(program, stats.cycles,
                                     stats.singleton_references,
                                     executable.code_size)
                if config == "baseline":
                    profiles[program] = ProfileData.from_stats(stats)


def _check(run, program, config, expected, report, stats) -> bool:
    where = f"{program}/{config}"
    if stats.output != expected["output"]:
        run.fail(f"{where}: output differs from expected/outputs.json")
    elif stats.exit_code != expected["exit_code"]:
        run.fail(f"{where}: exit code {stats.exit_code}, expected "
                 f"{expected['exit_code']}")
    elif not report.ok:
        run.fail(f"{where}: {len(report.violations)} audit violation(s)")
    else:
        return True
    return False
