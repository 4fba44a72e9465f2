"""large-program: the whole-program analyzer on 1k-procedure programs.

Each request is one ``analyze_program`` call on a seeded
``synthesize_large`` summary program of ``PROCEDURES`` procedures in
``MODULES`` modules, under one of the configurations A, C, D and E.
A run of the benchmark's 15 seconds analyzes each of the ``POOL``
recorded programs under every configuration, 100 requests; the seed
shuffles their order (a shorter run takes a seeded subset of the
programs).  Keeping the same programs in every run keeps the latency
percentiles of this mixed workload from moving with the draw.
Requests take 50-300 ms, so a run holds many of them: the drift probe
corrects a memory-bound kernel less well, and many short requests
average its noise out instead.

The analyzer kernels do about all of the work here and under 5% of it
in the other workloads; edit-loop runs the incremental analyzer, this
one the full analysis, so a change that helps one and hurts the other
shows.
"""

from __future__ import annotations

import random

import repro.analyzer.driver as analyzer
from repro.analyzer.options import AnalyzerOptions
from repro.verify.progen import FuzzProgramGenerator

from perfbench import frozen
from perfbench.harness import SETUP_REPEATS, twins

NAME = "large-program"
PROCEDURES = 1000
MODULES = 20
CONFIGS = ("A", "C", "D", "E")
POOL = 25
WARMUP_PROGRAM = POOL  # outside the pool, never timed
#: Requests per second on the calibration host, which sizes a run:
#: round(seconds * RATE / len(CONFIGS)) programs of len(CONFIGS)
#: requests each, the whole pool at the benchmark's 15 seconds.
RATE = 100 / 15
SETTINGS = {
    "procedures": PROCEDURES, "modules": MODULES, "configs": CONFIGS,
    "dataflow": "packed",
}


def synthesize(program: int) -> list:
    return FuzzProgramGenerator(program).synthesize_large(
        MODULES, PROCEDURES
    )


def freeze_inputs() -> dict:
    return {
        str(program): frozen.digest(synthesize(program))
        for program in range(POOL + 1)
    }


def plan(seed: int, seconds: float) -> list:
    """The seeded (program, config) requests of one run."""
    rng = random.Random(f"perfbench-large-program-{seed}")
    programs = max(1, round(seconds * RATE / len(CONFIGS)))
    pool = rng.sample(range(POOL), POOL)
    chosen = [pool[k % POOL] for k in range(programs)]
    order = [(p, c) for p in chosen for c in CONFIGS]
    rng.shuffle(order)
    return order


def _prepare(seed: int, seconds: float):
    record = frozen.load()
    order = plan(seed, seconds)
    programs = {}
    for program in sorted({p for p, _c in order} | {WARMUP_PROGRAM}):
        programs[program] = synthesize(program)
        frozen.check(record, NAME, str(program), programs[program])
    analyzer.analyze_program(
        programs[WARMUP_PROGRAM], AnalyzerOptions.config("C")
    )
    return programs, order


def run_workload(run, seed: int, seconds: float):
    for _ in range(SETUP_REPEATS):
        with run.timed() as timing:
            programs, order = _prepare(seed, seconds)
        run.setups.append(timing)
    with run.recorder.installed():
        for index, (program, config) in enumerate(order):
            summaries = programs[program]
            options = AnalyzerOptions.config(config)
            # A traced run analyzes every request twice, traced and
            # untraced, so the pair prices the tracing overhead; the
            # order alternates so that running second favours neither.
            for traced in twins(run.trace, index):
                run.attempted += 1
                try:
                    with run.timed(index, traced) as timing:
                        database = analyzer.analyze_program(
                            summaries, options
                        )
                except Exception as err:  # noqa: BLE001 - counted, and
                    # the run goes on to report the other requests
                    run.fail(f"program {program} config {config}: "
                             f"{type(err).__name__}: {err}")
                    continue
                if _check(run, program, config, database):
                    run.record(index, timing, traced,
                               procedures=PROCEDURES)


def _check(run, program: int, config: str, database) -> bool:
    """Every procedure's directives must validate; prints the sha256 of
    the database's directives (``ProgramDatabase.directive_digest``)."""
    where = f"program {program} config {config}"
    if len(database.procedures) != PROCEDURES:
        run.fail(f"{where}: {len(database.procedures)} procedures "
                 f"in the database, expected {PROCEDURES}")
        return False
    for directives in database.procedures.values():
        try:
            directives.validate()
        except ValueError as err:
            run.fail(f"{where}: {err}")
            return False
    sha = database.directive_digest(database.procedures)
    print(f"database {NAME} program={program} config={config} "
          f"sha256={sha}")
    return True
