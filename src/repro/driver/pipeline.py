"""End-to-end compilation driver (paper Figure 1).

The full two-pass flow::

    sources --phase 1--> (IR modules, summary files)
    summary files --program analyzer--> program database
    (IR modules, database) --phase 2--> object modules
    object modules --linker--> executable
    executable --PRISM simulator--> output + statistics

``compile_program`` runs everything; the intermediate artifacts are all
exposed so experiments can rerun only the stages they vary.  Because the
paper's Table 4 compiles the *same* program under seven analyzer
configurations, :func:`run_phase1` / :func:`compile_with_database` let
benchmarks share the phase-1 work: phase 2 loads a private copy of the
IR from the result's pickled blob, so one phase-1 result can feed many
configurations.

Every function here delegates to a
:class:`~repro.driver.scheduler.CompilationScheduler`.  The module-level
default is uncached; pass ``scheduler=`` — or set ``REPRO_CACHE_DIR`` in
the environment before first use — to reuse cached per-module artifacts
across runs.  See ``docs/PIPELINE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.analyzer.database import ProgramDatabase
from repro.analyzer.options import AnalyzerOptions
from repro.linker.link import Executable
from repro.machine.profiler import ProfileData
from repro.machine.simulator import ExecutionStats, run_executable

Sources = Union[dict, list]

_default_scheduler = None


def default_scheduler():
    """The process-wide scheduler behind the plain function API.

    Uncached unless the ``REPRO_CACHE_DIR`` environment variable names a
    cache directory at first use; ``REPRO_VERIFY=1`` additionally runs the
    post-link allocation auditor (:mod:`repro.verify.auditor`) on every
    linked executable, and ``REPRO_CACHE_MAX_BYTES`` caps the artifact
    cache's on-disk size.
    """
    global _default_scheduler
    if _default_scheduler is None:
        import os

        from repro.driver.scheduler import CompilationScheduler

        _default_scheduler = CompilationScheduler(
            cache_dir=os.environ.get("REPRO_CACHE_DIR") or None
        )
    return _default_scheduler


@dataclass
class CompilationResult:
    """Everything produced by one full compilation.

    ``metrics`` (a :class:`~repro.driver.scheduler.MetricsSnapshot`)
    reports this compilation's per-stage wall-clock seconds, task
    counts and cache hit/miss/corruption/eviction counters.  When the
    scheduler's post-link auditor is enabled (``REPRO_VERIFY=1``), its
    report is on the scheduler's ``last_audit_report``.
    """

    executable: Executable
    database: ProgramDatabase
    phase1_results: list = field(default_factory=list)
    objects: list = field(default_factory=list)
    metrics: object = None

    @property
    def summaries(self) -> list:
        return [result.summary for result in self.phase1_results]


def run_phase1(
    sources: Sources, opt_level: int = 2, scheduler=None
) -> list:
    """Compiler first phase over every module."""
    scheduler = scheduler or default_scheduler()
    return scheduler.run_phase1(sources, opt_level)


def compile_with_database(
    phase1_results: list,
    database: ProgramDatabase,
    opt_level: int = 2,
    scheduler=None,
    allocator: str | None = None,
) -> Executable:
    """Compiler second phase + link, leaving phase-1 results intact.

    ``allocator`` names the phase-2 allocation strategy
    (:mod:`repro.backend.allocators`); ``None`` defers to the
    scheduler's default.
    """
    scheduler = scheduler or default_scheduler()
    return scheduler.compile_with_database(
        phase1_results, database, opt_level, allocator=allocator
    )


def compile_program(
    sources: Sources,
    opt_level: int = 2,
    analyzer_options: Optional[AnalyzerOptions] = None,
    scheduler=None,
    allocator: str | None = None,
) -> CompilationResult:
    """Compile a whole program.

    Args:
        sources: ``{module_name: source_text}`` or a list of pairs.
        opt_level: 0 (none) / 1 (local) / 2 (global; the paper's baseline).
        analyzer_options: ``None`` disables interprocedural register
            allocation entirely (the level-2 baseline); otherwise the
            program analyzer runs with these options.
        scheduler: A :class:`~repro.driver.scheduler.CompilationScheduler`
            to compile on (artifact cache, tracing); defaults to the
            uncached module-level one.
        allocator: Phase-2 allocation strategy
            (:mod:`repro.backend.allocators`: ``paper``, ``linearscan``,
            ``spill-everywhere``); ``None`` defers to the scheduler's
            default.
    """
    scheduler = scheduler or default_scheduler()
    return scheduler.compile_program(
        sources, opt_level, analyzer_options, allocator=allocator
    )


def compile_and_run(
    sources: Sources,
    opt_level: int = 2,
    analyzer_options: Optional[AnalyzerOptions] = None,
    max_cycles: int = 200_000_000,
    scheduler=None,
    allocator: str | None = None,
) -> ExecutionStats:
    """Compile and simulate in one call."""
    result = compile_program(
        sources, opt_level, analyzer_options, scheduler, allocator=allocator
    )
    return run_executable(result.executable, max_cycles)


def collect_profile(
    phase1_results: list,
    opt_level: int = 2,
    max_cycles: int = 200_000_000,
    scheduler=None,
    backend: str | None = None,
) -> ProfileData:
    """The gprof step: run the level-2 binary and harvest call counts.

    ``backend`` picks the simulator backend for the profiling run
    (``None`` means the module default).
    """
    executable = compile_with_database(
        phase1_results, ProgramDatabase(), opt_level, scheduler
    )
    stats = run_executable(executable, max_cycles, backend=backend)
    return ProfileData.from_stats(stats)
