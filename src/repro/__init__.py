"""Interprocedural register allocation across procedure and module
boundaries — a full reproduction of Santhanam & Odnert (PLDI 1990).

The package contains a complete two-pass compilation system for the
Tiny-C language targeting the simulated PRISM RISC machine:

* :mod:`repro.lang` — front end (lexer, parser, semantic analysis);
* :mod:`repro.ir` / :mod:`repro.opt` — IR and the level-2 optimizer;
* :mod:`repro.frontend` — compiler first phase (summary files);
* :mod:`repro.callgraph` / :mod:`repro.analyzer` — the program analyzer:
  global variable promotion over call-graph webs and spill code motion
  over clusters, producing the program database;
* :mod:`repro.backend` — compiler second phase (code generation,
  directive-driven register allocation);
* :mod:`repro.linker` / :mod:`repro.machine` — linker and cycle-accurate
  simulator with the paper's metrics;
* :mod:`repro.workloads` — the benchmark programs;
* :mod:`repro.driver` — one-call pipelines.

Quickstart::

    from repro import AnalyzerOptions, compile_and_run

    sources = {"main": "int g; int main() { g = 41; print(g + 1); return 0; }"}
    baseline = compile_and_run(sources)                      # level 2 only
    ipa = compile_and_run(sources, analyzer_options=AnalyzerOptions.config("C"))
    print(baseline.cycles, ipa.cycles)
"""

from repro.analyzer.database import ProgramDatabase
from repro.analyzer.driver import analyze_program
from repro.analyzer.options import PAPER_CONFIGS, AnalyzerOptions
from repro.backend.allocators import (
    ALLOCATORS,
    get_allocator,
    resolve_allocator,
)
from repro.driver.pipeline import (
    CompilationResult,
    collect_profile,
    compile_and_run,
    compile_program,
    compile_with_database,
    run_phase1,
)
from repro.driver.scheduler import CompilationScheduler, MetricsSnapshot
from repro.machine.profiler import ProfileData
from repro.machine.simulator import (
    ConventionViolation,
    CostModel,
    ExecutionStats,
    MachineError,
    Simulator,
    run_executable,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    explain_global,
    explain_procedure,
    fold_trace,
)

__version__ = "1.0.0"

__all__ = [
    "ALLOCATORS",
    "AnalyzerOptions",
    "ConventionViolation",
    "get_allocator",
    "resolve_allocator",
    "Simulator",
    "CompilationResult",
    "CompilationScheduler",
    "CostModel",
    "MetricsSnapshot",
    "ExecutionStats",
    "MachineError",
    "MetricsRegistry",
    "PAPER_CONFIGS",
    "ProfileData",
    "ProgramDatabase",
    "Tracer",
    "analyze_program",
    "collect_profile",
    "compile_and_run",
    "compile_program",
    "compile_with_database",
    "explain_global",
    "explain_procedure",
    "fold_trace",
    "run_executable",
    "run_phase1",
    "__version__",
]
