"""Cross-backend differential suite.

The compiled (threaded-code) backend must be observationally
indistinguishable from the reference interpreter: bit-identical
:class:`ExecutionStats` — cycles, instructions, memref/singleton
splits, save/restore, call counts and edges, per-procedure
attribution, output, exit code — and the same exception with the same
message at the same instruction boundary.  The matrix here is the full
workload suite under every analyzer configuration A-F (plus the
level-2 baseline), seeded fuzz programs (``REPRO_FUZZ_SEEDS`` widens
the sweep; CI runs 100), cycle-limit boundaries, and a
convention-violating executable.  See ``docs/SIMULATOR.md``.
"""

import os

import pytest

from repro import (
    AnalyzerOptions,
    ProgramDatabase,
    collect_profile,
    compile_program,
    compile_with_database,
    run_phase1,
)
from repro.analyzer.driver import analyze_program
from repro.machine.simulator import (
    BACKENDS,
    DEFAULT_BACKEND,
    ConventionViolation,
    ExecutionLimitExceeded,
    MachineError,
    Simulator,
    resolve_backend,
)
from repro.target import isa
from repro.verify.progen import generate_fuzz_program
from repro.workloads import all_workloads

WORKLOADS = all_workloads()
CONFIGS = [None, "A", "B", "C", "D", "E", "F"]
FUZZ_SEEDS = range(int(os.environ.get("REPRO_FUZZ_SEEDS", "12")))
FUZZ_MAX_CYCLES = 200_000


def _stats_key(stats):
    """Every observable field of :class:`ExecutionStats`."""
    return (
        stats.cycles,
        stats.instructions,
        stats.loads,
        stats.stores,
        stats.singleton_loads,
        stats.singleton_stores,
        stats.save_restore_executed,
        dict(stats.call_counts),
        dict(stats.call_edges),
        repr(stats.per_procedure),
        stats.output,
        stats.exit_code,
    )


def _outcome(executable, max_cycles, backend, **kwargs):
    """Run to a comparable value: stats on success, else the exact
    exception class and message."""
    try:
        stats = Simulator(executable, backend=backend, **kwargs).run(
            max_cycles
        )
        return ("stats", _stats_key(stats))
    except ExecutionLimitExceeded as exc:
        return ("limit", str(exc))
    except ConventionViolation as exc:
        return ("convention", str(exc))
    except MachineError as exc:
        return ("fault", str(exc))


def assert_backends_agree(executable, max_cycles, **kwargs):
    reference = _outcome(executable, max_cycles, "reference", **kwargs)
    compiled = _outcome(executable, max_cycles, "compiled", **kwargs)
    assert compiled == reference
    return reference


# ----------------------------------------------------------------------
# Workload matrix: every workload x {baseline, A-F}.

_PHASE1 = {}
_PROFILES = {}


def _workload_phase1(name):
    if name not in _PHASE1:
        _PHASE1[name] = run_phase1(WORKLOADS[name].sources)
    return _PHASE1[name]


def _workload_profile(name):
    if name not in _PROFILES:
        workload = WORKLOADS[name]
        _PROFILES[name] = collect_profile(
            _workload_phase1(name), max_cycles=workload.max_cycles
        )
    return _PROFILES[name]


def _database(name, config):
    if config is None:
        return ProgramDatabase()
    phase1 = _workload_phase1(name)
    profile = _workload_profile(name) if config in "BF" else None
    return analyze_program(
        [result.summary for result in phase1],
        AnalyzerOptions.config(config, profile),
    )


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: c or "baseline")
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matrix_bit_identical(name, config):
    workload = WORKLOADS[name]
    database = _database(name, config)
    executable = compile_with_database(_workload_phase1(name), database)
    outcome = assert_backends_agree(executable, workload.max_cycles)
    assert outcome[0] == "stats"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_per_procedure_attribution_identical(name):
    workload = WORKLOADS[name]
    executable = compile_with_database(
        _workload_phase1(name), ProgramDatabase()
    )
    outcome = assert_backends_agree(
        executable, workload.max_cycles, procedure_stats=True
    )
    assert outcome[0] == "stats"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_convention_checking_identical(name):
    workload = WORKLOADS[name]
    database = _database(name, "C")
    executable = compile_with_database(_workload_phase1(name), database)
    outcome = assert_backends_agree(
        executable,
        workload.max_cycles,
        check_conventions=True,
        volatile_registers=database.convention_volatile_registers(),
    )
    assert outcome[0] == "stats"


# ----------------------------------------------------------------------
# Seeded fuzz programs.

@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_program_bit_identical(seed):
    sources = generate_fuzz_program(seed)
    executable = compile_program(sources).executable
    for kwargs in ({}, {"procedure_stats": True},
                   {"check_conventions": True}):
        assert_backends_agree(executable, FUZZ_MAX_CYCLES, **kwargs)


# ----------------------------------------------------------------------
# Cycle-limit boundaries: ExecutionLimitExceeded must fire at the same
# instruction boundary, and runs that just fit must complete on both.

def test_limit_boundary_identical():
    result = compile_program({"m": """
        int work(int n) {
          int i;
          int s = 0;
          for (i = 0; i < n; i++) s = s + i * i;
          return s;
        }
        int main() { print(work(40)); return work(9) & 255; }
    """})
    executable = result.executable
    total = Simulator(executable, backend="reference").run().cycles
    saw_limit = saw_stats = False
    limits = (list(range(1, 48))
              + [total // 2, total - 1, total, total + 1])
    for limit in limits:
        outcome = assert_backends_agree(executable, limit)
        if outcome[0] == "limit":
            saw_limit = True
        else:
            saw_stats = True
    assert saw_limit and saw_stats


def test_budget_hand_off_runs_reference_loop_to_halt():
    """Every budget from 1 to past the total: where a block's whole
    cost could cross the budget, the compiled backend hands the run to
    the reference loop.  The last block's taken early exit skips a long
    fall-through, so its ceiling overshoots the path actually run and
    budgets just above the total hand off a run that reaches HALT on
    the reference loop (with per-procedure attribution and convention
    frames in flight)."""
    result = compile_program({"m": """
        int g;
        int pick(int x) { return x * 3 - 1; }
        int main() {
          int r = pick(4);
          if (r < 0) {
            g = g + r;
            g = g * 3;
            g = g - 7;
            g = g ^ r;
            g = g + 11;
            g = g * r;
            g = g - r;
            g = g + 5;
            g = g & 1023;
            g = g | 4;
          }
          print(r);
          return g + r;
        }
    """})
    executable = result.executable
    total = Simulator(executable, backend="reference").run().cycles
    for kwargs in ({}, {"procedure_stats": True},
                   {"check_conventions": True}):
        outcomes = {
            assert_backends_agree(executable, limit, **kwargs)[0]
            for limit in range(1, total + 41)
        }
        assert outcomes == {"limit", "stats"}, kwargs


# ----------------------------------------------------------------------
# Convention violations: same exception, same message, both backends.

def test_convention_violation_identical():
    result = compile_program({"m": """
        int helper(int x) { return x + 1; }
        int main() { return helper(1); }
    """})
    executable = result.executable
    start = executable.function_entries["helper"]
    executable.instructions[start] = isa.LDI(20, 12345)
    outcome = assert_backends_agree(
        executable, 200_000_000, check_conventions=True
    )
    assert outcome[0] == "convention"
    assert "r20" in outcome[1]


# ----------------------------------------------------------------------
# Backend selection plumbing.

def test_default_backend_is_compiled():
    assert DEFAULT_BACKEND == "compiled"
    assert set(BACKENDS) == {"compiled", "reference"}


def test_resolve_backend_prefers_explicit_name():
    assert resolve_backend("reference") == "reference"
    assert resolve_backend(" Compiled ") == "compiled"
    assert resolve_backend() == DEFAULT_BACKEND


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown simulator backend"):
        resolve_backend("turbo")
