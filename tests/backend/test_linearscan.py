"""Property tests for the linear-scan allocation strategy in isolation.

The oracles mirror the auditor's defect vocabulary: values that are
live together never share a register, reserved web registers are never
stolen, spill code is balanced (no load from a slot nothing stores),
and the convention pools are respected.
"""

import pytest

from repro.analyzer.database import ProcedureDirectives, default_directives
from repro.backend.allocators.base import get_allocator
from repro.backend.allocators.linearscan import (
    build_intervals,
    eliminate_dead_statements,
    scan,
)
from repro.backend.isel import select_function
from repro.ir import lower_source
from repro.opt import optimize_module
from repro.target import isa
from repro.target.registers import ALL_ALLOCATABLE, CALLEE_SAVES
from tests.backend.test_regalloc import assert_fully_physical

STRATEGY = get_allocator("linearscan")


def select_machine(source, name="f", directives=None, opt_level=1):
    module = lower_source(source, "m")
    optimize_module(module, opt_level)
    return select_function(
        module.functions[name], directives or default_directives(name)
    )


def compile_machine(source, name="f", directives=None, opt_level=1):
    machine = select_machine(source, name, directives, opt_level)
    STRATEGY.allocate(machine)
    return machine


HIGH_PRESSURE = "\n".join(
    ["extern int h(int);", "int f(int a) {"]
    + [f"  int x{i} = a * {i + 2} + (a >> {i % 8});" for i in range(40)]
    + ["  int y = h(a);"]
    + ["  return y + " + " + ".join(f"x{i}" for i in range(40)) + ";", "}"]
)


def test_simple_function_allocates_all_vregs():
    machine = compile_machine("int f(int a, int b) { return a * b + a; }")
    assert_fully_physical(machine)
    assert machine.used_registers <= ALL_ALLOCATABLE
    assert machine.num_spills == 0


def test_overlapping_intervals_never_share_a_register():
    machine = select_machine(HIGH_PRESSURE)
    intervals, blocked = build_intervals(machine)
    assignment, _spills = scan(machine, intervals, blocked)
    placed = [
        (start, end, assignment[vreg])
        for start, end, vreg in intervals
        if vreg in assignment
    ]
    for i, (s1, e1, r1) in enumerate(placed):
        for s2, e2, r2 in placed[i + 1:]:
            if s1 <= e2 and s2 <= e1:  # intervals overlap
                assert r1 != r2, ((s1, e1), (s2, e2), r1)


def test_assignment_respects_blocked_positions():
    machine = select_machine(HIGH_PRESSURE)
    intervals, blocked = build_intervals(machine)
    assignment, _spills = scan(machine, intervals, blocked)
    for start, end, vreg in intervals:
        register = assignment.get(vreg)
        if register is None:
            continue
        for position in range(start, end + 1):
            assert not (blocked[position] >> register) & 1, (
                vreg, register, position
            )


def test_high_pressure_spills_are_balanced():
    machine = compile_machine(HIGH_PRESSURE)
    assert_fully_physical(machine)
    assert machine.num_spills > 0
    loads, stores = set(), set()
    for instruction in machine.iter_instructions():
        if getattr(
            getattr(instruction, "offset", None), "kind", None
        ) != "spill":
            continue
        assert instruction.singleton  # spill traffic is scalar
        if isinstance(instruction, isa.LDW):
            loads.add(instruction.offset.index)
        elif isinstance(instruction, isa.STW):
            stores.add(instruction.offset.index)
    # Every slot read was written somewhere: no load of garbage.
    assert loads <= stores


def test_free_and_mspill_pools_are_ignored():
    """The intraprocedural baseline may not use the analyzer's
    interprocedural FREE/MSPILL gifts."""
    free = frozenset({16, 17})
    mspill = frozenset({18})
    directives = ProcedureDirectives(
        name="f",
        free=free,
        mspill=mspill,
        callee=frozenset(CALLEE_SAVES) - free - mspill,
    )
    machine = compile_machine(HIGH_PRESSURE, directives=directives)
    assert_fully_physical(machine)
    assert not (machine.used_registers & (free | mspill))


def test_reserved_web_register_never_stolen():
    from repro.analyzer.database import PromotedGlobal
    from repro.backend.promotion import apply_web_promotion

    directives = ProcedureDirectives(
        name="f",
        promoted=(PromotedGlobal("g", 31, is_entry=False),),
        callee=frozenset(CALLEE_SAVES) - {31},
    )
    module = lower_source(
        "int g; int f(int a) { g = g + a; return g; }", "m"
    )
    func = module.functions["f"]
    apply_web_promotion(func, directives)
    optimize_module(module, 1)
    machine = select_function(func, directives)
    intervals, blocked = build_intervals(machine)
    assignment, spills = scan(machine, intervals, blocked)
    assert not spills
    for vreg, register in assignment.items():
        if vreg not in machine.precolored:
            assert register != 31, vreg
    STRATEGY.allocate(machine)
    assert_fully_physical(machine)
    assert 31 in machine.used_registers


def test_dead_statement_elimination_is_selective():
    machine = select_machine("int f(int a) { return a + 1; }")
    entry = machine.blocks[machine.entry_label]
    dead_pure = isa.LDI(machine.new_vreg("dead"), 123)
    dead_div = isa.ALUI("/", machine.new_vreg("div"), 1, 0)
    entry.instructions[0:0] = [dead_pure, dead_div]
    removed = eliminate_dead_statements(machine)
    assert removed >= 1
    remaining = list(machine.iter_instructions())
    assert dead_pure not in remaining  # dead constant deleted
    assert dead_div in remaining  # a zero divisor must still fault


def test_call_clobbers_steer_live_across_call_values():
    """A value live across a call lands in a register the call cannot
    clobber — purely via the clobber-set liveness, no directives."""
    machine = compile_machine(
        """
        extern int h(int);
        int f(int a) {
          int x = a * 3;
          return h(a) + x;
        }
        """
    )
    assert_fully_physical(machine)
    assert machine.used_registers & CALLEE_SAVES


@pytest.mark.parametrize("config", [None, "C"])
def test_small_program_audits_clean_end_to_end(config, tmp_path):
    from repro import (
        AnalyzerOptions,
        CompilationScheduler,
        ProgramDatabase,
        run_executable,
    )
    from repro.analyzer.driver import analyze_program
    from repro.verify.progen import generate_fuzz_program

    sources = generate_fuzz_program(2)
    with CompilationScheduler(
        cache_dir=tmp_path, verify=True
    ) as scheduler:
        phase1 = scheduler.run_phase1(sources, 2)
        if config is None:
            database = ProgramDatabase()
        else:
            database = analyze_program(
                [r.summary for r in phase1],
                AnalyzerOptions.config(config),
            )
        observed = {}
        for allocator in ("paper", "linearscan"):
            executable = scheduler.compile_with_database(
                phase1, database, 2, allocator=allocator
            )
            report = scheduler.last_audit_report
            assert report is not None and report.ok
            stats = run_executable(executable, max_cycles=60_000_000)
            observed[allocator] = (tuple(stats.output), stats.exit_code)
        assert observed["linearscan"] == observed["paper"]
