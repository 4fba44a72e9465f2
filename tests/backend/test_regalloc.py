"""Register allocator tests."""

from repro import AnalyzerOptions, run_executable
from repro.analyzer.database import ProcedureDirectives, default_directives
from repro.backend.allocators.paper import allocate_function
from repro.backend.finalize import finalize_frame
from repro.backend.isel import select_function
from repro.driver.scheduler import CompilationScheduler
from repro.ir import lower_source
from repro.opt import optimize_module
from repro.target import isa
from repro.target.registers import (
    ALL_ALLOCATABLE,
    CALLEE_SAVES,
    CALLER_SAVES,
)
from repro.verify.progen import generate_fuzz_program


def compile_machine(source, name="f", directives=None, opt_level=1):
    module = lower_source(source, "m")
    optimize_module(module, opt_level)
    machine = select_function(
        module.functions[name], directives or default_directives(name)
    )
    allocate_function(machine)
    return machine


def assert_fully_physical(machine):
    for instruction in machine.iter_instructions():
        for reg in list(instruction.uses()) + list(instruction.defs()):
            assert isinstance(reg, int), (instruction, reg)


def test_simple_function_allocates_all_vregs():
    machine = compile_machine("int f(int a, int b) { return a * b + a; }")
    assert_fully_physical(machine)
    assert machine.used_registers <= ALL_ALLOCATABLE
    assert machine.num_spills == 0


def test_value_live_across_call_gets_callee_saves():
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
    # x must survive the call: it lives in a callee-saves register.
    assert machine.used_registers & CALLEE_SAVES


def test_leaf_values_use_caller_saves():
    machine = compile_machine("int f(int a) { return a + a * a; }")
    assert_fully_physical(machine)
    assert not (machine.used_registers & CALLEE_SAVES)


def test_free_registers_preferred_over_callee():
    free = frozenset({16, 17})
    directives = ProcedureDirectives(
        name="f",
        free=free,
        callee=frozenset(CALLEE_SAVES) - free,
    )
    machine = compile_machine(
        """
        extern int h(int);
        int f(int a) {
          int x = a * 3;
          return h(a) + x;
        }
        """,
        directives=directives,
    )
    used_callee_saves = machine.used_registers & CALLEE_SAVES
    assert used_callee_saves <= free  # no save/restore needed


def test_high_pressure_forces_spills():
    # More simultaneously-live values than registers.
    parts = ["extern int h(int);", "int f(int a) {"]
    for i in range(40):
        parts.append(f"  int x{i} = a * {i + 2} + (a >> {i % 8});")
    parts.append("  int y = h(a);")
    total = " + ".join(f"x{i}" for i in range(40))
    parts.append(f"  return y + {total};")
    parts.append("}")
    machine = compile_machine("\n".join(parts))
    assert_fully_physical(machine)
    assert machine.num_spills > 0
    spill_memops = [
        i for i in machine.iter_instructions()
        if isinstance(i, (isa.LDW, isa.STW))
        and getattr(i.offset, "kind", None) == "spill"
    ]
    assert spill_memops
    assert all(m.singleton for m in spill_memops)


def test_tiny_callee_pool_still_allocates():
    # Squeeze: only 2 callee-saves registers available.
    directives = ProcedureDirectives(
        name="f",
        callee=frozenset({16, 17}),
        # The rest of the callee-saves registers are simply absent.
    )
    parts = ["extern int h(int);", "int f(int a) {"]
    for i in range(6):
        parts.append(f"  int x{i} = a * {i + 2};")
    parts.append("  int y = h(a);")
    total = " + ".join(f"x{i}" for i in range(6))
    parts.append(f"  return y + {total};")
    parts.append("}")
    machine = compile_machine("\n".join(parts), directives=directives)
    assert_fully_physical(machine)
    # 6 values across one call with 2 registers: spills required.
    assert machine.num_spills >= 1


def test_precolored_vregs_keep_their_registers():
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
    allocate_function(machine)
    assert_fully_physical(machine)
    assert 31 in machine.used_registers
    # Register 31 holds the global: nothing else may be colored into it
    # by the pools (it is in none of them).
    # The ALU updating g writes r31 directly.
    writes_r31 = [
        i for i in machine.iter_instructions()
        if 31 in i.defs()
    ]
    assert writes_r31


def test_identity_moves_coalesced():
    machine = compile_machine(
        "int f(int a) { int b = a; int c = b; return c; }"
    )
    for instruction in machine.iter_instructions():
        if isinstance(instruction, isa.MOV):
            assert instruction.rd != instruction.rs


def test_arg_register_conflict_avoided():
    # Two arguments computed before the call; the second must not be
    # clobbered by moving the first into its argument register.
    machine = compile_machine(
        """
        extern int g(int, int);
        int f(int a, int b) { return g(b + 1, a + 2); }
        """
    )
    assert_fully_physical(machine)  # correctness verified in simulator tests


def test_spill_temp_takes_register_from_spilled_neighbor():
    """progen seed 27 under config A at -O2: two spill temps each meet
    23 already-coloured neighbours holding the whole pool.  Instead of
    failing, the allocator spills a neighbour that alone holds a pool
    register; the build audits clean and behaves like config C's."""
    sources = generate_fuzz_program(27)
    observed = {}
    with CompilationScheduler(verify=True) as scheduler:
        for config in "AC":
            result = scheduler.compile_program(
                sources, opt_level=2,
                analyzer_options=AnalyzerOptions.config(config),
            )
            assert scheduler.last_audit_report.ok
            stats = run_executable(result.executable, max_cycles=60_000_000)
            observed[config] = (tuple(stats.output), stats.exit_code)
    assert observed["A"] == observed["C"]
