"""Property tests for the spill-everywhere strategy in isolation.

The strategy's invariants are stronger than an allocator's usual ones:
values only ever occupy a scratch register inside a single instruction
expansion, so at most three scratch registers (plus precolored web
registers) appear in the whole function, every slot read is written,
and reserved web registers are untouched by scratch traffic.
"""

from repro.analyzer.database import ProcedureDirectives, default_directives
from repro.backend.allocators.base import get_allocator
from repro.backend.isel import select_function
from repro.ir import lower_source
from repro.opt import optimize_module
from repro.target import isa
from repro.target.registers import ALL_ALLOCATABLE, ARG_REGISTERS, CALLEE_SAVES, RV
from tests.backend.test_regalloc import assert_fully_physical

STRATEGY = get_allocator("spill-everywhere")


def compile_machine(source, name="f", directives=None, opt_level=1):
    module = lower_source(source, "m")
    optimize_module(module, opt_level)
    machine = select_function(
        module.functions[name], directives or default_directives(name)
    )
    STRATEGY.allocate(machine)
    return machine


def spill_ops(machine):
    for instruction in machine.iter_instructions():
        if getattr(
            getattr(instruction, "offset", None), "kind", None
        ) == "spill":
            yield instruction


def test_everything_physical_with_at_most_three_scratch_registers():
    machine = compile_machine(
        """
        extern int h(int);
        int f(int a, int b) {
          int x = a * 3 + b;
          int y = h(a) + x;
          return y - b;
        }
        """
    )
    assert_fully_physical(machine)
    assert machine.used_registers <= ALL_ALLOCATABLE
    assert len(machine.used_registers) <= 3
    assert machine.num_spills > 0


def test_scratch_registers_avoid_argument_registers_and_rv():
    """Instruction selection addresses r4-r7 and RV directly around
    calls; scratch traffic must not race them."""
    machine = compile_machine(
        """
        extern int h(int, int, int, int);
        int f(int a, int b) { return h(a, b, a + b, a - b) + a; }
        """
    )
    scratch = {
        op.rd if isinstance(op, isa.LDW) else op.rs
        for op in spill_ops(machine)
    }
    assert not (scratch & set(ARG_REGISTERS))
    assert RV not in scratch


def test_spill_slots_are_balanced_and_singleton():
    machine = compile_machine(
        "int f(int a) { int s = 0; int i; "
        "for (i = 0; i < a; i = i + 1) { s = s + i * i; } return s; }"
    )
    loads, stores = set(), set()
    for op in spill_ops(machine):
        assert op.singleton
        if isinstance(op, isa.LDW):
            loads.add(op.offset.index)
        else:
            stores.add(op.offset.index)
    assert loads and stores
    assert loads <= stores  # no slot is read that nothing wrote


def test_scratch_values_never_live_across_blocks():
    """A scratch register is only read after being defined earlier in
    the *same* block: no value stays in a scratch register across a
    control-flow edge — everything round-trips through its slot."""
    machine = compile_machine(
        """
        extern int h(int);
        int f(int a) {
          int x = a * 3;
          if (a > 2) { x = h(a) + x; }
          return h(x) + x;
        }
        """
    )
    scratch = machine.used_registers - set(machine.precolored.values())
    assert scratch
    for block in machine.blocks.values():
        defined_here: set[int] = set()
        for instruction in block.instructions:
            for used in instruction.uses():
                if used in scratch:
                    assert used in defined_here, (
                        block.label, instruction, used
                    )
            defined_here.update(
                d for d in instruction.defs() if isinstance(d, int)
            )


def test_reserved_web_register_untouched_by_scratch_traffic():
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
    STRATEGY.allocate(machine)
    assert_fully_physical(machine)
    assert 31 in machine.used_registers
    scratch = {
        op.rd if isinstance(op, isa.LDW) else op.rs
        for op in spill_ops(machine)
    }
    assert 31 not in scratch


def test_rematerialized_constants_skip_the_stack():
    """Single-def LDI/LDA values are re-derived at each use — their
    definition vanishes and no slot is allocated for them."""
    machine = compile_machine("int g; int f(int a) { g = 5; return g + 5; }")
    # The global's address (LDA) and the constant are rematerialized:
    # every remaining LDA/LDI feeds the instruction right after it.
    for block in machine.blocks.values():
        instructions = block.instructions
        for index, instruction in enumerate(instructions):
            if isinstance(instruction, (isa.LDA, isa.LDI)):
                target = instruction.rd
                assert any(
                    target in later.uses()
                    for later in instructions[index + 1:]
                ), instruction


def test_differential_against_paper_on_a_small_program():
    from repro import (
        AnalyzerOptions,
        CompilationScheduler,
        run_executable,
        run_phase1,
    )
    from repro.analyzer.driver import analyze_program

    sources = {
        "main": """
        int g;
        int helper(int a, int b) { g = g + a; return a * b; }
        int main() {
          int i; int acc; acc = 0;
          for (i = 0; i < 12; i = i + 1) { acc = acc + helper(i, i + 1); }
          print(acc); print(g);
          return 0;
        }
        """
    }
    with CompilationScheduler(verify=True) as scheduler:
        phase1 = run_phase1(sources, scheduler=scheduler)
        database = analyze_program(
            [r.summary for r in phase1], AnalyzerOptions.config("C")
        )
        reference = None
        for allocator in ("paper", "spill-everywhere"):
            executable = scheduler.compile_with_database(
                phase1, database, 2, allocator=allocator
            )
            assert scheduler.last_audit_report.ok
            stats = run_executable(executable, max_cycles=10_000_000)
            observed = (tuple(stats.output), stats.exit_code)
            if reference is None:
                reference = observed
            assert observed == reference
