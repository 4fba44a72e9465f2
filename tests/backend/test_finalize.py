"""Frame finalization tests: spill code placement rules."""

from repro.analyzer.database import (
    ProcedureDirectives,
    PromotedGlobal,
    default_directives,
)
from repro.backend.allocators.paper import allocate_function
from repro.backend.finalize import finalize_frame
from repro.backend.isel import select_function
from repro.backend.promotion import apply_web_promotion
from repro.ir import lower_source
from repro.opt import optimize_module
from repro.target import isa
from repro.target.frame import FrameLoc
from repro.target.registers import CALLEE_SAVES, RP, SP


def build(source, name="f", directives=None):
    module = lower_source(source, "m")
    directives = directives or default_directives(name)
    func = module.functions[name]
    apply_web_promotion(func, directives)
    optimize_module(module, 1)
    machine = select_function(func, directives)
    allocate_function(machine)
    layout = finalize_frame(machine)
    return machine, layout


def saved_registers(machine):
    return machine.saved_registers


def prologue_stores(machine):
    return [
        i for i in machine.entry.instructions if isinstance(i, isa.STW)
    ]


def epilogue_loads(machine):
    return [
        i for i in machine.exit.instructions if isinstance(i, isa.LDW)
    ]


def test_leaf_without_frame_needs_no_prologue():
    machine, layout = build("int f(int a) { return a + 1; }")
    assert layout.frame_size == 0
    assert not prologue_stores(machine)
    assert machine.entry.instructions[0].__class__ is not isa.ALUI or (
        machine.entry.instructions[0].ra != SP
    )


def test_calls_force_rp_save():
    machine, layout = build(
        "extern int h(int); int f(int a) { return h(a); }"
    )
    stores = prologue_stores(machine)
    assert any(s.rs == RP for s in stores)
    loads = epilogue_loads(machine)
    assert any(l.rd == RP for l in loads)


def test_used_callee_saves_saved_and_restored():
    machine, _ = build(
        """
        extern int h(int);
        int f(int a) { int x = a * 3; return h(a) + x; }
        """
    )
    used_callee = set(machine.used_registers) & CALLEE_SAVES
    assert used_callee
    assert used_callee <= set(saved_registers(machine))


def test_free_registers_not_saved():
    free = frozenset({16, 17})
    directives = ProcedureDirectives(
        name="f",
        free=free,
        callee=frozenset(CALLEE_SAVES) - free,
    )
    machine, _ = build(
        """
        extern int h(int);
        int f(int a) { int x = a * 3; return h(a) + x; }
        """,
        directives=directives,
    )
    assert not (set(saved_registers(machine)) & free)


def test_cluster_root_saves_all_mspill_even_unused():
    mspill = frozenset({20, 21, 22})
    directives = ProcedureDirectives(
        name="f",
        mspill=mspill,
        callee=frozenset(CALLEE_SAVES) - mspill,
        is_cluster_root=True,
    )
    machine, _ = build("int f(int a) { return a; }",
                       directives=directives)
    # The leaf uses none of them, yet all three are saved: the root
    # executes the spill code on behalf of the cluster (section 4.2.3).
    assert mspill <= set(saved_registers(machine))


def test_web_entry_saves_promoted_register():
    directives = ProcedureDirectives(
        name="f",
        promoted=(PromotedGlobal("g", 31, is_entry=True),),
        callee=frozenset(CALLEE_SAVES) - {31},
    )
    machine, _ = build(
        "int g; int f(int a) { g = g + a; return g; }",
        directives=directives,
    )
    assert 31 in saved_registers(machine)


def test_web_member_does_not_save_promoted_register():
    directives = ProcedureDirectives(
        name="f",
        promoted=(PromotedGlobal("g", 31, is_entry=False),),
        callee=frozenset(CALLEE_SAVES) - {31},
    )
    machine, _ = build(
        "int g; int f(int a) { g = g + a; return g; }",
        directives=directives,
    )
    assert 31 not in saved_registers(machine)


def test_all_symbolic_offsets_resolved():
    machine, _ = build(
        """
        extern int h(int, int, int, int, int);
        int f(int a) {
          int buf[8];
          buf[0] = a;
          return h(buf[0], 2, 3, 4, 5);
        }
        """
    )
    for instruction in machine.iter_instructions():
        if isinstance(instruction, (isa.LDW, isa.STW)):
            assert isinstance(instruction.offset, int), instruction
        if isinstance(instruction, isa.ALUI):
            assert isinstance(instruction.imm, int), instruction


def test_sp_adjusted_symmetrically():
    machine, layout = build(
        "extern int h(int); int f(int a) { return h(a) + 1; }"
    )
    assert layout.frame_size > 0
    first = machine.entry.instructions[0]
    assert isinstance(first, isa.ALUI)
    assert first.op == "-" and first.ra == SP and first.rd == SP
    assert first.imm == layout.frame_size
    epilogue_adjust = [
        i for i in machine.exit.instructions
        if isinstance(i, isa.ALUI) and i.rd == SP
    ]
    assert epilogue_adjust and epilogue_adjust[-1].op == "+"
    assert epilogue_adjust[-1].imm == layout.frame_size


def test_save_restore_are_singleton_references():
    machine, _ = build(
        """
        extern int h(int);
        int f(int a) { int x = a * 3; return h(a) + x; }
        """
    )
    for instruction in prologue_stores(machine) + epilogue_loads(machine):
        assert instruction.singleton
