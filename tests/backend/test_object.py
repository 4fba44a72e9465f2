"""Object emission tests: layout, fallthrough, branch resolution."""

from repro.analyzer.database import default_directives
from repro.backend.allocators.paper import allocate_function
from repro.backend.finalize import finalize_frame
from repro.backend.isel import select_function
from repro.backend.object import emit_function
from repro.ir import lower_source
from repro.opt import optimize_module
from repro.target import isa
from tests.linker.json_image import _instruction_fields


def emit(source, name="f", opt_level=1):
    module = lower_source(source, "m")
    optimize_module(module, opt_level)
    machine = select_function(
        module.functions[name], default_directives(name)
    )
    allocate_function(machine)
    finalize_frame(machine)
    return emit_function(machine)


def test_branch_targets_are_instruction_indices():
    obj = emit("int f(int a) { if (a) return 1; return 2; }")
    for instruction in obj.instructions:
        if isinstance(instruction, (isa.B, isa.BC)):
            assert isinstance(instruction.target, int)
            assert 0 <= instruction.target < len(obj.instructions)


def test_fallthrough_branches_elided():
    obj = emit(
        """
        int f(int a) {
          int x = 0;
          if (a) x = 1; else x = 2;
          return x;
        }
        """
    )
    # No unconditional branch should target the immediately next index.
    for index, instruction in enumerate(obj.instructions):
        if isinstance(instruction, isa.B):
            assert instruction.target != index + 1


def test_single_ret_at_end():
    obj = emit("int f(int a) { if (a) return a; return 0; }")
    rets = [
        i for i in obj.instructions if isinstance(i, isa.RET)
    ]
    assert len(rets) == 1
    assert isinstance(obj.instructions[-1], isa.RET)


def test_loop_emits_backward_branch():
    obj = emit(
        "int f(int n) { int s = 0; while (n) { s += n; n--; } return s; }"
    )
    backward = [
        i for index, i in enumerate(obj.instructions)
        if isinstance(i, (isa.B, isa.BC)) and i.target <= index
    ]
    assert backward


def _machine(source, name="f"):
    module = lower_source(source, "m")
    optimize_module(module, 1)
    machine = select_function(module.functions[name],
                              default_directives(name))
    allocate_function(machine)
    finalize_frame(machine)
    return machine


def test_emission_copies_do_not_alias_machine_function():
    machine = _machine("int f(int a) { if (a) return 1; return 2; }")
    first = emit_function(machine)
    second = emit_function(machine)
    # Emitting twice gives identical shapes.  Branches, whose targets
    # emission rewrites, are independent objects; every other
    # instruction is the machine function's own, shared.
    assert len(first.instructions) == len(second.instructions)
    machine_instructions = {
        id(instruction)
        for block in machine.blocks.values()
        for instruction in block.instructions
    }
    for a, b in zip(first.instructions, second.instructions):
        assert repr(a) == repr(b)
        if isinstance(a, (isa.B, isa.BC)):
            assert a is not b
            assert id(a) not in machine_instructions
        else:
            assert a is b
            assert id(a) in machine_instructions


def test_emission_leaves_machine_instructions_untouched():
    """Emission resolves branch targets in its own copies: every
    machine-function instruction keeps every field it had, and a second
    emission gives the same object function."""
    machine = _machine(
        "int g;\n"
        "int f(int n) { int i; int s; s = 0;"
        " for (i = 0; i < n; i++) { if (i & 1) s += i; else s -= g; }"
        " g = s; return s; }"
    )

    def fields():
        return [
            [
                (type(instruction).__name__,
                 _instruction_fields(instruction))
                for instruction in block.instructions
            ]
            for block in machine.blocks.values()
        ]

    before = fields()
    kinds = {kind for block in before for kind, _fields in block}
    assert {"B", "BC"} <= kinds
    first = emit_function(machine)
    assert fields() == before
    second = emit_function(machine)
    assert [repr(i) for i in first.instructions] == [
        repr(i) for i in second.instructions
    ]
