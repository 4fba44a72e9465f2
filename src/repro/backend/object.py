"""Object files: the compiler second phase's output, the linker's input.

An :class:`ObjectFunction` is a flat instruction list with function-local
branch targets already resolved to instruction indices (stored as ints in
the ``target`` fields).  Symbolic references that cross functions or
modules — ``LDA`` symbols and ``BL`` callees — are left for the linker.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.backend.mir import MachineFunction
from repro.ir.module import GlobalVar
from repro.target import isa


@dataclass
class ObjectFunction:
    """One compiled procedure."""

    name: str
    instructions: list = field(default_factory=list)
    source_module: str = ""

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class ObjectModule:
    """One compiled compilation unit."""

    name: str
    functions: list = field(default_factory=list)
    globals: list = field(default_factory=list)
    extern_globals: set = field(default_factory=set)
    extern_functions: set = field(default_factory=set)


def emit_function(machine: MachineFunction) -> ObjectFunction:
    """Flatten machine blocks into a linear instruction stream.

    Layout follows :meth:`MachineFunction.layout_order`.  Branches to the
    next block in layout are elided; a ``BC`` whose fallthrough ``B``
    can be removed by inverting the condition is inverted.
    """
    from repro.ir.arith import NEGATED_COMPARISON

    order = machine.layout_order()
    next_of: dict[str, str | None] = {}
    for index, block in enumerate(order):
        next_of[block.label] = (
            order[index + 1].label if index + 1 < len(order) else None
        )

    flat: list = []
    label_offsets: dict[str, int] = {}
    for block in order:
        label_offsets[block.label] = len(flat)
        instructions = block.instructions
        i = 0
        while i < len(instructions):
            instruction = instructions[i]
            following = instructions[i + 1] if i + 1 < len(instructions) else None
            if (
                isinstance(instruction, isa.B)
                and following is None
                and instruction.target == next_of[block.label]
            ):
                i += 1
                continue  # fallthrough
            if (
                isinstance(instruction, isa.BC)
                and isinstance(following, isa.B)
                and i + 2 == len(instructions)
            ):
                if instruction.target == next_of[block.label]:
                    # Invert: branch away on the negated condition.
                    inverted = isa.BC(
                        NEGATED_COMPARISON[instruction.op],
                        instruction.ra,
                        instruction.rb,
                        following.target,
                    )
                    flat.append(inverted)
                    i += 2
                    continue
                if following.target == next_of[block.label]:
                    flat.append(copy.copy(instruction))
                    i += 2
                    continue
            # Only branches are rewritten below, so only they are
            # copied; the rest is shared with the machine function, the
            # rule the linker follows for the instructions it relocates.
            if isinstance(instruction, (isa.B, isa.BC)):
                instruction = copy.copy(instruction)
            flat.append(instruction)
            i += 1

    # Resolve local branch targets to instruction indices.
    for instruction in flat:
        if isinstance(instruction, (isa.B, isa.BC)):
            instruction.target = label_offsets[instruction.target]
    return ObjectFunction(machine.name, flat, machine.source_module)


def emit_module(
    name: str,
    machine_functions: list,
    global_vars: list,
    extern_globals: set,
    extern_functions: set,
) -> ObjectModule:
    """Emit a whole module."""
    return ObjectModule(
        name=name,
        functions=[emit_function(m) for m in machine_functions],
        globals=list(global_vars),
        extern_globals=set(extern_globals),
        extern_functions=set(extern_functions),
    )
