"""Local common-subexpression elimination (value numbering per block).

Pure computations (``BinOp``, ``UnOp``, ``LoadAddr``, ``FrameAddr``) with
operands identical to an earlier computation in the same block are replaced
by a ``Move`` from the earlier result.  Memory reads are *not* value
numbered here — redundant global loads are handled by the global-caching
pass (:mod:`repro.opt.localprom`), which knows the aliasing rules.

Division/remainder are value-numbered too: identical operands produce the
same value and the same (possible) trap, and the first occurrence is kept.
"""

from __future__ import annotations

from repro.analysis.liveness import _is_user_call
from repro.ir.function import IRFunction
from repro.ir.instructions import BinOp, FrameAddr, LoadAddr, Move, UnOp
from repro.ir.values import Const, Temp


def run(function: IRFunction) -> bool:
    """Run the pass; returns True if any expression was reused.

    An expression key holds its operands as they compare: a constant
    by its value, a temp as itself (temps compare by identity).  Two
    reverse maps, from a temp to the keys that use it and to the keys
    whose cached result it holds, find every stale key of a
    redefinition without scanning the available expressions; entries
    may outlive their key, so each is checked before it is dropped.
    """
    changed = False
    pinned = function.pinned_temps
    for block in function.blocks.values():
        available: dict[tuple, Temp] = {}
        keys_using: dict[Temp, list[tuple]] = {}
        keys_held_by: dict[Temp, list[tuple]] = {}
        new_instructions = []
        for instruction in block.instructions:
            kind = type(instruction)
            if kind is BinOp:
                lhs, rhs = instruction.lhs, instruction.rhs
                key = (
                    "bin", instruction.op,
                    lhs.value if type(lhs) is Const else lhs,
                    rhs.value if type(rhs) is Const else rhs,
                )
            elif kind is UnOp:
                operand = instruction.operand
                key = (
                    "un", instruction.op,
                    operand.value if type(operand) is Const else operand,
                )
            elif kind is LoadAddr:
                key = ("addr", instruction.symbol, instruction.is_function)
            elif kind is FrameAddr:
                key = ("frame", id(instruction.slot))
            else:
                key = None
                if available and pinned and _is_user_call(instruction):
                    # Expressions over promoted globals' registers, and
                    # cached results living in them, are stale after a
                    # call.
                    for temp in pinned:
                        _forget(available, keys_using, keys_held_by, temp)
            if key is not None:
                result = instruction.dst
                cached = available.get(key)
                if cached is not None:
                    instruction = Move(result, cached)
                    key = None
                    changed = True
                if result in keys_using or result in keys_held_by:
                    _forget(available, keys_using, keys_held_by, result)
                if key is not None and result in key:
                    # ``a = a + b`` redefines an operand of its own key:
                    # the expression no longer has the value in ``a``.
                    key = None
                if key is not None:
                    available[key] = result
                    keys_held_by.setdefault(result, []).append(key)
                    for used in key[2:]:
                        if type(used) is Temp:
                            keys_using.setdefault(used, []).append(key)
            elif available:
                for defined in instruction.defs():
                    if defined in keys_using or defined in keys_held_by:
                        _forget(available, keys_using, keys_held_by, defined)
            new_instructions.append(instruction)
        block.instructions = new_instructions
    return changed


def _forget(
    available: dict, keys_using: dict, keys_held_by: dict, temp: Temp
) -> None:
    """Drop every expression that uses ``temp`` or is cached in it."""
    for key in keys_using.pop(temp, ()):
        available.pop(key, None)
    for key in keys_held_by.pop(temp, ()):
        if available.get(key) is temp:
            del available[key]
