"""Local constant propagation, folding, and algebraic simplification.

Within each basic block, constants are propagated through temps, constant
expressions are folded (using the shared 32-bit semantics in
:mod:`repro.ir.arith`), and a handful of algebraic identities are applied.
Conditional jumps on constants become unconditional jumps, which the CFG
cleanup pass then exploits.
"""

from __future__ import annotations

from repro.analysis.liveness import _is_user_call
from repro.ir import arith
from repro.ir.function import IRFunction
from repro.ir.instructions import BinOp, CJump, Jump, Move, UnOp
from repro.ir.values import Const, Operand, Temp


def run(function: IRFunction) -> bool:
    """Run the pass; returns True if anything changed.

    The environment maps temps to the constants last moved into them,
    so a redefinition only has to drop the redefined temp's own entry.
    """
    changed = False
    pinned = function.pinned_temps
    for block in function.blocks.values():
        env: dict[Temp, Const] = {}
        new_instructions = []
        for instruction in block.instructions:
            kind = type(instruction)
            if env:
                if pinned and _is_user_call(instruction):
                    # The callee may rewrite promoted globals'
                    # registers, so constants cached in pinned temps
                    # are stale afterwards.
                    for temp in pinned:
                        env.pop(temp, None)
                instruction.replace_uses(env)
            if kind is BinOp:
                lhs, rhs = instruction.lhs, instruction.rhs
                # Only a constant operand, or one temp used twice, can
                # simplify.
                if type(lhs) is Const or type(rhs) is Const or lhs is rhs:
                    replacement = _simplify_binop(instruction)
                    if replacement is not instruction:
                        changed = True
                        instruction = replacement
                        kind = Move
            elif kind is UnOp and type(instruction.operand) is Const:
                value = arith.eval_unop(
                    instruction.op, instruction.operand.value
                )
                instruction = Move(instruction.dst, Const(value))
                changed = True
                kind = Move
            if env:
                # Invalidate anything the instruction redefines.
                for defined in instruction.defs():
                    env.pop(defined, None)
            if kind is Move and type(instruction.src) is Const:
                env[instruction.dst] = instruction.src
            new_instructions.append(instruction)
        block.instructions = new_instructions
        terminator = block.terminator
        if terminator is not None:
            if env:
                terminator.replace_uses(env)
            if type(terminator) is CJump and type(terminator.cond) is Const:
                taken = (
                    terminator.true_target
                    if terminator.cond.value != 0
                    else terminator.false_target
                )
                block.terminator = Jump(taken)
                changed = True
    return changed


def _simplify_binop(instruction: BinOp):
    lhs, rhs, op = instruction.lhs, instruction.rhs, instruction.op
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        try:
            value = arith.eval_binop(op, lhs.value, rhs.value)
        except arith.DivisionByZeroError:
            return instruction  # preserve the runtime trap
        return Move(instruction.dst, Const(value))
    # Canonicalize constants to the right for commutative operators.
    if isinstance(lhs, Const) and op in arith.COMMUTATIVE_OPS:
        instruction.lhs, instruction.rhs = rhs, lhs
        lhs, rhs = instruction.lhs, instruction.rhs
    if isinstance(rhs, Const):
        value = rhs.value
        if op in ("+", "-", "|", "^", "<<", ">>") and value == 0:
            return Move(instruction.dst, lhs)
        if op in ("*", "/") and value == 1:
            return Move(instruction.dst, lhs)
        if op == "*" and value == 0:
            return Move(instruction.dst, Const(0))
        if op == "&" and value == 0:
            return Move(instruction.dst, Const(0))
        if op == "&" and value == -1:
            return Move(instruction.dst, lhs)
        if op == "%" and value == 1:
            return Move(instruction.dst, Const(0))
    if isinstance(lhs, Const):
        value = lhs.value
        if op == "*" and value == 0:
            return Move(instruction.dst, Const(0))
        if op in ("/", "%") and value == 0 and not _const_is_zero(rhs):
            # 0 / x is 0 unless x might be 0 (keep the potential trap).
            return instruction
    if isinstance(lhs, Temp) and lhs is rhs:
        if op == "-":
            return Move(instruction.dst, Const(0))
        if op == "^":
            return Move(instruction.dst, Const(0))
        if op in ("&", "|"):
            return Move(instruction.dst, lhs)
        if op == "==":
            return Move(instruction.dst, Const(1))
        if op == "!=":
            return Move(instruction.dst, Const(0))
    return instruction


def _const_is_zero(operand: Operand) -> bool:
    return isinstance(operand, Const) and operand.value == 0
