"""Rescanning local passes: the oracles for :mod:`repro.opt.constant_folding`,
:mod:`repro.opt.copy_propagation` and :mod:`repro.opt.cse`.

Each ``run_*`` below is the pass as it was before the passes in ``src/``
stopped rescanning their environment: every redefined temp walks the
whole block environment for entries that mention it.  The passes in
``src/`` must return the same value and leave every function exactly
as these do.  Constant folding shares its binary-operator rewrites
(``_simplify_binop``) with ``src/``; only the environment bookkeeping
and the dispatch differ.
"""

from repro.analysis.liveness import _is_user_call
from repro.ir import arith
from repro.ir.function import IRFunction
from repro.ir.instructions import (
    BinOp,
    CJump,
    FrameAddr,
    Jump,
    LoadAddr,
    Move,
    UnOp,
)
from repro.ir.values import Const, Operand, Temp
from repro.opt.constant_folding import _simplify_binop


def _simplify(function: IRFunction, instruction):
    """Return a simplified instruction, or the original if unchanged."""
    if isinstance(instruction, BinOp):
        return _simplify_binop(instruction)
    if isinstance(instruction, UnOp) and isinstance(
        instruction.operand, Const
    ):
        value = arith.eval_unop(instruction.op, instruction.operand.value)
        return Move(instruction.dst, Const(value))
    return instruction


def run_constant_folding(function: IRFunction) -> bool:
    """Run the pass; returns True if anything changed."""
    changed = False
    pinned = set(function.pinned_temps)
    for block in function.blocks.values():
        env: dict[Temp, Operand] = {}
        new_instructions = []
        for instruction in block.instructions:
            if pinned and _is_user_call(instruction):
                # The callee may rewrite promoted globals' registers, so
                # constants cached in pinned temps are stale afterwards.
                for temp in pinned:
                    env.pop(temp, None)
            instruction.replace_uses(env)
            replacement = _simplify(function, instruction)
            if replacement is not instruction:
                changed = True
                instruction = replacement
            # Invalidate anything the instruction redefines.
            for defined in instruction.defs():
                env.pop(defined, None)
                # Drop stale copies that referenced the redefined temp.
                stale = [k for k, v in env.items() if v == defined]
                for key in stale:
                    del env[key]
            if isinstance(instruction, Move) and isinstance(
                instruction.src, Const
            ):
                env[instruction.dst] = instruction.src
            new_instructions.append(instruction)
        block.instructions = new_instructions
        if block.terminator is not None:
            block.terminator.replace_uses(env)
            if isinstance(block.terminator, CJump) and isinstance(
                block.terminator.cond, Const
            ):
                taken = (
                    block.terminator.true_target
                    if block.terminator.cond.value != 0
                    else block.terminator.false_target
                )
                block.terminator = Jump(taken)
                changed = True
    return changed


def run_copy_propagation(function: IRFunction) -> bool:
    """Run the pass; returns True if any use was rewritten."""
    changed = False
    pinned = set(function.pinned_temps)
    for block in function.blocks.values():
        env: dict[Temp, Operand] = {}
        for instruction in block.instructions:
            if pinned and _is_user_call(instruction):
                # Calls may read and rewrite promoted globals' registers:
                # copies into or out of pinned temps do not survive.
                stale = [
                    k for k, v in env.items()
                    if k in pinned or v in pinned
                ]
                for key in stale:
                    del env[key]
            before = [
                use for use in instruction.uses()
                if isinstance(use, Temp) and use in env
            ]
            if before:
                instruction.replace_uses(env)
                changed = True
            for defined in instruction.defs():
                env.pop(defined, None)
                stale = [k for k, v in env.items() if v == defined]
                for key in stale:
                    del env[key]
            if isinstance(instruction, Move) and isinstance(
                instruction.src, Temp
            ):
                if instruction.src is not instruction.dst:
                    env[instruction.dst] = instruction.src
        if block.terminator is not None:
            before = [
                use for use in block.terminator.uses()
                if isinstance(use, Temp) and use in env
            ]
            if before:
                block.terminator.replace_uses(env)
                changed = True
    return changed


def _operand_key(operand: Operand):
    if isinstance(operand, Const):
        return ("const", operand.value)
    return ("temp", id(operand))


def _expression_key(instruction):
    """A hashable key identifying the computation, or None if not pure."""
    if isinstance(instruction, BinOp):
        return (
            "bin",
            instruction.op,
            _operand_key(instruction.lhs),
            _operand_key(instruction.rhs),
        )
    if isinstance(instruction, UnOp):
        return ("un", instruction.op, _operand_key(instruction.operand))
    if isinstance(instruction, LoadAddr):
        return ("addr", instruction.symbol, instruction.is_function)
    if isinstance(instruction, FrameAddr):
        return ("frame", id(instruction.slot))
    return None


def run_cse(function: IRFunction) -> bool:
    """Run the pass; returns True if any expression was reused."""
    changed = False
    pinned = set(function.pinned_temps)
    for block in function.blocks.values():
        available: dict[tuple, Temp] = {}
        keys_mentioning: dict[int, list[tuple]] = {}
        new_instructions = []
        for instruction in block.instructions:
            if pinned and _is_user_call(instruction):
                # Expressions over promoted globals' registers, and cached
                # results living in them, are stale after a call.
                for temp in pinned:
                    for stale in keys_mentioning.pop(id(temp), []):
                        available.pop(stale, None)
                result_stale = [
                    k for k, v in available.items() if v in pinned
                ]
                for stale in result_stale:
                    available.pop(stale, None)
            key = _expression_key(instruction)
            if key is not None and key in available:
                instruction = Move(instruction.defs()[0], available[key])
                key = None
                changed = True
            for defined in instruction.defs():
                # Expressions using the redefined temp are stale, as are
                # expressions whose cached result it was.
                for stale in keys_mentioning.pop(id(defined), []):
                    available.pop(stale, None)
                result_stale = [
                    k for k, v in available.items() if v is defined
                ]
                for stale in result_stale:
                    available.pop(stale, None)
            if key is not None and instruction.defs()[0] in instruction.uses():
                # The result overwrote an operand of its own expression.
                key = None
            if key is not None:
                result = instruction.defs()[0]
                available[key] = result
                for used in instruction.uses():
                    if isinstance(used, Temp):
                        keys_mentioning.setdefault(id(used), []).append(key)
            new_instructions.append(instruction)
        block.instructions = new_instructions
    return changed
