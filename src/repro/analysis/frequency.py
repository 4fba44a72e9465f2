"""Static frequency estimation over IR.

The compiler first phase estimates (paper section 3 and 6):

* per-procedure global-variable reference frequencies,
* per-procedure call frequencies to each callee,
* the number of callee-saves registers the procedure will need.

Following the prototype described in section 6, "usage counts and call
frequencies were determined based on the location of each reference or
call in the control flow hierarchy": a reference at loop nesting depth
``d`` is weighted ``FREQUENCY_BASE ** d``.

The live-across-call walkers share one precomputed *function walk* — a
per-block tuple of ``(defs, temp uses, call flags)`` triples in reverse
program order — instead of rebuilding ``set(instruction.defs())`` and
``list(block.instructions)`` inside every inner loop, and one liveness
result instead of re-solving the fixpoint per estimate.  The walks
run on integer bitmasks over a dense per-function temp index
(:class:`_PackedWalk`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.liveness import LivenessResult, compute_ir_liveness
from repro.ir.function import IRFunction
from repro.ir.instructions import (
    Call,
    CallIndirect,
    LoadAddr,
    LoadGlobal,
    StoreGlobal,
)
from repro.ir.values import Temp

FREQUENCY_BASE = 10
MAX_WEIGHTED_DEPTH = 6


def block_weight(loop_depth: int) -> int:
    """Static execution-frequency weight of a block at ``loop_depth``."""
    return FREQUENCY_BASE ** min(loop_depth, MAX_WEIGHTED_DEPTH)


@dataclass
class FunctionUsage:
    """Static usage facts for one procedure.

    Attributes:
        global_refs: qualified global name -> weighted reference count.
        global_stores: subset of the above that are writes.
        calls: callee qualified name -> weighted call count (direct calls).
        address_taken_functions: function names whose address this
            procedure computes (potential indirect-call targets).
        makes_indirect_calls: True if any indirect call site exists.
        callee_saves_needed: estimated callee-saves register demand.
    """

    global_refs: Counter = field(default_factory=Counter)
    global_stores: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    address_taken_functions: set[str] = field(default_factory=set)
    makes_indirect_calls: bool = False
    indirect_call_freq: int = 0
    callee_saves_needed: int = 0
    caller_saves_needed: int = 0
    max_call_args: int = 0


def _function_walk(function: IRFunction) -> list:
    """Hoisted per-block reverse walks for the live-across-call passes.

    Returns ``[(label, steps), ...]`` where ``steps`` is a tuple of
    ``(defs, temp_uses, is_call, is_user_call)`` records — one per
    instruction *including* the terminator, in reverse program order —
    with ``defs``/``temp_uses`` as tuples.  Built once per function;
    the old code re-allocated ``set(instruction.defs())`` and the
    instruction list inside every inner loop of every estimate.
    """
    walk = []
    for block in function.blocks.values():
        instructions = list(block.instructions)
        if block.terminator is not None:
            instructions.append(block.terminator)
        steps = []
        for instruction in reversed(instructions):
            is_call = isinstance(instruction, (Call, CallIndirect))
            is_user_call = is_call and not (
                isinstance(instruction, Call) and instruction.is_builtin
            )
            steps.append((
                tuple(instruction.defs()),
                tuple(
                    used for used in instruction.uses()
                    if isinstance(used, Temp)
                ),
                is_call,
                is_user_call,
            ))
        walk.append((block.label, tuple(steps)))
    return walk


def analyze_function_usage(function: IRFunction) -> FunctionUsage:
    """Collect weighted reference/call counts and register-need estimate."""
    usage = FunctionUsage()
    for block in function.blocks.values():
        weight = block_weight(block.loop_depth)
        for instruction in block.instructions:
            if isinstance(instruction, LoadGlobal):
                usage.global_refs[instruction.symbol] += weight
            elif isinstance(instruction, StoreGlobal):
                usage.global_refs[instruction.symbol] += weight
                usage.global_stores[instruction.symbol] += weight
            elif isinstance(instruction, Call):
                if not instruction.is_builtin:
                    usage.calls[instruction.callee] += weight
                    usage.max_call_args = max(
                        usage.max_call_args, len(instruction.args)
                    )
            elif isinstance(instruction, CallIndirect):
                usage.makes_indirect_calls = True
                usage.indirect_call_freq += weight
                usage.max_call_args = max(
                    usage.max_call_args, len(instruction.args)
                )
            elif isinstance(instruction, LoadAddr) and instruction.is_function:
                usage.address_taken_functions.add(instruction.symbol)
    # One liveness fixpoint and one instruction walk feed both register
    # estimates (each used to re-solve liveness privately).
    liveness = compute_ir_liveness(function)
    walk = _function_walk(function)
    usage.callee_saves_needed = estimate_callee_saves_need(
        function, liveness, walk
    )
    usage.caller_saves_needed = estimate_caller_saves_need(
        function, liveness, walk
    )
    return usage


def estimate_caller_saves_need(
    function: IRFunction,
    liveness: LivenessResult | None = None,
    walk: list | None = None,
) -> int:
    """Estimate how many caller-saves registers the procedure needs.

    Values *not* live across calls can use caller-saves registers; the
    demand is the maximum number of such values simultaneously live at
    any point.  Used by the caller-saves preallocation extension (paper
    section 7.6.2): the analyzer propagates each procedure's caller-saves
    usage bottom-up so callers can keep values in caller-saves registers
    across calls that do not touch them.
    """
    if liveness is None:
        liveness = compute_ir_liveness(function)
    if walk is None:
        walk = _function_walk(function)
    masks = _PackedWalk(liveness, walk)
    across = masks.across_user_calls()
    peak = 0
    for label, steps in masks.steps:
        live = masks.live_out[label] & ~across
        peak = max(peak, live.bit_count())
        for defs, uses, _is_call, _is_user_call in steps:
            live &= ~defs
            live |= uses & ~across
            count = live.bit_count()
            if count > peak:
                peak = count
    return peak


def estimate_callee_saves_need(
    function: IRFunction,
    liveness: LivenessResult | None = None,
    walk: list | None = None,
) -> int:
    """Estimate how many callee-saves registers the procedure needs.

    A temp that is live across some call must survive the call, so it
    wants a callee-saves register.  The estimate is the number of distinct
    temps live across any call site — the same quantity the paper's first
    phase records in the summary file for the spill-code-motion
    preallocation (section 4.2.4).
    """
    if liveness is None:
        liveness = compute_ir_liveness(function)
    if walk is None:
        walk = _function_walk(function)
    masks = _PackedWalk(liveness, walk)
    across = 0
    for label, steps in masks.steps:
        live = masks.live_out[label]
        # Walk backward so "live after the call" is available at the
        # call; every call counts here, builtins included.
        for defs, uses, is_call, _is_user_call in steps:
            if is_call:
                across |= live & ~defs
            live &= ~defs
            live |= uses
    return across.bit_count()


class _PackedWalk:
    """Bitmask form of a function walk + its block ``live_out`` facts.

    Temps get a dense per-function index; each walk step's def/use
    tuples and each block's ``live_out`` set become single integers, so
    the estimate loops above run on ``&``/``|`` instead of per-element
    set mutation.
    """

    __slots__ = ("steps", "live_out", "_index")

    def __init__(self, liveness, walk: list):
        self._index: dict = {}
        index = self._index

        def mask_of(items) -> int:
            mask = 0
            for item in items:
                position = index.get(item)
                if position is None:
                    position = len(index)
                    index[item] = position
                mask |= 1 << position
            return mask

        self.steps = [
            (
                label,
                tuple(
                    (mask_of(defs), mask_of(uses), is_call, is_user_call)
                    for defs, uses, is_call, is_user_call in steps
                ),
            )
            for label, steps in walk
        ]
        self.live_out = {
            label: mask_of(liveness.live_out(label))
            for label, _steps in self.steps
        }

    def across_user_calls(self) -> int:
        """Mask of temps live across some non-builtin call."""
        across = 0
        for label, steps in self.steps:
            live = self.live_out[label]
            for defs, uses, _is_call, is_user_call in steps:
                if is_user_call:
                    across |= live & ~defs
                live &= ~defs
                live |= uses
        return across
