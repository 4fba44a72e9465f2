"""Sweep-until-stable dead-code elimination: the oracle for
:mod:`repro.opt.dce`.

Every sweep recomputes full set-based liveness
(:func:`~repro.analysis.liveness.compute_ir_liveness`) and walks every
block; the pass stops after the first sweep that removes nothing.  The
mask-based pass in ``src/`` must leave every function exactly as this
one does.
"""

from repro.analysis.liveness import _is_user_call, compute_ir_liveness
from repro.ir.function import IRFunction
from repro.ir.instructions import Return
from repro.ir.values import Temp


def run(function: IRFunction) -> bool:
    """Run the pass; returns True if anything was removed."""
    removed_any = False
    while _sweep(function):
        removed_any = True
    return removed_any


def _sweep(function: IRFunction) -> bool:
    liveness = compute_ir_liveness(function)
    pinned = set(function.pinned_temps)
    removed = False
    for block in function.blocks.values():
        live: set[Temp] = set(liveness.live_out(block.label))
        if block.terminator is not None:
            for used in block.terminator.uses():
                if isinstance(used, Temp):
                    live.add(used)
            if isinstance(block.terminator, Return):
                # Pinned temps (promoted globals) are observable at return.
                live |= pinned
        kept = []
        for instruction in reversed(block.instructions):
            defs = instruction.defs()
            is_dead = (
                not instruction.has_side_effects
                and defs
                and all(d not in live for d in defs)
            )
            if is_dead:
                removed = True
                continue
            for defined in defs:
                live.discard(defined)
            for used in instruction.uses():
                if isinstance(used, Temp):
                    live.add(used)
            if pinned and _is_user_call(instruction):
                # The callee may read the promoted globals' registers.
                live |= pinned
            kept.append(instruction)
        kept.reverse()
        if len(kept) != len(block.instructions):
            block.instructions = kept
    return removed
