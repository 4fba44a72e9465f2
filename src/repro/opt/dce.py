"""Dead-code elimination.

Liveness-driven: an instruction with no side effects whose results are all
dead is removed.  Runs to a local fixpoint (removing one instruction can
kill another), re-solving liveness between sweeps.

Each run indexes the function's temps once and encodes every
instruction's def/use sets as integer masks once; liveness is solved
and blocks are swept on those masks.  After a sweep that removed
something, only the blocks that lost instructions get new gen/kill
masks, liveness is re-solved from zero (the least fixpoint, exactly
what a fresh analysis computes), and only the blocks whose live-out
changed are swept again: a block swept again under the same live-out
removes nothing.
"""

from __future__ import annotations

from repro.analysis.liveness import _is_user_call, block_graph, solve_masks
from repro.ir.function import IRFunction
from repro.ir.instructions import Return
from repro.ir.values import Temp


def run(function: IRFunction) -> bool:
    """Run the pass; returns True if anything was removed."""
    index_of: dict = {}

    def bit_of(value) -> int:
        position = index_of.get(value)
        if position is None:
            position = index_of[value] = len(index_of)
        return 1 << position

    # Pinned temps (promoted globals) are observable at every return,
    # and every user call may read their registers.
    pinned = 0
    for temp in function.pinned_temps:
        pinned |= bit_of(temp)

    blocks = function.blocks
    # label -> [(instruction, def mask, use mask, removable)], in order.
    encoded: dict[str, list] = {}
    # label -> temps the terminator keeps live.
    exit_live: dict[str, int] = {}
    for label, block in blocks.items():
        entries = []
        for instruction in block.instructions:
            define = 0
            for defined in instruction.defs():
                define |= bit_of(defined)
            use = 0
            for used in instruction.uses():
                if isinstance(used, Temp):
                    use |= bit_of(used)
            if pinned and _is_user_call(instruction):
                use |= pinned
            removable = bool(define) and not instruction.has_side_effects
            entries.append((instruction, define, use, removable))
        encoded[label] = entries
        live = 0
        terminator = block.terminator
        if terminator is not None:
            for used in terminator.uses():
                if isinstance(used, Temp):
                    live |= bit_of(used)
            if isinstance(terminator, Return):
                live |= pinned
        exit_live[label] = live

    labels, succs, preds, order = block_graph(
        blocks, lambda label: blocks[label].successors()
    )
    use_mask: dict[str, int] = {}
    def_mask: dict[str, int] = {}

    def gen_kill(label: str) -> None:
        use = exit_live[label]
        define = 0
        for _instruction, defined, used, _removable in reversed(
            encoded[label]
        ):
            use = (use & ~defined) | used
            define |= defined
        use_mask[label] = use
        def_mask[label] = define

    for label in labels:
        gen_kill(label)

    swept_under: dict[str, int] = {}  # label -> live-out of its last sweep
    removed_any = False
    while True:
        _live_in, live_out, _visits = solve_masks(
            succs, preds, order, use_mask, def_mask
        )
        shrunk = []
        for label in labels:
            out = live_out[label]
            if swept_under.get(label) == out:
                continue
            swept_under[label] = out
            if _sweep_block(blocks[label], encoded, label,
                            out | exit_live[label]):
                shrunk.append(label)
        if not shrunk:
            return removed_any
        removed_any = True
        for label in shrunk:
            gen_kill(label)


def _sweep_block(block, encoded: dict, label: str, live: int) -> bool:
    """Drop the block's dead instructions, walking backward from
    ``live`` (its live-out plus what the terminator keeps live)."""
    entries = encoded[label]
    kept = []
    for entry in reversed(entries):
        _instruction, defined, used, removable = entry
        if removable and not defined & live:
            continue
        live = (live & ~defined) | used
        kept.append(entry)
    if len(kept) == len(entries):
        return False
    kept.reverse()
    encoded[label] = kept
    block.instructions = [entry[0] for entry in kept]
    return True
