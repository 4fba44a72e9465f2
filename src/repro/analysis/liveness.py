"""Backward liveness analysis.

Written generically over any block graph whose instructions expose
``uses()``/``defs()``: both the IR (:mod:`repro.ir`) and the PRISM machine
code (:mod:`repro.backend`) satisfy the protocol, so the same engine
drives IR dead-code elimination and the backend's register allocator.

The fixpoint is solved with a worklist seeded in reverse post-order and
popped last-in-first-out (so blocks are first processed successors-first),
re-queueing a block's predecessors only when its ``live_in`` actually
changed — on an acyclic CFG every block is visited exactly once, where
the old round-robin changed-flag sweep recomputed every block's
``live_out`` from scratch each global pass even when no predecessor
changed.  The fixpoint runs on integer bit vectors over a dense value
index (:mod:`repro.analysis.packed`) and converts to sets once at the
end.  Clients that stay on bit vectors (IR dead-code elimination, the
paper allocator's interference graph) encode their own masks and call
:func:`block_graph` and :func:`solve_masks` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, TypeVar

from repro.analysis.packed import iter_bits
from repro.ir.instructions import Call, CallIndirect, Return
from repro.ir.values import Temp

Value = TypeVar("Value", bound=Hashable)


@dataclass
class BlockLiveness:
    """Liveness facts for one block."""

    live_in: set = field(default_factory=set)
    live_out: set = field(default_factory=set)
    use: set = field(default_factory=set)
    define: set = field(default_factory=set)


class LivenessResult:
    """Per-block liveness sets, plus per-instruction iteration support.

    ``block_visits`` counts worklist pops during the fixpoint — the
    regression guard for the solver's work bound (an acyclic CFG must
    cost exactly one visit per block).
    """

    def __init__(self, blocks: dict[str, BlockLiveness],
                 block_visits: int = 0):
        self.blocks = blocks
        self.block_visits = block_visits

    def live_in(self, label: str) -> set:
        return self.blocks[label].live_in

    def live_out(self, label: str) -> set:
        return self.blocks[label].live_out


def _worklist_order(
    label_list: list, succs: dict, preds: dict
) -> list:
    """Reverse post-order over the CFG, for seeding the worklist.

    Roots are blocks without predecessors (falling back to the first
    block of a fully cyclic graph); unreachable blocks are appended so
    every block is seeded at least once.
    """
    visited: set = set()
    postorder: list = []

    def dfs(root: str) -> None:
        stack = [(root, iter(succs[root]))]
        visited.add(root)
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                if successor not in visited:
                    visited.add(successor)
                    stack.append((successor, iter(succs[successor])))
                    advanced = True
                    break
            if not advanced:
                postorder.append(node)
                stack.pop()

    roots = [label for label in label_list if not preds[label]]
    if not roots and label_list:
        roots = [label_list[0]]
    for root in roots:
        if root not in visited:
            dfs(root)
    for label in label_list:
        if label not in visited:
            dfs(label)
    return list(reversed(postorder))


def block_graph(
    labels: Iterable[str], successors: Callable[[str], Iterable[str]]
) -> tuple[list, dict, dict, list]:
    """``(labels, succs, preds, order)`` of a CFG: the label list,
    successor and predecessor lists per label, and the worklist seed
    order (reverse post-order) that :func:`solve_masks` expects."""
    label_list = list(labels)
    succs = {label: list(successors(label)) for label in label_list}
    preds: dict[str, list] = {label: [] for label in label_list}
    for label in label_list:
        for successor in succs[label]:
            preds[successor].append(label)
    order = _worklist_order(label_list, succs, preds)
    return label_list, succs, preds, order


def compute_liveness(
    labels: Iterable[str],
    successors: Callable[[str], Iterable[str]],
    block_instructions: Callable[[str], list],
    is_trackable: Callable[[object], bool],
) -> LivenessResult:
    """Run backward liveness to a fixpoint.

    Args:
        labels: All block labels.
        successors: Label -> successor labels.
        block_instructions: Label -> instruction list *including* the
            terminator (each exposing ``uses()``/``defs()``).
        is_trackable: Filter for operand values to track (e.g. "is a
            Temp" or "is a virtual register").
    """
    label_list, succs, preds, order = block_graph(labels, successors)
    return _solve(
        label_list, succs, preds, order, block_instructions, is_trackable
    )


def solve_masks(
    succs: dict, preds: dict, order: list, use_mask: dict, def_mask: dict
) -> tuple[dict, dict, int]:
    """The least fixpoint of ``in = use | (out & ~def)``,
    ``out = OR(in of successors)`` on per-block bit vectors.

    Returns ``(live_in, live_out, visits)``: masks per label and the
    number of worklist pops.  Always solves from zero, so the answer is
    the least fixpoint whatever the masks were before.
    """
    live_in: dict[str, int] = {label: 0 for label in succs}
    live_out: dict[str, int] = {label: 0 for label in succs}
    # Seeded in reverse post-order, popped LIFO: the first sweep runs
    # successors-first, so acyclic regions converge in one visit each.
    stack = list(order)
    queued = set(order)
    visits = 0
    while stack:
        label = stack.pop()
        queued.discard(label)
        visits += 1
        out = 0
        for successor in succs[label]:
            out |= live_in[successor]
        new_in = use_mask[label] | (out & ~def_mask[label])
        live_out[label] = out
        if new_in != live_in[label]:
            live_in[label] = new_in
            for predecessor in preds[label]:
                if predecessor not in queued:
                    queued.add(predecessor)
                    stack.append(predecessor)
    return live_in, live_out, visits


def _solve(
    label_list: list,
    succs: dict,
    preds: dict,
    order: list,
    block_instructions: Callable[[str], list],
    is_trackable: Callable[[object], bool],
) -> LivenessResult:
    # Dense value index, assigned in first-encounter order; only the
    # final masks-to-sets conversion ever looks at it again.
    index_of: dict = {}
    values: list = []

    def bit_of(value) -> int:
        position = index_of.get(value)
        if position is None:
            position = len(values)
            index_of[value] = position
            values.append(value)
        return 1 << position

    use_mask: dict[str, int] = {}
    def_mask: dict[str, int] = {}
    for label in label_list:
        use = 0
        define = 0
        for instruction in reversed(block_instructions(label)):
            for defined in instruction.defs():
                mask = bit_of(defined)
                use &= ~mask
                define |= mask
            for used in instruction.uses():
                if is_trackable(used):
                    use |= bit_of(used)
        use_mask[label] = use
        def_mask[label] = define

    live_in, live_out, visits = solve_masks(
        succs, preds, order, use_mask, def_mask
    )
    facts = {}
    for label in label_list:
        facts[label] = BlockLiveness(
            live_in={values[i] for i in iter_bits(live_in[label])},
            live_out={values[i] for i in iter_bits(live_out[label])},
            use={values[i] for i in iter_bits(use_mask[label])},
            define={values[i] for i in iter_bits(def_mask[label])},
        )
    return LivenessResult(facts, visits)


class _ReturnProxy:
    """Wraps a Return terminator so pinned temps count as used by it."""

    def __init__(self, terminator, extra_uses: list):
        self._terminator = terminator
        self._extra = extra_uses

    def uses(self) -> list:
        return list(self._terminator.uses()) + self._extra

    def defs(self) -> list:
        return []


class _CallProxy:
    """Wraps a call so pinned temps count as both used and redefined.

    A promoted global lives in a register that the *callee* may read and
    write (that is the whole point of web promotion), so from the
    caller's perspective every non-builtin call both uses and clobbers
    the pinned temp.
    """

    def __init__(self, call, pinned: list):
        self._call = call
        self._pinned = pinned

    def uses(self) -> list:
        return list(self._call.uses()) + self._pinned

    def defs(self) -> list:
        return list(self._call.defs()) + self._pinned


def _is_user_call(instruction) -> bool:
    if isinstance(instruction, CallIndirect):
        return True
    return isinstance(instruction, Call) and not instruction.is_builtin


def compute_ir_liveness(function) -> LivenessResult:
    """Liveness of temps over an :class:`repro.ir.IRFunction`.

    Temps pinned to physical registers (promoted globals) are live at
    every return: the register's value is the global variable as far as
    callers are concerned.
    """
    pinned = list(function.pinned_temps)

    def block_instructions(label: str) -> list:
        block = function.blocks[label]
        if pinned:
            instructions = [
                _CallProxy(instruction, pinned)
                if _is_user_call(instruction)
                else instruction
                for instruction in block.instructions
            ]
        else:
            instructions = list(block.instructions)
        if isinstance(block.terminator, Return) and pinned:
            instructions.append(_ReturnProxy(block.terminator, pinned))
        elif block.terminator is not None:
            instructions.append(block.terminator)
        return instructions

    return compute_liveness(
        function.blocks.keys(),
        lambda label: function.blocks[label].successors(),
        block_instructions,
        lambda value: isinstance(value, Temp),
    )
