"""Graph-coloring register allocation honoring interprocedural directives.

A priority-based colorer in the Chow-Hennessy tradition (the paper's
compilers use priority-based coloring):

* liveness runs over virtual *and* physical registers, so argument
  registers, RV, and call clobbers constrain allocation naturally;
* each call instruction *defines* its clobber set — the registers the
  analyzer says the callee may destroy (``CALLER ∪ MSPILL``), which is
  how values live across calls are steered away from them;
* virtual registers live across a call may only receive **FREE** (no
  save/restore, preserved across calls thanks to spill code motion) or
  **CALLEE** registers (save/restore added at entry/exit);
* other virtual registers prefer **CALLER**, then **MSPILL** (spilled at
  cluster roots on our behalf), then FREE/CALLEE;
* registers reserved for promoted global webs appear in no pool; the
  promoted values themselves arrive as precolored vregs.

Uncolorable vregs are spilled to frame slots (loads before uses, stores
after defs — all tagged singleton, since register spill traffic is scalar)
and allocation reruns.

This is the ``paper`` strategy — the default, and the configuration the
source paper measures.  It was moved here verbatim from the former
``repro.backend.regalloc`` module; the regression suite pins its output
byte-identical to the pre-refactor allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.liveness import compute_liveness
from repro.backend.mir import MachineFunction
from repro.target import isa

from repro.backend.allocators.base import (
    AllocatorStrategy,
    RegisterAllocationError,
    register_allocator,
)
from repro.backend.allocators.shared import (
    caller_pool,
    insert_spill_code,
    is_tracked,
    rewrite,
)

_MAX_ROUNDS = 24


@dataclass
class _NodeInfo:
    vreg: isa.VReg
    neighbors: set = field(default_factory=set)  # other vregs
    forbidden: set = field(default_factory=set)  # physical registers
    cost: float = 0.0
    live_across_call: bool = False
    is_spill_temp: bool = False
    # Move partners, for move-biased coloring: vregs this one is copied
    # to/from, and physical registers likewise.
    move_vregs: set = field(default_factory=set)
    move_physical: set = field(default_factory=set)


def allocate_function(machine: MachineFunction) -> None:
    """Allocate registers in place; sets ``machine.used_registers``."""
    spilled_ever: set = set()
    for _ in range(_MAX_ROUNDS):
        nodes = _build_interference(machine)
        assignment, spills = _color(machine, nodes)
        if not spills:
            rewrite(machine, assignment)
            used = set(assignment.values()) | set(
                machine.precolored.values()
            )
            machine.used_registers = used
            return
        for vreg in spills:
            if vreg in spilled_ever:  # pragma: no cover - defensive
                raise RegisterAllocationError(
                    f"{machine.name}: vreg {vreg} spilled twice"
                )
            spilled_ever.add(vreg)
        insert_spill_code(machine, spills)
    raise RegisterAllocationError(  # pragma: no cover - defensive
        f"{machine.name}: register allocation did not converge"
    )


class PaperAllocator(AllocatorStrategy):
    """The directive-driven priority colorer of the source paper."""

    name = "paper"

    def allocate(self, machine: MachineFunction) -> None:
        allocate_function(machine)


register_allocator(PaperAllocator())


# ---------------------------------------------------------------------------
# Interference construction
# ---------------------------------------------------------------------------


def _build_interference(machine: MachineFunction) -> dict:
    liveness = compute_liveness(
        machine.blocks.keys(),
        lambda label: machine.blocks[label].successors(),
        lambda label: machine.blocks[label].instructions,
        is_tracked,
    )
    nodes: dict[isa.VReg, _NodeInfo] = {}

    def node(vreg: isa.VReg) -> _NodeInfo:
        if vreg not in nodes:
            info = _NodeInfo(vreg)
            info.is_spill_temp = vreg.hint.startswith("!spill")
            nodes[vreg] = info
        return nodes[vreg]

    # Ensure every vreg has a node even if dead, and record move pairs
    # for move-biased coloring.
    for instruction in machine.iter_instructions():
        for value in list(instruction.uses()) + list(instruction.defs()):
            if isinstance(value, isa.VReg):
                node(value)
        if isinstance(instruction, isa.MOV):
            dst, src = instruction.rd, instruction.rs
            if isinstance(dst, isa.VReg) and isinstance(src, isa.VReg):
                node(dst).move_vregs.add(src)
                node(src).move_vregs.add(dst)
            elif isinstance(dst, isa.VReg) and isinstance(src, int):
                node(dst).move_physical.add(src)
            elif isinstance(src, isa.VReg) and isinstance(dst, int):
                node(src).move_physical.add(dst)

    for label, block in machine.blocks.items():
        weight = 10 ** min(block.loop_depth, 6)
        live = set(liveness.live_out(label))
        for instruction in reversed(block.instructions):
            defs = [d for d in instruction.defs() if is_tracked(d)]
            uses = [u for u in instruction.uses() if is_tracked(u)]
            move_source = (
                instruction.rs
                if isinstance(instruction, isa.MOV)
                else None
            )
            for defined in defs:
                for other in live:
                    if other is defined or other is move_source:
                        continue
                    _add_edge(node, defined, other)
            if instruction.is_call:
                for value in live:
                    if isinstance(value, isa.VReg) and value not in defs:
                        node(value).live_across_call = True
            for defined in defs:
                live.discard(defined)
                if isinstance(defined, isa.VReg):
                    node(defined).cost += weight
            for used in uses:
                live.add(used)
                if isinstance(used, isa.VReg):
                    node(used).cost += weight
    return nodes


def _add_edge(node_of, a, b) -> None:
    a_virtual = isinstance(a, isa.VReg)
    b_virtual = isinstance(b, isa.VReg)
    if a_virtual and b_virtual:
        node_of(a).neighbors.add(b)
        node_of(b).neighbors.add(a)
    elif a_virtual and not b_virtual:
        node_of(a).forbidden.add(b)
    elif b_virtual and not a_virtual:
        node_of(b).forbidden.add(a)


# ---------------------------------------------------------------------------
# Coloring
# ---------------------------------------------------------------------------


def _pools(machine: MachineFunction) -> tuple[list[int], list[int]]:
    directives = machine.directives
    free = sorted(directives.free)
    callee = sorted(directives.callee)
    mspill = sorted(directives.mspill)
    caller = caller_pool(machine)
    # Values live across calls may also take caller-saves registers: the
    # per-call-site clobber interference (BL defines its clobber set)
    # rules out every unsafe choice, and with caller-saves preallocation
    # (section 7.6.2) some caller registers genuinely survive specific
    # calls.  FREE first (guaranteed, no save/restore), then caller
    # (no save/restore, call-dependent), then CALLEE (save/restore).
    across_pool = free + caller + callee
    normal_pool = caller + mspill + free + callee
    return across_pool, normal_pool


def _color(machine: MachineFunction, nodes: dict) -> tuple[dict, list]:
    across_pool, normal_pool = _pools(machine)
    assignment: dict[isa.VReg, int] = dict(machine.precolored)
    spills: list[isa.VReg] = []
    order = sorted(
        (info for vreg, info in nodes.items() if vreg not in assignment),
        key=lambda info: (-info.cost, info.vreg.uid),
    )
    for info in order:
        taken = set(info.forbidden)
        for neighbor in info.neighbors:
            if neighbor in assignment:
                taken.add(assignment[neighbor])
        pool = across_pool if info.live_across_call else normal_pool
        # Move-biased choice: a move partner's register (when legal and
        # in the pool) coalesces the copy away at rewrite time.
        preferred = set(info.move_physical)
        for partner in info.move_vregs:
            if partner in assignment:
                preferred.add(assignment[partner])
        chosen = next(
            (r for r in pool if r in preferred and r not in taken), None
        )
        if chosen is None:
            chosen = next((r for r in pool if r not in taken), None)
        if chosen is None:
            if info.is_spill_temp:  # pragma: no cover - defensive
                raise RegisterAllocationError(
                    f"{machine.name}: cannot color spill temp {info.vreg}"
                )
            spills.append(info.vreg)
        else:
            assignment[info.vreg] = chosen
    return assignment, spills
