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

from repro.analysis.liveness import block_graph, solve_masks
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
    bit: int = 0  # this vreg's bit in the function's value index
    # Over the same index: the vregs this one interferes with, and the
    # physical registers it may not take.
    interferes: int = 0
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
        nodes, values = _build_interference(machine)
        assignment, spills = _color(machine, nodes, values)
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


def _build_interference(machine: MachineFunction) -> tuple[dict, list]:
    """Every vreg's node (interference, move partners and spill cost),
    and the value index its masks are over: position -> tracked value.

    One forward pass indexes the tracked values (vregs and allocatable
    physical registers), encodes each instruction's tracked defs and
    uses as bit masks, and adds up costs and move partners.  Liveness is
    solved on the block masks; a backward walk per block then ORs the
    live set into each def's row, where adding one edge per live value
    would cost a call per pair.  Rows are made symmetric once at the
    end and stay masks: colouring only tests them.
    """
    values: list = []  # position -> tracked value
    vreg_bits = 0  # the positions that hold vregs
    nodes: dict[isa.VReg, _NodeInfo] = {}
    # value -> (its node or None, bit, position); bit 0 if untracked.
    known: dict = {}

    def learn(value) -> tuple:
        nonlocal vreg_bits
        info = None
        if isinstance(value, isa.VReg):
            info = nodes[value] = _NodeInfo(value)
            info.is_spill_temp = value.hint.startswith("!spill")
        elif not is_tracked(value):
            known[value] = entry = (None, 0, -1)
            return entry
        position = len(values)
        values.append(value)
        if info is not None:
            vreg_bits |= 1 << position
        known[value] = entry = (info, 1 << position, position)
        return entry

    # label -> [(def mask, use mask, [(vreg def position, bit)],
    #            physical def mask, MOV source bit, is call)], in order.
    encoded: dict[str, list] = {}
    use_mask: dict[str, int] = {}
    def_mask: dict[str, int] = {}
    for label, block in machine.blocks.items():
        weight = 10 ** min(block.loop_depth, 6)
        entries = []
        for instruction in block.instructions:
            used_bits = 0
            for value in instruction.uses():
                info, bit, _position = known.get(value) or learn(value)
                if info is not None:
                    info.cost += weight
                used_bits |= bit
            defined_bits = 0
            rows = []
            physical_bits = 0
            for value in instruction.defs():
                info, bit, position = known.get(value) or learn(value)
                if info is not None:
                    info.cost += weight
                    rows.append((position, bit))
                else:
                    physical_bits |= bit
                defined_bits |= bit
            move_bit = 0
            if isinstance(instruction, isa.MOV):
                # Move partners, for move-biased coloring.
                dst, src = instruction.rd, instruction.rs
                if isinstance(dst, isa.VReg) and isinstance(src, isa.VReg):
                    nodes[dst].move_vregs.add(src)
                    nodes[src].move_vregs.add(dst)
                elif isinstance(dst, isa.VReg) and isinstance(src, int):
                    nodes[dst].move_physical.add(src)
                elif isinstance(src, isa.VReg) and isinstance(dst, int):
                    nodes[src].move_physical.add(dst)
                # A copy's destination does not interfere with its
                # source.
                move_bit = known[src][1]
            entries.append((
                defined_bits, used_bits, rows, physical_bits, move_bit,
                instruction.is_call,
            ))
        live = 0
        define = 0
        for defined_bits, used_bits, *_rest in reversed(entries):
            live = (live & ~defined_bits) | used_bits
            define |= defined_bits
        encoded[label] = entries
        use_mask[label] = live
        def_mask[label] = define

    _labels, succs, preds, order = block_graph(
        machine.blocks, lambda label: machine.blocks[label].successors()
    )
    _live_in, live_out, _visits = solve_masks(
        succs, preds, order, use_mask, def_mask
    )

    rows_of = [0] * len(values)  # vreg position -> values its defs meet
    # physical def mask -> the vregs live at some def of exactly those
    # registers (call clobber sets repeat, so this stays small).
    forbid: dict[int, int] = {}
    across = 0  # values live across some call they are not defined by
    for label, entries in encoded.items():
        live = live_out[label]
        for (
            defined_bits, used_bits, rows, physical_bits, move_bit, is_call,
        ) in reversed(entries):
            if live:
                for position, bit in rows:
                    rows_of[position] |= live & ~(bit | move_bit)
                if physical_bits:
                    forbid[physical_bits] = forbid.get(physical_bits, 0) | (
                        live & vreg_bits & ~move_bit
                    )
                if is_call:
                    across |= live & ~defined_bits
            live = (live & ~defined_bits) | used_bits

    # Symmetrize: a def of vreg j meeting vreg i is an edge of i too,
    # and a def of physical registers forbids them to the live vregs.
    adjacency = list(rows_of)
    for position, row in enumerate(rows_of):
        bit = 1 << position
        row &= vreg_bits
        while row:
            low = row & -row
            adjacency[low.bit_length() - 1] |= bit
            row ^= low
    for physical_bits, row in forbid.items():
        while row:
            low = row & -row
            adjacency[low.bit_length() - 1] |= physical_bits
            row ^= low

    for vreg, info in nodes.items():
        _info, bit, position = known[vreg]
        info.bit = bit
        info.interferes = adjacency[position]
        info.live_across_call = bool(across & bit)
    return nodes, values


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


def _color(
    machine: MachineFunction, nodes: dict, values: list
) -> tuple[dict, list]:
    across_pool, normal_pool = _pools(machine)
    assignment: dict[isa.VReg, int] = dict(machine.precolored)
    spills: list[isa.VReg] = []
    # register -> its own bit in the value index (if tracked) and the
    # bits of the vregs holding it: a node may not take a register its
    # mask meets.
    holding: dict[int, int] = dict.fromkeys(across_pool + normal_pool, 0)
    for position, value in enumerate(values):
        if type(value) is int:
            holding[value] = 1 << position
    for vreg, register in assignment.items():
        if vreg in nodes:
            holding[register] = holding.get(register, 0) | nodes[vreg].bit
    order = sorted(
        (info for vreg, info in nodes.items() if vreg not in assignment),
        key=lambda info: (-info.cost, info.vreg.uid),
    )
    for info in order:
        row = info.interferes
        pool = across_pool if info.live_across_call else normal_pool
        # Move-biased choice: a move partner's register (when legal and
        # in the pool) coalesces the copy away at rewrite time.
        preferred = set(info.move_physical)
        for partner in info.move_vregs:
            if partner in assignment:
                preferred.add(assignment[partner])
        chosen = next(
            (r for r in pool if r in preferred and not row & holding[r]),
            None,
        )
        if chosen is None:
            chosen = next((r for r in pool if not row & holding[r]), None)
        if chosen is None and info.is_spill_temp:
            # A spill temp cannot be spilled again: take a register
            # from a neighbour and spill that neighbour instead.
            victim = _spill_victim(
                machine, nodes, values, info, pool, holding
            )
            if victim is not None:
                chosen = assignment.pop(victim)
                holding[chosen] &= ~nodes[victim].bit
                spills.append(victim)
        if chosen is None:
            if info.is_spill_temp:  # pragma: no cover - defensive
                raise RegisterAllocationError(
                    f"{machine.name}: cannot color spill temp {info.vreg}"
                )
            spills.append(info.vreg)
        else:
            assignment[info.vreg] = chosen
            holding[chosen] |= info.bit
    return assignment, spills


def _spill_victim(
    machine: MachineFunction, nodes: dict, values: list, info: _NodeInfo,
    pool: list, holding: dict,
):
    """The neighbour of spill temp ``info`` whose spilling frees a
    register for it, or ``None``: the cheapest coloured neighbour that
    is neither precoloured nor a spill temp and is the only neighbour
    holding a register of ``pool`` that ``info`` is not forbidden."""
    row = info.interferes
    candidates = []
    for register in pool:
        held = row & holding[register]
        # One bit: a single neighbour holds the register, or it is
        # forbidden and no neighbour holds it (the bit is then the
        # register's own and names no vreg).
        if not held or held & (held - 1):
            continue
        neighbor = values[held.bit_length() - 1]
        if (
            type(neighbor) is isa.VReg
            and neighbor not in machine.precolored
            and not nodes[neighbor].is_spill_temp
        ):
            candidates.append(nodes[neighbor])
    if not candidates:
        return None
    return min(candidates, key=lambda node: (node.cost, node.vreg.uid)).vreg
