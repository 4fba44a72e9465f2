"""Set-based interference construction and colouring: the oracles for
:func:`repro.backend.allocators.paper._build_interference` and
:func:`~repro.backend.allocators.paper._color`.

Liveness comes as sets (:func:`~repro.analysis.liveness.compute_liveness`)
and every (def, live value) pair is one :func:`_add_edge` call.  The
mask-based builder in ``src/`` must produce, for every vreg, the same
``neighbors`` and ``forbidden`` (decoded from its ``interferes`` mask),
``cost``, ``live_across_call``, ``is_spill_temp``, ``move_vregs`` and
``move_physical``; and colouring the mask-based nodes must give the
same assignment and spills as :func:`color` gives on these set nodes.
"""

from dataclasses import dataclass, field

from repro.analysis.liveness import compute_liveness
from repro.backend.allocators.base import RegisterAllocationError
from repro.backend.allocators.paper import _pools
from repro.backend.allocators.shared import is_tracked
from repro.backend.mir import MachineFunction
from repro.target import isa


@dataclass
class SetNode:
    vreg: isa.VReg
    neighbors: set = field(default_factory=set)  # other vregs
    forbidden: set = field(default_factory=set)  # physical registers
    cost: float = 0.0
    live_across_call: bool = False
    is_spill_temp: bool = False
    move_vregs: set = field(default_factory=set)
    move_physical: set = field(default_factory=set)


def build_interference(machine: MachineFunction) -> dict:
    liveness = compute_liveness(
        machine.blocks.keys(),
        lambda label: machine.blocks[label].successors(),
        lambda label: machine.blocks[label].instructions,
        is_tracked,
    )
    nodes: dict[isa.VReg, SetNode] = {}

    def node(vreg: isa.VReg) -> SetNode:
        if vreg not in nodes:
            info = SetNode(vreg)
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


def color(machine: MachineFunction, nodes: dict) -> tuple[dict, list]:
    """Priority colouring over the set nodes: the register taken by a
    neighbour or forbidden is found by set membership."""
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
        preferred = set(info.move_physical)
        for partner in info.move_vregs:
            if partner in assignment:
                preferred.add(assignment[partner])
        chosen = next(
            (r for r in pool if r in preferred and r not in taken), None
        )
        if chosen is None:
            chosen = next((r for r in pool if r not in taken), None)
        if chosen is None and info.is_spill_temp:
            victim = _spill_victim(machine, nodes, info, pool, assignment)
            if victim is not None:
                chosen = assignment.pop(victim)
                spills.append(victim)
        if chosen is None:
            if info.is_spill_temp:
                raise RegisterAllocationError(
                    f"{machine.name}: cannot color spill temp {info.vreg}"
                )
            spills.append(info.vreg)
        else:
            assignment[info.vreg] = chosen
    return assignment, spills


def _spill_victim(
    machine: MachineFunction, nodes: dict, info: SetNode, pool: list,
    assignment: dict,
):
    holders: dict[int, list] = {}
    for neighbor in info.neighbors:
        register = assignment.get(neighbor)
        if register is not None:
            holders.setdefault(register, []).append(neighbor)
    candidates = [
        nodes[held[0]]
        for register, held in holders.items()
        if len(held) == 1
        and register in pool
        and register not in info.forbidden
        and held[0] not in machine.precolored
        and not nodes[held[0]].is_spill_temp
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda node: (node.cost, node.vreg.uid)).vreg
