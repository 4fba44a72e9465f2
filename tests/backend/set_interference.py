"""Set-based interference construction: the oracle for
:func:`repro.backend.allocators.paper._build_interference`.

Liveness comes as sets (:func:`~repro.analysis.liveness.compute_liveness`)
and every (def, live value) pair is one :func:`_add_edge` call.  The
mask-based builder in ``src/`` must produce, for every vreg, the same
``neighbors``, ``forbidden``, ``cost``, ``live_across_call``,
``is_spill_temp``, ``move_vregs`` and ``move_physical``.
"""

from repro.analysis.liveness import compute_liveness
from repro.backend.allocators.paper import _NodeInfo
from repro.backend.allocators.shared import is_tracked
from repro.backend.mir import MachineFunction
from repro.target import isa


def build_interference(machine: MachineFunction) -> dict:
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
