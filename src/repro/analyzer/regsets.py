"""Register usage set computation (paper sections 4.2.3-4.2.4, Figure 6).

For every procedure, four disjoint register sets steer the second phase's
allocator:

* ``FREE``   — usable without save/restore, may hold values across calls;
* ``CALLER`` — usable without save/restore, clobbered at calls;
* ``CALLEE`` — must be saved/restored if used, survive calls;
* ``MSPILL`` — saved/restored unconditionally at cluster roots (the
  root executes the spill code for the whole cluster).

Cluster roots are processed bottom-up so spill code migrates upward:
when a parent cluster reaches a child root whose ``MSPILL`` registers are
still available along every path from the parent root, those registers
move into the parent root's ``MSPILL`` — the save/restore climbs the call
graph (section 4.2.4).

Two deliberate strengthenings over the paper's Figure 6 pseudocode:

* at a child root, the newly freed registers are also removed from its
  ``AVAIL`` set before successors intersect it, so a child root that is
  not a leaf of the parent cluster cannot leak its FREE registers to its
  own successors (the paper assumes child roots are leaves);
* registers reserved for promoted global webs anywhere in a cluster are
  excluded from the root's ``AVAIL`` (the conservative rule of section
  7.6.2's discussion) *and* from every procedure's standard sets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.dominators import DominatorTree
from repro.analysis.packed import iter_bits
from repro.analyzer.clusters import Cluster
from repro.callgraph.graph import CallGraph
from repro.obs.tracer import current_tracer
from repro.target.registers import CALLEE_SAVES, CALLER_SAVES


def _regs_mask(registers) -> int:
    """Register set -> bitmask (registers are small ints, so the bit
    position *is* the register number)."""
    mask = 0
    for register in registers:
        mask |= 1 << register
    return mask


_CALLER_SAVES_MASK = _regs_mask(CALLER_SAVES)
_CALLEE_SAVES_MASK = _regs_mask(CALLEE_SAVES)

#: mask -> register tuple.  Register masks draw from one machine word
#: and only a handful of distinct values occur per program, so decoding
#: is memoized (the final masks->RegisterSets conversion runs once per
#: procedure).
_REGS_OF_MASK: dict[int, tuple] = {}


def _regs_of(mask: int) -> tuple:
    registers = _REGS_OF_MASK.get(mask)
    if registers is None:
        registers = tuple(iter_bits(mask))
        _REGS_OF_MASK[mask] = registers
    return registers


_FROZEN_OF_MASK: dict[int, frozenset] = {}


def _frozen_of(mask: int) -> frozenset:
    value = _FROZEN_OF_MASK.get(mask)
    if value is None:
        value = _FROZEN_OF_MASK[mask] = frozenset(iter_bits(mask))
    return value


@dataclass
class RegisterSets:
    """Mutable per-procedure usage sets during analysis."""

    free: set = field(default_factory=set)
    caller: set = field(default_factory=set)
    callee: set = field(default_factory=set)
    mspill: set = field(default_factory=set)


def compute_register_sets(
    graph: CallGraph,
    clusters: list,
    dominators: Optional[DominatorTree] = None,
    web_reserved: Optional[dict] = None,
) -> dict:
    """Compute FREE/CALLER/CALLEE/MSPILL for every procedure.

    Args:
        graph: Program call graph.
        clusters: Clusters from :func:`identify_clusters`.
        dominators: Call-graph dominator tree (recomputed if omitted).
        web_reserved: procedure name -> set of registers reserved for
            promoted globals in that procedure.

    Returns:
        name -> :class:`RegisterSets`.
    """
    if dominators is None:
        dominators = graph.dominator_tree()
    # The per-procedure sets and the AVAIL intersections are register
    # bitmasks while the clusters are processed; web-reserved registers
    # become masks once (the dict is sparse relative to the node count).
    reserved_masks = {
        name: _regs_mask(registers)
        for name, registers in (web_reserved or {}).items()
        if registers
    }

    # Per-name [free, caller, callee, mspill] masks.
    masks: dict[str, list] = {}
    for name in graph.nodes:
        reserved = reserved_masks.get(name, 0)
        masks[name] = [
            0, _CALLER_SAVES_MASK, _CALLEE_SAVES_MASK & ~reserved, 0
        ]

    roots = {cluster.root for cluster in clusters}
    avail: dict[str, int] = {}

    for cluster in _bottom_up(clusters, dominators):
        _process_cluster_packed(
            graph, cluster, roots, masks, avail, reserved_masks
        )
    # The emitted sets are frozen and shared across procedures carrying
    # the same mask — nothing mutates them after the fixpoint, and the
    # directive builder's ``frozenset(...)`` wrapping becomes identity.
    return {
        name: RegisterSets(
            free=_frozen_of(free),
            caller=_frozen_of(caller),
            callee=_frozen_of(callee),
            mspill=_frozen_of(mspill),
        )
        for name, (free, caller, callee, mspill) in masks.items()
    }


def _process_cluster_packed(
    graph: CallGraph,
    cluster: Cluster,
    roots: set,
    masks: dict,
    avail: dict,
    reserved_masks: dict,
) -> None:
    root = cluster.root
    members = cluster.members

    # Preallocation order: registers *not* in a child root's MSPILL
    # first, so those stay available for upward motion.
    child_mspill = 0
    for name in members:
        if name in roots:
            child_mspill |= masks[name][3]
    order = sorted(
        CALLEE_SAVES, key=lambda r: (child_mspill >> r & 1, r)
    )

    reserved_in_cluster = 0
    for name in cluster.all_nodes:
        reserved_in_cluster |= reserved_masks.get(name, 0)

    # Root's own callee-saves selection: take the registers *least*
    # attractive for preallocation (end of the priority order), skipping
    # web-reserved registers.
    selectable = [
        r for r in order if not reserved_in_cluster >> r & 1
    ]
    need = graph.nodes[root].summary.callee_saves_needed
    root_masks = masks[root]
    root_callee = _regs_mask(selectable[max(0, len(selectable) - need):])
    root_masks[2] = root_callee
    avail[root] = _regs_mask(selectable) & ~root_callee

    used = [0]
    visited: set = {root}
    # Kahn worklist over the (acyclic) cluster subgraph: a member is
    # ready once every predecessor has been processed, and among ready
    # members the smallest name goes first.  Predecessor maps have
    # unique keys, so counting avoids a per-node set difference.
    pending = set(members)
    unresolved = {
        name: sum(
            1 for p in graph.nodes[name].predecessors if p not in visited
        )
        for name in pending
    }
    ready = [name for name in pending if unresolved[name] == 0]
    heapq.heapify(ready)
    while ready:
        name = heapq.heappop(ready)
        _preallocate_node_packed(
            graph, name, roots, masks, avail, order, used, root
        )
        visited.add(name)
        pending.discard(name)
        for successor in graph.nodes[name].successors:
            if successor in pending:
                unresolved[successor] -= 1
                if unresolved[successor] == 0:
                    heapq.heappush(ready, successor)
    if pending:  # pragma: no cover - clusters are acyclic
        raise AssertionError(
            f"cluster {root}: could not order members {sorted(pending)}"
        )

    root_masks[3] |= used[0]
    # Post-pass (Figure 7): callee-saves registers the root spills that
    # remain available at an intermediate node can serve as extra
    # caller-saves registers there.
    for name in members:
        if name in roots:
            continue
        masks[name][1] |= avail[name] & root_masks[3]


def _preallocate_node_packed(
    graph: CallGraph,
    name: str,
    roots: set,
    masks: dict,
    avail: dict,
    order: list,
    used: list,
    cluster_root: Optional[str] = None,
) -> None:
    node_avail = None
    for predecessor in graph.nodes[name].predecessors:
        pred_avail = avail.get(predecessor, 0)
        node_avail = (
            pred_avail if node_avail is None else node_avail & pred_avail
        )
    if node_avail is None:
        node_avail = 0
    node_masks = masks[name]

    if name in roots:
        # A nested cluster root: move its spill code upward.
        mspill = node_masks[3]
        moved = mspill & node_avail
        used[0] |= moved
        tracer = current_tracer()
        if tracer.enabled:
            kept = mspill & ~node_avail
            if moved:
                tracer.event(
                    "mspill-migrated",
                    node=name,
                    cluster_root=cluster_root,
                    registers=set(iter_bits(moved)),
                )
            if kept:
                tracer.event(
                    "mspill-kept",
                    node=name,
                    cluster_root=cluster_root,
                    registers=set(iter_bits(kept)),
                    reason="not-available-on-all-paths",
                )
        node_masks[3] = mspill & ~node_avail
        freed = node_masks[2] & node_avail
        used[0] |= freed
        node_masks[0] |= freed
        node_masks[2] &= ~freed
        # Strengthening: the child's FREE registers may hold values
        # across its calls, so its in-cluster successors must not
        # preallocate them.
        avail[name] = node_avail & ~node_masks[0]
    else:
        # Figure 6's Get_Registers: up to ``need`` available registers
        # in the cluster's priority order.
        need = graph.nodes[name].summary.callee_saves_needed
        taken = 0
        if need > 0:
            count = 0
            for register in order:
                if node_avail >> register & 1:
                    taken |= 1 << register
                    count += 1
                    if count >= need:
                        break
        node_masks[0] |= taken
        node_avail &= ~taken
        node_masks[2] &= ~(taken | node_avail)
        used[0] |= taken
        avail[name] = node_avail


def _bottom_up(clusters: list, dominators: DominatorTree) -> list:
    """Deepest (in the dominator tree) cluster roots first, so nested
    clusters are processed before the clusters containing them."""

    def depth(name: str) -> int:
        return len(dominators.dominators_of(name))

    return sorted(clusters, key=lambda c: (-depth(c.root), c.root))


def check_register_set_invariants(
    sets: dict, roots: set, web_reserved: Optional[dict] = None
) -> None:
    """Assert disjointness and placement rules.  Used by tests.

    Registers in ``caller`` beyond the standard convention must come
    from spill code motion, i.e. appear in some cluster root's MSPILL;
    FREE/CALLEE/MSPILL draw from the callee-saves half of the register
    file only; registers reserved for promoted webs (``web_reserved``:
    name -> registers, when the caller tracks webs) may appear in none
    of the four sets.
    """
    all_mspill: set = set()
    for name in roots:
        if name in sets:
            all_mspill |= sets[name].mspill
    for name, rs in sets.items():
        labelled = {
            "free": rs.free,
            "caller": rs.caller,
            "callee": rs.callee,
            "mspill": rs.mspill,
        }
        labels = list(labelled)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                overlap = labelled[a] & labelled[b]
                if overlap:
                    raise AssertionError(
                        f"{name}: {a} and {b} overlap: {sorted(overlap)}"
                    )
        if web_reserved is not None:
            reserved = set(web_reserved.get(name, ()))
            for label, regs in labelled.items():
                overlap = regs & reserved
                if overlap:
                    raise AssertionError(
                        f"{name}: web-reserved registers "
                        f"{sorted(overlap)} appear in {label}"
                    )
        if rs.mspill and name not in roots:
            raise AssertionError(
                f"{name}: MSPILL non-empty at a non-root"
            )
        for label in ("free", "callee", "mspill"):
            stray = labelled[label] - CALLEE_SAVES
            if stray:
                raise AssertionError(
                    f"{name}: {label} contains non-callee-saves "
                    f"registers {sorted(stray)}"
                )
        stray = rs.caller - CALLER_SAVES - all_mspill
        if stray:
            raise AssertionError(
                f"{name}: caller extends the convention with registers "
                f"{sorted(stray)} not in any cluster root's MSPILL"
            )
