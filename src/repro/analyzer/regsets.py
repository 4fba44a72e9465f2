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
from typing import NamedTuple, Optional

from repro.analysis.dominators import DominatorTree
from repro.analysis.packed import PackedGraph, iter_bits
from repro.callgraph.graph import CallGraph
from repro.obs.tracer import current_tracer
from repro.target.registers import CALLEE_SAVES, CALLER_SAVES


# Register sets as bitmasks: registers are small ints, so the bit
# position *is* the register number.
_CALLER_SAVES_MASK = sum(1 << register for register in CALLER_SAVES)
_CALLEE_SAVES_MASK = sum(1 << register for register in CALLEE_SAVES)

_FROZEN_OF_MASK: dict[int, frozenset] = {}


def _frozen_of(mask: int) -> frozenset:
    value = _FROZEN_OF_MASK.get(mask)
    if value is None:
        value = _FROZEN_OF_MASK[mask] = frozenset(iter_bits(mask))
    return value


class RegisterSets(NamedTuple):
    """One procedure's usage sets.  Procedures with equal sets share one
    instance, so it is immutable."""

    free: frozenset
    caller: frozenset
    callee: frozenset
    mspill: frozenset


def compute_register_sets(
    graph: CallGraph,
    clusters: list,
    dominators: Optional[DominatorTree] = None,
    web_reserved: Optional[list] = None,
) -> list:
    """Compute FREE/CALLER/CALLEE/MSPILL for every procedure.

    Args:
        graph: Program call graph.
        clusters: Clusters from :func:`identify_clusters`.
        dominators: Call-graph dominator tree (recomputed if omitted).
        web_reserved: per node index of :class:`PackedGraph`, the mask
            of the registers reserved for promoted globals there.

    Returns:
        per node index, the node's :class:`RegisterSets`.
    """
    if dominators is None:
        dominators = graph.dominator_tree()
    packed = PackedGraph.of(graph)
    count = len(packed.names)
    reserved = web_reserved or [0] * count
    # Per-node register bitmasks while the clusters are processed.
    free = [0] * count
    caller = [_CALLER_SAVES_MASK] * count
    callee = [_CALLEE_SAVES_MASK & ~mask for mask in reserved]
    mspill = [0] * count
    masks = (free, caller, callee, mspill)

    index_of = packed.index.index_of
    roots = [False] * count
    for cluster in clusters:
        roots[index_of[cluster.root]] = True
    avail = [0] * count
    nodes = graph.nodes
    need = [
        nodes[name].summary.callee_saves_needed for name in packed.names
    ]

    # child-MSPILL mask -> preallocation order: a program has a handful
    # of distinct masks, so each order is sorted once.
    orders: dict = {}
    tracer = current_tracer()
    for cluster in _bottom_up(clusters, dominators):
        _process_cluster(
            packed, index_of[cluster.root],
            [index_of[name] for name in cluster.members],
            roots, masks, avail, reserved, need, orders, tracer,
        )
    # Procedures with equal masks share one RegisterSets of shared
    # frozensets: nothing mutates them after the fixpoint.
    shared: dict = {}
    result = []
    for key in zip(free, caller, callee, mspill):
        sets = shared.get(key)
        if sets is None:
            sets = shared[key] = RegisterSets(*map(_frozen_of, key))
        result.append(sets)
    return result


def _process_cluster(
    packed: PackedGraph,
    root: int,
    members: list,
    roots: list,
    masks: tuple,
    avail: list,
    reserved: list,
    need: list,
    orders: dict,
    tracer,
) -> None:
    free, caller, callee, mspill = masks
    child_mspill = 0
    reserved_in_cluster = reserved[root]
    for i in members:
        if roots[i]:
            child_mspill |= mspill[i]
        reserved_in_cluster |= reserved[i]
    # Preallocation order: registers *not* in a child root's MSPILL
    # first, so those stay available for upward motion.
    order = orders.get(child_mspill)
    if order is None:
        order = orders[child_mspill] = sorted(
            CALLEE_SAVES, key=lambda r: (child_mspill >> r & 1, r)
        )

    # Root's own callee-saves selection: take the registers *least*
    # attractive for preallocation (end of the priority order), skipping
    # web-reserved registers.
    root_callee = 0
    wanted = need[root]
    if wanted > 0:
        for register in reversed(order):
            if not reserved_in_cluster >> register & 1:
                root_callee |= 1 << register
                wanted -= 1
                if not wanted:
                    break
    callee[root] = root_callee
    avail[root] = _CALLEE_SAVES_MASK & ~reserved_in_cluster & ~root_callee

    used = 0
    # Kahn worklist over the (acyclic) cluster subgraph: a member is
    # ready once every predecessor has been processed, and among ready
    # members the smallest index (name) goes first.  Every predecessor
    # of a member is in the cluster, so each waits for all of its
    # predecessors but the root.
    pred = packed.pred
    succ = packed.succ
    unresolved = {}
    ready = []
    for i in members:
        waiting = len(pred[i]) - (root in pred[i])
        if waiting:
            unresolved[i] = waiting
        else:
            ready.append(i)
    heapq.heapify(ready)
    while ready:
        i = heapq.heappop(ready)
        node_avail = None
        for p in pred[i]:
            node_avail = (
                avail[p] if node_avail is None else node_avail & avail[p]
            )
        node_avail = node_avail or 0
        if roots[i]:
            # A nested cluster root: move its spill code upward.
            spilled = mspill[i]
            moved = spilled & node_avail
            used |= moved
            if tracer.enabled:
                _trace_migration(
                    tracer, packed.names, i, root, moved,
                    spilled & ~node_avail,
                )
            mspill[i] = spilled & ~node_avail
            freed = callee[i] & node_avail
            used |= freed
            free[i] |= freed
            callee[i] &= ~freed
            # Strengthening: the child's FREE registers may hold values
            # across its calls, so its in-cluster successors must not
            # preallocate them.
            avail[i] = node_avail & ~free[i]
        else:
            # Figure 6's Get_Registers: up to ``need`` available
            # registers in the cluster's priority order.
            wanted = need[i]
            taken = 0
            if wanted > 0:
                for register in order:
                    if node_avail >> register & 1:
                        taken |= 1 << register
                        wanted -= 1
                        if not wanted:
                            break
            free[i] |= taken
            node_avail &= ~taken
            callee[i] &= ~(taken | node_avail)
            used |= taken
            avail[i] = node_avail
        for j in succ[i]:
            waiting = unresolved.get(j)
            if waiting == 1:
                del unresolved[j]
                heapq.heappush(ready, j)
            elif waiting is not None:
                unresolved[j] = waiting - 1
    if unresolved:  # pragma: no cover - clusters are acyclic
        raise AssertionError(
            f"cluster {packed.names[root]}: could not order members "
            f"{sorted(packed.names[i] for i in unresolved)}"
        )

    mspill[root] |= used
    # Post-pass (Figure 7): callee-saves registers the root spills that
    # remain available at an intermediate node can serve as extra
    # caller-saves registers there.
    root_mspill = mspill[root]
    for i in members:
        if not roots[i]:
            caller[i] |= avail[i] & root_mspill


def _trace_migration(tracer, names, i, root, moved, kept) -> None:
    if moved:
        tracer.event(
            "mspill-migrated",
            node=names[i],
            cluster_root=names[root],
            registers=set(iter_bits(moved)),
        )
    if kept:
        tracer.event(
            "mspill-kept",
            node=names[i],
            cluster_root=names[root],
            registers=set(iter_bits(kept)),
            reason="not-available-on-all-paths",
        )


def _bottom_up(clusters: list, dominators: DominatorTree) -> list:
    """Deepest (in the dominator tree) cluster roots first, so nested
    clusters are processed before the clusters containing them.

    A node's depth is the length of its dominator chain, itself
    included.  Depths are memoized along each walk up the tree, so a
    chain shared by many roots is walked once."""
    depth: dict = {}
    idom = dominators.immediate_dominator
    for cluster in clusters:
        path = []
        node = cluster.root
        while node is not None and node not in depth:
            path.append(node)
            node = idom(node)
        below = 0 if node is None else depth[node]
        for node in reversed(path):
            below += 1
            depth[node] = below
    return sorted(clusters, key=lambda c: (-depth[c.root], c.root))


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
