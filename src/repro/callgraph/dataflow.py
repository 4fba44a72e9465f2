"""Interprocedural reference-set dataflow (paper section 4.1.2).

For every procedure P and the set of globals *eligible* for promotion:

* ``L_REF[P]`` — globals P accesses directly (from the summary files);
* ``P_REF[P]`` — globals accessed somewhere on a call chain from a start
  node to P (exclusive of P);
* ``C_REF[P]`` — globals accessed somewhere on a call chain starting at
  P (exclusive of P).

The fixpoint equations::

    P_REF[P] = U over predecessors i of P:  P_REF[i] U L_REF[i]
    C_REF[P] = U over successors  i of P:  C_REF[i] U L_REF[i]

As the paper notes, C_REF converges fastest bottom-up (reverse
postorder reversed) and P_REF top-down (reverse postorder); both are
iterated to a fixpoint because call graphs contain cycles.

The equations are only correct for unaliased globals, which is exactly
the eligibility criterion.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from repro.analysis.packed import DenseIndex, PackedGraph
from repro.callgraph.graph import CallGraph


class ReferenceSets:
    """The computed L_REF / P_REF / C_REF sets.

    The fixpoints run on one global bitmask per node, and the result
    keeps those masks: ``l_masks[i]``, ``p_masks[i]`` and ``c_masks[i]``
    hold the globals (bits of ``globals_index``) of node ``i`` of
    ``packed``.  ``referencing`` maps each referenced global to the
    ascending indices of the nodes that have it in L_REF, and
    ``storing`` each eligible global that some procedure stores to the
    set of those procedures' node indices.  The web kernel and the
    database loop read these; ``l_ref``, ``p_ref`` and ``c_ref``
    decode the masks to ``name -> frozenset`` on first read, for the
    readers that want sets (tests, the paper example, sparse-web
    splitting).
    """

    def __init__(self, packed: PackedGraph, globals_index: DenseIndex,
                 l_masks: list, p_masks: list, c_masks: list,
                 referencing: dict, storing: dict):
        self.packed = packed
        self.globals_index = globals_index
        self.l_masks = l_masks
        self.p_masks = p_masks
        self.c_masks = c_masks
        self.referencing = referencing
        self.storing = storing
        self._decoded: dict[int, frozenset] = {}

    def _sets_of(self, masks: list) -> dict:
        # Many nodes share a mask (empty, or one module's working set),
        # so each distinct mask is decoded once.
        decoded = self._decoded
        frozenset_of = self.globals_index.frozenset_of
        result = {}
        for name, mask in zip(self.packed.names, masks):
            value = decoded.get(mask)
            if value is None:
                value = decoded[mask] = frozenset_of(mask)
            result[name] = value
        return result

    @cached_property
    def l_ref(self) -> dict:
        return self._sets_of(self.l_masks)

    @cached_property
    def p_ref(self) -> dict:
        return self._sets_of(self.p_masks)

    @cached_property
    def c_ref(self) -> dict:
        return self._sets_of(self.c_masks)


def compute_reference_sets(graph: CallGraph, eligible: set) -> ReferenceSets:
    """Run the dataflow over ``graph`` restricted to ``eligible`` globals.

    Globals get a dense bit index and each node's three facts are single
    integers, so an edge visit is one big-int ``|``.  The two fixpoints
    run on worklists seeded in reverse postorder (re-queueing only the
    affected neighbours) instead of whole-graph changed-flag passes; the
    fixpoint of a monotone union system is unique, so the visiting order
    changes the cost, never the sets.
    """
    packed = PackedGraph.of(graph)
    names = packed.names
    nodes = graph.nodes
    count = len(names)

    # One sweep over the summaries gives the L_REF rows (the nodes
    # referencing each global) and the store rows; the masks are their
    # transpose, once the referenced globals are numbered.
    referencing: dict[str, list] = {}
    storing: dict[str, set] = {}
    for i, name in enumerate(names):
        summary = nodes[name].summary
        for g in summary.global_refs:
            if g in eligible:
                rows = referencing.get(g)
                if rows is None:
                    referencing[g] = [i]
                else:
                    rows.append(i)
        for g, stores in summary.global_stores.items():
            if stores > 0 and g in eligible:
                rows = storing.get(g)
                if rows is None:
                    storing[g] = {i}
                else:
                    rows.add(i)
    globals_index = DenseIndex(sorted(referencing))
    l_masks = [0] * count
    for bit, g in enumerate(globals_index.items):
        flag = 1 << bit
        for i in referencing[g]:
            l_masks[i] |= flag

    order = _reverse_postorder(graph, packed)
    pred = packed.pred
    succ = packed.succ

    # P_REF: top-down; seed so callers pop before callees.
    p_masks = [0] * count
    stack = list(reversed(order))
    queued = set(stack)
    while stack:
        i = stack.pop()
        queued.discard(i)
        incoming = 0
        for j in pred[i]:
            incoming |= p_masks[j] | l_masks[j]
        if incoming != p_masks[i]:
            p_masks[i] = incoming
            for j in succ[i]:
                if j not in queued:
                    queued.add(j)
                    stack.append(j)

    # C_REF: bottom-up; seed so callees pop before callers.
    c_masks = [0] * count
    stack = list(order)
    queued = set(stack)
    while stack:
        i = stack.pop()
        queued.discard(i)
        outgoing = 0
        for j in succ[i]:
            outgoing |= c_masks[j] | l_masks[j]
        if outgoing != c_masks[i]:
            c_masks[i] = outgoing
            for j in pred[i]:
                if j not in queued:
                    queued.add(j)
                    stack.append(j)

    return ReferenceSets(
        packed, globals_index, l_masks, p_masks, c_masks, referencing,
        storing,
    )


def _reverse_postorder(graph: CallGraph, packed: PackedGraph) -> list[int]:
    """Reverse postorder of the node indices from the start nodes
    (callers before callees, cycles aside); unreachable nodes are
    appended at the end.  Index order is name order, so this is the
    order a walk over the sorted procedure names gives."""
    succ = packed.succ
    count = len(succ)
    index_of = packed.index.index_of
    starts = [index_of[name] for name in graph.start_nodes()]
    visited = [False] * count
    postorder: list[int] = []
    for root in chain(starts, range(count)):
        if visited[root]:
            continue
        visited[root] = True
        stack = [(root, iter(sorted(succ[root])))]
        while stack:
            node, successors = stack[-1]
            for successor in successors:
                if not visited[successor]:
                    visited[successor] = True
                    stack.append((successor, iter(sorted(succ[successor]))))
                    break
            else:
                postorder.append(node)
                stack.pop()
    postorder.reverse()
    return postorder


def eligible_globals(summaries) -> set:
    """Globals eligible for interprocedural promotion (section 4.1.2).

    A global is eligible iff it is a word-sized scalar and no module ever
    computed its address (no aliasing).
    """
    eligible: set[str] = set()
    aliased: set[str] = set()
    for module_summary in summaries:
        aliased.update(module_summary.aliased_globals)
        for var in module_summary.globals:
            if var.is_scalar_word and not var.address_taken:
                eligible.add(var.name)
            else:
                aliased.add(var.name)
    return eligible - aliased


def classify_globals(summaries) -> dict:
    """Map every declared global to its ineligibility reasons.

    Returns ``name -> tuple of reason codes``; an empty tuple means the
    global is eligible.  The reasons mirror :func:`eligible_globals`
    exactly: ``"not-scalar-word"``, ``"address-taken"`` (some module
    computed its address), ``"aliased"`` (listed in a module's
    ``aliased_globals``).
    """
    reasons: dict[str, set] = {}
    aliased: set[str] = set()
    for module_summary in summaries:
        aliased.update(module_summary.aliased_globals)
        for var in module_summary.globals:
            entry = reasons.setdefault(var.name, set())
            if not var.is_scalar_word:
                entry.add("not-scalar-word")
            if var.address_taken:
                entry.add("address-taken")
    for name in aliased:
        reasons.setdefault(name, set()).add("aliased")
    return {
        name: tuple(sorted(entry)) for name, entry in reasons.items()
    }
