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

from dataclasses import dataclass, field

from repro.analysis.packed import DenseIndex, PackedGraph
from repro.callgraph.graph import CallGraph


@dataclass
class ReferenceSets:
    """The computed L_REF / P_REF / C_REF sets."""

    l_ref: dict = field(default_factory=dict)  # name -> frozenset[str]
    p_ref: dict = field(default_factory=dict)
    c_ref: dict = field(default_factory=dict)


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
    node_of = packed.index.index_of
    count = len(names)

    referenced: set = set()
    for node in graph.nodes.values():
        referenced.update(
            g for g in node.summary.global_refs if g in eligible
        )
    globals_index = DenseIndex(sorted(referenced))

    # ``decoded`` (mask -> frozenset) also serves the final conversion:
    # L_REF frozensets are built from the reference lists right here,
    # sparing a bit-decode per node.
    decoded: dict[int, frozenset] = {}
    l_sets: dict[str, frozenset] = {}
    l_mask = [0] * count
    lref_by_variable: dict[str, int] = {}
    index_of = globals_index.index_of
    for name, node in graph.nodes.items():
        mask = 0
        node_bit = 1 << node_of[name]
        refs = []
        for g in node.summary.global_refs:
            if g in eligible:
                mask |= 1 << index_of[g]
                refs.append(g)
                lref_by_variable[g] = lref_by_variable.get(g, 0) | node_bit
        l_mask[node_of[name]] = mask
        cached = decoded.get(mask)
        if cached is None:
            cached = decoded[mask] = frozenset(refs)
        l_sets[name] = cached

    order = [node_of[name] for name in _reverse_postorder(graph)]
    pred_idx = [0] * count
    succ_idx = [0] * count
    for name, node in graph.nodes.items():
        i = node_of[name]
        pred_idx[i] = [node_of[p] for p in node.predecessors]
        succ_idx[i] = [node_of[s] for s in node.successors]

    # P_REF: top-down; seed so callers pop before callees.
    p_mask = [0] * count
    stack = list(reversed(order))
    queued = set(stack)
    while stack:
        i = stack.pop()
        queued.discard(i)
        incoming = 0
        for j in pred_idx[i]:
            incoming |= p_mask[j] | l_mask[j]
        if incoming != p_mask[i]:
            p_mask[i] = incoming
            for j in succ_idx[i]:
                if j not in queued:
                    queued.add(j)
                    stack.append(j)

    # C_REF: bottom-up; seed so callees pop before callers.
    c_mask = [0] * count
    stack = list(order)
    queued = set(stack)
    while stack:
        i = stack.pop()
        queued.discard(i)
        outgoing = 0
        for j in succ_idx[i]:
            outgoing |= c_mask[j] | l_mask[j]
        if outgoing != c_mask[i]:
            c_mask[i] = outgoing
            for j in pred_idx[i]:
                if j not in queued:
                    queued.add(j)
                    stack.append(j)

    # Many nodes share a mask (empty, or one module's working set), so
    # the mask -> frozenset decoding is deduplicated.
    def frozenset_of(mask: int) -> frozenset:
        value = decoded.get(mask)
        if value is None:
            value = globals_index.frozenset_of(mask)
            decoded[mask] = value
        return value

    sets = ReferenceSets(
        l_ref=l_sets,
        p_ref={name: frozenset_of(p_mask[i]) for i, name in enumerate(names)},
        c_ref={name: frozenset_of(c_mask[i]) for i, name in enumerate(names)},
    )

    # Stash the variable-major transpose for the web kernels
    # (they would otherwise rebuild it from the frozensets).  L_REF was
    # transposed inline above; P_REF / C_REF facts repeat heavily across
    # the nodes of a module, so those are grouped by identical mask
    # first and each distinct mask is decoded once.
    items = globals_index.items

    def transpose(mask_list: list) -> dict:
        groups: dict[int, int] = {}
        for i, node_mask in enumerate(mask_list):
            if node_mask:
                groups[node_mask] = groups.get(node_mask, 0) | (1 << i)
        by_variable: dict[str, int] = {}
        get = by_variable.get
        for globals_mask, nodes_mask in groups.items():
            base = ((globals_mask & -globals_mask).bit_length() - 1) & ~63
            remaining = globals_mask >> base
            while remaining:
                g = base + (remaining & -remaining).bit_length() - 1
                remaining &= remaining - 1
                name = items[g]
                by_variable[name] = get(name, 0) | nodes_mask
        return by_variable

    sets._packed_variable_masks = (
        packed, lref_by_variable, transpose(p_mask), transpose(c_mask)
    )
    return sets


def _reverse_postorder(graph: CallGraph) -> list[str]:
    """Reverse postorder from the start nodes (callers before callees,
    cycles aside); unreachable nodes are appended at the end."""
    visited: set[str] = set()
    postorder: list[str] = []

    def dfs(root: str) -> None:
        stack = [(root, iter(graph.successors(root)))]
        visited.add(root)
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                if successor not in visited:
                    visited.add(successor)
                    stack.append((successor, iter(graph.successors(successor))))
                    advanced = True
                    break
            if not advanced:
                postorder.append(node)
                stack.pop()

    for start in graph.start_nodes():
        if start not in visited:
            dfs(start)
    for name in sorted(graph.nodes):
        if name not in visited:
            dfs(name)
    return list(reversed(postorder))


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
