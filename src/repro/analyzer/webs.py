"""Web identification for global variable promotion (paper section 4.1).

A *web* for a global variable is a minimal subgraph of the call graph such
that the variable is referenced in no ancestor and no descendant of the
subgraph.  Webs let one callee-saves register serve different globals in
disjoint call-graph regions.

The construction follows Figure 2 of the paper:

1. candidate web entry nodes have the variable in ``L_REF`` but not
   ``P_REF``;
2. the web expands downward through successors that have the variable in
   ``L_REF`` or ``C_REF``;
3. for correctness, any node with both internal and external
   predecessors pulls its external predecessors into the web (repeat to
   fixpoint) — otherwise an entry node invoked from inside the web would
   reload a stale value, or an internal node could be invoked while the
   dedicated register is uninitialized;
4. overlapping webs for the same variable are merged.

Nodes on recursive call chains can be missed by step 1 (the variable is
in ``P_REF`` all around the cycle); the paper's fix — adopted here — is
to seed a separate web with each such cycle and enlarge it for
correctness.

After construction, webs are screened the way the paper's prototype
screens them (section 6.2): webs that are too *sparse* (low ratio of
referencing nodes to total nodes) and single-node webs with infrequent
access are discarded, as are webs for ``static`` globals whose entry
nodes fall outside the defining module (section 7.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.callgraph.dataflow import ReferenceSets
from repro.callgraph.graph import EXTERNAL_CALLER, CallGraph


def node_names(names: tuple, indices) -> frozenset:
    """The procedure names of the node ``indices``."""
    return frozenset(map(names.__getitem__, indices))


class NodeTerms(NamedTuple):
    """What web screening and pricing read of each call-graph node, as
    lists by node index."""

    refs: list  # the summary's global_refs
    weight: list  # node.weight, which screening reads
    priced: list  # max(node.weight, 1.0), which priorities read
    module: list  # the summary's module


def node_terms(graph: CallGraph, names: tuple) -> NodeTerms:
    """The :class:`NodeTerms` of ``graph`` over its sorted node
    ``names``, memoized on the graph: screening and pricing touch every
    member of every web, and the ``node.summary`` attribute chains
    would dominate their loops.  ``normalize_weights`` drops the memo,
    so it never holds stale weights."""
    terms = getattr(graph, "_node_terms", None)
    if terms is None:
        nodes = [graph.nodes[name] for name in names]
        summaries = [node.summary for node in nodes]
        weights = [node.weight for node in nodes]
        terms = graph._node_terms = NodeTerms(
            [summary.global_refs for summary in summaries],
            weights,
            [max(weight, 1.0) for weight in weights],
            [summary.module for summary in summaries],
        )
    return terms


@dataclass(eq=False, slots=True)
class Web:
    """One live range of a global over the call graph.

    ``members`` and ``entries`` (the members with no predecessor inside
    the web) are frozensets of node indices into ``names``, the call
    graph's sorted node names (:class:`~repro.analysis.packed.PackedGraph`);
    every analyzer stage reads them, and they are fixed once the web
    is built.  ``nodes`` and ``entry_nodes`` are the same sets as
    procedure names, decoded on first read for the database, the trace
    and the tests.

    ``from_split`` marks webs produced by sparse-web splitting (section
    7.6.1): such webs may have referencing ancestors/descendants outside
    themselves, so their members must save/restore the promoted register
    around calls that can reach other webs of the same variable.
    """

    web_id: int
    variable: str
    members: frozenset
    entries: frozenset
    names: tuple = field(repr=False)
    discarded_reason: Optional[str] = None
    register: Optional[int] = None
    priority: float = 0.0
    from_split: bool = False
    _nodes: Optional[frozenset] = field(default=None, init=False, repr=False)
    _entry_nodes: Optional[frozenset] = field(
        default=None, init=False, repr=False
    )

    @property
    def nodes(self) -> frozenset:
        if self._nodes is None:
            self._nodes = node_names(self.names, self.members)
        return self._nodes

    @property
    def entry_nodes(self) -> frozenset:
        if self._entry_nodes is None:
            self._entry_nodes = node_names(self.names, self.entries)
        return self._entry_nodes

    @property
    def is_live(self) -> bool:
        return self.discarded_reason is None


@dataclass
class WebOptions:
    """Screening thresholds (paper section 6.2) and the optional
    sparse-web splitting extension (section 7.6.1)."""

    min_lref_ratio: float = 0.25  # discard sparser webs
    min_single_node_refs: float = 2.0  # weighted refs for 1-node webs
    discard_cross_module_static_entries: bool = True
    # Section 7.6.1: instead of discarding a sparse web, try breaking it
    # into tight sub-webs that save/restore around external calls.
    split_sparse_webs: bool = False
    split_lref_ratio: float = 0.5  # webs sparser than this are split


def identify_webs(
    graph: CallGraph,
    sets: ReferenceSets,
    eligible: set,
    options: Optional[WebOptions] = None,
    static_modules: Optional[dict] = None,
) -> list[Web]:
    """Compute all webs for all eligible globals, then screen them in
    one pass (:func:`screen_webs`).

    Args:
        graph: The program call graph.
        sets: L_REF/P_REF/C_REF reference sets.
        eligible: Eligible global names.
        options: Screening thresholds.
        static_modules: Qualified name -> defining module, for statics
            (used by the cross-module entry discard rule).
    """
    options = options or WebOptions()
    webs: list[Web] = []
    next_id = [1]

    for variable in sorted(eligible):
        webs.extend(
            identify_variable_webs(graph, sets, variable, options, next_id)
        )
    screen_webs(graph, sets, webs, options, static_modules or {})
    return webs


def identify_variable_webs(
    graph: CallGraph,
    sets: ReferenceSets,
    variable: str,
    options: Optional[WebOptions] = None,
    next_id: Optional[list] = None,
) -> list[Web]:
    """Compute the webs of one variable, unscreened.

    Construction for different variables is independent except for the
    shared ``next_id`` counter, which :func:`identify_webs` threads
    through the variables in sorted order.  Node index order is
    ``sorted(graph.nodes)``, so candidates are seeded, and web ids
    consumed, in sorted node order.
    """
    options = options or WebOptions()
    if next_id is None:
        next_id = [1]
    referencing = sets.referencing.get(variable, ())
    variable_webs: list = []
    if referencing:
        packed = sets.packed
        bit = sets.globals_index.index_of[variable]
        # Webs expand through successors with the variable in L_REF or
        # C_REF.
        lref = set(referencing)
        c_masks = sets.c_masks
        grow = (lref, c_masks, bit)
        webs: list = []  # (web_id, members, entries) triples
        covered: set = set()
        # Candidate entry nodes: the variable in L_REF but not in P_REF.
        p_masks = sets.p_masks
        for i in referencing:
            if i in covered or p_masks[i] >> bit & 1:
                continue
            if not c_masks[i] >> bit & 1:
                # No successor has the variable in L_REF or C_REF (that
                # is what C_REF means), so there is nothing to grow
                # into: the web is the node alone and its own entry,
                # because only a self-call could be an internal
                # predecessor, and that would be such a successor.
                # Covered nodes are exactly the members of the webs so
                # far, so it overlaps none; a later merge may still
                # absorb it.
                only = frozenset((i,))
                webs.append((next_id[0], only, only))
                next_id[0] += 1
                covered.add(i)
                continue
            grown = _grow_web(packed, grow, (i,), next_id)
            webs = _merge_overlapping(packed, grow, webs, grown, next_id)
            covered |= webs[-1][1]
        # Referencing nodes on recursive cycles whose entry paths never
        # reference the variable have it in P_REF all around the cycle:
        # seed one web with each such strongly connected component.
        uncovered = [i for i in referencing if i not in covered]
        if uncovered:
            scc_of = packed.scc_of()
            seen: set = set()
            for i in uncovered:
                if i in seen or i in covered:
                    continue
                seeds = scc_of[i]
                seen.update(seeds)
                grown = _grow_web(packed, grow, seeds, next_id)
                webs = _merge_overlapping(packed, grow, webs, grown,
                                          next_id)
                covered |= webs[-1][1]
        variable_webs = [
            Web(web_id, variable, frozenset(members), frozenset(entries),
                packed.names)
            for web_id, members, entries in webs
        ]
    if options.split_sparse_webs:
        variable_webs = _split_sparse_webs(
            graph, sets, variable, variable_webs, options, next_id
        )
    return variable_webs


def _grow_web(packed, grow: tuple, seeds, next_id: list) -> tuple:
    """Figure 2 on node indices for the variable that ``grow`` describes
    as ``(lref, c_masks, bit)``: ``lref`` holds the nodes with the
    variable in L_REF, and ``bit`` is its bit in the C_REF rows
    ``c_masks``.  Downward closure through successors with the variable
    in L_REF or C_REF, then pull in external predecessors of nodes that
    also have internal ones, to fixpoint.  Consumes exactly one web id.

    Returns ``(web_id, members, entries)`` — the entry nodes (members
    with no internal predecessor) fall out of the correctness scan for
    free."""
    web_id = next_id[0]
    next_id[0] += 1
    lref, c_masks, bit = grow
    succ = packed.succ
    pred = packed.pred
    members: set = set()
    pending = seeds
    while True:
        stack = [i for i in pending if i not in members]
        members.update(stack)
        while stack:
            for j in succ[stack.pop()]:
                if j not in members and (
                    j in lref or c_masks[j] >> bit & 1
                ):
                    members.add(j)
                    stack.append(j)
        problematic: set = set()
        entries = []
        for i in members:
            predecessors = pred[i]
            if members.isdisjoint(predecessors):
                entries.append(i)
            elif not members.issuperset(predecessors):
                problematic.update(
                    p for p in predecessors if p not in members
                )
        if not problematic:
            return (web_id, members, entries)
        pending = problematic


def _merge_overlapping(
    packed, grow: tuple, existing: list, new_web: tuple, next_id: list
) -> list:
    """Merge ``new_web`` with every existing web it overlaps and re-close
    the union (two closed webs may together violate the entry-node
    conditions).  The merged web may now overlap webs it previously did
    not, hence the recursion.  The merged web comes last."""
    new_members = new_web[1]
    overlapping = [w for w in existing if not new_members.isdisjoint(w[1])]
    if not overlapping:
        return existing + [new_web]
    remaining = [w for w in existing if new_members.isdisjoint(w[1])]
    seeds = set(new_members)
    for entry in overlapping:
        seeds |= entry[1]
    merged = _grow_web(packed, grow, seeds, next_id)
    return _merge_overlapping(packed, grow, remaining, merged, next_id)


def _split_sparse_webs(
    graph: CallGraph,
    sets: ReferenceSets,
    variable: str,
    variable_webs: list,
    options: WebOptions,
    next_id: list,
) -> list:
    """Section 7.6.1: break sparse webs into tight sub-webs.

    A web whose referencing nodes are isolated at the ends of long call
    chains dedicates a register over many procedures that never touch
    the variable.  Splitting re-grows webs that expand only through
    *referencing* successors; members of the resulting sub-webs must
    save/restore the register around calls that can reach the variable
    elsewhere (the compiler second phase inserts that code from the
    ``wrap_callees`` directives).

    A web is left intact when splitting yields a single piece, when any
    member makes indirect calls (an indirect call could land both inside
    and outside the sub-web, and no single convention handles both), or
    when the pieces re-merge during the correctness closure.
    """
    packed = sets.packed
    lref = set(sets.referencing.get(variable, ()))
    tight = (lref, [0] * len(packed.names), 0)
    result = []
    for web in variable_webs:
        referencing = sorted(lref.intersection(web.members))
        ratio = len(referencing) / max(1, len(web.members))
        if ratio >= options.split_lref_ratio:
            result.append(web)
            continue
        if any(
            graph.nodes[packed.names[i]].summary.makes_indirect_calls
            for i in web.members
        ):
            result.append(web)
            continue
        # Tight pieces expand only through referencing successors: no
        # C_REF row is consulted.
        pieces: list = []
        for seed in referencing:
            if any(seed in piece[1] for piece in pieces):
                continue
            piece = _grow_web(packed, tight, (seed,), next_id)
            pieces = _merge_overlapping_tight(packed, pieces, piece)
        if len(pieces) < 2:
            result.append(web)
            continue
        for web_id, members, entries in pieces:
            result.append(
                Web(web_id, variable, frozenset(members),
                    frozenset(entries), packed.names, from_split=True)
            )
    return result


def _merge_overlapping_tight(packed, pieces: list, new_piece: tuple) -> list:
    """Union-merge tight pieces that overlap (closure may join them);
    the union keeps ``new_piece``'s web id."""
    merged = set(new_piece[1])
    remaining = []
    for piece in pieces:
        if merged.isdisjoint(piece[1]):
            remaining.append(piece)
        else:
            merged |= piece[1]
    if len(remaining) == len(pieces):
        return remaining + [new_piece]
    pred = packed.pred
    entries = [
        i for i in merged if all(p not in merged for p in pred[i])
    ]
    return remaining + [(new_piece[0], merged, entries)]


def wrap_targets_for(
    graph: CallGraph, sets: ReferenceSets, web: Web, member: str
) -> frozenset:
    """Callees of ``member`` around which a split web must save/restore
    the promoted register: direct callees outside the web from which the
    variable is reachable."""
    variable = web.variable
    return frozenset(
        callee
        for callee in graph.nodes[member].successors
        if callee not in web.nodes
        and (
            variable in sets.l_ref[callee]
            or variable in sets.c_ref[callee]
        )
    )


def screen_webs(
    graph: CallGraph,
    sets: ReferenceSets,
    webs: list,
    options: WebOptions,
    static_modules: dict,
) -> None:
    """Set the section 6.2 discard reason, if any, of each of ``webs``:
    one pass over the webs of every variable, since screening a web
    reads that web alone."""
    external = sets.packed.index.index_of.get(EXTERNAL_CALLER)
    l_masks = sets.l_masks
    bit_of = sets.globals_index.index_of
    refs_of, weight_of, _, module_of = node_terms(graph, sets.packed.names)
    for web in webs:
        members = web.members
        if external in members:
            # Partial call graph (section 7.2): the web's correctness
            # closure absorbed the unknown outside caller, so the web
            # cannot be promoted (no real entry procedure exists there).
            web.discarded_reason = "external-caller"
            continue
        variable = web.variable
        bit = bit_of[variable]
        if len(members) == 1:
            (i,) = members
            if not l_masks[i] >> bit & 1:  # pragma: no cover - defensive
                web.discarded_reason = "sparse"
                continue
            weighted = refs_of[i].get(variable, 0) * weight_of[i]
            if weighted < options.min_single_node_refs:
                web.discarded_reason = "single-node-low-frequency"
                continue
        else:
            referencing_count = sum(
                1 for i in members if l_masks[i] >> bit & 1
            )
            if not referencing_count:  # pragma: no cover - defensive
                web.discarded_reason = "sparse"
                continue
            if referencing_count / len(members) < options.min_lref_ratio:
                web.discarded_reason = "sparse"
                continue
        if (
            options.discard_cross_module_static_entries
            and variable in static_modules
        ):
            defining = static_modules[variable]
            if any(module_of[i] != defining for i in web.entries):
                web.discarded_reason = "static-cross-module-entry"


def check_web_invariants(graph: CallGraph, sets: ReferenceSets,
                         webs: list) -> None:
    """Assert the section 4.1.2 correctness conditions.  Used by tests.

    * entry nodes have no predecessors inside the web;
    * non-entry nodes have no predecessors outside the web;
    * no ancestor/descendant outside the web references the variable;
    * webs of the same variable are disjoint.
    """
    by_variable: dict[str, list] = {}
    for web in webs:
        by_variable.setdefault(web.variable, []).append(web)
    for variable, group in by_variable.items():
        for i, web in enumerate(group):
            for other in group[i + 1:]:
                if web.nodes & other.nodes:
                    raise AssertionError(
                        f"webs {web.web_id} and {other.web_id} for "
                        f"{variable!r} overlap"
                    )
    for web in webs:
        entries = web.entry_nodes
        for name in web.nodes:
            predecessors = set(graph.nodes[name].predecessors)
            internal = predecessors & web.nodes
            external = predecessors - web.nodes
            if name in entries:
                if internal:
                    raise AssertionError(
                        f"web {web.web_id}: entry {name} has internal "
                        f"predecessors {internal}"
                    )
            elif external:
                raise AssertionError(
                    f"web {web.web_id}: internal node {name} has external "
                    f"predecessors {external}"
                )
        if web.from_split:
            # Split webs deliberately tolerate referencing ancestors and
            # descendants; save/restore around wrapped calls handles the
            # value transfer (section 7.6.1).
            continue
        for name in graph.nodes:
            if name in web.nodes:
                continue
            if web.variable not in sets.l_ref[name]:
                continue
            # A referencing node outside the web must be neither an
            # ancestor nor a descendant of the web via referencing paths.
            # Sufficient check: it must not be adjacent to the web.
            neighbors = set(graph.nodes[name].predecessors) | set(
                graph.nodes[name].successors
            )
            if neighbors & web.nodes:
                raise AssertionError(
                    f"web {web.web_id} for {web.variable!r}: outside "
                    f"referencing node {name} is adjacent to the web"
                )
