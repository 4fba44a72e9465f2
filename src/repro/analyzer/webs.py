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
from typing import Optional

from repro.analysis.packed import iter_bits, packed_variable_masks
from repro.callgraph.dataflow import ReferenceSets
from repro.callgraph.graph import CallGraph


@dataclass
class Web:
    """One live range of a global over the call graph.

    ``from_split`` marks webs produced by sparse-web splitting (section
    7.6.1): such webs may have referencing ancestors/descendants outside
    themselves, so their members must save/restore the promoted register
    around calls that can reach other webs of the same variable.
    """

    web_id: int
    variable: str
    nodes: set = field(default_factory=set)
    discarded_reason: Optional[str] = None
    register: Optional[int] = None
    priority: float = 0.0
    from_split: bool = False

    def entry_nodes(self, graph: CallGraph) -> frozenset:
        """Nodes of the web with no predecessor inside the web."""
        # Webs built by identify_variable_webs carry their node bitmask;
        # one mask test per member replaces a predecessor-set probe
        # loop.  Pieces from sparse splitting carry no mask and take the
        # set path.  The guards reject a mask produced against a
        # different graph or whose web's nodes were rewritten.
        memo = getattr(self, "_entries_memo", None)
        if memo is not None and memo[0] == len(self.nodes):
            return memo[1]
        cached = getattr(self, "_packed_nodes", None)
        if (
            cached is not None
            and cached[2] == len(self.nodes)
            and getattr(graph, "_packed_graph", None) is cached[0]
        ):
            packed, mask, _count = cached
            entries_mask = getattr(self, "_entries_mask", None)
            if entries_mask is None:
                pred = packed.pred
                entries_mask = 0
                remaining = mask
                while remaining:
                    i = (remaining & -remaining).bit_length() - 1
                    remaining &= remaining - 1
                    if not pred[i] & mask:
                        entries_mask |= 1 << i
            entries = frozenset(packed.index.set_of(entries_mask))
        else:
            entries = frozenset(
                name
                for name in self.nodes
                if not any(
                    p in self.nodes for p in graph.nodes[name].predecessors
                )
            )
        self._entries_memo = (len(self.nodes), entries)
        return entries

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
    """Compute all webs for all eligible globals.

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
            identify_variable_webs(
                graph, sets, variable, options, static_modules, next_id
            )
        )
    return webs


def identify_variable_webs(
    graph: CallGraph,
    sets: ReferenceSets,
    variable: str,
    options: Optional[WebOptions] = None,
    static_modules: Optional[dict] = None,
    next_id: Optional[list] = None,
) -> list[Web]:
    """Compute the (screened) webs of one variable.

    Construction for different variables is independent except for the
    shared ``next_id`` counter, which :func:`identify_webs` threads
    through the variables in sorted order.  Webs are node bitmasks until
    screening; node bit order is ``sorted(graph.nodes)``, so candidates
    are seeded, and web ids consumed, in sorted node order.
    """
    options = options or WebOptions()
    if next_id is None:
        next_id = [1]
    packed, lref, pref, cref = packed_variable_masks(graph, sets)
    lref_v = lref.get(variable, 0)
    expand_v = lref_v | cref.get(variable, 0)
    webs: list = []  # (web_id, node mask, entry mask) triples
    covered = 0
    # Candidate entry nodes: the variable in L_REF but not in P_REF.
    for i in iter_bits(lref_v & ~pref.get(variable, 0)):
        if covered >> i & 1:
            continue
        grown = _grow_web_packed(packed, expand_v, 1 << i, next_id)
        webs = _merge_overlapping_packed(packed, expand_v, webs, grown,
                                         next_id)
        covered = 0
        for entry in webs:
            covered |= entry[1]
    # Referencing nodes on recursive cycles whose entry paths never
    # reference the variable have it in P_REF all around the cycle:
    # seed one web with each such strongly connected component.
    uncovered = lref_v & ~covered
    if uncovered:
        scc_masks = packed.scc_mask_of(graph)
        seen = 0
        for i in iter_bits(uncovered):
            if seen >> i & 1 or covered >> i & 1:
                continue
            seeds = scc_masks[i]
            seen |= seeds
            grown = _grow_web_packed(packed, expand_v, seeds, next_id)
            webs = _merge_overlapping_packed(packed, expand_v, webs,
                                             grown, next_id)
            covered = 0
            for entry in webs:
                covered |= entry[1]
    set_of = packed.index.set_of
    variable_webs = []
    for web_id, mask, entries_mask in webs:
        web = Web(web_id, variable, nodes=set_of(mask))
        web._packed_nodes = (packed, mask, len(web.nodes))
        web._entries_mask = entries_mask
        variable_webs.append(web)
    if options.split_sparse_webs:
        variable_webs = _split_sparse_webs(
            graph, sets, variable, variable_webs, options, next_id
        )
    _screen_webs(graph, sets, variable_webs, options, static_modules or {})
    return variable_webs


def _grow_web_packed(
    packed, expand_v: int, seeds: int, next_id: list
) -> tuple:
    """Figure 2 on bitmasks: downward closure through ``expand_v``
    members, then pull in external predecessors of nodes that also have
    internal ones, to fixpoint.  Consumes exactly one web id.

    Returns ``(web_id, member_mask, entry_mask)`` — the entry nodes
    (members with no internal predecessor) fall out of the correctness
    scan for free.  Bit iteration shifts each mask down to its lowest
    set bit first: webs cluster inside one module's contiguous bit
    range, and per-bit extraction on a big int costs O(total width)."""
    web_id = next_id[0]
    next_id[0] += 1
    succ = packed.succ
    pred = packed.pred
    mask = 0
    pending = seeds
    while True:
        frontier = pending & ~mask
        mask |= frontier
        while frontier:
            reached = 0
            base = ((frontier & -frontier).bit_length() - 1) & ~63
            frontier >>= base
            while frontier:
                reached |= succ[
                    base + (frontier & -frontier).bit_length() - 1
                ]
                frontier &= frontier - 1
            frontier = reached & expand_v & ~mask
            mask |= frontier
        problematic = 0
        entries = 0
        base = ((mask & -mask).bit_length() - 1) & ~63
        members = mask >> base
        while members:
            i = base + (members & -members).bit_length() - 1
            members &= members - 1
            predecessors = pred[i]
            if not predecessors & mask:
                entries |= 1 << i
            else:
                external = predecessors & ~mask
                if external:
                    problematic |= external
        if not problematic:
            return (web_id, mask, entries)
        pending = problematic


def _merge_overlapping_packed(
    packed, expand_v: int, existing: list, new_web: tuple, next_id: list
) -> list:
    """Merge ``new_web`` with every existing web it overlaps and re-close
    the union (two closed webs may together violate the entry-node
    conditions).  The merged web may now overlap webs it previously did
    not, hence the recursion."""
    new_mask = new_web[1]
    overlapping = [w for w in existing if w[1] & new_mask]
    remaining = [w for w in existing if not (w[1] & new_mask)]
    if not overlapping:
        return existing + [new_web]
    seeds = new_mask
    for entry in overlapping:
        seeds |= entry[1]
    merged = _grow_web_packed(packed, expand_v, seeds, next_id)
    return _merge_overlapping_packed(
        packed, expand_v, remaining, merged, next_id
    )


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
    result = []
    for web in variable_webs:
        referencing = {
            name for name in web.nodes if variable in sets.l_ref[name]
        }
        ratio = len(referencing) / max(1, len(web.nodes))
        if ratio >= options.split_lref_ratio:
            result.append(web)
            continue
        if any(
            graph.nodes[name].summary.makes_indirect_calls
            for name in web.nodes
        ):
            result.append(web)
            continue
        pieces: list = []
        for seed in sorted(referencing):
            if any(seed in piece.nodes for piece in pieces):
                continue
            piece = _grow_tight_web(graph, sets, variable, seed, next_id)
            pieces = _merge_overlapping_tight(pieces, piece)
        if len(pieces) < 2:
            result.append(web)
            continue
        for piece in pieces:
            piece.from_split = True
            result.append(piece)
    return result


def _grow_tight_web(
    graph: CallGraph,
    sets: ReferenceSets,
    variable: str,
    seed: str,
    next_id: list,
) -> Web:
    """Grow a web that expands only through referencing successors, then
    close it over predecessors as usual."""
    web = Web(next_id[0], variable)
    next_id[0] += 1
    pending = {seed}
    while True:
        worklist = sorted(pending)
        pending = set()
        while worklist:
            name = worklist.pop()
            if name in web.nodes:
                continue
            web.nodes.add(name)
            for successor in graph.successors(name):
                if (
                    successor not in web.nodes
                    and variable in sets.l_ref[successor]
                ):
                    worklist.append(successor)
        # Correctness closure: internal nodes may not have external
        # predecessors alongside internal ones.
        problematic: set = set()
        for name in web.nodes:
            predecessors = set(graph.nodes[name].predecessors)
            internal = predecessors & web.nodes
            external = predecessors - web.nodes
            if internal and external:
                problematic |= external
        if not problematic:
            return web
        pending = problematic


def _merge_overlapping_tight(pieces: list, new_piece: Web) -> list:
    """Union-merge tight pieces that overlap (closure may join them)."""
    merged_nodes = set(new_piece.nodes)
    remaining = []
    for piece in pieces:
        if piece.nodes & merged_nodes:
            merged_nodes |= piece.nodes
        else:
            remaining.append(piece)
    new_piece.nodes = merged_nodes
    return remaining + [new_piece]


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


def _screen_webs(
    graph: CallGraph,
    sets: ReferenceSets,
    webs: list,
    options: WebOptions,
    static_modules: dict,
) -> None:
    from repro.callgraph.graph import EXTERNAL_CALLER

    for web in webs:
        if EXTERNAL_CALLER in web.nodes:
            # Partial call graph (section 7.2): the web's correctness
            # closure absorbed the unknown outside caller, so the web
            # cannot be promoted (no real entry procedure exists there).
            web.discarded_reason = "external-caller"
            continue
        stamp = getattr(web, "_packed_nodes", None)
        if stamp is not None and stamp[2] == len(web.nodes):
            # Mask-carrying web: count referencing members on the
            # bitmask instead of probing L_REF per node.
            packed, mask, _count = stamp
            lref = packed_variable_masks(graph, sets)[1]
            referencing_count = (lref.get(web.variable, 0) & mask).bit_count()
        else:
            referencing_count = sum(
                1 for name in web.nodes
                if web.variable in sets.l_ref[name]
            )
        if not referencing_count:  # pragma: no cover - defensive
            web.discarded_reason = "sparse"
            continue
        if len(web.nodes) == 1:
            name = next(iter(web.nodes))
            node = graph.nodes[name]
            weighted = (
                node.summary.global_refs.get(web.variable, 0) * node.weight
            )
            if weighted < options.min_single_node_refs:
                web.discarded_reason = "single-node-low-frequency"
                continue
        elif referencing_count / len(web.nodes) < options.min_lref_ratio:
            web.discarded_reason = "sparse"
            continue
        if (
            options.discard_cross_module_static_entries
            and web.variable in static_modules
        ):
            defining = static_modules[web.variable]
            entries = web.entry_nodes(graph)
            entry_modules = {
                graph.nodes[name].summary.module for name in entries
            }
            if entry_modules - {defining}:
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
        entries = web.entry_nodes(graph)
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
