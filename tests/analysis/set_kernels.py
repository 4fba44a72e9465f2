"""Set-based oracle for the analyzer's dataflow kernels.

``src/`` runs every dataflow kernel once, on integer bitmasks
(:mod:`repro.analysis.packed`).  This module keeps one compact
set-per-fact implementation of each, written the way the paper states
the equations, as the differential suite's oracle:

* backward liveness (the solver behind ``compute_liveness``);
* the callee- and caller-saves register-need estimates phase 1 records
  in the summary files (sections 3 and 7.6.2);
* L_REF / P_REF / C_REF (section 4.1.2), handed on as the masks
  ``src/`` keeps them in, with the store rows;
* web growth, merging and recursive-cycle seeding (Figure 2) on sets of
  procedure names, then screening (section 6.2) by name, handed on as
  ``src/``'s node-index webs;
* web interference (section 4.1.3), and coloring on that graph:
  each web takes the first register of its pool that no colored
  neighbor holds, with priorities summed over every member;
* FREE / CALLER / CALLEE / MSPILL (Figure 6) on sets of procedure
  names, with the historical sort-and-rescan member sweep in place of
  the Kahn worklist and whole dominator chains for the cluster order,
  handed on as ``src/``'s per-node-index ``RegisterSets``.

:func:`use_set_kernels` patches these in where the pipeline looks each
kernel up, so a test runs the same ``analyze_program`` or compile on
both sides and compares bytes.  The web code consumes web ids in the
same order as the packed kernel; any other order renumbers the webs.
"""

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.liveness import BlockLiveness, LivenessResult
from repro.analysis.packed import DenseIndex, PackedGraph, iter_bits
from repro.analyzer.coloring import (
    ENTRY_CALL_COST,
    REFERENCE_GAIN,
    _coloring_event,
    web_register_pool,
)
from repro.analyzer.interference import (
    WebInterferenceGraph as _PackedInterferenceGraph,
)
from repro.analyzer.regsets import RegisterSets
from repro.analyzer.webs import Web, WebOptions, _split_sparse_webs
from repro.callgraph.dataflow import ReferenceSets
from repro.callgraph.graph import EXTERNAL_CALLER
from repro.obs.tracer import current_tracer
from repro.target.registers import CALLEE_SAVES, CALLER_SAVES


def use_set_kernels(monkeypatch) -> None:
    """Run every dataflow kernel on the set-based oracle for the rest of
    the ``monkeypatch`` scope (a test, or a ``monkeypatch.context()``).

    Liveness is patched at its solver because the phase-2 allocators
    import ``compute_liveness`` by name; every other kernel is patched
    at the public name its caller looks up.
    """
    from repro.analysis import frequency, liveness
    from repro.analyzer import driver, webs

    monkeypatch.setattr(liveness, "_solve", solve_liveness)
    monkeypatch.setattr(
        frequency, "estimate_callee_saves_need", estimate_callee_saves_need
    )
    monkeypatch.setattr(
        frequency, "estimate_caller_saves_need", estimate_caller_saves_need
    )
    monkeypatch.setattr(
        driver, "compute_reference_sets", compute_reference_sets
    )
    monkeypatch.setattr(webs, "identify_variable_webs", identify_variable_webs)
    monkeypatch.setattr(webs, "screen_webs", screen_webs)
    monkeypatch.setattr(driver, "WebInterferenceGraph", WebInterferenceGraph)
    monkeypatch.setattr(driver, "color_webs_priority", color_webs_priority)
    monkeypatch.setattr(driver, "color_webs_greedy", color_webs_greedy)
    monkeypatch.setattr(driver, "compute_register_sets", compute_register_sets)


# -- liveness -----------------------------------------------------------


def solve_liveness(
    label_list: list,
    succs: dict,
    preds: dict,
    order: list,
    block_instructions: Callable[[str], list],
    is_trackable: Callable[[object], bool],
) -> LivenessResult:
    facts: dict[str, BlockLiveness] = {}
    for label in label_list:
        fact = BlockLiveness()
        # Scan backward to compute upward-exposed uses and kills.
        for instruction in reversed(block_instructions(label)):
            for defined in instruction.defs():
                fact.use.discard(defined)
                fact.define.add(defined)
            for used in instruction.uses():
                if is_trackable(used):
                    fact.use.add(used)
        facts[label] = fact

    # Seeded in reverse post-order, popped LIFO: the first sweep runs
    # successors-first, so acyclic regions converge in one visit each.
    stack = list(order)
    queued = set(order)
    visits = 0
    while stack:
        label = stack.pop()
        queued.discard(label)
        visits += 1
        fact = facts[label]
        live_out: set = set()
        for successor in succs[label]:
            live_out |= facts[successor].live_in
        live_in = fact.use | (live_out - fact.define)
        fact.live_out = live_out
        if live_in != fact.live_in:
            fact.live_in = live_in
            for predecessor in preds[label]:
                if predecessor not in queued:
                    queued.add(predecessor)
                    stack.append(predecessor)
    return LivenessResult(facts, visits)


# -- register-need estimates --------------------------------------------
#
# ``analyze_function_usage`` hands both estimators its one liveness
# result and instruction walk (``frequency._function_walk``).


def estimate_caller_saves_need(function, liveness, walk) -> int:
    """Peak count of simultaneously live temps not live across a call."""
    across = _temps_live_across_user_calls(liveness, walk)
    peak = 0
    for label, steps in walk:
        live = {t for t in liveness.live_out(label) if t not in across}
        peak = max(peak, len(live))
        for defs, uses, _is_call, _is_user_call in steps:
            for defined in defs:
                live.discard(defined)
            for used in uses:
                if used not in across:
                    live.add(used)
            peak = max(peak, len(live))
    return peak


def _temps_live_across_user_calls(liveness, walk: list) -> set:
    across: set = set()
    for label, steps in walk:
        live = set(liveness.live_out(label))
        for defs, uses, _is_call, is_user_call in steps:
            if is_user_call:
                across |= live.difference(defs)
            for defined in defs:
                live.discard(defined)
            live.update(uses)
    return across


def estimate_callee_saves_need(function, liveness, walk) -> int:
    """Count of distinct temps live across any call, builtins included."""
    live_across_calls: set = set()
    for label, steps in walk:
        live = set(liveness.live_out(label))
        # Walk backward so "live after the call" is available at the call.
        for defs, uses, is_call, _is_user_call in steps:
            if is_call:
                live_across_calls |= live.difference(defs)
            for defined in defs:
                live.discard(defined)
            live.update(uses)
    return len(live_across_calls)


# -- L_REF / P_REF / C_REF ----------------------------------------------


def compute_reference_sets(graph, eligible: set) -> ReferenceSets:
    """Round-robin changed-flag sweeps over the reverse postorder."""
    l_ref: dict[str, set] = {}
    stored: dict[str, set] = {}
    for name, node in graph.nodes.items():
        l_ref[name] = {
            g for g in node.summary.global_refs if g in eligible
        }
        stored[name] = {
            g for g, count in node.summary.global_stores.items()
            if count > 0 and g in eligible
        }

    order = _reverse_postorder(graph)

    # P_REF: top-down propagation.
    p_ref: dict[str, set] = {name: set() for name in graph.nodes}
    changed = True
    while changed:
        changed = False
        for name in order:
            incoming: set = set()
            for predecessor in graph.nodes[name].predecessors:
                incoming |= p_ref[predecessor]
                incoming |= l_ref[predecessor]
            if incoming != p_ref[name]:
                p_ref[name] = incoming
                changed = True

    # C_REF: bottom-up propagation.
    c_ref: dict[str, set] = {name: set() for name in graph.nodes}
    changed = True
    while changed:
        changed = False
        for name in reversed(order):
            outgoing: set = set()
            for successor in graph.nodes[name].successors:
                outgoing |= c_ref[successor]
                outgoing |= l_ref[successor]
            if outgoing != c_ref[name]:
                c_ref[name] = outgoing
                changed = True

    return _as_masks(graph, l_ref, p_ref, c_ref, stored)


def _reverse_postorder(graph) -> list:
    """Reverse postorder from the start nodes (callers before callees,
    cycles aside); unreachable nodes are appended at the end."""
    visited: set = set()
    postorder: list = []

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


def _as_masks(graph, l_ref: dict, p_ref: dict, c_ref: dict,
              stored: dict) -> ReferenceSets:
    """The sets in the node-major mask form ``src/`` keeps them in, with
    the L_REF and store rows by node index."""
    packed = PackedGraph.of(graph)
    globals_index = DenseIndex(sorted(set().union(*l_ref.values())))
    referencing: dict[str, list] = {}
    storing: dict[str, set] = {}
    for i, name in enumerate(packed.names):
        for g in l_ref[name]:
            referencing.setdefault(g, []).append(i)
        for g in stored[name]:
            storing.setdefault(g, set()).add(i)
    sets = ReferenceSets(
        packed,
        globals_index,
        *(
            [globals_index.mask_of(by_node[name]) for name in packed.names]
            for by_node in (l_ref, p_ref, c_ref)
        ),
        referencing,
        storing,
    )
    # The oracle's own sets stand in for the decoded masks.
    sets.l_ref, sets.p_ref, sets.c_ref = (
        {name: frozenset(values) for name, values in by_node.items()}
        for by_node in (l_ref, p_ref, c_ref)
    )
    return sets


# -- webs (Figure 2) ----------------------------------------------------


class _SetWeb:
    """A web under construction: its id and its set of node names."""

    def __init__(self, web_id: int):
        self.web_id = web_id
        self.nodes: set = set()


def identify_variable_webs(
    graph,
    sets: ReferenceSets,
    variable: str,
    options: Optional[WebOptions] = None,
    next_id: Optional[list] = None,
) -> list:
    options = options or WebOptions()
    if next_id is None:
        next_id = [1]
    set_webs: list[_SetWeb] = []
    for name in sorted(graph.nodes):
        if variable not in sets.l_ref[name]:
            continue
        if variable in sets.p_ref[name]:
            continue
        if any(name in web.nodes for web in set_webs):
            continue
        web = _grow_web(graph, sets, variable, {name}, next_id)
        set_webs = _merge_overlapping(
            graph, sets, variable, set_webs, web, next_id
        )
    _add_recursive_cycle_webs(graph, sets, variable, set_webs, next_id)
    variable_webs = [
        _as_web(graph, sets.packed, variable, web) for web in set_webs
    ]
    if options.split_sparse_webs:
        variable_webs = _split_sparse_webs(
            graph, sets, variable, variable_webs, options, next_id
        )
    return variable_webs


def screen_webs(graph, sets: ReferenceSets, webs: list,
                options: WebOptions, static_modules: dict) -> None:
    for web in webs:
        web.discarded_reason = _screen(
            graph, sets, web, options, static_modules
        )


def _screen(graph, sets: ReferenceSets, web: Web, options: WebOptions,
            static_modules: dict):
    """Section 6.2's discard reason for ``web``, if any, read by name."""
    nodes = graph.nodes
    variable = web.variable
    if EXTERNAL_CALLER in web.nodes:
        return "external-caller"
    referencing = [name for name in web.nodes
                   if variable in sets.l_ref[name]]
    if not referencing:
        return "sparse"
    if len(web.nodes) == 1:
        node = nodes[referencing[0]]
        weighted = node.summary.global_refs.get(variable, 0) * node.weight
        if weighted < options.min_single_node_refs:
            return "single-node-low-frequency"
    elif len(referencing) / len(web.nodes) < options.min_lref_ratio:
        return "sparse"
    if (options.discard_cross_module_static_entries
            and variable in static_modules):
        modules = {nodes[name].summary.module for name in web.entry_nodes}
        if modules - {static_modules[variable]}:
            return "static-cross-module-entry"
    return None


def _as_web(graph, packed, variable: str, web: _SetWeb) -> Web:
    """``web`` in the node-index form ``src/`` keeps webs in."""
    index_of = packed.index.index_of
    entries = [
        name for name in web.nodes
        if not any(p in web.nodes for p in graph.nodes[name].predecessors)
    ]
    return Web(
        web.web_id,
        variable,
        frozenset(index_of[name] for name in web.nodes),
        frozenset(index_of[name] for name in entries),
        packed.names,
    )


def _grow_web(
    graph,
    sets: ReferenceSets,
    variable: str,
    seeds: set,
    next_id: list,
) -> _SetWeb:
    """Figure 2: expand from ``seeds`` and close over predecessors."""
    web = _SetWeb(next_id[0])
    next_id[0] += 1
    pending = set(seeds)
    while True:
        for seed in sorted(pending):
            _expand_web(graph, sets, web, seed, variable)
        # Nodes with both internal and external predecessors violate the
        # entry-node conditions; pull the external predecessors in.
        problematic_preds: set = set()
        for name in web.nodes:
            predecessors = set(graph.nodes[name].predecessors)
            internal = predecessors & web.nodes
            external = predecessors - web.nodes
            if internal and external:
                problematic_preds |= external
        if not problematic_preds:
            return web
        pending = problematic_preds


def _expand_web(
    graph, sets: ReferenceSets, web: _SetWeb, start: str, variable: str
) -> None:
    """Figure 2's Expand_Web: downward closure over C_REF/L_REF."""
    worklist = [start]
    while worklist:
        name = worklist.pop()
        if name in web.nodes:
            continue
        web.nodes.add(name)
        for successor in graph.successors(name):
            if successor in web.nodes:
                continue
            if (
                variable in sets.c_ref[successor]
                or variable in sets.l_ref[successor]
            ):
                worklist.append(successor)


def _merge_overlapping(
    graph,
    sets: ReferenceSets,
    variable: str,
    existing: list,
    new_web: _SetWeb,
    next_id: list,
) -> list:
    """Merge ``new_web`` with any existing web it overlaps, re-closing
    the result (the union of two closed webs may violate the entry-node
    conditions, so the closure is re-run)."""
    overlapping = [w for w in existing if w.nodes & new_web.nodes]
    remaining = [w for w in existing if not (w.nodes & new_web.nodes)]
    if not overlapping:
        return existing + [new_web]
    seeds = set(new_web.nodes)
    for web in overlapping:
        seeds |= web.nodes
    merged = _grow_web(graph, sets, variable, seeds, next_id)
    # The merged web may now overlap webs it previously did not.
    return _merge_overlapping(
        graph, sets, variable, remaining, merged, next_id
    )


def _add_recursive_cycle_webs(
    graph,
    sets: ReferenceSets,
    variable: str,
    variable_webs: list,
    next_id: list,
) -> None:
    """Cover referencing nodes missed because they sit in recursive
    cycles whose entry paths never reference the variable."""
    covered: set = set()
    for web in variable_webs:
        covered |= web.nodes
    uncovered = [
        name
        for name in sorted(graph.nodes)
        if variable in sets.l_ref[name] and name not in covered
    ]
    if not uncovered:
        return
    component_of: dict[str, list] = {}
    for component in graph.strongly_connected_components():
        for name in component:
            component_of[name] = component
    seen: set = set()
    for name in uncovered:
        if name in seen:
            continue
        if any(name in web.nodes for web in variable_webs):
            continue
        seeds = set(component_of[name])
        seen |= seeds
        web = _grow_web(graph, sets, variable, seeds, next_id)
        variable_webs[:] = _merge_overlapping(
            graph, sets, variable, variable_webs, web, next_id
        )


# -- web interference ---------------------------------------------------


class WebInterferenceGraph(_PackedInterferenceGraph):
    """One pairwise set insert per pair of webs sharing a node."""

    def _build(self) -> dict:
        neighbors: dict[int, set] = defaultdict(set)
        by_node: dict[str, list] = defaultdict(list)
        for web in self.webs:
            for name in web.nodes:
                by_node[name].append(web)
        for sharing in by_node.values():
            for i, web in enumerate(sharing):
                for other in sharing[i + 1:]:
                    if web.web_id == other.web_id:
                        continue
                    neighbors[web.web_id].add(other.web_id)
                    neighbors[other.web_id].add(web.web_id)
        return neighbors


# -- coloring (section 4.1.3) -------------------------------------------


def web_priority(web, graph) -> float:
    """Benefit minus entry cost, each an order-independent ``fsum``
    over every member, read from the call graph by name."""
    nodes = graph.nodes
    benefit = math.fsum(
        REFERENCE_GAIN * refs * max(nodes[name].weight, 1.0)
        for name in web.nodes
        for refs in (nodes[name].summary.global_refs.get(web.variable, 0),)
        if refs
    )
    entry_cost = math.fsum(
        ENTRY_CALL_COST * max(nodes[name].weight, 1.0)
        for name in web.entry_nodes
    )
    return benefit - entry_cost


def color_webs_priority(webs: list, graph, num_registers: int = 6) -> None:
    pool = web_register_pool(num_registers)
    _color_on_graph(webs, graph, lambda web: pool)


def color_webs_greedy(webs: list, graph) -> None:
    callee_sorted = sorted(CALLEE_SAVES, reverse=True)

    def allowed_of(web) -> list:
        max_need = max(
            (graph.nodes[name].summary.callee_saves_needed
             for name in web.nodes),
            default=0,
        )
        return callee_sorted[: max(0, len(callee_sorted) - max_need)]

    _color_on_graph(webs, graph, allowed_of)


def _color_on_graph(webs: list, graph, allowed_of) -> None:
    """Priority order; each web takes the first register of
    ``allowed_of(web)`` that no colored interfering web holds."""
    tracer = current_tracer()
    live = [web for web in webs if web.is_live]
    for web in live:
        web.priority = web_priority(web, graph)
    interference = WebInterferenceGraph(live)
    colored: dict = {}
    for web in sorted(live, key=lambda w: (-w.priority, w.web_id)):
        allowed: list = []
        if web.priority <= 0:
            web.discarded_reason = "non-positive-priority"
        else:
            allowed = allowed_of(web)
            taken = {
                colored[n].register
                for n in interference.neighbors(web)
                if n in colored
            }
            register = next((r for r in allowed if r not in taken), None)
            if register is not None:
                web.register = register
                colored[web.web_id] = web
        if tracer.enabled:
            _coloring_event(
                tracer, web, graph, colored, interference, set(allowed)
            )


# -- register sets (Figure 6) -------------------------------------------


@dataclass
class _Sets:
    """One procedure's usage sets while the clusters are processed."""

    free: set
    caller: set
    callee: set
    mspill: set


def compute_register_sets(
    graph, clusters: list, dominators=None, web_reserved=None
) -> list:
    """Takes and returns ``src/``'s per-node-index forms: a mask of
    web-reserved registers and a :class:`RegisterSets` per node."""
    if dominators is None:
        dominators = graph.dominator_tree()
    names = PackedGraph.of(graph).names
    web_reserved = {
        name: set(iter_bits(mask))
        for name, mask in zip(names, web_reserved or ())
    }
    sets: dict[str, _Sets] = {}
    for name in graph.nodes:
        reserved = web_reserved.get(name, set())
        sets[name] = _Sets(
            free=set(),
            caller=set(CALLER_SAVES),
            callee=set(CALLEE_SAVES) - reserved,
            mspill=set(),
        )
    roots = {cluster.root for cluster in clusters}
    avail: dict[str, set] = {}
    for cluster in _bottom_up(clusters, dominators):
        _process_cluster(graph, cluster, roots, sets, avail, web_reserved)
    return [
        RegisterSets(
            *(frozenset(registers) for registers in (
                sets[name].free, sets[name].caller, sets[name].callee,
                sets[name].mspill,
            ))
        )
        for name in names
    ]


def _bottom_up(clusters: list, dominators) -> list:
    """Deepest cluster roots first: each root's whole dominator chain
    gives its depth."""
    return sorted(
        clusters,
        key=lambda c: (-len(dominators.dominators_of(c.root)), c.root),
    )


def _cluster_register_order(child_mspill: set) -> list:
    """Selection order for preallocation: registers *not* in a child
    root's MSPILL first, so those stay available for upward motion."""
    return sorted(CALLEE_SAVES, key=lambda r: (r in child_mspill, r))


def _process_cluster(graph, cluster, roots: set, sets: dict, avail: dict,
                     web_reserved: dict) -> None:
    root = cluster.root
    members = cluster.members

    child_mspill: set = set()
    for name in members:
        if name in roots:
            child_mspill |= sets[name].mspill
    order = _cluster_register_order(child_mspill)

    reserved_in_cluster: set = set()
    for name in cluster.all_nodes:
        reserved_in_cluster |= set(web_reserved.get(name, ()))

    # Root's own callee-saves selection: take the registers *least*
    # attractive for preallocation (end of the priority order), skipping
    # web-reserved registers.
    selectable = [r for r in order if r not in reserved_in_cluster]
    need = graph.nodes[root].summary.callee_saves_needed
    root_sets = sets[root]
    root_callee = set(selectable[max(0, len(selectable) - need):])
    root_sets.callee = root_callee
    avail[root] = set(selectable) - root_callee

    # Members in dependency order: re-sort the pending set and take the
    # first member whose predecessors have all been processed.
    used: set = set()
    visited = {root}
    pending = set(members)
    while pending:
        for name in sorted(pending):
            if set(graph.nodes[name].predecessors) <= visited:
                break
        else:
            raise AssertionError(
                f"cluster {root}: could not order members {pending}"
            )
        _preallocate_node(graph, name, roots, sets, avail, order, used, root)
        visited.add(name)
        pending.discard(name)

    root_sets.mspill |= used
    # Post-pass (Figure 7): callee-saves registers the root spills that
    # remain available at an intermediate node can serve as extra
    # caller-saves registers there.
    for name in members:
        if name in roots:
            continue
        sets[name].caller |= avail[name] & root_sets.mspill


def _preallocate_node(
    graph,
    name: str,
    roots: set,
    sets: dict,
    avail: dict,
    order: list,
    used: set,
    cluster_root: Optional[str] = None,
) -> None:
    node_avail: Optional[set] = None
    for predecessor in graph.nodes[name].predecessors:
        pred_avail = avail.get(predecessor, set())
        node_avail = (
            set(pred_avail) if node_avail is None else node_avail & pred_avail
        )
    node_avail = node_avail or set()
    node_sets = sets[name]

    if name in roots:
        # A nested cluster root: move its spill code upward.
        moved = node_sets.mspill & node_avail
        used |= moved
        tracer = current_tracer()
        if tracer.enabled:
            kept = node_sets.mspill - node_avail
            if moved:
                tracer.event(
                    "mspill-migrated",
                    node=name,
                    cluster_root=cluster_root,
                    registers=moved,
                )
            if kept:
                tracer.event(
                    "mspill-kept",
                    node=name,
                    cluster_root=cluster_root,
                    registers=kept,
                    reason="not-available-on-all-paths",
                )
        node_sets.mspill -= node_avail
        freed = node_sets.callee & node_avail
        used |= freed
        node_sets.free |= freed
        node_sets.callee -= freed
        # Strengthening: the child's FREE registers may hold values
        # across its calls, so its in-cluster successors must not
        # preallocate them.
        avail[name] = node_avail - node_sets.free
    else:
        need = graph.nodes[name].summary.callee_saves_needed
        taken = _get_registers(need, node_avail, order)
        node_sets.free |= taken
        node_avail -= taken
        node_sets.callee -= taken | node_avail
        used |= taken
        avail[name] = node_avail


def _get_registers(count: int, available: set, order: list) -> set:
    """Figure 6's Get_Registers: up to ``count`` registers from
    ``available`` in the cluster's priority order."""
    chosen: set = set()
    for register in order:
        if len(chosen) >= count:
            break
        if register in available:
            chosen.add(register)
    return chosen
