"""The program analyzer (paper section 4).

``analyze_program`` is the tool's entry point: it reads every module's
summary file, builds the call graph, runs global variable promotion (web
identification + interference + coloring, or blanket promotion) and spill
code motion (clusters + register usage sets), and emits the program
database of per-procedure directives for the compiler second phase.

The analyzer never touches code — exactly as in the paper, all decisions
flow through the database.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Optional

from repro.analysis.packed import PackedGraph
from repro.analyzer.clusters import identify_clusters
from repro.analyzer.coloring import (
    color_webs_greedy,
    color_webs_priority,
    compute_web_priority,
    select_blanket_globals,
)
from repro.analyzer.database import (
    ClusterRecord,
    ProcedureDirectives,
    ProgramDatabase,
    PromotedGlobal,
    WebRecord,
)
from repro.analyzer.interference import WebInterferenceGraph
from repro.analyzer.options import AnalyzerOptions
from repro.analyzer.regsets import compute_register_sets
from repro.analyzer.webs import identify_webs
from repro.callgraph.dataflow import (
    classify_globals,
    compute_reference_sets,
    eligible_globals,
)
from repro.callgraph.graph import CallGraph
from repro.frontend.summary import ModuleSummary
from repro.obs.tracer import current_tracer


def analyze_program(
    summaries: Iterable[ModuleSummary],
    options: Optional[AnalyzerOptions] = None,
) -> ProgramDatabase:
    """Run the full analyzer and return the program database."""
    summaries = list(summaries)
    options = options or AnalyzerOptions()
    database = ProgramDatabase()

    exported = options.exported_procedures
    graph = CallGraph.build(
        summaries, set(exported) if exported is not None else None
    )
    graph.normalize_weights(options.profile)

    eligible = eligible_globals(summaries)
    eligible -= set(options.externally_visible_globals)
    total_globals = sum(len(s.globals) for s in summaries)
    database.statistics.eligible_globals = len(eligible)
    database.statistics.ineligible_globals = total_globals - len(eligible)

    tracer = current_tracer()
    if tracer.enabled:
        classified = classify_globals(summaries)
        for name in sorted(classified):
            reasons = list(classified[name])
            if name in options.externally_visible_globals:
                reasons.append("externally-visible")
            if reasons:
                tracer.event(
                    "global-ineligible", name=name, reasons=sorted(reasons)
                )

    promoted_per_proc: dict[str, list] = defaultdict(list)
    web_reserved: dict[str, set] = defaultdict(set)

    if options.global_promotion == "webs":
        _run_web_promotion(
            graph, summaries, eligible, options, database,
            promoted_per_proc, web_reserved,
        )
    elif options.global_promotion == "blanket":
        if exported is not None:
            raise ValueError(
                "blanket promotion requires the whole program: with "
                "unknown outside callers there is no program entry at "
                "which to load the dedicated registers"
            )
        _run_blanket_promotion(
            graph, summaries, eligible, options, database,
            promoted_per_proc, web_reserved,
        )
    elif options.global_promotion == "none":
        if tracer.enabled:
            for variable in sorted(eligible):
                tracer.event(
                    "global-decision",
                    name=variable,
                    decision="rejected",
                    mode="none",
                    reasons=["promotion-disabled"],
                    registers=[],
                    webs=[],
                )
    else:
        raise ValueError(
            f"unknown promotion mode {options.global_promotion!r}"
        )

    roots: set = set()
    if options.spill_code_motion:
        with tracer.span("clusters"):
            dominators = graph.dominator_tree()
            clusters = identify_clusters(
                graph, dominators, options.profile,
                options.cluster_options,
            )
            if tracer.enabled:
                for cluster in clusters:
                    tracer.event(
                        "cluster-formed",
                        root=cluster.root,
                        members=sorted(cluster.members),
                    )
        roots = {cluster.root for cluster in clusters}
        with tracer.span("register-sets"):
            register_sets = compute_register_sets(
                graph, clusters, dominators, web_reserved
            )
        database.clusters = [
            ClusterRecord(cluster.root, frozenset(cluster.members))
            for cluster in clusters
        ]
        database.statistics.clusters = len(clusters)
        database.statistics.cluster_nodes = sum(
            len(cluster.members) for cluster in clusters
        )
    else:
        with tracer.span("register-sets"):
            register_sets = compute_register_sets(
                graph, [], None, web_reserved
            )

    from repro.callgraph.graph import EXTERNAL_CALLER

    caller_prefixes: dict = {}
    subtree_caller: dict = {}
    if options.caller_saves_preallocation:
        from repro.analyzer.callersaves import compute_subtree_caller_usage

        caller_prefixes, subtree_caller = compute_subtree_caller_usage(
            graph
        )

    from repro.target.registers import CALLER_SAVES

    for name in sorted(graph.nodes):
        if name == EXTERNAL_CALLER:
            continue
        sets = register_sets[name]
        directives = ProcedureDirectives(
            name=name,
            free=frozenset(sets.free),
            caller=frozenset(sets.caller),
            callee=frozenset(sets.callee),
            mspill=frozenset(sets.mspill),
            promoted=tuple(
                sorted(promoted_per_proc.get(name, []),
                       key=lambda p: p.name)
            ),
            is_cluster_root=name in roots,
            caller_prefix=caller_prefixes.get(name),
            subtree_caller_used=subtree_caller.get(
                name, frozenset(CALLER_SAVES)
            ),
        )
        database.put(directives)
        if tracer.enabled:
            from repro.analyzer.database import directive_payload

            tracer.event(
                "directive", procedure=name,
                **directive_payload(directives),
            )
    return database


def _static_modules(summaries) -> dict:
    return {
        g.name: g.module
        for summary in summaries
        for g in summary.globals
        if g.is_static
    }


def _storing_nodes(graph: CallGraph) -> dict:
    """variable -> indices of the nodes that store it, memoized on the
    graph (one sweep instead of a per-web re-scan of every member's
    store counts)."""
    cached = getattr(graph, "_storing_nodes", None)
    if cached is None:
        cached = {}
        nodes = graph.nodes
        for i, name in enumerate(PackedGraph.of(graph).names):
            for variable, count in nodes[name].summary.global_stores.items():
                if count > 0:
                    cached.setdefault(variable, set()).add(i)
        graph._storing_nodes = cached
    return cached


def _run_web_promotion(
    graph, summaries, eligible, options, database,
    promoted_per_proc, web_reserved,
) -> None:
    tracer = current_tracer()
    sets = compute_reference_sets(graph, eligible)
    with tracer.span("web-formation"):
        webs = identify_webs(
            graph, sets, eligible, options.web_options,
            _static_modules(summaries),
        )
        if tracer.enabled:
            for web in webs:
                if web.discarded_reason is None:
                    tracer.event(
                        "web-formed",
                        web_id=web.web_id,
                        variable=web.variable,
                        nodes=web.nodes,
                        entry_nodes=web.entry_nodes,
                        from_split=web.from_split,
                    )
                else:
                    tracer.event(
                        "web-screened",
                        web_id=web.web_id,
                        variable=web.variable,
                        nodes=web.nodes,
                        reason=web.discarded_reason,
                    )
    reason_counts: dict = defaultdict(int)
    for w in webs:
        reason_counts[w.discarded_reason] += 1
    database.statistics.total_webs = len(webs)
    database.statistics.webs_discarded_sparse = reason_counts["sparse"]
    database.statistics.webs_discarded_single_low = reason_counts[
        "single-node-low-frequency"
    ]
    database.statistics.webs_discarded_static_cross_module = reason_counts[
        "static-cross-module-entry"
    ]
    database.statistics.webs_considered = reason_counts[None]

    with tracer.span("coloring", mode=options.coloring):
        interference = WebInterferenceGraph(webs)
        if options.coloring == "greedy":
            color_webs_greedy(webs, interference, graph)
        elif options.coloring == "priority":
            color_webs_priority(
                webs, interference, graph, options.num_web_registers
            )
        else:
            raise ValueError(f"unknown coloring mode {options.coloring!r}")
    database.statistics.webs_colored = sum(
        1 for w in webs if w.register is not None
    )

    if tracer.enabled:
        webs_by_variable: dict = defaultdict(list)
        for web in webs:
            webs_by_variable[web.variable].append(web)
        for variable in sorted(eligible):
            variable_webs = webs_by_variable.get(variable, [])
            registers = sorted(
                {w.register for w in variable_webs
                 if w.register is not None}
            )
            if registers:
                decision, reasons = "promoted", []
            elif not variable_webs:
                decision, reasons = "rejected", ["unreferenced"]
            else:
                decision = "rejected"
                reasons = sorted(
                    {w.discarded_reason or "lost-coloring"
                     for w in variable_webs}
                )
            tracer.event(
                "global-decision",
                name=variable,
                decision=decision,
                mode="webs",
                reasons=reasons,
                registers=registers,
                webs=sorted(w.web_id for w in variable_webs),
            )

    storing = _storing_nodes(graph)
    for web in webs:
        nodes = web.nodes
        entries = web.entry_nodes
        database.webs.append(
            WebRecord(
                web_id=web.web_id,
                variable=web.variable,
                nodes=nodes,
                entry_nodes=entries,
                register=web.register,
                interferes_with=interference.neighbors_frozen(web)
                if web.is_live
                else frozenset(),
                priority=web.priority,
                discarded_reason=web.discarded_reason,
            )
        )
        register = web.register
        if register is None:
            continue
        stores = storing.get(web.variable)
        needs_store = stores is not None and not stores.isdisjoint(
            web.members
        )
        if web.from_split:
            from repro.analyzer.webs import wrap_targets_for

            for name in nodes:
                promoted_per_proc[name].append(
                    PromotedGlobal(
                        name=web.variable,
                        register=register,
                        is_entry=name in entries,
                        needs_store=needs_store,
                        wrap_callees=tuple(
                            sorted(wrap_targets_for(graph, sets, web, name))
                        ),
                    )
                )
                web_reserved[name].add(register)
        else:
            # PromotedGlobal is frozen, so the (at most) two distinct
            # records of a non-split web are shared across its members;
            # most webs are one entry node and need only one.
            for is_entry, procedures in ((True, entries),
                                         (False, nodes - entries)):
                if not procedures:
                    continue
                record = PromotedGlobal(
                    name=web.variable, register=register,
                    is_entry=is_entry, needs_store=needs_store,
                )
                for name in procedures:
                    promoted_per_proc[name].append(record)
                    web_reserved[name].add(register)


def _run_blanket_promotion(
    graph, summaries, eligible, options, database,
    promoted_per_proc, web_reserved,
) -> None:
    """The [Wall 86]-style comparison: one register per hot global over
    the whole program, loaded at the start nodes."""
    sets = compute_reference_sets(graph, eligible)
    webs = identify_webs(
        graph, sets, eligible, options.web_options,
        _static_modules(summaries),
    )
    database.statistics.total_webs = len(webs)
    for web in webs:
        web.priority = compute_web_priority(web, graph)
    selections = select_blanket_globals(webs, options.blanket_count)
    tracer = current_tracer()
    if tracer.enabled:
        selected = {s.variable: s.register for s in selections}
        for variable in sorted(eligible):
            register = selected.get(variable)
            tracer.event(
                "global-decision",
                name=variable,
                decision="promoted" if register is not None else "rejected",
                mode="blanket",
                reasons=(
                    [] if register is not None
                    else ["blanket-not-selected"]
                ),
                registers=[register] if register is not None else [],
                webs=sorted(
                    w.web_id for w in webs if w.variable == variable
                ),
            )
    start_nodes = set(graph.start_nodes())
    storing = _storing_nodes(graph)
    for selection in selections:
        register = selection.register
        # PromotedGlobal is frozen: one record for the start nodes (the
        # entries) and one for every other procedure, shared.
        records = {
            is_entry: PromotedGlobal(
                name=selection.variable,
                register=register,
                is_entry=is_entry,
                needs_store=selection.variable in storing,
            )
            for is_entry in (False, True)
        }
        for name in graph.nodes:
            promoted_per_proc[name].append(records[name in start_nodes])
            web_reserved[name].add(register)
    database.statistics.webs_colored = len(selections)
