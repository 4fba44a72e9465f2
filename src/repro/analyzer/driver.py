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

from collections import Counter, defaultdict
from operator import attrgetter
from typing import Iterable, Optional

from repro.analysis.packed import PackedGraph
from repro.analyzer.clusters import identify_clusters
from repro.analyzer.coloring import (
    color_webs_greedy,
    color_webs_priority,
    price_webs,
    select_blanket_globals,
)
from repro.analyzer.database import (
    ClusterRecord,
    ProcedureDirectives,
    ProgramDatabase,
    PromotedGlobal,
    WebRecord,
    directive_payload,
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
from repro.callgraph.graph import EXTERNAL_CALLER, CallGraph
from repro.frontend.summary import ModuleSummary
from repro.obs.tracer import current_tracer
from repro.target.registers import CALLER_SAVES

_CALLER_SAVES = frozenset(CALLER_SAVES)


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

    # Per node index of the PackedGraph: the tuple of promoted-global
    # records and the mask of web-reserved registers.  Records are
    # added in variable order (webs come sorted by variable, and the
    # webs of one variable are disjoint), so each tuple is in name
    # order.
    names = PackedGraph.of(graph).names
    promoted: list = [()] * len(names)
    web_reserved = [0] * len(names)

    if options.global_promotion == "webs":
        _run_web_promotion(
            graph, summaries, eligible, options, database,
            promoted, web_reserved,
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
            promoted, web_reserved,
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

    caller_prefixes: dict = {}
    subtree_caller: dict = {}
    if options.caller_saves_preallocation:
        from repro.analyzer.callersaves import compute_subtree_caller_usage

        caller_prefixes, subtree_caller = compute_subtree_caller_usage(
            graph
        )

    for i, name in enumerate(names):
        if name == EXTERNAL_CALLER:
            continue
        free, caller, callee, mspill = register_sets[i]
        directives = ProcedureDirectives(
            name=name,
            free=free,
            caller=caller,
            callee=callee,
            mspill=mspill,
            promoted=promoted[i],
            is_cluster_root=name in roots,
            caller_prefix=caller_prefixes.get(name),
            subtree_caller_used=subtree_caller.get(name, _CALLER_SAVES),
        )
        database.put(directives)
        if tracer.enabled:
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


def _run_web_promotion(
    graph, summaries, eligible, options, database, promoted, web_reserved,
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
    with tracer.span("coloring", mode=options.coloring):
        if options.coloring == "greedy":
            color_webs_greedy(webs, graph)
        elif options.coloring == "priority":
            color_webs_priority(webs, graph, options.num_web_registers)
        else:
            raise ValueError(f"unknown coloring mode {options.coloring!r}")

    # Coloring discards only for a non-positive priority, and screening
    # never does: the webs coloring considered are the live ones and
    # those.
    reason_counts = Counter(map(attrgetter("discarded_reason"), webs))
    statistics = database.statistics
    statistics.total_webs = len(webs)
    statistics.webs_discarded_sparse = reason_counts["sparse"]
    statistics.webs_discarded_single_low = reason_counts[
        "single-node-low-frequency"
    ]
    statistics.webs_discarded_static_cross_module = reason_counts[
        "static-cross-module-entry"
    ]
    statistics.webs_considered = (
        reason_counts[None] + reason_counts["non-positive-priority"]
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

    # Looked up now: a test that patches in the set oracle's graph does
    # so for the analysis, and the census may be read after it.
    interference_graph = WebInterferenceGraph
    database.defer_webs(lambda: _web_census(webs, interference_graph))
    storing = sets.storing
    shared: dict = {}
    colored = 0
    for web in webs:
        register = web.register
        if register is None:
            continue
        colored += 1
        variable = web.variable
        members = web.members
        entries = web.entries
        needs_store = not members.isdisjoint(storing.get(variable, ()))
        bit = 1 << register
        if web.from_split:
            from repro.analyzer.webs import wrap_targets_for

            names = web.names
            for i in members:
                promoted[i] += (PromotedGlobal(
                    variable, register, i in entries, needs_store,
                    tuple(sorted(
                        wrap_targets_for(graph, sets, web, names[i])
                    )),
                ),)
                web_reserved[i] |= bit
            continue
        # The records of a non-split web are equal across its entries
        # and across its other members, and often across webs too: one
        # record is built per distinct value.
        key = (variable, register, True, needs_store)
        entry = shared.get(key) or shared.setdefault(key, PromotedGlobal(*key))
        if len(entries) < len(members):
            key = (variable, register, False, needs_store)
            inner = shared.get(key) or shared.setdefault(
                key, PromotedGlobal(*key)
            )
        for i in members:
            promoted[i] += (entry,) if i in entries else (inner,)
            web_reserved[i] |= bit
    statistics.webs_colored = colored


def _web_census(webs: list, interference_graph) -> list:
    """The database's :class:`WebRecord` census of ``webs``, with the
    interference of the webs that were live before coloring."""
    interference = interference_graph([
        web for web in webs
        if web.discarded_reason in (None, "non-positive-priority")
    ])
    return [
        WebRecord(
            web_id=web.web_id,
            variable=web.variable,
            nodes=web.nodes,
            entry_nodes=web.entry_nodes,
            register=web.register,
            interferes_with=interference.neighbors_frozen(web)
            if web.is_live
            else frozenset(),
            priority=web.priority,
            discarded_reason=web.discarded_reason,
        )
        for web in webs
    ]


def _run_blanket_promotion(
    graph, summaries, eligible, options, database, promoted, web_reserved,
) -> None:
    """The [Wall 86]-style comparison: one register per hot global over
    the whole program, loaded at the start nodes."""
    sets = compute_reference_sets(graph, eligible)
    webs = identify_webs(
        graph, sets, eligible, options.web_options,
        _static_modules(summaries),
    )
    database.statistics.total_webs = len(webs)
    price_webs(webs, graph)
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
    storing = sets.storing
    # In name order: one tuple of records for the start nodes (the
    # entries) and one for every other procedure, each shared.
    selections = sorted(selections, key=lambda s: s.variable)
    entry, inner = (
        tuple(
            PromotedGlobal(s.variable, s.register, is_entry,
                           s.variable in storing)
            for s in selections
        )
        for is_entry in (True, False)
    )
    reserved = 0
    for selection in selections:
        reserved |= 1 << selection.register
    index_of = PackedGraph.of(graph).index.index_of
    promoted[:] = [inner] * len(promoted)
    for name in graph.start_nodes():
        promoted[index_of[name]] = entry
    web_reserved[:] = [reserved] * len(web_reserved)
    database.statistics.webs_colored = len(selections)
