"""Table 2: webs and their coloring for the Figure 3 example.

Prints the web table (variable, nodes, interfering webs, register) and
benchmarks web identification + interference + coloring, on the example
and at scale.
"""

from repro.analyzer.coloring import color_webs_priority
from repro.analyzer.interference import WebInterferenceGraph
from repro.analyzer.webs import WebOptions, identify_webs
from repro.callgraph.dataflow import compute_reference_sets, eligible_globals
from repro.callgraph.graph import CallGraph

from conftest import figure3_graph, print_table, record_note

LOOSE = WebOptions(min_lref_ratio=0.0, min_single_node_refs=0.0)


def _build_webs(graph, eligible):
    sets = compute_reference_sets(graph, eligible)
    webs = identify_webs(graph, sets, eligible, LOOSE)
    color_webs_priority(webs, graph, num_registers=2)
    return webs, WebInterferenceGraph(webs)


def test_table2_webs(benchmark):
    graph, _ = figure3_graph()
    eligible = {"g1", "g2", "g3"}

    webs, interference = benchmark(_build_webs, graph, eligible)

    register_names = {}
    next_name = [1]

    def reg_name(register):
        if register not in register_names:
            register_names[register] = f"r{next_name[0]}"
            next_name[0] += 1
        return register_names[register]

    rows = []
    ordered = sorted(webs, key=lambda w: (w.variable, sorted(w.nodes)))
    for web in ordered:
        interfering = sorted(
            other.web_id for other in webs
            if other is not web and interference.interferes(web, other)
        )
        rows.append(
            (
                web.web_id,
                web.variable,
                " ".join(sorted(web.nodes)),
                " ".join(map(str, interfering)) or "-",
                reg_name(web.register) if web.register else "uncolored",
            )
        )
    print_table(
        "Table 2: webs for the Figure 3 example (2 registers)",
        ["Web", "Variable", "Nodes", "Interferes", "Register"],
        rows,
    )
    assert len(webs) == 4
    assert all(w.register is not None for w in webs)
    assert len({w.register for w in webs}) == 2


def test_web_identification_at_scale(benchmark, paper_results):
    """Web construction over the paopt program (PA Opt stand-in)."""
    summaries = [r.summary for r in paper_results["paopt"].phase1]
    graph = CallGraph.build(summaries)
    graph.normalize_weights()
    eligible = eligible_globals(summaries)

    def build():
        sets = compute_reference_sets(graph, eligible)
        return identify_webs(graph, sets, eligible)

    webs = benchmark(build)
    live = sum(1 for w in webs if w.is_live)
    record_note(
        f"paopt: {len(eligible)} eligible globals -> {len(webs)} webs, "
        f"{live} considered for coloring"
    )
    assert len(webs) >= live > 0
