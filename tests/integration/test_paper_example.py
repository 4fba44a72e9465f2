"""The paper's worked example (Figure 3, Tables 1 and 2), end to end.

This is the closest thing the paper gives to a unit test of the whole
analyzer: the L_REF/C_REF/P_REF sets of Table 1, the four webs of Table
2, and the 2-register coloring in which different webs of the same
variable may receive different registers.
"""

from repro.analyzer.coloring import color_webs_priority
from repro.analyzer.driver import analyze_program
from repro.analyzer.options import AnalyzerOptions
from repro.analyzer.webs import (
    WebOptions,
    check_web_invariants,
    identify_webs,
)
from repro.callgraph.dataflow import compute_reference_sets
from tests.support import figure3_graph

LOOSE = WebOptions(min_lref_ratio=0.0, min_single_node_refs=0.0)


def test_full_figure3_pipeline():
    graph, summary = figure3_graph()
    eligible = {"g1", "g2", "g3"}

    # Table 1.
    sets = compute_reference_sets(graph, eligible)
    assert sets.c_ref["A"] == frozenset({"g1", "g2", "g3"})
    assert sets.p_ref["H"] == frozenset({"g2", "g3"})

    # Table 2: webs.
    webs = identify_webs(graph, sets, eligible, LOOSE)
    check_web_invariants(graph, sets, webs)
    assert len(webs) == 4

    # Table 2: two registers color all four webs, with one register
    # shared between web 1 (g3: ABC) and web 4 (g2: E), the other
    # between web 2 (g2: CFG) and web 3 (g1: BDE).
    color_webs_priority(webs, graph, num_registers=2)
    by_shape = {frozenset(w.nodes): w for w in webs}
    assert by_shape[frozenset("ABC")].register == by_shape[
        frozenset("E")
    ].register
    assert by_shape[frozenset("CFG")].register == by_shape[
        frozenset("BDE")
    ].register
    regs = {w.register for w in webs}
    assert len(regs) == 2

    # Same-variable webs may land on different registers (the paper
    # points at Web 4 vs Web 2 for g2).
    assert by_shape[frozenset("CFG")].register != by_shape[
        frozenset("E")
    ].register


def test_figure3_through_analyzer_driver():
    _, summary = figure3_graph()
    database = analyze_program(
        [summary],
        AnalyzerOptions(
            num_web_registers=2,
            spill_code_motion=False,
            web_options=LOOSE,
        ),
    )
    assert database.statistics.webs_colored == 4
    # B is a web entry for g1 (the paper's running example).
    b = database.get("B")
    g1 = next(p for p in b.promoted if p.name == "g1")
    assert g1.is_entry
