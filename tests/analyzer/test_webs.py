"""Web identification tests (paper section 4.1, Figure 2)."""

import random

from hypothesis import given, settings, strategies as st

from repro.analyzer import driver
from repro.analyzer.coloring import compute_web_priority, web_priority_parts
from repro.analyzer.driver import AnalyzerOptions, analyze_program
from repro.analyzer.webs import (
    WebOptions,
    check_web_invariants,
    identify_webs,
)
from repro.callgraph.dataflow import compute_reference_sets
from repro.callgraph.graph import CallGraph
from repro.frontend.summary import GlobalSummary
from tests.analysis.set_kernels import use_set_kernels
from tests.support import build_graph, figure3_graph

LOOSE = WebOptions(min_lref_ratio=0.0, min_single_node_refs=0.0)


def webs_for(graph, eligible, options=LOOSE, static_modules=None):
    sets = compute_reference_sets(graph, eligible)
    webs = identify_webs(graph, sets, eligible, options, static_modules)
    return webs, sets


def test_figure3_webs_match_table2():
    graph, _ = figure3_graph()
    webs, sets = webs_for(graph, {"g1", "g2", "g3"})
    check_web_invariants(graph, sets, webs)
    shapes = {(w.variable, frozenset(w.nodes)) for w in webs}
    assert shapes == {
        ("g3", frozenset("ABC")),
        ("g2", frozenset("CFG")),
        ("g2", frozenset("E")),
        ("g1", frozenset("BDE")),
    }


def test_figure3_entry_nodes():
    graph, _ = figure3_graph()
    webs, _ = webs_for(graph, {"g1", "g2", "g3"})
    entries = {
        frozenset(w.nodes): w.entry_nodes for w in webs
    }
    assert entries[frozenset("BDE")] == {"B"}  # the paper's example
    assert entries[frozenset("ABC")] == {"A"}
    assert entries[frozenset("CFG")] == {"C"}


def test_disjoint_regions_one_variable_two_webs():
    graph, _ = build_graph(
        {
            "main": {"calls": {"left": 1, "right": 1}},
            "left": {"refs": {"g": 5}},
            "right": {"refs": {"g": 5}},
        },
        ("g",),
    )
    webs, sets = webs_for(graph, {"g"})
    check_web_invariants(graph, sets, webs)
    assert len(webs) == 2
    assert {frozenset(w.nodes) for w in webs} == {
        frozenset({"left"}), frozenset({"right"}),
    }


def test_overlapping_candidates_merged():
    # Both "top1" and "top2" are candidate entries whose expansions meet.
    graph, _ = build_graph(
        {
            "main": {"calls": {"top1": 1, "top2": 1}},
            "top1": {"calls": {"shared": 1}, "refs": {"g": 5}},
            "top2": {"calls": {"shared": 1}, "refs": {"g": 5}},
            "shared": {"refs": {"g": 5}},
        },
        ("g",),
    )
    webs, sets = webs_for(graph, {"g"})
    check_web_invariants(graph, sets, webs)
    assert len(webs) == 1
    assert webs[0].nodes == {"top1", "top2", "shared"}


def test_entry_node_closure_pulls_in_predecessors():
    # "inner" is reached both from inside the web and from "outside":
    # the outside predecessor must be absorbed (section 4.1.2
    # correctness conditions).
    graph, _ = build_graph(
        {
            "main": {"calls": {"top": 1, "outside": 1}},
            "top": {"calls": {"inner": 1}, "refs": {"g": 5}},
            "outside": {"calls": {"inner": 1}},
            "inner": {"refs": {"g": 5}},
        },
        ("g",),
    )
    webs, sets = webs_for(graph, {"g"})
    check_web_invariants(graph, sets, webs)
    (web,) = webs
    assert "outside" in web.nodes


def test_recursive_cycle_web():
    # Mutual recursion references g, but no candidate entry exists on the
    # entry path (main does not reference g).
    graph, _ = build_graph(
        {
            "main": {"calls": {"even": 1}, "refs": {"g": 1}},
            "even": {"calls": {"odd": 1}},
            "odd": {"calls": {"even": 1}, "refs": {"g": 5}},
        },
        ("g",),
    )
    webs, sets = webs_for(graph, {"g"})
    check_web_invariants(graph, sets, webs)
    covered = set()
    for web in webs:
        covered |= web.nodes
    assert "odd" in covered


def test_every_referencing_node_covered_by_some_web():
    graph, _ = figure3_graph()
    webs, sets = webs_for(graph, {"g1", "g2", "g3"})
    for variable in ("g1", "g2", "g3"):
        covered = set()
        for web in webs:
            if web.variable == variable:
                covered |= web.nodes
        for name in graph.nodes:
            if variable in sets.l_ref[name]:
                assert name in covered, (variable, name)


def test_sparse_web_discarded():
    graph, _ = build_graph(
        {
            "main": {"calls": {"a": 1}, "refs": {"g": 1}},
            "a": {"calls": {"b": 1}},
            "b": {"calls": {"c": 1}},
            "c": {"calls": {"d": 1}},
            "d": {"refs": {"g": 1}},
        },
        ("g",),
    )
    options = WebOptions(min_lref_ratio=0.5, min_single_node_refs=0.0)
    webs, _ = webs_for(graph, {"g"}, options)
    assert any(w.discarded_reason == "sparse" for w in webs)


def test_single_node_low_frequency_discarded():
    graph, _ = build_graph(
        {
            "main": {"calls": {"a": 1}},
            "a": {"refs": {"g": 1}},
        },
        ("g",),
    )
    options = WebOptions(min_lref_ratio=0.0, min_single_node_refs=1e9)
    webs, _ = webs_for(graph, {"g"}, options)
    assert webs[0].discarded_reason == "single-node-low-frequency"


def test_static_cross_module_entry_discarded():
    # The web's entry lands in a module that cannot name the static.
    from repro.callgraph.graph import CallGraph
    from repro.frontend.summary import (
        GlobalSummary,
        ModuleSummary,
        ProcedureSummary,
    )

    mod_a = ModuleSummary(module_name="a")
    mod_a.globals = [
        GlobalSummary(name="a.s", module="a", is_static=True)
    ]
    mod_a.procedures = [
        ProcedureSummary(name="user", module="a", global_refs={"a.s": 5}),
    ]
    mod_b = ModuleSummary(module_name="b")
    mod_b.procedures = [
        ProcedureSummary(name="main", module="b", calls={"entry": 1}),
        ProcedureSummary(
            name="entry", module="b", calls={"user": 1},
            global_refs={"a.s": 5},
        ),
    ]
    graph = CallGraph.build([mod_a, mod_b])
    graph.normalize_weights()
    sets = compute_reference_sets(graph, {"a.s"})
    webs = identify_webs(
        graph, sets, {"a.s"}, LOOSE, static_modules={"a.s": "a"}
    )
    assert any(
        w.discarded_reason == "static-cross-module-entry" for w in webs
    )


def test_static_same_module_entry_kept():
    graph, _ = build_graph(
        {
            "main": {"calls": {"user": 1}},
            "user": {"refs": {"m.s": 5}},
        },
    )
    sets = compute_reference_sets(graph, {"m.s"})
    webs = identify_webs(
        graph, sets, {"m.s"}, LOOSE, static_modules={"m.s": "m"}
    )
    assert webs[0].discarded_reason is None


def webs_checked_against_oracle(monkeypatch, graph, eligible,
                                options=LOOSE, static_modules=None):
    """The webs of ``eligible``, after checking the section 4.1.2
    invariants and that the set oracle builds and screens the same webs
    under the same ids."""
    webs, sets = webs_for(graph, eligible, options, static_modules)
    check_web_invariants(graph, sets, webs)
    with monkeypatch.context() as patch:
        use_set_kernels(patch)
        oracle, _ = webs_for(graph, eligible, options, static_modules)

    def shapes(group):
        return [
            (w.web_id, w.variable, w.nodes, w.entry_nodes,
             w.discarded_reason)
            for w in group
        ]

    assert shapes(webs) == shapes(oracle)
    return webs


def test_single_node_web_is_its_own_entry(monkeypatch):
    # "leaf" calls only a procedure with no reference below it: the
    # web is the node alone, and it shares one set for both roles.
    graph, _ = build_graph(
        {
            "main": {"calls": {"leaf": 3}},
            "leaf": {"calls": {"quiet": 1}, "refs": {"g": 5}},
            "quiet": {},
        },
        ("g",),
    )
    (web,) = webs_checked_against_oracle(monkeypatch, graph, {"g"})
    assert web.nodes == web.entry_nodes == {"leaf"}
    assert web.members is web.entries


def test_self_recursive_node_grows_a_web_without_entry(monkeypatch):
    # "spin" calls only itself, so it is its own predecessor: the
    # variable is in its P_REF, it is seeded as a recursive cycle, and
    # the one-node web it grows has no entry node at all.
    graph, _ = build_graph(
        {
            "main": {},
            "spin": {"calls": {"spin": 4}, "refs": {"g": 5}},
        },
        ("g",),
    )
    (web,) = webs_checked_against_oracle(monkeypatch, graph, {"g"})
    assert web.nodes == {"spin"}
    assert web.entry_nodes == frozenset()
    benefit, entry_cost = web_priority_parts(web, graph)
    assert benefit > 0
    assert entry_cost == 0.0


def test_referencing_node_grows_through_a_c_ref_successor(monkeypatch):
    # "top"'s only successor does not reference g but reaches a node
    # that does: g is in its C_REF, so the web grows through it.
    graph, _ = build_graph(
        {
            "main": {"calls": {"top": 1}},
            "top": {"calls": {"middle": 2}, "refs": {"g": 5}},
            "middle": {"calls": {"bottom": 2}},
            "bottom": {"refs": {"g": 5}},
        },
        ("g",),
    )
    (web,) = webs_checked_against_oracle(monkeypatch, graph, {"g"})
    assert web.nodes == {"top", "middle", "bottom"}
    assert web.entry_nodes == {"top"}


def test_single_node_web_absorbed_by_a_later_merge(monkeypatch):
    # "a_single" is the first candidate and has no referencing
    # successor, so it becomes a one-node web (id 1).  The web grown
    # from "b_cand" reaches "d_shared", whose other caller "c_pull" is
    # pulled in by the correctness closure and calls "a_single": the
    # two webs overlap and merge under a third id.
    graph, _ = build_graph(
        {
            "main": {"calls": {"b_cand": 1, "c_pull": 1}},
            "a_single": {"refs": {"g": 5}},
            "b_cand": {"calls": {"d_shared": 1}, "refs": {"g": 5}},
            "c_pull": {"calls": {"a_single": 1, "d_shared": 1}},
            "d_shared": {"refs": {"g": 5}},
        },
        ("g",),
    )
    (web,) = webs_checked_against_oracle(monkeypatch, graph, {"g"})
    assert web.web_id == 3
    assert web.nodes == {"a_single", "b_cand", "c_pull", "d_shared"}
    assert web.entry_nodes == {"b_cand", "c_pull"}


def test_isolated_references_get_consecutive_one_node_webs(monkeypatch):
    # No procedure that references "g" has a referencing caller or
    # callee (nor any other referencing ancestor or descendant), so the
    # candidate loop makes one one-node web per referencing procedure,
    # with consecutive ids in node (name) order, each its own entry.
    # "a" is referenced once and comes first; "h" is referenced by a
    # caller and its callee, so it grows.
    graph, _ = build_graph(
        {
            "main": {"calls": {"x_left": 2, "b_mid": 1, "y_right": 3},
                     "refs": {"a": 5, "h": 5}},
            "b_mid": {"calls": {"quiet": 1}, "refs": {"g": 5, "h": 5}},
            "quiet": {},
            "x_left": {"refs": {"g": 4}},
            "y_right": {"calls": {"quiet": 1}, "refs": {"g": 3}},
        },
        ("a", "g", "h"),
    )
    webs = webs_checked_against_oracle(
        monkeypatch, graph, {"a", "g", "h"}
    )
    assert [(w.web_id, w.variable, w.nodes) for w in webs] == [
        (1, "a", {"main"}),
        (2, "g", {"b_mid"}),
        (3, "g", {"x_left"}),
        (4, "g", {"y_right"}),
        (5, "h", {"main", "b_mid"}),
    ]
    for web in webs[:4]:
        assert web.members is web.entries
        assert compute_web_priority(web, graph) > 0


def test_one_node_web_absorbed_by_a_recursive_cycle_web(monkeypatch):
    # "leaf_b" is a candidate with nothing to grow into, so the
    # candidate loop makes it a one-node web (id 1).  "leaf_a" and the
    # self-recursive "rec" have g in P_REF, so they are seeded as
    # recursive cycles: "leaf_a" alone (id 2), then "rec" (id 3), whose
    # correctness closure pulls in its caller "top", which grows down
    # through "side" and "mid" to "leaf_b".  The grown web overlaps
    # both one-node webs and absorbs them under id 4.
    graph, _ = build_graph(
        {
            "main": {"calls": {"top": 1}},
            "top": {"calls": {"rec": 1, "side": 1}},
            "rec": {"calls": {"rec": 2, "low": 1}, "refs": {"g": 5}},
            "low": {"calls": {"leaf_a": 1}},
            "leaf_a": {"refs": {"g": 5}},
            "side": {"calls": {"mid": 1}},
            "mid": {"calls": {"leaf_b": 1}},
            "leaf_b": {"refs": {"g": 5}},
        },
        ("g",),
    )
    (web,) = webs_checked_against_oracle(monkeypatch, graph, {"g"})
    assert web.web_id == 4
    assert web.nodes == {
        "top", "rec", "low", "leaf_a", "side", "mid", "leaf_b",
    }
    assert web.entry_nodes == {"top"}


def _screening_program():
    """Two modules.  "rare" (only there) and "mixed" (also in a grown
    web over "hub" and "spoke") are read once at "m_rare", too seldom
    for a one-node web; the static "m.s" of module m is referenced
    only from module n, so its one-node web's entry cannot name it."""
    _, module_m = build_graph(
        {
            "main": {"calls": {"n_user": 1, "m_rare": 1, "hub": 1}},
            "m_rare": {"refs": {"rare": 1, "mixed": 1}},
            "hub": {"calls": {"spoke": 1}, "refs": {"mixed": 9}},
            "spoke": {"refs": {"mixed": 9}},
        },
        ("rare", "mixed"),
        module="m",
    )
    module_m.globals.append(
        GlobalSummary(name="m.s", module="m", is_static=True)
    )
    _, module_n = build_graph(
        {"n_user": {"refs": {"m.s": 5}}}, module="n"
    )
    summaries = [module_m, module_n]
    graph = CallGraph.build(summaries)
    graph.normalize_weights()
    return summaries, graph


SCREENED = {
    "rare": "single-node-low-frequency",
    "mixed": "single-node-low-frequency",
    "m.s": "static-cross-module-entry",
}


def test_one_node_webs_screened(monkeypatch):
    summaries, graph = _screening_program()
    eligible = {"rare", "mixed", "m.s"}
    webs = webs_checked_against_oracle(
        monkeypatch, graph, eligible, WebOptions(), {"m.s": "m"}
    )
    screened = {
        w.variable: w.discarded_reason for w in webs if not w.is_live
    }
    assert screened == SCREENED
    assert all(w.priority == 0.0 for w in webs if not w.is_live)
    assert [w.nodes for w in webs if w.is_live] == [{"hub", "spoke"}]

    # Coloring prices only the live webs, so the census keeps 0.0 for
    # the screened ones; blanket promotion prices every web.
    for config in ("C", "D"):
        database = analyze_program(summaries, AnalyzerOptions.config(config))
        census = {
            web.variable: web for web in database.webs
            if web.discarded_reason in SCREENED.values()
        }
        assert {v: w.discarded_reason for v, w in census.items()} \
            == SCREENED
        assert all(w.priority == 0.0 for w in census.values())
    identified = []
    identify = driver.identify_webs

    def capturing(graph, *args):
        identified.append((graph, identify(graph, *args)))
        return identified[-1][1]

    monkeypatch.setattr(driver, "identify_webs", capturing)
    analyze_program(summaries, AnalyzerOptions.config("E"))
    ((graph, webs),) = identified
    for web in webs:
        assert web.priority == compute_web_priority(web, graph)
        if not web.is_live:
            assert web.priority != 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_web_invariants_on_random_graphs(seed):
    """Property: the section 4.1.2 invariants hold on arbitrary DAG-ish
    call graphs with random global reference patterns."""
    rng = random.Random(seed)
    size = rng.randint(3, 14)
    names = [f"p{i}" for i in range(size)]
    globals_ = [f"g{i}" for i in range(rng.randint(1, 4))]
    procs = {}
    for i, name in enumerate(names):
        calls = {}
        for _ in range(rng.randint(0, 3)):
            target = rng.choice(names)
            if rng.random() < 0.85:
                # Mostly forward edges; occasionally cycles.
                later = names[i + 1:]
                if later:
                    target = rng.choice(later)
            if target != name:
                calls[target] = rng.randint(1, 10)
        refs = {
            g: rng.randint(1, 20)
            for g in globals_
            if rng.random() < 0.4
        }
        procs[name] = {"calls": calls, "refs": refs}
    graph, _ = build_graph(procs, tuple(globals_))
    eligible = set(globals_)
    sets = compute_reference_sets(graph, eligible)
    webs = identify_webs(graph, sets, eligible, LOOSE)
    live = [w for w in webs if w.is_live]
    check_web_invariants(graph, sets, live)
