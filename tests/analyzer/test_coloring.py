"""Web interference and coloring tests (paper section 4.1.3, Table 2)."""

from repro.analyzer.coloring import (
    color_webs_greedy,
    color_webs_priority,
    compute_web_priority,
    select_blanket_globals,
    web_register_pool,
)
from repro.analyzer.interference import WebInterferenceGraph
from repro.analyzer.webs import identify_webs, WebOptions
from repro.callgraph.dataflow import compute_reference_sets
from repro.target.registers import CALLEE_SAVES
from tests.support import build_graph, figure3_graph

LOOSE = WebOptions(min_lref_ratio=0.0, min_single_node_refs=0.0)


def figure3_webs():
    graph, _ = figure3_graph()
    eligible = {"g1", "g2", "g3"}
    sets = compute_reference_sets(graph, eligible)
    webs = identify_webs(graph, sets, eligible, LOOSE)
    return graph, webs


def by_nodes(webs):
    return {frozenset(w.nodes): w for w in webs}


def test_interference_from_shared_nodes():
    graph, webs = figure3_webs()
    ig = WebInterferenceGraph(webs)
    shapes = by_nodes(webs)
    w_abc = shapes[frozenset("ABC")]
    w_cfg = shapes[frozenset("CFG")]
    w_bde = shapes[frozenset("BDE")]
    w_e = shapes[frozenset("E")]
    assert ig.interferes(w_abc, w_cfg)  # share C
    assert ig.interferes(w_abc, w_bde)  # share B
    assert ig.interferes(w_bde, w_e)  # share E
    assert not ig.interferes(w_cfg, w_bde)
    assert not ig.interferes(w_abc, w_e)
    assert ig.degree(w_abc) == 2


def test_table2_coloring_two_registers_suffice():
    graph, webs = figure3_webs()
    color_webs_priority(webs, graph, num_registers=2)
    shapes = by_nodes(webs)
    w_abc = shapes[frozenset("ABC")]
    w_cfg = shapes[frozenset("CFG")]
    w_bde = shapes[frozenset("BDE")]
    w_e = shapes[frozenset("E")]
    assert all(w.register is not None for w in webs)
    # Up to register renaming, the paper's Table 2 assignment.
    assert w_abc.register == w_e.register
    assert w_cfg.register == w_bde.register
    assert w_abc.register != w_cfg.register


def test_one_register_colors_highest_priority_webs_only():
    graph, webs = figure3_webs()
    ig = WebInterferenceGraph(webs)
    color_webs_priority(webs, graph, num_registers=1)
    colored = [w for w in webs if w.register is not None]
    uncolored = [w for w in webs if w.register is None]
    assert colored and uncolored
    # Colored webs never interfere with each other.
    for i, a in enumerate(colored):
        for b in colored[i + 1:]:
            assert not ig.interferes(a, b)


def test_priority_orders_by_dynamic_benefit():
    graph, _ = build_graph(
        {
            "main": {"calls": {"hot": 100, "cold": 1}},
            "hot": {"refs": {"h": 50}},
            "cold": {"refs": {"c": 1}},
        },
        ("h", "c"),
    )
    sets = compute_reference_sets(graph, {"h", "c"})
    webs = identify_webs(graph, sets, {"h", "c"}, LOOSE)
    hot = next(w for w in webs if w.variable == "h")
    cold = next(w for w in webs if w.variable == "c")
    assert compute_web_priority(hot, graph) > compute_web_priority(
        cold, graph
    )


def test_non_positive_priority_webs_not_promoted():
    # A web whose entry is called far more often than it references the
    # global loses money on the entry load/store.
    graph, _ = build_graph(
        {
            "main": {"calls": {"entry": 1000}},
            "entry": {"refs": {"g": 1}},
        },
        ("g",),
    )
    sets = compute_reference_sets(graph, {"g"})
    webs = identify_webs(graph, sets, {"g"}, LOOSE)
    color_webs_priority(webs, graph, 6)
    assert webs[0].register is None


def test_greedy_respects_member_register_need():
    graph, _ = build_graph(
        {
            "main": {"calls": {"hungry": 10}},
            # The member needs every callee-saves register for itself.
            "hungry": {"refs": {"g": 50}, "need": len(CALLEE_SAVES)},
        },
        ("g",),
    )
    sets = compute_reference_sets(graph, {"g"})
    webs = identify_webs(graph, sets, {"g"}, LOOSE)
    color_webs_greedy(webs, graph)
    assert webs[0].register is None


def test_greedy_can_color_more_webs_than_fixed_pool():
    # 8 non-interfering hot webs; a 6-register pool colors only 6...
    procs = {"main": {"calls": {}}}
    globals_ = []
    for i in range(8):
        procs["main"]["calls"][f"leaf{i}"] = 10
        procs[f"leaf{i}"] = {"refs": {f"g{i}": 50}}
        globals_.append(f"g{i}")
    graph, _ = build_graph(procs, tuple(globals_))
    eligible = set(globals_)
    sets = compute_reference_sets(graph, eligible)

    webs_fixed = identify_webs(graph, sets, eligible, LOOSE)
    color_webs_priority(webs_fixed, graph, num_registers=6)
    # ...webs do not interfere (different nodes), so all 8 get a color
    # even from the fixed pool; shrink the pool to force the contrast.
    color_map = [w for w in webs_fixed if w.register is not None]
    assert len(color_map) == 8

    webs_greedy = identify_webs(graph, sets, eligible, LOOSE)
    color_webs_greedy(webs_greedy, graph)
    assert sum(1 for w in webs_greedy if w.register is not None) == 8


def test_interfering_webs_get_distinct_registers_greedy():
    graph, webs = figure3_webs()
    ig = WebInterferenceGraph(webs)
    color_webs_greedy(webs, graph)
    for i, a in enumerate(webs):
        for b in webs[i + 1:]:
            if a.register is None or b.register is None:
                continue
            if ig.interferes(a, b):
                assert a.register != b.register


def test_blanket_selects_hottest_globals():
    graph, _ = build_graph(
        {
            "main": {"calls": {"a": 1, "b": 1}},
            "a": {"refs": {"hot1": 100, "hot2": 90}},
            "b": {"refs": {"cold": 1, "hot3": 80}},
        },
        ("hot1", "hot2", "hot3", "cold"),
    )
    eligible = {"hot1", "hot2", "hot3", "cold"}
    sets = compute_reference_sets(graph, eligible)
    webs = identify_webs(graph, sets, eligible, LOOSE)
    for web in webs:
        web.priority = compute_web_priority(web, graph)
    picks = select_blanket_globals(webs, count=3)
    assert [p.variable for p in picks] == ["hot1", "hot2", "hot3"]
    registers = {p.register for p in picks}
    assert len(registers) == 3
    assert registers <= set(CALLEE_SAVES)


def test_web_register_pool_from_top_of_callee_saves():
    pool = web_register_pool(3)
    assert pool == sorted(CALLEE_SAVES, reverse=True)[:3]
