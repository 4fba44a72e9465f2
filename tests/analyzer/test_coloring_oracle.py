"""Differential oracle for web coloring (paper section 4.1.3).

``src/`` colors webs on one register mask per call-graph node; the
oracle in ``tests/analysis/set_kernels.py`` colors on the web
interference graph, the way the paper states it, with every priority
summed over all members.  Under configs C (priority) and D (greedy)
both must give every web the same register, priority and discard
reason, over the seven workloads, the fuzz generator's programs and
three 1000-procedure synthesized programs, and the databases must be
byte-identical.  The hand-built cases pin what the interference graph
is still built for: the census's ``interferes_with`` and the winners
in a traced run's ``web-uncolored`` events.
"""

import pytest

from repro import CompilationScheduler, run_phase1
from repro.analyzer import driver
from repro.analyzer.driver import AnalyzerOptions, analyze_program
from repro.analyzer.webs import WebOptions
from repro.obs.tracer import Tracer, activate
from repro.target.registers import CALLEE_SAVES
from repro.verify.progen import FuzzProgramGenerator, generate_fuzz_program
from repro.workloads import all_workloads
from tests.analysis import set_kernels
from tests.support import build_graph

CONFIGS = ("C", "D")
FUZZ_SEEDS = range(10)
LARGE_SEEDS = range(3)
COLORING_EVENTS = ("web-colored", "web-uncolored", "web-rejected")


def _colorings(monkeypatch, summaries, options, traced=False):
    """``(mask, graph)``: the database bytes, every web's coloring and,
    when ``traced``, the coloring events, first as shipped and then
    with the oracle's graph coloring patched in."""

    def run():
        tracer = Tracer()
        if traced:
            with activate(tracer):
                database = analyze_program(summaries, options)
        else:
            database = analyze_program(summaries, options)
        webs = [
            (web.web_id, web.register, web.priority, web.discarded_reason)
            for web in database.webs
        ]
        events = [
            (record["type"], record["data"])
            for record in tracer.records
            if record.get("type") in COLORING_EVENTS
        ]
        return database.to_json(), webs, events

    mask = run()
    with monkeypatch.context() as patch:
        patch.setattr(
            driver, "color_webs_priority", set_kernels.color_webs_priority
        )
        patch.setattr(
            driver, "color_webs_greedy", set_kernels.color_webs_greedy
        )
        graph = run()
    return mask, graph


def _assert_same_coloring(monkeypatch, summaries, label):
    for config in CONFIGS:
        mask, graph = _colorings(
            monkeypatch, summaries, AnalyzerOptions.config(config)
        )
        assert mask[0] == graph[0], f"{label} config {config}: database"
        assert mask[1] == graph[1], f"{label} config {config}: webs"


@pytest.fixture(scope="module")
def scheduler(tmp_path_factory):
    with CompilationScheduler(
        cache_dir=tmp_path_factory.mktemp("coloring-oracle-cache")
    ) as sched:
        yield sched


@pytest.mark.parametrize("name", sorted(all_workloads()))
def test_workload_colorings_identical(monkeypatch, scheduler, name):
    phase1 = run_phase1(all_workloads()[name].sources, scheduler=scheduler)
    _assert_same_coloring(
        monkeypatch, [result.summary for result in phase1], name
    )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_colorings_identical(monkeypatch, scheduler, seed):
    phase1 = run_phase1(generate_fuzz_program(seed), scheduler=scheduler)
    _assert_same_coloring(
        monkeypatch, [result.summary for result in phase1],
        f"fuzz seed {seed}",
    )


@pytest.mark.parametrize("seed", LARGE_SEEDS)
def test_large_program_colorings_identical(monkeypatch, seed):
    summaries = FuzzProgramGenerator(seed).synthesize_large(20, 1000)
    _assert_same_coloring(monkeypatch, summaries, f"1k seed {seed}")


def _analyze(procs, globals_, config="C"):
    _graph, summary = build_graph(procs, globals_)
    options = AnalyzerOptions.config(config)
    options.web_options = WebOptions(min_lref_ratio=0.0,
                                     min_single_node_refs=0.0)
    return [summary], options


def test_rejected_web_stays_in_its_neighbors_interference():
    # "entry" is called 1000 times: its web for the rarely read "cold"
    # costs more at entry than it saves and is rejected for its
    # priority, while the web for "hot" over the same node is colored.
    summaries, options = _analyze(
        {
            "main": {"calls": {"entry": 1000}},
            "entry": {"refs": {"cold": 1, "hot": 50}},
        },
        ("cold", "hot"),
    )
    database = analyze_program(summaries, options)
    census = {web.variable: web for web in database.webs}
    cold, hot = census["cold"], census["hot"]
    assert cold.discarded_reason == "non-positive-priority"
    assert hot.register is not None
    # Coloring considered both webs, so the colored one still lists the
    # rejected one; the rejected web itself lists nothing.
    assert hot.interferes_with == {cold.web_id}
    assert cold.interferes_with == frozenset()


def test_register_hungry_member_shrinks_greedy_pool(monkeypatch):
    # "hungry" needs every callee-saves register but one, so the web
    # of "shared" over it may use only the top register.  The hotter
    # web of "hot" over "hub" took that register first: under greedy
    # coloring the "shared" web loses, and the trace names the winner.
    top = max(CALLEE_SAVES)
    summaries, options = _analyze(
        {
            "main": {"calls": {"hub": 10}},
            "hub": {"calls": {"hungry": 10},
                    "refs": {"hot": 10_000, "shared": 50}},
            "hungry": {"refs": {"shared": 50},
                       "need": len(CALLEE_SAVES) - 1},
        },
        ("hot", "shared"),
        config="D",
    )
    mask, graph = _colorings(monkeypatch, summaries, options, traced=True)
    assert mask == graph
    database = analyze_program(summaries, options)
    census = {web.variable: web for web in database.webs}
    assert census["hot"].register == top
    assert census["shared"].register is None
    assert census["shared"].discarded_reason is None
    (uncolored,) = [data for kind, data in mask[2]
                    if kind == "web-uncolored"]
    assert uncolored["candidates"] == [top]
    assert uncolored["winners"] == [{
        "web_id": census["hot"].web_id, "variable": "hot",
        "register": top,
    }]


@pytest.mark.parametrize("config", CONFIGS)
def test_traced_coloring_events_match_graph_coloring(monkeypatch, config):
    """A traced 1k analysis narrates the same colored, uncolored and
    rejected webs, with the same winners, as graph coloring does."""
    summaries = FuzzProgramGenerator(0).synthesize_large(20, 1000)
    mask, graph = _colorings(
        monkeypatch, summaries, AnalyzerOptions.config(config), traced=True
    )
    kinds = {kind for kind, _data in mask[2]}
    assert {"web-colored", "web-uncolored"} <= kinds
    assert any(
        data["winners"] for kind, data in mask[2]
        if kind == "web-uncolored"
    )
    assert mask == graph
