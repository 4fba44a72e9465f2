"""Program analyzer driver tests (whole-tool behaviour)."""

import collections

import pytest

from repro.analyzer import coloring
from repro.analyzer.driver import analyze_program
from repro.analyzer.options import AnalyzerOptions
from repro.frontend.phase1 import compile_module_phase1
from repro.verify.progen import FuzzProgramGenerator
from tests.support import FIGURE3_GLOBALS, FIGURE3_PROCS, build_graph


def figure3_summaries():
    _, summary = build_graph(FIGURE3_PROCS, FIGURE3_GLOBALS)
    return [summary]


def test_directives_produced_for_every_procedure():
    database = analyze_program(figure3_summaries())
    for name in "ABCDEFGH":
        assert name in database


def test_webs_recorded_with_registers():
    database = analyze_program(
        figure3_summaries(),
        AnalyzerOptions(num_web_registers=2,
                        spill_code_motion=False),
    )
    colored = [w for w in database.webs if w.register is not None]
    assert len(colored) == 4
    assert database.statistics.webs_colored == 4
    assert database.statistics.total_webs == 4
    assert database.statistics.eligible_globals == 3


def test_promoted_directives_mark_entries():
    database = analyze_program(
        figure3_summaries(), AnalyzerOptions(spill_code_motion=False)
    )
    b = database.get("B")
    promoted_names = {p.name for p in b.promoted}
    assert "g1" in promoted_names  # B is in web {B,D,E}
    g1 = next(p for p in b.promoted if p.name == "g1")
    assert g1.is_entry  # the paper: B is the entry of web 3
    d = database.get("D")
    g1_at_d = next(p for p in d.promoted if p.name == "g1")
    assert not g1_at_d.is_entry


def test_promotion_reserves_registers_out_of_sets():
    database = analyze_program(figure3_summaries())
    for name in "ABCDEFGH":
        directives = database.get(name)
        directives.validate()
        for promoted in directives.promoted:
            assert promoted.register not in directives.free
            assert promoted.register not in directives.callee
            assert promoted.register not in directives.caller
            assert promoted.register not in directives.mspill


def test_needs_store_false_for_read_only_web():
    procs = {
        "main": {"calls": {"reader": 10}},
        "reader": {"refs": {"g": 50}},  # no stores
    }
    _, summary = build_graph(procs, ("g",))
    database = analyze_program([summary])
    reader = database.get("reader")
    if reader.promoted:
        assert not reader.promoted[0].needs_store


def test_blanket_mode_reserves_everywhere():
    database = analyze_program(
        figure3_summaries(),
        AnalyzerOptions(global_promotion="blanket", blanket_count=2),
    )
    # Every procedure carries the blanket reservations.
    registers = None
    for name in "ABCDEFGH":
        directives = database.get(name)
        regs = directives.reserved_web_registers
        if registers is None:
            registers = regs
        assert regs == registers
        for promoted in directives.promoted:
            # Only start nodes (A) are entries.
            assert promoted.is_entry == (name == "A")


def test_blanket_computes_each_web_priority_once(monkeypatch):
    """Config E prices every web once: selection reads the priorities
    the blanket pass already set.  Every way of pricing a web goes
    through ``_priority_parts``, so a web priced twice shows as a
    second call for it."""
    calls = collections.Counter()
    priority_parts = coloring._priority_parts

    def counting(web, refs_of, priced):
        calls[web.web_id] += 1
        return priority_parts(web, refs_of, priced)

    monkeypatch.setattr(coloring, "_priority_parts", counting)
    summaries = FuzzProgramGenerator(0).synthesize_large(4, 200)
    database = analyze_program(summaries, AnalyzerOptions.config("E"))
    assert database.statistics.total_webs > 0
    assert len(calls) == database.statistics.total_webs
    assert set(calls.values()) == {1}


def test_promotion_none_mode():
    database = analyze_program(
        figure3_summaries(), AnalyzerOptions(global_promotion="none")
    )
    for name in "ABCDEFGH":
        assert database.get(name).promoted == ()


def test_unknown_modes_rejected():
    with pytest.raises(ValueError):
        analyze_program(
            figure3_summaries(),
            AnalyzerOptions(global_promotion="bogus"),
        )
    with pytest.raises(ValueError):
        analyze_program(
            figure3_summaries(), AnalyzerOptions(coloring="bogus")
        )


def test_config_presets():
    assert AnalyzerOptions.config("A").global_promotion == "none"
    assert AnalyzerOptions.config("C").num_web_registers == 6
    assert AnalyzerOptions.config("D").coloring == "greedy"
    assert AnalyzerOptions.config("E").global_promotion == "blanket"
    with pytest.raises(ValueError):
        AnalyzerOptions.config("B")  # needs a profile
    with pytest.raises(ValueError):
        AnalyzerOptions.config("Z")


def test_analyzer_from_real_phase1_summaries():
    source = """
    int hot;
    int work(int n) {
      int i;
      for (i = 0; i < n; i++) hot += i;
      return hot;
    }
    int main() {
      int r = work(100);
      print(r);
      return 0;
    }
    """
    result = compile_module_phase1(source, "m", 2)
    database = analyze_program([result.summary])
    work = database.get("work")
    assert any(p.name == "hot" for p in work.promoted)
