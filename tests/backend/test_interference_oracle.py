"""Mask-based interference construction against the set-based oracle.

Every ``_build_interference`` call of the paper allocator in a full
compile (configs A and C, every allocation round) also runs the oracle
in ``set_interference.py`` on the same machine function; every node
field must be identical.  The compiles share a cache, so each state of
an edit chain recompiles only what the edit touched.
"""

import pytest

from repro import AnalyzerOptions, CompilationScheduler
from repro.backend.allocators import paper
from tests.backend.set_interference import build_interference
from tests.oracle_corpus import programs

FIELDS = (
    "neighbors", "forbidden", "cost", "live_across_call", "is_spill_temp",
    "move_vregs", "move_physical",
)


def node_fields(nodes: dict) -> list:
    return [
        (vreg, tuple(getattr(info, name) for name in FIELDS))
        for vreg, info in nodes.items()
    ]


@pytest.mark.parametrize("sources, opt_level", programs())
def test_interference_matches_set_oracle(
    sources, opt_level, monkeypatch, tmp_path
):
    mask_build = paper._build_interference
    calls = []
    mismatches = []

    def checked_build(machine):
        nodes = mask_build(machine)
        calls.append(machine.name)
        if node_fields(nodes) != node_fields(build_interference(machine)):
            mismatches.append(machine.name)
        return nodes

    monkeypatch.setattr(paper, "_build_interference", checked_build)
    with CompilationScheduler(cache_dir=tmp_path) as scheduler:
        for program in sources():
            for config in ("A", "C"):
                scheduler.compile_program(
                    program, opt_level=opt_level,
                    analyzer_options=AnalyzerOptions.config(config),
                )
    assert calls
    assert not mismatches, mismatches
