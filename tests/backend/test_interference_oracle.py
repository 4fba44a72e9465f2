"""Mask-based interference construction and colouring against the
set-based oracles.

Every ``_build_interference`` call of the paper allocator in a full
compile (configs A and C, every allocation round) also runs the oracle
in ``set_interference.py`` on the same machine function; every node
field must be identical, with each ``src/`` node's interference mask
decoded into its neighbour vregs and forbidden physical registers.
The ``_color`` call that follows must give the same assignment and
spills as the oracle's colouring of the oracle's nodes.  The compiles
share a cache, so each state of an edit chain recompiles only what the
edit touched.
"""

import pytest

from repro import AnalyzerOptions, CompilationScheduler
from repro.backend.allocators import paper
from repro.target import isa
from tests.backend.set_interference import SetNode, build_interference, color
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


def decoded(nodes: dict, values: list) -> dict:
    """The mask-based nodes with their masks decoded into sets."""
    sets = {}
    for vreg, info in nodes.items():
        node = sets[vreg] = SetNode(vreg)
        interferes = {
            values[position]
            for position in range(info.interferes.bit_length())
            if info.interferes >> position & 1
        }
        node.neighbors = {
            value for value in interferes if isinstance(value, isa.VReg)
        }
        node.forbidden = interferes - node.neighbors
        for name in FIELDS[2:]:
            setattr(node, name, getattr(info, name))
    return sets


@pytest.mark.parametrize("sources, opt_level", programs())
def test_interference_matches_set_oracle(
    sources, opt_level, monkeypatch, tmp_path
):
    mask_build, mask_color = paper._build_interference, paper._color
    calls = []
    mismatches = []
    oracle_nodes = {}  # machine name -> the oracle's nodes this round

    def checked_build(machine):
        nodes, values = mask_build(machine)
        calls.append(machine.name)
        expected = oracle_nodes[machine.name] = build_interference(machine)
        if node_fields(decoded(nodes, values)) != node_fields(expected):
            mismatches.append(machine.name)
        return nodes, values

    def checked_color(machine, nodes, values):
        colored = mask_color(machine, nodes, values)
        if colored != color(machine, oracle_nodes.pop(machine.name)):
            mismatches.append(("color", machine.name))
        return colored

    monkeypatch.setattr(paper, "_build_interference", checked_build)
    monkeypatch.setattr(paper, "_color", checked_color)
    with CompilationScheduler(cache_dir=tmp_path) as scheduler:
        for program in sources():
            for config in ("A", "C"):
                scheduler.compile_program(
                    program, opt_level=opt_level,
                    analyzer_options=AnalyzerOptions.config(config),
                )
    assert calls
    assert not mismatches, mismatches
