"""The directly written executable image against ``json.dumps``.

``serialize_executable`` must give the same bytes as the oracle in
``json_image.py`` on every executable of the oracle corpus, built with
no analyzer and under configs A, C and E, and on a hand-built
executable with the slot values compiled code rarely or never holds.
"""

import pytest

from repro import AnalyzerOptions, CompilationScheduler
from repro.linker.link import (
    Executable,
    FunctionRange,
    executable_fingerprint,
    serialize_executable,
)
from repro.target import isa
from tests.linker import json_image
from tests.oracle_corpus import programs

CONFIGS = (None, "A", "C", "E")


@pytest.mark.parametrize("sources, opt_level", programs())
def test_image_matches_json_oracle(sources, opt_level, tmp_path):
    images = 0
    mismatches = []
    with CompilationScheduler(cache_dir=tmp_path) as scheduler:
        for number, program in enumerate(sources()):
            for config in CONFIGS:
                result = scheduler.compile_program(
                    program, opt_level=opt_level,
                    analyzer_options=(
                        AnalyzerOptions.config(config) if config else None
                    ),
                )
                images += 1
                executable = result.executable
                if serialize_executable(executable) != (
                    json_image.serialize_executable(executable)
                ):
                    mismatches.append((number, config))
    assert images
    assert not mismatches, mismatches


def hand_built() -> Executable:
    """Unlinked and linked calls and address loads, list slots, both
    ``singleton`` values, negative immediates and offsets, an unset
    slot, non-ASCII and escaped names, and empty tables."""
    unlinked_call = isa.BL("fé", [4, 5], [1, 2, 3, 31])
    linked_call = isa.BL("g", [], [])
    linked_call.resolved = 7
    unlinked_load = isa.LDA(6, "tab", False)
    linked_load = isa.LDA(7, "h\"q\\", True)
    linked_load.resolved = 12
    unset = isa.LDA(8, "tab")
    del unset.resolved
    instructions = [
        unlinked_call,
        linked_call,
        unlinked_load,
        linked_load,
        unset,
        isa.LDI(9, -2147483648),
        isa.ALUI("+", 9, 9, -1),
        isa.LDW(10, 30, -3, True, False),
        isa.STW(10, 30, 4, False, True),
        isa.BLR(11, [4], [1, 2]),
        isa.BC("<", 9, 10, 0),
        isa.B(-1),
        isa.SYS("print", 9),
        isa.MOV(3, 10),
        isa.CMP("==", 3, 9, 10),
        isa.ALU("-", 3, 9, 10),
        isa.RET([1]),
        isa.RET(),
        isa.HALT(),
    ]
    return Executable(
        instructions=instructions,
        data_words=[0, -1, 2147483647],
        entry_pc=0,
        function_entries={"fé": 0, "g": 7, "a": 2},
        global_addresses={"tab": 1024, "h\"q\\": 1026},
        function_ranges=[FunctionRange("fé", 0, 7, "möd")],
    )


def test_image_matches_json_oracle_on_hand_built():
    executable = hand_built()
    image = serialize_executable(executable)
    assert image == json_image.serialize_executable(executable)
    assert b'["resolved", null]' in image
    assert b'["singleton", true]' in image
    assert b'["clobbers", [1, 2, 3, 31]]' in image


def test_image_of_empty_executable_matches_json_oracle():
    executable = Executable()
    assert serialize_executable(executable) == (
        json_image.serialize_executable(executable)
    )
    assert executable_fingerprint(executable) == executable_fingerprint(
        Executable()
    )
