"""The executable image through ``json.dumps``: the oracle for
:func:`repro.linker.link.serialize_executable`.

Every slot of every instruction is found by walking its class's MRO,
the payload is built as nested lists and dicts, and ``json.dumps``
renders it with sorted keys.  The direct writer in ``src/`` must give
byte-identical output.
"""

import json

from repro.linker.link import Executable


def _instruction_fields(instruction) -> dict:
    """Every slot of an instruction, including linker-resolved ones."""
    fields = {}
    for klass in type(instruction).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(instruction, slot):
                fields[slot] = getattr(instruction, slot)
    return fields


def serialize_executable(executable: Executable) -> bytes:
    """Canonical byte image of a linked executable."""
    instructions = [
        [type(instruction).__name__, sorted(
            (name, value if not isinstance(value, list) else list(value))
            for name, value in _instruction_fields(instruction).items()
        )]
        for instruction in executable.instructions
    ]
    payload = {
        "entry_pc": executable.entry_pc,
        "data_base": executable.data_base,
        "instructions": instructions,
        "data_words": list(executable.data_words),
        "function_entries": dict(executable.function_entries),
        "global_addresses": dict(executable.global_addresses),
        "function_ranges": [
            [rng.name, rng.start, rng.end, rng.source_module]
            for rng in executable.function_ranges
        ],
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")
