"""Linker tests: symbol resolution, layout, relocation."""

import pytest

from repro.analyzer.database import ProgramDatabase
from repro.backend.phase2 import compile_module_phase2
from repro.frontend.phase1 import compile_module_phase1
from repro.linker.link import (
    DATA_BASE,
    LinkError,
    executable_fingerprint,
    link,
)
from repro.target import isa
from tests.linker.json_image import _instruction_fields


def compile_objects(modules, opt_level=2):
    database = ProgramDatabase()
    objects = []
    for name, source in modules.items():
        result = compile_module_phase1(source, name, opt_level)
        objects.append(
            compile_module_phase2(result.ir_module, database, opt_level)
        )
    return objects


def test_single_module_links():
    (obj,) = compile_objects({"m": "int main() { return 0; }"})
    exe = link([obj])
    assert "main" in exe.function_entries
    assert exe.entry_pc == 0
    assert isinstance(exe.instructions[0], isa.BL)
    assert exe.instructions[0].callee == "main"
    assert isinstance(exe.instructions[1], isa.HALT)


def test_cross_module_symbols_resolve():
    objects = compile_objects({
        "a": "int helper(int x) { return x * 2; }\nint g = 5;",
        "b": (
            "extern int helper(int);\nextern int g;\n"
            "int main() { return helper(g); }"
        ),
    })
    exe = link(objects)
    assert "helper" in exe.function_entries
    assert "g" in exe.global_addresses
    assert exe.global_addresses["g"] >= DATA_BASE


def test_duplicate_global_rejected():
    objects = compile_objects({
        "a": "int g; int main() { return g; }",
        "b": "int g;",
    })
    with pytest.raises(LinkError, match="duplicate"):
        link(objects)


def test_duplicate_function_rejected():
    objects = compile_objects({
        "a": "int f() { return 1; } int main() { return f(); }",
        "b": "int f() { return 2; }",
    })
    with pytest.raises(LinkError, match="duplicate"):
        link(objects)


def test_identically_named_statics_coexist():
    objects = compile_objects({
        "a": "static int s = 1; int get_a() { return s; }",
        "b": (
            "static int s = 2;\nextern int get_a();\n"
            "int main() { return get_a() + s; }"
        ),
    })
    exe = link(objects)
    assert "a.s" in exe.global_addresses
    assert "b.s" in exe.global_addresses


def test_undefined_global_rejected():
    objects = compile_objects({
        "a": "extern int missing; int main() { return missing; }",
    })
    with pytest.raises(LinkError, match="undefined global"):
        link(objects)


def test_undefined_function_rejected():
    objects = compile_objects({
        "a": "extern int missing(int); int main() { return missing(1); }",
    })
    with pytest.raises(LinkError, match="undefined function"):
        link(objects)


def test_missing_entry_point_rejected():
    objects = compile_objects({"a": "int f() { return 0; }"})
    with pytest.raises(LinkError, match="entry"):
        link(objects)


def test_data_layout_sequential_with_initializers():
    objects = compile_objects({
        "m": (
            "int a = 7;\nint arr[3] = {1, 2};\nint z;\n"
            "int main() { return a + arr[0] + z; }"
        ),
    })
    exe = link(objects)
    address_a = exe.global_addresses["a"]
    address_arr = exe.global_addresses["arr"]
    words = exe.data_words
    assert words[address_a - DATA_BASE] == 7
    assert words[address_arr - DATA_BASE: address_arr - DATA_BASE + 3] == [
        1, 2, 0,
    ]
    total = sum(v.size_words for v in exe.globals_by_name.values())
    assert len(words) == total


def test_branches_rebased_into_function_ranges():
    objects = compile_objects({
        "m": (
            "int main() { int i; int s = 0;"
            " for (i = 0; i < 3; i++) s += i; return s; }"
        ),
    })
    exe = link(objects)
    start = exe.function_entries["main"]
    for instruction in exe.instructions[start:]:
        if isinstance(instruction, (isa.B, isa.BC)):
            assert start <= instruction.target < len(exe.instructions)


def test_lda_resolution_function_vs_data():
    objects = compile_objects({
        "m": (
            "int g;\nint target(int x) { return x; }\n"
            "int main() { int *p = &target; int *q = &g;"
            " *q = 3; return p(g); }"
        ),
    })
    exe = link(objects)
    ldas = [
        i for i in exe.instructions if isinstance(i, isa.LDA)
    ]
    for lda in ldas:
        if lda.is_function:
            assert lda.resolved == exe.function_entries[lda.symbol]
        else:
            assert lda.resolved == exe.global_addresses[lda.symbol]


def test_function_at_maps_pc_to_name():
    objects = compile_objects({
        "m": (
            "int f() { return 1; }\n"
            "int main() { return f(); }"
        ),
    })
    exe = link(objects)
    for name, start in exe.function_entries.items():
        assert exe.function_at(start) == name
    assert exe.function_at(0) == "<stub>"


def test_linking_is_repeatable():
    objects = compile_objects({"m": "int main() { return 3; }"})
    exe1 = link(objects)
    exe2 = link(objects)
    # The linker must not mutate its inputs: both images identical.
    assert len(exe1.instructions) == len(exe2.instructions)
    for a, b in zip(exe1.instructions, exe2.instructions):
        assert repr(a) == repr(b)


def test_link_leaves_object_instructions_untouched():
    """Relocation copies the instructions it rewrites and shares the
    rest: linking twice gives the same image, and every object-module
    instruction keeps every field it had."""
    objects = compile_objects({
        "a": (
            "int g; int twice(int x) { return x + x; }\n"
            "int loop(int n) { int i; int s; s = 0;"
            " for (i = 0; i < n; i++) s += twice(i); g = s; return s; }"
        ),
        "b": (
            "extern int g; extern int loop(int);\n"
            "int main() { int *f = &loop; int *q = &g; print(f(4)); "
            "return *q; }"
        ),
    })

    def fields():
        return [
            [
                (type(instruction).__name__, _instruction_fields(instruction))
                for instruction in function.instructions
            ]
            for obj in objects
            for function in obj.functions
        ]

    before = fields()
    kinds = {kind for function in before for kind, _fields in function}
    assert {"B", "BC", "BL", "LDA"} <= kinds
    first = executable_fingerprint(link(objects))
    second = executable_fingerprint(link(objects))
    assert first == second
    assert fields() == before
