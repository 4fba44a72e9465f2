"""Program database tests (paper section 4.3)."""

import copy
import pickle

import pytest

from repro.analyzer.database import (
    ProcedureDirectives,
    ProgramDatabase,
    PromotedGlobal,
    default_directives,
)
from repro.analyzer.driver import AnalyzerOptions, analyze_program
from repro.target.registers import CALLEE_SAVES, CALLER_SAVES
from tests.support import FIGURE3_GLOBALS, FIGURE3_PROCS, build_graph


def test_default_directives_are_standard_convention():
    directives = default_directives("f")
    assert directives.caller == frozenset(CALLER_SAVES)
    assert directives.callee == frozenset(CALLEE_SAVES)
    assert directives.free == frozenset()
    assert directives.mspill == frozenset()
    assert not directives.is_cluster_root
    directives.validate()


def test_database_returns_default_for_unknown():
    database = ProgramDatabase()
    directives = database.get("library_function")
    assert directives.caller == frozenset(CALLER_SAVES)
    assert "library_function" not in database


def test_put_and_get():
    database = ProgramDatabase()
    directives = ProcedureDirectives(
        name="f",
        free=frozenset({16, 17}),
        callee=frozenset(CALLEE_SAVES) - {16, 17},
    )
    database.put(directives)
    assert database.get("f") is directives
    assert "f" in database


def test_overlapping_sets_rejected():
    directives = ProcedureDirectives(
        name="f",
        free=frozenset({16}),
        callee=frozenset(CALLEE_SAVES),  # also contains 16
    )
    with pytest.raises(ValueError, match="overlap"):
        directives.validate()


def test_mspill_requires_cluster_root():
    directives = ProcedureDirectives(
        name="f",
        mspill=frozenset({16}),
        callee=frozenset(CALLEE_SAVES) - {16},
        is_cluster_root=False,
    )
    with pytest.raises(ValueError, match="MSPILL"):
        directives.validate()


def test_web_registers_must_be_reserved():
    directives = ProcedureDirectives(
        name="f",
        promoted=(PromotedGlobal("g", 31),),
        # 31 still in callee: invalid.
    )
    with pytest.raises(ValueError, match="web-reserved"):
        directives.validate()


def test_reserved_web_registers_property():
    directives = ProcedureDirectives(
        name="f",
        promoted=(
            PromotedGlobal("g", 31, is_entry=True),
            PromotedGlobal("h", 30),
        ),
        callee=frozenset(CALLEE_SAVES) - {30, 31},
    )
    assert directives.reserved_web_registers == frozenset({30, 31})


def test_json_round_trip():
    database = ProgramDatabase()
    database.put(
        ProcedureDirectives(
            name="f",
            free=frozenset({16}),
            caller=frozenset(CALLER_SAVES),
            callee=frozenset(CALLEE_SAVES) - {16, 31},
            mspill=frozenset(),
            promoted=(
                PromotedGlobal("g", 31, is_entry=True, needs_store=False),
            ),
        )
    )
    database.put(
        ProcedureDirectives(
            name="root",
            callee=frozenset(CALLEE_SAVES) - {20},
            mspill=frozenset({20}),
            is_cluster_root=True,
        )
    )
    restored = ProgramDatabase.from_json(database.to_json())
    f = restored.get("f")
    assert f.free == frozenset({16})
    assert f.promoted[0].name == "g"
    assert f.promoted[0].register == 31
    assert f.promoted[0].is_entry
    assert not f.promoted[0].needs_store
    root = restored.get("root")
    assert root.is_cluster_root
    assert root.mspill == frozenset({20})


def test_promoted_global_value_semantics():
    record = PromotedGlobal(
        "g", 31, is_entry=True, needs_store=False, wrap_callees=("h",)
    )
    assert record == PromotedGlobal("g", 31, True, False, ("h",))
    assert record != PromotedGlobal("g", 31, True, True, ("h",))
    assert PromotedGlobal("g", 31) == PromotedGlobal("g", 31, False, True, ())
    # The hash of the field values, as the frozen dataclass's was.
    assert hash(record) == hash(("g", 31, True, False, ("h",)))
    assert repr(record) == (
        "PromotedGlobal(name='g', register=31, is_entry=True, "
        "needs_store=False, wrap_callees=('h',))"
    )


@pytest.mark.parametrize(
    "field", ["name", "register", "is_entry", "needs_store", "wrap_callees"]
)
def test_promoted_global_is_immutable(field):
    # Procedures share records, so none may be changed in place.
    record = PromotedGlobal("g", 31)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert record == PromotedGlobal("g", 31)


def test_promoted_globals_json_round_trip():
    records = (
        PromotedGlobal("g", 31, is_entry=True, needs_store=False),
        PromotedGlobal("h", 30, wrap_callees=("leaf", "other")),
    )
    database = ProgramDatabase()
    database.put(
        ProcedureDirectives(
            name="f",
            callee=frozenset(CALLEE_SAVES) - {30, 31},
            promoted=records,
        )
    )
    restored = ProgramDatabase.from_json(database.to_json())
    assert restored.get("f").promoted == records
    assert restored.to_json() == database.to_json()


def test_web_census_survives_copies():
    """The census is built on first read; a copy or a pickle taken
    before that read carries the same records."""
    _, summary = build_graph(FIGURE3_PROCS, FIGURE3_GLOBALS)
    database = analyze_program([summary], AnalyzerOptions.config("C"))
    copied = copy.deepcopy(database)
    unpickled = pickle.loads(pickle.dumps(database))
    assert database.webs
    assert copied.webs == database.webs
    assert unpickled.webs == database.webs
