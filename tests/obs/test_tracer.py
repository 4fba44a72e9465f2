"""The structured tracer: determinism-by-construction properties."""

import json

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    TIMING_FIELDS,
    Tracer,
    _jsonable,
    activate,
    canonicalize_trace,
    current_tracer,
    read_trace,
)


def test_ordinals_are_monotonic_and_dense():
    tracer = Tracer()
    with tracer.span("outer"):
        tracer.event("one", a=1)
        tracer.event("two", b=2)
    ordinals = [record["ord"] for record in tracer.records]
    assert ordinals == list(range(len(tracer.records)))


def test_span_nesting_parent_ids():
    tracer = Tracer()
    with tracer.span("outer") as outer_id:
        tracer.event("inside-outer")
        with tracer.span("inner") as inner_id:
            tracer.event("inside-inner")
    begins = {
        record["name"]: record
        for record in tracer.records
        if record["ev"] == "span-begin"
    }
    assert begins["outer"]["parent"] == 0
    assert begins["inner"]["parent"] == outer_id
    events = {
        record["type"]: record
        for record in tracer.records
        if record["ev"] == "event"
    }
    assert events["inside-outer"]["span"] == outer_id
    assert events["inside-inner"]["span"] == inner_id
    ends = [
        record for record in tracer.records if record["ev"] == "span-end"
    ]
    # Inner span closes before the outer one.
    assert [record["name"] for record in ends] == ["inner", "outer"]
    for record in ends:
        assert record["seconds"] >= 0.0


def test_span_end_emitted_when_body_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    assert tracer.records[-1]["ev"] == "span-end"
    assert tracer.records[-1]["name"] == "doomed"


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(path) as tracer:
        with tracer.span("compile", modules=2):
            tracer.event("decision", name="g", registers={3, 1, 2})
    loaded = read_trace(path)
    assert loaded == tracer.records
    # Every line is standalone JSON (streaming consumers can tail it).
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            json.loads(line)


def test_jsonable_sorts_sets_recursively():
    payload = _jsonable(
        {"regs": {9, 3, 27}, "nested": [{"s": frozenset({"b", "a"})}]}
    )
    assert payload == {"regs": [3, 9, 27], "nested": [{"s": ["a", "b"]}]}


def test_event_payload_sets_become_sorted_lists():
    tracer = Tracer()
    tracer.event("x", members=frozenset({"c", "a", "b"}))
    assert tracer.records[0]["data"]["members"] == ["a", "b", "c"]


def test_canonicalize_strips_timing_and_sorts_by_ordinal():
    tracer = Tracer()
    with tracer.span("s"):
        tracer.event("e")
    shuffled = list(reversed(tracer.records))
    canonical = canonicalize_trace(shuffled)
    assert [record["ord"] for record in canonical] == [0, 1, 2]
    for record in canonical:
        for key in TIMING_FIELDS:
            assert key not in record
    # The only per-run-varying field was the timing one, so two
    # canonicalizations of equivalent streams compare equal.
    assert canonical == canonicalize_trace(tracer.records)


def test_ambient_activation_and_suppression():
    assert current_tracer() is NULL_TRACER
    tracer = Tracer()
    with activate(tracer):
        assert current_tracer() is tracer
        # A nested activation of the null tracer silences the outer one
        # and hands it back on exit.
        with activate(NULL_TRACER):
            assert current_tracer() is NULL_TRACER
            current_tracer().event("dropped", x=1)
        assert current_tracer() is tracer
    assert current_tracer() is NULL_TRACER
    assert tracer.records == []  # the silenced event never landed


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    NULL_TRACER.event("anything", x=1)
    with NULL_TRACER.span("whatever", y=2):
        pass
    NULL_TRACER.close()
    assert NULL_TRACER.records == []
