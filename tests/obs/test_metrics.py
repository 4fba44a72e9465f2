"""The metrics registry and the fold from a trace into it."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry, fold_audit, fold_trace
from repro.obs.provenance import cluster_owners


def _span(name, seconds, children=(), **data):
    """Hand-built begin/end records of one span around ``children``."""
    return (
        [{"ev": "span-begin", "name": name, "data": data}]
        + [record for child in children for record in child]
        + [{"ev": "span-end", "name": name, "seconds": seconds}]
    )


def _event(type_, **data):
    return [{"ev": "event", "type": type_, "data": data}]


def _proc(cycles, loads, stores, save_restore):
    return {
        "cycles": cycles, "instructions": cycles, "loads": loads,
        "stores": stores, "save_restore": save_restore,
    }


def _execution(cycles, per_procedure):
    return _event(
        "execution",
        cycles=cycles, instructions=90, memory_references=8,
        singleton_references=3, save_restore_executed=12, exit_code=0,
        per_procedure=per_procedure,
    )


def test_counter_accumulates_per_label_set():
    registry = MetricsRegistry()
    registry.inc("hits", stage="phase1")
    registry.inc("hits", 2, stage="phase1")
    registry.inc("hits", stage="phase2")
    assert registry.value("hits", stage="phase1") == 3
    assert registry.value("hits", stage="phase2") == 1
    assert registry.value("hits", stage="nope") is None
    assert registry.value("unset") is None


def test_gauge_overwrites():
    registry = MetricsRegistry()
    registry.set_gauge("jobs", 2)
    registry.set_gauge("jobs", 4)
    assert registry.value("jobs") == 4


def test_histogram_buckets_and_json():
    registry = MetricsRegistry()
    for value in (0.5, 5, 50, 1e9):
        registry.observe("lat", value, buckets=(1.0, 10.0, 100.0))
    payload = registry.to_json_dict()["lat"]
    assert payload["type"] == "histogram"
    histogram = payload["values"][0]["value"]
    assert histogram["counts"] == [1, 1, 1, 1]  # last = +Inf overflow
    assert histogram["count"] == 4
    assert histogram["sum"] == pytest.approx(0.5 + 5 + 50 + 1e9)


def test_type_conflict_raises():
    registry = MetricsRegistry()
    registry.inc("m")
    with pytest.raises(ValueError):
        registry.set_gauge("m", 1)
    with pytest.raises(ValueError):
        registry.observe("m", 1)


def test_text_exposition_format():
    registry = MetricsRegistry()
    registry.inc("repro_things_total", 3, kind="web")
    registry.set_gauge("repro_level", 2.5)
    registry.observe("repro_sizes", 5, buckets=(1.0, 10.0))
    text = registry.to_text()
    assert '# TYPE repro_things_total counter' in text
    assert 'repro_things_total{kind="web"} 3' in text
    assert '# TYPE repro_level gauge' in text
    assert 'repro_level 2.5' in text
    # Histogram buckets are cumulative and end at +Inf.
    assert 'repro_sizes_bucket{le="1"} 0' in text
    assert 'repro_sizes_bucket{le="10"} 1' in text
    assert 'repro_sizes_bucket{le="+Inf"} 1' in text
    assert 'repro_sizes_sum 5' in text
    assert 'repro_sizes_count 1' in text


def test_text_exposition_keeps_full_float_precision():
    """Float samples and histogram sums print with ``repr`` (``:g``
    would render 1234567.891 as 1.23457e+06); bucket bounds keep their
    short labels."""
    registry = MetricsRegistry()
    registry.set_gauge("repro_level", 1234567.891)
    registry.inc("repro_seconds_total", 0.1)
    registry.inc("repro_seconds_total", 0.2)
    registry.observe("repro_sizes", 1234567.891, buckets=(0.0025, 1e6))
    lines = registry.to_text().splitlines()
    assert "repro_level 1234567.891" in lines
    assert f"repro_seconds_total {0.1 + 0.2!r}" in lines
    assert "repro_sizes_sum 1234567.891" in lines
    assert 'repro_sizes_bucket{le="0.0025"} 0' in lines
    assert 'repro_sizes_bucket{le="1e+06"} 0' in lines
    assert float(lines[lines.index("repro_level 1234567.891")]
                 .split()[-1]) == 1234567.891


def test_json_dict_is_json_serializable_and_sorted():
    registry = MetricsRegistry()
    registry.inc("b_metric", 1, z="1", a="2")
    registry.inc("a_metric", 1)
    payload = registry.to_json_dict()
    json.dumps(payload)  # must not raise
    assert list(payload) == ["a_metric", "b_metric"]
    assert payload["b_metric"]["values"][0]["labels"] == {
        "a": "2", "z": "1",
    }


def test_fold_trace_stage_and_audit_families():
    modules = [
        _span("module", 0.25, stage="phase1", module=name)
        for name in ("a", "b", "c")
    ]
    records = (
        _span("phase1", 1.5, modules, modules=3)
        + _span("analyze", 0.5)
        + _event("audit", functions_checked=7, calls_checked=9,
                 violation_count=0)
    )
    registry = fold_trace(records)
    assert registry.value("repro_scheduler_jobs") is None
    assert registry.value(
        "repro_stage_seconds_total", stage="phase1"
    ) == pytest.approx(1.5)
    assert registry.value(
        "repro_stage_seconds_total", stage="analyze"
    ) == pytest.approx(0.5)
    assert registry.value(
        "repro_stage_seconds_total", stage="module"
    ) is None
    assert registry.value("repro_stage_tasks_total", stage="phase1") == 3
    assert registry.value("repro_stage_tasks_total", stage="analyze") == 1
    assert registry.value("repro_audit_functions_checked") == 7
    assert registry.value("repro_audit_violations") == 0


def test_fold_audit_violations_by_check():
    registry = MetricsRegistry()
    fold_audit(
        registry,
        {
            "functions_checked": 1,
            "calls_checked": 2,
            "violation_count": 3,
            "violations_by_check": {"callee-saved": 2, "mspill": 1},
        },
    )
    assert registry.value(
        "repro_audit_violations_total", check="callee-saved"
    ) == 2
    assert registry.value(
        "repro_audit_violations_total", check="mspill"
    ) == 1


def test_cluster_owners_roots_attribute_to_themselves():
    records = (
        _event("cluster-formed", root="a", members=["b", "c"])
        # "c" is itself a nested root: its own traffic is its own.
        + _event("cluster-formed", root="c", members=["d"])
    )
    owner = cluster_owners(records)
    assert owner["b"] == "a"
    assert owner["d"] == "c"
    assert owner["a"] == "a"
    assert owner["c"] == "c"


def test_fold_trace_attributes_per_cluster():
    records = _event(
        "cluster-formed", root="root", members=["leaf"]
    ) + _execution(
        100,
        {
            "root": _proc(60, loads=4, stores=2, save_restore=8),
            "leaf": _proc(30, loads=1, stores=1, save_restore=4),
            "other": _proc(10, loads=0, stores=0, save_restore=0),
        },
    )
    registry = fold_trace(records)
    assert registry.value("repro_run_cycles") == 100
    assert registry.value("repro_run_save_restore_executed") == 12
    assert registry.value(
        "repro_procedure_cycles_total", procedure="leaf"
    ) == 30
    assert registry.value(
        "repro_procedure_memrefs_total", procedure="root"
    ) == 6
    # leaf's counters roll up into its root; "other" is unclustered.
    assert registry.value(
        "repro_cluster_cycles_total", root="root"
    ) == 90
    assert registry.value(
        "repro_cluster_save_restore_total", root="root"
    ) == 12
    assert registry.value(
        "repro_cluster_cycles_total", root="<none>"
    ) == 10


def test_fold_trace_composes_all_surfaces():
    records = _span(
        "phase1", 0.1, [_span("module", 0.1, stage="phase1", module="m")]
    ) + _execution(5, {})
    registry = fold_trace(records)
    assert registry.value("repro_stage_tasks_total", stage="phase1") == 1
    assert registry.value("repro_run_cycles") == 5
    # An empty trace answers an empty but valid registry.
    assert fold_trace([]).names() == []
