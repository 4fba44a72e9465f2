"""Scheduler-level behavior: instrumentation, the plain-API bridge, and
the removed keywords."""

import os
import time

import pytest

from repro import AnalyzerOptions, compile_program
from repro.driver import pipeline
from repro.driver.scheduler import CompilationScheduler, MetricsSnapshot


def test_metrics_surface_on_compilation_result():
    with CompilationScheduler() as scheduler:
        result = scheduler.compile_program(
            {"main": "int main() { print(7); return 0; }"},
            analyzer_options=AnalyzerOptions.config("C"),
        )
    metrics = result.metrics
    assert isinstance(metrics, MetricsSnapshot)
    for stage in ("phase1", "analyze", "phase2", "link"):
        assert metrics.stage_seconds.get(stage, 0) > 0, stage
    assert metrics.stage_tasks == {"phase1": 1, "analyze": 1, "phase2": 1}
    payload = metrics.to_json_dict()
    assert set(payload) == {
        "stage_seconds", "stage_tasks",
        "cache_hits", "cache_misses", "cache_bad_entries",
        "cache_evictions",
    }


def test_snapshot_json_round_trip():
    snapshot = MetricsSnapshot(
        stage_seconds={"phase1": 1.25},
        stage_tasks={"phase1": 3},
        cache_hits={"phase1": 1},
        cache_misses={"phase2": 2},
        cache_bad_entries={},
        cache_evictions={},
    )
    payload = snapshot.to_json_dict()
    # to_json_dict copies each field: mutating the payload must not
    # reach back into the snapshot.
    payload["stage_tasks"]["phase1"] = 9
    assert snapshot.stage_tasks == {"phase1": 3}


def test_stage_timing_survives_raising_phase1():
    """A stage that raises still records its wall-clock: the stage
    span adds to its tracer's totals on exit, so failed work never
    vanishes from the stage_seconds ledger."""
    with CompilationScheduler() as scheduler:
        with pytest.raises(Exception):
            scheduler.run_phase1({"bad": "int main( {"})
        snapshot = scheduler.metrics_snapshot()
    assert snapshot.stage_seconds.get("phase1", 0) > 0


def test_stage_timing_survives_raising_auditor(monkeypatch):
    """A raising auditor still shows up in both verify stage_seconds
    and the verify task count."""
    import repro.driver.scheduler as scheduler_module

    def exploding_audit(executable, database):
        time.sleep(0.005)
        raise RuntimeError("auditor exploded")

    monkeypatch.setattr(
        scheduler_module, "audit_executable", exploding_audit
    )
    with CompilationScheduler(verify=True) as scheduler:
        with pytest.raises(RuntimeError, match="auditor exploded"):
            scheduler.compile_program(
                {"main": "int main() { print(5); return 0; }"}
            )
        snapshot = scheduler.metrics_snapshot()
    assert snapshot.stage_seconds.get("verify", 0) > 0
    assert snapshot.stage_tasks.get("verify") == 1


def test_metrics_diff_isolates_one_compilation(tmp_path):
    with CompilationScheduler(cache_dir=tmp_path) as scheduler:
        sources = {"main": "int main() { print(1); return 0; }"}
        first = scheduler.compile_program(sources)
        second = scheduler.compile_program(sources)
    assert first.metrics.cache_misses.get("phase1") == 1
    assert second.metrics.cache_hits.get("phase1") == 1
    assert "phase1" not in second.metrics.cache_misses


def test_plain_api_defaults_to_serial_uncached():
    scheduler = pipeline.default_scheduler()
    assert scheduler.cache is None or os.environ.get("REPRO_CACHE_DIR")
    result = compile_program(
        {"main": "int main() { print(3); return 0; }"}
    )
    assert result.metrics is not None


def test_env_override_selects_cached(monkeypatch, tmp_path):
    monkeypatch.setattr(pipeline, "_default_scheduler", None)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    try:
        scheduler = pipeline.default_scheduler()
        assert scheduler.cache is not None
    finally:
        pipeline.default_scheduler().close()
        monkeypatch.setattr(pipeline, "_default_scheduler", None)


def test_rejects_bad_job_counts():
    """``jobs`` survives only as a keyword that accepts 1: the process
    pool is gone, and any other count says so."""
    with CompilationScheduler(jobs=1):
        pass
    for jobs in (2, None, 0):
        with pytest.raises(ValueError, match="process pool was removed"):
            CompilationScheduler(jobs=jobs)


def test_incremental_keyword_accepts_only_false():
    with CompilationScheduler(incremental=False):
        pass
    with pytest.raises(ValueError, match="incremental analyzer was removed"):
        CompilationScheduler(incremental=True)
