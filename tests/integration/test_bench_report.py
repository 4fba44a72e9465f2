"""Benchmark-report merge semantics (``benchmarks/conftest.py``).

``write_bench_report`` merges a session's measured sections over the
previous ``BENCH_results.json`` so partial runs refresh only what they
measured.  The merge must keep unmeasured sections, overwrite measured
ones, and never let a stale legend from the old file shadow the
current ``CONFIG_LEGEND`` (a real regression: the legend was seeded
before the merge and then clobbered by ``payload.update``).
"""

import importlib.util
import json
import os
import sys

import pytest

_BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    "benchmarks",
)


@pytest.fixture()
def bench_conftest():
    """Load ``benchmarks/conftest.py`` as a throwaway module so tests
    can poke its session accumulators without touching real state."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_under_test",
        os.path.join(_BENCH_DIR, "conftest.py"),
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def test_current_legend_survives_merge(bench_conftest, tmp_path):
    path = tmp_path / "BENCH_results.json"
    path.write_text(json.dumps({
        "legend": {"A": "stale wording from an old build"},
        "workloads": {"othello": {"baseline": {"cycles": 1}}},
    }))
    bench_conftest._SCHEDULER_METRICS.update({"stage_tasks": {"phase1": 2}})

    payload = bench_conftest.write_bench_report(str(path))

    assert payload["legend"] == bench_conftest.CONFIG_LEGEND
    on_disk = json.loads(path.read_text())
    assert on_disk["legend"] == bench_conftest.CONFIG_LEGEND
    # Unmeasured sections from the previous report survive; measured
    # ones are refreshed.
    assert on_disk["workloads"] == {
        "othello": {"baseline": {"cycles": 1}}
    }
    assert on_disk["scheduler"] == {"stage_tasks": {"phase1": 2}}


def test_fresh_report_without_previous_file(bench_conftest, tmp_path):
    path = tmp_path / "BENCH_results.json"
    bench_conftest._SIM_THROUGHPUT.update(
        {"othello": {"speedup": 6.0}}
    )

    payload = bench_conftest.write_bench_report(str(path))

    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["legend"] == bench_conftest.CONFIG_LEGEND
    assert on_disk["simulator_throughput"] == {
        "othello": {"speedup": 6.0}
    }
    # Sections nothing measured still exist, empty, so consumers can
    # index unconditionally.
    assert on_disk["workloads"] == {}
    assert on_disk["scalability"] == {}


def test_corrupt_previous_report_is_replaced(bench_conftest, tmp_path):
    path = tmp_path / "BENCH_results.json"
    path.write_text("{not json")
    bench_conftest._OBSERVABILITY.update({"overhead_fraction": 0.01})

    bench_conftest.write_bench_report(str(path))

    on_disk = json.loads(path.read_text())
    assert on_disk["legend"] == bench_conftest.CONFIG_LEGEND
    assert on_disk["observability_overhead"] == {
        "overhead_fraction": 0.01
    }
