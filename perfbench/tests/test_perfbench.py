"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They run each workload in-process at a small size: the traced run's
layer rows must add up to each request's wall time, the exact metrics
must repeat, an injected slowdown in one analyzer kernel must be
attributed to that kernel's layer, and a changed generator must stop a
run before anything is timed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.analyzer.driver as analyzer_driver
from repro.verify.progen import FuzzProgramGenerator
from perfbench import edit_loop, large_program, paper_matrix
from perfbench.frozen import InputsChanged
from perfbench.harness import Run
from perfbench.recorder import LAYERS, OTHER, fold_self_times

ROOT = Path(__file__).resolve().parents[2]
SMALL = {
    "paper-matrix": (paper_matrix, 1, {"programs": ("dhrystone",)}),
    "edit-loop": (edit_loop, 1, {}),
    "large-program": (large_program, 3, {}),
}
DELAY_SECONDS = 0.06


@pytest.fixture(autouse=True)
def hermetic(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    # One set-up per run keeps the tests short; the median of several is
    # a steadiness measure, not part of what is tested here.
    for module in (paper_matrix, edit_loop, large_program):
        monkeypatch.setattr(module, "SETUP_REPEATS", 1)


def run_small(workload: str, trace: bool, seed: int = 5) -> Run:
    module, seconds, kwargs = SMALL[workload]
    run = Run(trace=trace)
    module.run_workload(run, seed, seconds, **kwargs)
    assert run.failed == 0, run.failures
    return run


def raw_layer_ms(run: Run) -> dict:
    totals, requests = run.layer_seconds(corrected=False)
    return {layer: seconds / requests * 1e3
            for layer, seconds in totals.items()}


def test_fold_self_times_subtracts_children():
    spans = [
        ["request", 0.0, 10.0, None, 7],
        ["frontend", 1.0, 4.0, 0, 7],
        ["analyzer", 4.0, 9.0, 0, 7],
        ["analyzer.regsets", 5.0, 7.0, 2, 7],
    ]
    assert fold_self_times(spans) == {7: {
        OTHER: 2.0, "frontend": 3.0, "analyzer": 3.0,
        "analyzer.regsets": 2.0,
    }}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_layer_rows_reconstruct_request_wall(workload):
    run = run_small(workload, trace=True)
    folded = fold_self_times(run.recorder.spans)
    assert folded.keys() == run.traced.keys() and folded
    for request_id, rows in folded.items():
        wall = run.traced[request_id].raw
        assert set(rows) <= set(LAYERS)
        assert abs(sum(rows.values()) - wall) <= 0.05 * wall
    # The layers, not the harness, account for the requests' time (over
    # all of them: a collector pause can land outside every layer span).
    other = sum(rows.get(OTHER, 0.0) for rows in folded.values())
    assert other <= 0.05 * sum(t.raw for t in run.traced.values())


def test_exact_metrics_repeat():
    first = run_small("paper-matrix", trace=False)
    second = run_small("paper-matrix", trace=False)
    exact = ("sim_cycles", "singleton_refs", "code_words", "ok_rate")
    assert ({m: first.end_to_end()[m] for m in exact}
            == {m: second.end_to_end()[m] for m in exact})
    assert first.per_program == second.per_program


@pytest.mark.parametrize("workload", ["edit-loop", "large-program"])
def test_layer_counts_repeat(workload):
    first = run_small(workload, trace=True)
    second = run_small(workload, trace=True)
    assert first.counts == second.counts
    assert any(first.counts.values())
    hit_rate = "driver.cache_hit_rate"
    assert first.per_layer()[hit_rate] == second.per_layer()[hit_rate]
    assert first.builds == second.builds


def test_regsets_delay_names_the_layer(monkeypatch):
    baseline = {w: run_small(w, trace=True)
                for w in ("large-program", "paper-matrix")}
    original = analyzer_driver.compute_register_sets

    def delayed(*args, **kwargs):
        time.sleep(DELAY_SECONDS)
        return original(*args, **kwargs)

    monkeypatch.setattr(analyzer_driver, "compute_register_sets", delayed)
    slowed = {w: run_small(w, trace=True) for w in baseline}

    for workload in baseline:
        before = raw_layer_ms(baseline[workload])
        after = raw_layer_ms(slowed[workload])
        increase = {layer: after[layer] - before[layer] for layer in LAYERS}
        assert max(increase, key=increase.get) == "analyzer.regsets"
    # Every large-program request runs the register-set kernel once.
    lp_before = raw_layer_ms(baseline["large-program"])
    lp_after = raw_layer_ms(slowed["large-program"])
    assert (lp_after["analyzer.regsets"] - lp_before["analyzer.regsets"]
            >= 0.9 * DELAY_SECONDS * 1e3)

    def raw_procs_per_s(run):
        return run.procedures / sum(t.raw for t in run.requests)

    drop = 1 - (raw_procs_per_s(slowed["large-program"])
                / raw_procs_per_s(baseline["large-program"]))
    assert drop > 0.04
    # The paper matrix checks the same outputs and code.
    exact = ("sim_cycles", "singleton_refs", "code_words", "ok_rate")
    assert ({m: baseline["paper-matrix"].end_to_end()[m] for m in exact}
            == {m: slowed["paper-matrix"].end_to_end()[m] for m in exact})


def test_changed_generator_stops_the_run(monkeypatch):
    original = FuzzProgramGenerator.synthesize_large

    def drifted(self, modules, procedures):
        summaries = original(self, modules, procedures)
        summaries[0].procedures[0].num_params += 1
        return summaries

    monkeypatch.setattr(FuzzProgramGenerator, "synthesize_large", drifted)
    run = Run(trace=False)
    with pytest.raises(InputsChanged):
        large_program.run_workload(run, 1, 1)
    assert run.attempted == 0


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edit-loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
