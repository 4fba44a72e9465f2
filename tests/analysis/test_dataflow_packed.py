"""Differential oracle for the packed dataflow kernels.

The bit-packed kernels (``REPRO_DATAFLOW=packed``, the default) must be
*byte-identical* to the set-based reference implementations: same
``ProgramDatabase`` JSON for every workload and analyzer configuration,
and therefore the same executables.  Nothing here tolerates "equivalent
but reordered" — the phase-2 cache keys and the paper's
recompilation-avoidance story both hang on exact database bytes.

Covers the seven Table-3 workloads across configurations A–F (profiled
configs included), ten fuzz-generator programs, executable fingerprints
for two workloads, and the ``REPRO_DATAFLOW`` knob itself.
"""

import pytest

from repro import (
    AnalyzerOptions,
    CompilationScheduler,
    collect_profile,
    run_phase1,
)
from repro.analysis.packed import (
    DATAFLOW_MODES,
    DEFAULT_DATAFLOW,
    DenseIndex,
    resolve_dataflow,
)
from repro.analyzer.driver import analyze_program
from repro.linker.link import executable_fingerprint
from repro.verify.progen import generate_fuzz_program
from repro.workloads import all_workloads

FAST_WORKLOADS = ("dhrystone", "fgrep", "protoc")
SLOW_WORKLOADS = ("othello", "war", "crtool", "paopt")
CONFIGS = ("A", "B", "C", "D", "E", "F")
PROFILE_CONFIGS = frozenset("BF")
FUZZ_SEEDS = range(10)
FUZZ_CONFIGS = ("A", "C", "D", "E")


@pytest.fixture(scope="module")
def scheduler(tmp_path_factory):
    with CompilationScheduler(
        jobs=1, cache_dir=tmp_path_factory.mktemp("dataflow-diff-cache")
    ) as sched:
        yield sched


@pytest.fixture(scope="module")
def workload_state(scheduler):
    """Per-workload phase-1 results / summaries / profile, computed once
    (phase 1 and the profiling run are mode-independent)."""
    cache: dict = {}

    def state(name: str, with_profile: bool):
        entry = cache.get(name)
        if entry is None:
            workload = all_workloads()[name]
            phase1 = run_phase1(workload.sources, scheduler=scheduler)
            entry = cache[name] = {
                "phase1": phase1,
                "summaries": [result.summary for result in phase1],
                "profile": None,
                "max_cycles": workload.max_cycles,
            }
        if with_profile and entry["profile"] is None:
            entry["profile"] = collect_profile(
                entry["phase1"],
                max_cycles=entry["max_cycles"],
                scheduler=scheduler,
            )
        return entry

    return state


def _databases_both_modes(monkeypatch, summaries, options):
    payloads = {}
    for mode in DATAFLOW_MODES:
        monkeypatch.setenv("REPRO_DATAFLOW", mode)
        payloads[mode] = analyze_program(summaries, options).to_json()
    return payloads


def _assert_workload_matrix(monkeypatch, workload_state, name):
    for config in CONFIGS:
        with_profile = config in PROFILE_CONFIGS
        entry = workload_state(name, with_profile)
        options = AnalyzerOptions.config(
            config, entry["profile"] if with_profile else None
        )
        payloads = _databases_both_modes(
            monkeypatch, entry["summaries"], options
        )
        assert payloads["packed"] == payloads["reference"], (
            f"{name} config {config}: database bytes diverge"
        )


@pytest.mark.parametrize("name", FAST_WORKLOADS)
def test_workload_databases_identical(monkeypatch, workload_state, name):
    """Every workload × config A–F: packed and reference kernels emit
    byte-identical program databases."""
    _assert_workload_matrix(monkeypatch, workload_state, name)


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_WORKLOADS)
def test_workload_databases_identical_slow(
    monkeypatch, workload_state, name
):
    _assert_workload_matrix(monkeypatch, workload_state, name)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_databases_identical(monkeypatch, scheduler, seed):
    """Generated programs: both kernels agree on every non-profile
    configuration."""
    sources = generate_fuzz_program(seed)
    summaries = [
        result.summary
        for result in run_phase1(sources, scheduler=scheduler)
    ]
    for config in FUZZ_CONFIGS:
        options = AnalyzerOptions.config(config)
        payloads = _databases_both_modes(monkeypatch, summaries, options)
        assert payloads["packed"] == payloads["reference"], (
            f"fuzz seed {seed} config {config}: database bytes diverge"
        )


@pytest.mark.parametrize("name", ("dhrystone", "othello"))
def test_executables_identical(monkeypatch, scheduler, workload_state,
                               name):
    """Identical databases imply identical executables: the full config-C
    build fingerprints match across kernels."""
    entry = workload_state(name, False)
    fingerprints = {}
    for mode in DATAFLOW_MODES:
        monkeypatch.setenv("REPRO_DATAFLOW", mode)
        database = analyze_program(
            entry["summaries"], AnalyzerOptions.config("C")
        )
        executable = scheduler.compile_with_database(
            entry["phase1"], database
        )
        fingerprints[mode] = executable_fingerprint(executable)
    assert fingerprints["packed"] == fingerprints["reference"]


def test_resolve_dataflow_knob(monkeypatch):
    monkeypatch.delenv("REPRO_DATAFLOW", raising=False)
    assert resolve_dataflow() == DEFAULT_DATAFLOW == "packed"
    assert resolve_dataflow("reference") == "reference"
    assert resolve_dataflow("  Packed ") == "packed"
    monkeypatch.setenv("REPRO_DATAFLOW", "reference")
    assert resolve_dataflow() == "reference"
    assert resolve_dataflow("packed") == "packed"  # explicit mode wins
    monkeypatch.setenv("REPRO_DATAFLOW", "vectorized")
    with pytest.raises(ValueError, match="unknown dataflow mode"):
        resolve_dataflow()


def test_dense_index_round_trip():
    """Both ``set_of`` decode strategies (bytewise for dense masks,
    per-bit for sparse ones) invert ``mask_of``."""
    items = [f"item{i:04d}" for i in range(700)]
    index = DenseIndex(items)
    dense = set(items[40:120])  # contiguous: takes the bytewise branch
    sparse = {items[3], items[333], items[698]}  # wide: per-bit branch
    for subset in (dense, sparse, set(), {items[0]}, set(items)):
        mask = index.mask_of(subset)
        assert index.set_of(mask) == subset
        assert index.frozenset_of(mask) == frozenset(subset)
    # Ascending-bit iteration over a sorted index equals sorted order.
    assert index.items == tuple(sorted(items))
