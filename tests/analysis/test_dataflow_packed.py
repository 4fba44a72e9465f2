"""Differential oracle for the packed dataflow kernels.

Every dataflow kernel in ``src/`` runs on bitmasks; ``set_kernels`` in
this directory keeps the set-based oracle.  The two must be
*byte-identical*: same phase-1 summaries, same ``ProgramDatabase`` JSON
and web census for every workload and analyzer configuration, and
therefore the same executables.  Nothing here tolerates "equivalent but
reordered" — the phase-2 cache keys and the paper's
recompilation-avoidance story both hang on exact database bytes.

Covers phase 1 for the seven Table-3 workloads and ten fuzz-generator
programs, the analyzer over the workloads × configurations A–F
(profiled configs included) and the fuzz programs × A, C, D, E, and
executable fingerprints for two workloads.  The phase-1 and executable
comparisons build each side on its own uncached scheduler, so neither
side can be served the other's artifacts.
"""

import pytest

from repro import (
    AnalyzerOptions,
    CompilationScheduler,
    collect_profile,
    run_phase1,
)
from repro.analysis.packed import DenseIndex
from repro.analyzer.driver import analyze_program
from repro.linker.link import executable_fingerprint
from repro.verify.progen import generate_fuzz_program
from repro.workloads import all_workloads
from tests.analysis.set_kernels import use_set_kernels

FAST_WORKLOADS = ("dhrystone", "fgrep", "protoc")
SLOW_WORKLOADS = ("othello", "war", "crtool", "paopt")
CONFIGS = ("A", "B", "C", "D", "E", "F")
PROFILE_CONFIGS = frozenset("BF")
FUZZ_SEEDS = range(10)
FUZZ_CONFIGS = ("A", "C", "D", "E")


def _both_kernels(monkeypatch, run):
    """``(packed, oracle)``: ``run()`` as shipped, then on the oracle."""
    packed = run()
    with monkeypatch.context() as patch:
        use_set_kernels(patch)
        oracle = run()
    return packed, oracle


@pytest.fixture(scope="module")
def scheduler(tmp_path_factory):
    with CompilationScheduler(
        cache_dir=tmp_path_factory.mktemp("dataflow-diff-cache")
    ) as sched:
        yield sched


@pytest.fixture(scope="module")
def workload_state(scheduler):
    """Per-workload phase-1 results / summaries / profile, computed once
    on the packed kernels: the analyzer tests feed both sides the same
    summaries (phase 1 has its own differential below)."""
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


def _assert_databases_identical(monkeypatch, summaries, options, label):
    packed, oracle = _both_kernels(
        monkeypatch, lambda: analyze_program(summaries, options)
    )
    assert packed.to_json() == oracle.to_json(), (
        f"{label}: database bytes diverge"
    )
    # to_json() carries the directives only; the web census, clusters
    # and statistics must agree too (web ids included).
    assert packed.webs == oracle.webs, f"{label}: web census diverges"
    assert packed.clusters == oracle.clusters, f"{label}: clusters diverge"
    assert packed.statistics == oracle.statistics, (
        f"{label}: statistics diverge"
    )


def _assert_workload_matrix(monkeypatch, workload_state, name):
    for config in CONFIGS:
        with_profile = config in PROFILE_CONFIGS
        entry = workload_state(name, with_profile)
        options = AnalyzerOptions.config(
            config, entry["profile"] if with_profile else None
        )
        _assert_databases_identical(
            monkeypatch, entry["summaries"], options,
            f"{name} config {config}",
        )


@pytest.mark.parametrize("name", FAST_WORKLOADS)
def test_workload_databases_identical(monkeypatch, workload_state, name):
    """Every workload × config A–F: packed and oracle kernels emit
    byte-identical program databases and web censuses."""
    _assert_workload_matrix(monkeypatch, workload_state, name)


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_WORKLOADS)
def test_workload_databases_identical_slow(
    monkeypatch, workload_state, name
):
    _assert_workload_matrix(monkeypatch, workload_state, name)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_databases_identical(monkeypatch, scheduler, seed):
    """Generated programs: both kernel sets agree on every non-profile
    configuration."""
    sources = generate_fuzz_program(seed)
    summaries = [
        result.summary
        for result in run_phase1(sources, scheduler=scheduler)
    ]
    for config in FUZZ_CONFIGS:
        _assert_databases_identical(
            monkeypatch, summaries, AnalyzerOptions.config(config),
            f"fuzz seed {seed} config {config}",
        )


def _phase1_summaries(sources) -> list:
    with CompilationScheduler() as uncached:
        return [
            result.summary.to_json()
            for result in run_phase1(sources, scheduler=uncached)
        ]


@pytest.mark.parametrize(
    "program",
    list(all_workloads()) + [f"fuzz{seed}" for seed in FUZZ_SEEDS],
)
def test_phase1_summaries_identical(monkeypatch, program):
    """Phase 1 under each kernel set: liveness (DCE) and the two
    register-need estimates land in identical summary files."""
    if program.startswith("fuzz"):
        sources = generate_fuzz_program(int(program[len("fuzz"):]))
    else:
        sources = all_workloads()[program].sources
    packed, oracle = _both_kernels(
        monkeypatch, lambda: _phase1_summaries(sources)
    )
    assert packed == oracle


@pytest.mark.parametrize("name", ("dhrystone", "othello"))
def test_executables_identical(monkeypatch, name):
    """The full config-C build, phase 1 through link, fingerprints the
    same on both kernel sets.  Each side compiles on a fresh uncached
    scheduler, so the oracle's liveness runs in both phases."""
    sources = all_workloads()[name].sources

    def build() -> str:
        with CompilationScheduler() as uncached:
            phase1 = run_phase1(sources, scheduler=uncached)
            database = analyze_program(
                [result.summary for result in phase1],
                AnalyzerOptions.config("C"),
            )
            return executable_fingerprint(
                uncached.compile_with_database(phase1, database)
            )

    packed, oracle = _both_kernels(monkeypatch, build)
    assert packed == oracle


def test_dense_index_round_trip():
    """``set_of`` inverts ``mask_of`` for sparse, wide, contiguous and
    empty masks."""
    items = [f"item{i:04d}" for i in range(700)]
    index = DenseIndex(items)
    contiguous = set(items[40:120])
    sparse = {items[3], items[333], items[698]}
    for subset in (contiguous, sparse, set(), {items[0]}, set(items)):
        mask = index.mask_of(subset)
        assert index.set_of(mask) == subset
        assert index.frozenset_of(mask) == frozenset(subset)
    # Ascending-bit iteration over a sorted index equals sorted order.
    assert index.items == tuple(sorted(items))
