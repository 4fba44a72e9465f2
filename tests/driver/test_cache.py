"""Cache-invalidation contract of the incremental driver.

The paper's recompilation story (sections 2 and 7.4): editing one
module re-runs phase 1 for that module only; changing analyzer options
re-runs the analyzer and then phase 2 only where a module's slice of
the program database actually changed.  These tests pin that contract
down with exact hit/miss counts — and verify the cache never trusts a
corrupt or truncated entry.
"""

import copyreg
import os

import pytest

from repro import AnalyzerOptions, ProgramDatabase, run_executable
from repro.backend.phase2 import module_directive_names
from repro.driver.cache import ArtifactCache, phase2_key
from repro.driver.scheduler import CompilationScheduler
from repro.frontend.phase1 import (
    Phase1Result,
    compile_module_phase1,
    phase1_fingerprint,
)
from repro.linker.link import executable_fingerprint

# Three modules chosen so analyzer-configuration changes move some
# modules' directives but not others (asserted by the tests below):
# "hot" has the promoted-global traffic, "pure" is leaf arithmetic.
SOURCES = {
    "hot": """
        extern int counter;
        int tick(int by) { counter += by; return counter; }
        int spin(int n) { int i; int acc; acc = 0;
          for (i = 0; i < n; i++) acc += tick(i);
          return acc; }
    """,
    "pure": """
        int square(int x) { return x * x; }
        int cube(int x) { return x * square(x); }
    """,
    "main": """
        int counter;
        extern int spin(int);
        extern int cube(int);
        int main() { int v; v = spin(25) + cube(3);
          print(v); print(counter); return v & 255; }
    """,
}


@pytest.fixture
def scheduler(tmp_path):
    with CompilationScheduler(cache_dir=tmp_path / "cache") as sched:
        yield sched


# -- unit level: the artifact store itself ------------------------------


def test_cache_round_trip(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    cache.store("phase1", "ab" * 32, {"payload": [1, 2, 3]})
    assert cache.load("phase1", "ab" * 32) == {"payload": [1, 2, 3]}
    assert cache.stats.hits["phase1"] == 1
    assert len(cache) == 1


def test_cache_miss_counts(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    assert cache.load("phase1", "cd" * 32) is None
    assert cache.stats.misses["phase1"] == 1
    assert cache.stats.bad_entries["phase1"] == 0


def test_layout_matches_historical(tmp_path):
    """Entries live at the historical on-disk layout: a two-char
    fan-out directory under the root, no other directory level."""
    cache = ArtifactCache(tmp_path / "c")
    key = "ab" + "0" * 62
    cache.store("phase1", key, {"x": 1})
    expected = tmp_path / "c" / "ab" / (key + ".pkl")
    assert expected.exists()
    assert cache.load("phase1", key) == {"x": 1}


@pytest.mark.parametrize(
    "corruption", ["truncate", "bitflip", "magic", "empty"]
)
def test_corrupt_entries_are_never_trusted(tmp_path, corruption):
    cache = ArtifactCache(tmp_path / "c")
    key = "ef" * 32
    cache.store("phase2", key, list(range(100)))
    path = cache._path(key)
    blob = open(path, "rb").read()
    if corruption == "truncate":
        blob = blob[: len(blob) // 2]
    elif corruption == "bitflip":
        blob = blob[:-10] + bytes([blob[-10] ^ 0xFF]) + blob[-9:]
    elif corruption == "magic":
        blob = b"not-a-cache-entry\n" + blob
    else:
        blob = b""
    with open(path, "wb") as handle:
        handle.write(blob)
    assert cache.load("phase2", key) is None
    assert cache.stats.bad_entries["phase2"] == 1
    assert not os.path.exists(path), "bad entry must be evicted"
    # The slot is reusable after eviction.
    cache.store("phase2", key, "fresh")
    assert cache.load("phase2", key) == "fresh"


def test_keys_separate_opt_levels_and_sources():
    fp = phase1_fingerprint
    assert fp("int x;", "m", 2) != fp("int x;", "m", 1)
    assert fp("int x;", "m", 2) != fp("int y;", "m", 2)
    assert fp("int x;", "m", 2) != fp("int x;", "n", 2)
    assert phase2_key("p1", "dd", 2) != phase2_key("p1", "dd", 1)
    assert phase2_key("p1", "dd", 2) != phase2_key("p1", "ee", 2)


# -- system level: invalidation granularity -----------------------------


def test_editing_one_module_recompiles_only_that_module(scheduler):
    first = scheduler.compile_program(SOURCES)
    edited = dict(SOURCES)
    edited["pure"] = SOURCES["pure"].replace(
        "x * square(x)", "square(x) * x"
    )
    scheduler.reset_metrics()
    second = scheduler.compile_program(edited)
    metrics = scheduler.metrics_snapshot()
    assert metrics.stage_tasks["phase1"] == 1, (
        "exactly the edited module's phase 1 must re-run"
    )
    assert metrics.cache_hits["phase1"] == len(SOURCES) - 1
    # Directives did not move (no analyzer), so phase 2 re-runs for the
    # edited module alone.
    assert metrics.stage_tasks["phase2"] == 1
    assert metrics.cache_hits["phase2"] == len(SOURCES) - 1
    # Behavior is unchanged by this semantics-preserving edit.
    assert (
        run_executable(second.executable).output
        == run_executable(first.executable).output
    )


def test_unchanged_rebuild_is_all_hits(scheduler):
    scheduler.compile_program(SOURCES)
    scheduler.reset_metrics()
    result = scheduler.compile_program(SOURCES)
    metrics = scheduler.metrics_snapshot()
    assert metrics.stage_tasks["phase1"] == 0
    assert metrics.stage_tasks["phase2"] == 0
    assert not metrics.cache_misses
    assert result.metrics.cache_hits["phase1"] == len(SOURCES)


def test_analyzer_change_reuses_all_phase1(scheduler):
    scheduler.compile_program(
        SOURCES, analyzer_options=AnalyzerOptions.config("C")
    )
    scheduler.reset_metrics()
    scheduler.compile_program(
        SOURCES, analyzer_options=AnalyzerOptions.config("E")
    )
    metrics = scheduler.metrics_snapshot()
    assert metrics.stage_tasks["phase1"] == 0
    assert metrics.cache_hits["phase1"] == len(SOURCES)


def test_analyzer_change_recompiles_only_digest_changed_modules(scheduler):
    """Phase-2 invalidation follows the per-module directive digest,
    not the database as a whole."""
    phase1 = scheduler.run_phase1(SOURCES)
    summaries = [result.summary for result in phase1]
    db_c = scheduler.analyze(summaries, AnalyzerOptions.config("C"))
    db_e = scheduler.analyze(summaries, AnalyzerOptions.config("E"))
    changed = {
        result.ir_module.name
        for result in phase1
        if db_c.directive_digest(module_directive_names(result.ir_module))
        != db_e.directive_digest(module_directive_names(result.ir_module))
    }
    # The fixture program is built so the switch moves some but not all
    # modules — otherwise this test would assert nothing.
    assert changed and changed != set(SOURCES)

    scheduler.compile_with_database(phase1, db_c)
    scheduler.reset_metrics()
    scheduler.compile_with_database(phase1, db_e)
    metrics = scheduler.metrics_snapshot()
    assert metrics.stage_tasks["phase2"] == len(changed)
    assert metrics.cache_hits["phase2"] == len(SOURCES) - len(changed)


def test_identical_directive_slices_share_phase2_objects(scheduler):
    """Configs that agree on every module's directive slice (C and D
    here) share all phase-2 work."""
    phase1 = scheduler.run_phase1(SOURCES)
    summaries = [result.summary for result in phase1]
    db_c = scheduler.analyze(summaries, AnalyzerOptions.config("C"))
    db_d = scheduler.analyze(summaries, AnalyzerOptions.config("D"))
    for result in phase1:
        names = module_directive_names(result.ir_module)
        assert db_c.directive_digest(names) == db_d.directive_digest(names)
    scheduler.compile_with_database(phase1, db_c)
    scheduler.reset_metrics()
    scheduler.compile_with_database(phase1, db_d)
    assert scheduler.metrics_snapshot().stage_tasks["phase2"] == 0


def test_corrupt_scheduler_entry_recomputed_bit_identically(tmp_path):
    cache_dir = tmp_path / "cache"
    with CompilationScheduler(cache_dir=cache_dir) as one:
        first = one.compile_program(SOURCES)
    # Vandalize every stored artifact.
    count = 0
    for dirpath, _dirnames, filenames in os.walk(cache_dir):
        for name in filenames:
            if name.endswith(".pkl"):
                path = os.path.join(dirpath, name)
                with open(path, "r+b") as handle:
                    handle.truncate(os.path.getsize(path) // 3)
                count += 1
    assert count == 2 * len(SOURCES)
    with CompilationScheduler(cache_dir=cache_dir) as two:
        second = two.compile_program(SOURCES)
        metrics = two.metrics_snapshot()
    assert sum(metrics.cache_bad_entries.values()) == count
    assert not metrics.cache_hits
    assert executable_fingerprint(first.executable) == \
        executable_fingerprint(second.executable)


class _OldPhase1Result:
    """Pickles the way ``Phase1Result`` did while it was a dataclass
    holding the IR module itself."""

    def __init__(self, ir_module, summary, fingerprint):
        self.ir_module = ir_module
        self.summary = summary
        self.fingerprint = fingerprint

    def __reduce__(self):
        return (
            copyreg._reconstructor, (Phase1Result, object, None),
            dict(vars(self)),
        )


def test_old_format_phase1_entry_reads_as_miss(tmp_path):
    cache_dir = tmp_path / "cache"
    with CompilationScheduler() as uncached:
        expected = executable_fingerprint(
            uncached.compile_program(SOURCES).executable
        )
    cache = ArtifactCache(cache_dir)
    for name, text in SOURCES.items():
        key = phase1_fingerprint(text, name, 2)
        current = compile_module_phase1(text, name, 2)
        cache.store("phase1", key, _OldPhase1Result(
            current.ir_module, current.summary, key
        ))
    with CompilationScheduler(cache_dir=cache_dir) as scheduler:
        result = scheduler.compile_program(SOURCES)
        metrics = scheduler.metrics_snapshot()
    assert metrics.cache_bad_entries["phase1"] == len(SOURCES)
    assert metrics.stage_tasks["phase1"] == len(SOURCES)
    assert executable_fingerprint(result.executable) == expected


# -- one cache shared by many schedulers (the compile service) ---------

SHARED_SOURCES = {
    "m": "int g; int main() { g = 2; print(g * 21); return 0; }"
}


def test_cache_kwarg_shares_entries(tmp_path):
    shared = ArtifactCache(tmp_path / "c")
    options = AnalyzerOptions.config("C")
    with CompilationScheduler(cache=shared) as first:
        a = first.compile_program(dict(SHARED_SOURCES), 2, options)
    with CompilationScheduler(cache=shared) as second:
        b = second.compile_program(dict(SHARED_SOURCES), 2, options)
    assert executable_fingerprint(
        a.executable
    ) == executable_fingerprint(b.executable)
    # The second scheduler recompiled nothing.
    assert b.metrics.stage_tasks.get("phase1", 0) == 0
    assert b.metrics.stage_tasks.get("phase2", 0) == 0
    assert shared.stats.hits["phase1"] >= 1
    assert shared.stats.hits["phase2"] >= 1


def test_cache_and_cache_dir_conflict(tmp_path):
    shared = ArtifactCache(tmp_path / "c")
    with pytest.raises(ValueError):
        CompilationScheduler(cache=shared, cache_dir=str(tmp_path / "d"))


def test_scheduler_cache_stays_caller_owned(tmp_path):
    shared = ArtifactCache(tmp_path / "c")
    scheduler = CompilationScheduler(cache=shared)
    assert scheduler.cache is shared
    scheduler.close()


def test_default_database_digest_equals_absent_digest(scheduler):
    """An explicitly-default directive entry and no entry at all are
    the same thing to phase 2, so they must digest identically."""
    from repro.analyzer.database import default_directives

    empty = ProgramDatabase()
    explicit = ProgramDatabase()
    explicit.put(default_directives("square"))
    names = ("square", "cube")
    assert empty.directive_digest(names) == explicit.directive_digest(names)


# -- bounded disk footprint ---------------------------------------------
#
# max_bytes caps the cache directory; stores evict the least-recently-
# accessed entries (loads refresh an entry's clock) until the total
# fits.  Mtimes are set explicitly below, so the tests are immune to
# filesystem timestamp granularity.


from repro.driver.cache import text_digest


def test_capped_cache_evicts_least_recently_accessed(tmp_path):
    cache = ArtifactCache(tmp_path / "c", max_bytes=15_000)
    blob = b"x" * 4000
    keys = [text_digest(f"entry-{i}") for i in range(3)]
    for key in keys:
        cache.store("phase1", key, blob)
    assert len(cache) == 3
    assert cache.total_bytes() <= 15_000
    # keys[1] is the coldest, keys[2] lukewarm, keys[0] untouched (hot:
    # its mtime is the recent store time).
    os.utime(cache._path(keys[1]), (1, 1))
    os.utime(cache._path(keys[2]), (2, 2))
    cache.store("phase1", text_digest("entry-3"), blob)
    assert cache.total_bytes() <= 15_000
    assert cache.load("phase1", keys[1]) is None, "coldest entry evicted"
    assert cache.load("phase1", keys[0]) == blob, "hot entry survives"
    assert cache.stats.evictions["phase1"] == 1


def test_hot_entry_keeps_hitting_under_store_pressure(tmp_path):
    cache = ArtifactCache(tmp_path / "c", max_bytes=15_000)
    hot = text_digest("hot")
    cache.store("phase1", hot, b"h" * 4000)
    for i in range(6):
        assert cache.load("phase1", hot) is not None
        filler = text_digest(f"filler-{i}")
        cache.store("phase1", filler, bytes([i]) * 4000)
        # Age the filler far into the past so every future eviction
        # round prefers it over the freshly-touched hot entry.
        os.utime(cache._path(filler), (100 + i, 100 + i))
        assert cache.total_bytes() <= cache.max_bytes
    assert cache.load("phase1", hot) is not None
    assert cache.stats.hits["phase1"] == 7
    assert cache.stats.evictions["phase1"] >= 3


def test_oversized_artifact_degrades_to_single_entry(tmp_path):
    """An artifact bigger than the whole budget is still cached (the
    just-written entry is never the victim); the next store displaces
    it."""
    cache = ArtifactCache(tmp_path / "c", max_bytes=1000)
    big = text_digest("big")
    cache.store("phase1", big, b"z" * 5000)
    assert cache.load("phase1", big) is not None
    assert len(cache) == 1
    cache.store("phase1", text_digest("other"), b"w" * 5000)
    assert cache.load("phase1", big) is None
    assert len(cache) == 1


def test_cache_limit_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
    assert ArtifactCache(tmp_path / "a").max_bytes == 12345
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
    assert ArtifactCache(tmp_path / "b").max_bytes is None
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
    assert ArtifactCache(tmp_path / "d").max_bytes is None
    # An explicit constructor argument wins over the environment.
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "999999")
    assert ArtifactCache(tmp_path / "e", max_bytes=42).max_bytes == 42


def test_eviction_counters_reach_scheduler_metrics(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "2000")
    with CompilationScheduler(cache_dir=tmp_path / "c") as sched:
        sched.compile_program(SOURCES)
        metrics = sched.metrics_snapshot()
    assert sum(metrics.cache_evictions.values()) > 0
    assert ArtifactCache(tmp_path / "c").total_bytes() <= 2000
