"""Compile-service load: 100+ concurrent edit sessions vs serial truth.

The daemon's whole claim is that many interactive sessions can share one
scheduler substrate — the shared artifact cache — and still get exactly
the executables a cold serial pipeline would produce.
This harness opens ``REPRO_SERVICE_SESSIONS`` concurrent client threads
(default 100) against one daemon.  Each session is seeded from a small
pool of fuzz programs (``FuzzProgramGenerator``), compiles, applies a
seeded ``mutate`` edit, and recompiles.  Every fingerprint that comes
back over the wire is checked byte-for-byte against a fresh, serial,
uncached compile of the same sources.

Sessions deliberately reuse seeds (pool of ~25 distinct programs), so
the run exercises both reuse axes at once: cross-session dedupe through
the shared cache, and per-edit reuse of the unedited modules'
phase-1/phase-2 artifacts inside a session.  Client-side request
latencies are recorded per operation and reported as p50/p95.  Results
land in the ``service_load`` section of ``BENCH_results.json``.

``REPRO_SERVICE_SESSIONS`` restricts the session count — CI's smoke
step runs with 12.
"""

import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro import AnalyzerOptions, CompilationScheduler
from repro.linker.link import executable_fingerprint
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread
from repro.verify.progen import FuzzProgramGenerator

from conftest import _SERVICE_LOAD, print_table, record_note

DEFAULT_SESSIONS = 100
SEED_POOL_CAP = 25
CONFIG = "C"
#: Floor for the shared-cache hit rate at full load: with ~4 sessions
#: per distinct program, most phase-1/phase-2 artifacts are compiled
#: once and then served from the cache.
MIN_HIT_RATE_FULL_LOAD = 0.30


def _session_count() -> int:
    override = os.environ.get("REPRO_SERVICE_SESSIONS")
    sessions = int(override) if override else DEFAULT_SESSIONS
    if sessions < 2:
        raise ValueError("REPRO_SERVICE_SESSIONS must be >= 2")
    return sessions


def _program_pair(seed: int):
    """The session's initial sources and their seeded one-step edit."""
    generator = FuzzProgramGenerator(seed)
    sources = generator.generate()
    mutated = generator.mutate(sources, step=1)
    return sources, mutated


def _serial_fingerprints(seeds):
    """seed -> (initial, mutated) fingerprints from cold serial compiles."""
    truth = {}
    options = AnalyzerOptions.config(CONFIG)
    for seed in seeds:
        sources, mutated = _program_pair(seed)
        pair = []
        for program in (sources, mutated):
            with CompilationScheduler() as scheduler:
                result = scheduler.compile_program(
                    dict(program), 2, options
                )
            pair.append(executable_fingerprint(result.executable))
        truth[seed] = tuple(pair)
    return truth


def _drive_session(path, seed, latencies):
    """One edit session: open, compile, seeded edit, recompile, close."""
    sources, mutated = _program_pair(seed)

    def timed(operation, fn):
        start = time.perf_counter()
        result = fn()
        latencies.append((operation, time.perf_counter() - start))
        return result

    with ServiceClient.connect_unix(path) as conn:
        session = timed(
            "open_session",
            lambda: conn.open_session(dict(sources), config=CONFIG),
        )["session"]
        first = timed("compile", lambda: conn.compile(session))
        for name in sorted(mutated):
            if sources.get(name) != mutated[name]:
                timed(
                    "edit",
                    lambda m=name: conn.edit(session, m, mutated[m]),
                )
        second = timed("compile", lambda: conn.compile(session))
        timed("close", lambda: conn.close_session(session))
    return seed, first["fingerprint"], second["fingerprint"]


def _percentile(values, fraction) -> float:
    ranked = sorted(values)
    index = min(len(ranked) - 1, int(fraction * len(ranked)))
    return ranked[index]


def test_service_load():
    sessions = _session_count()
    pool = max(2, min(SEED_POOL_CAP, sessions // 4 or 2))
    seeds = tuple(range(pool))
    truth = _serial_fingerprints(seeds)

    latencies: list = []  # (operation, seconds); list.append is atomic
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-svc-") as tmp, \
            ServiceThread(unix_path=os.path.join(tmp, "svc.sock")) as handle:
        path = handle.service.unix_path
        open_wall = time.perf_counter()
        with ThreadPoolExecutor(max_workers=sessions) as executor:
            outcomes = list(
                executor.map(
                    lambda i: _drive_session(
                        path, seeds[i % pool], latencies
                    ),
                    range(sessions),
                )
            )
        load_wall = time.perf_counter() - open_wall
        with ServiceClient.connect_unix(path) as conn:
            stats = conn.stats()
    total_wall = time.perf_counter() - started

    # Byte-identity: every daemon fingerprint equals the serial truth.
    mismatches = [
        (seed, which)
        for seed, first, second in outcomes
        for which, got in (("initial", first), ("mutated", second))
        if got != truth[seed][0 if which == "initial" else 1]
    ]
    assert not mismatches, mismatches
    assert len(outcomes) == sessions

    by_operation: dict = {}
    for operation, seconds in latencies:
        by_operation.setdefault(operation, []).append(seconds)
    latency_summary = {
        operation: {
            "count": len(values),
            "p50_ms": 1000 * _percentile(values, 0.50),
            "p95_ms": 1000 * _percentile(values, 0.95),
        }
        for operation, values in sorted(by_operation.items())
    }

    hit_rate = stats["cache"]["hit_rate"]
    compiles = stats["compiles_total"]
    _SERVICE_LOAD.update({
        "sessions": sessions,
        "distinct_programs": pool,
        "requests_total": stats["requests_total"],
        "compiles_total": compiles,
        "cache_hit_rate": hit_rate,
        "wall_seconds": load_wall,
        "sessions_per_sec": sessions / load_wall,
        "compiles_per_sec": compiles / load_wall,
        "latency": latency_summary,
        "byte_identical": True,
    })

    print_table(
        f"Service load: {sessions} concurrent edit sessions "
        f"({pool} distinct programs, one compile thread)",
        ("request", "count", "p50 ms", "p95 ms"),
        [
            (operation, summary["count"],
             f"{summary['p50_ms']:.1f}", f"{summary['p95_ms']:.1f}")
            for operation, summary in latency_summary.items()
        ],
    )
    record_note(
        f"service load: {compiles} compiles in {load_wall:.2f}s "
        f"({compiles / load_wall:.1f}/s), cache hit rate "
        f"{hit_rate:.2f}, all fingerprints byte-identical to serial"
    )

    assert compiles == 2 * sessions
    if sessions >= DEFAULT_SESSIONS:
        assert hit_rate >= MIN_HIT_RATE_FULL_LOAD, stats["cache"]
