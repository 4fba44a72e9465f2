"""Daemon behavior: session lifecycle, determinism vs serial compiles,
shared-cache dedupe, concurrency, metrics, graceful drain."""

import threading
import urllib.request

import pytest

from repro import AnalyzerOptions, CompilationScheduler
from repro.driver.cache import ArtifactCache
from repro.linker.link import executable_fingerprint
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import CompileService, ServiceThread
from repro.verify.progen import FuzzProgramGenerator

SOURCES = {
    "main": """
int total;
int scale;
extern int accumulate(int x);
int main() {
  int i;
  scale = 3;
  for (i = 0; i < 20; i++) total = accumulate(i);
  print(total);
  return 0;
}
""",
    "lib": """
extern int total;
extern int scale;
int accumulate(int x) {
  total = total + x * scale;
  return total;
}
""",
}


def serial_fingerprint(sources, config="C", opt_level=2) -> str:
    """The oracle: a fresh, serial, uncached compile."""
    with CompilationScheduler() as scheduler:
        options = (
            AnalyzerOptions.config(config) if config is not None else None
        )
        result = scheduler.compile_program(sources, opt_level, options)
    return executable_fingerprint(result.executable)


class TestLifecycle:
    def test_ping(self, client):
        result = client.ping()
        assert result["pong"] is True
        assert result["protocol_version"] == 1

    def test_open_compile_close(self, client):
        opened = client.open_session(dict(SOURCES))
        session = opened["session"]
        assert opened["modules"] == ["lib", "main"]
        assert opened["config"] == "C"

        out = client.compile(session)
        assert out["fingerprint"] == serial_fingerprint(SOURCES)
        assert out["modules"] == 2
        assert out["phase1_compiled"] + out["phase1_cached"] == 2

        closed = client.close_session(session)
        assert closed["closed"] is True
        with pytest.raises(ServiceError) as excinfo:
            client.compile(session)
        assert excinfo.value.code == "unknown-session"

    def test_recompile_reuses_everything(self, client):
        session = client.open_session(dict(SOURCES))["session"]
        client.compile(session)
        again = client.compile(session)
        # Unchanged sources: every phase-1/phase-2 artifact comes from
        # the shared cache.
        assert again["phase1_compiled"] == 0
        assert again["phase2_compiled"] == 0
        client.close_session(session)

    def test_edit_recompiles_only_dirty_module(self, client):
        session = client.open_session(dict(SOURCES))["session"]
        first = client.compile(session)
        edited = SOURCES["lib"].replace("x * scale", "x * scale + 1")
        client.edit(session, "lib", edited)
        second = client.compile(session)
        assert second["phase1_compiled"] == 1  # only lib
        assert second["fingerprint"] != first["fingerprint"]
        assert second["fingerprint"] == serial_fingerprint(
            {**SOURCES, "lib": edited}
        )
        client.close_session(session)

    def test_edit_remove_module(self, client):
        session = client.open_session(
            {"a": "int main() { print(1); return 0; }",
             "b": "int unused(int x) { return x; }"}
        )["session"]
        out = client.edit(session, "b", None)
        assert out["modules"] == ["a"]
        with pytest.raises(ServiceError) as excinfo:
            client.edit(session, "b", None)
        assert excinfo.value.code == "unknown-module"
        client.close_session(session)

    def test_baseline_config_null(self, client):
        session = client.open_session(dict(SOURCES), config=None)["session"]
        out = client.compile(session)
        assert out["fingerprint"] == serial_fingerprint(
            SOURCES, config=None
        )
        assert out["analyze"] == {}  # no analyzer stage at baseline
        client.close_session(session)

    def test_profile_feeds_config_b(self, client):
        session = client.open_session(
            dict(SOURCES), config="B", max_cycles=2_000_000
        )["session"]
        profiled = client.profile(session)
        assert profiled["call_counts"].get("accumulate") == 20
        out = client.compile(session)

        with CompilationScheduler() as scheduler:
            phase1 = scheduler.run_phase1(SOURCES, 2)
            from repro.driver.pipeline import collect_profile

            profile = collect_profile(
                phase1, 2, 2_000_000, scheduler=scheduler
            )
            database = scheduler.analyze(
                [r.summary for r in phase1],
                AnalyzerOptions.config("B", profile),
            )
            executable = scheduler.compile_with_database(
                phase1, database, 2
            )
        assert out["fingerprint"] == executable_fingerprint(executable)
        client.close_session(session)

    def test_empty_session_compile_is_structured(self, client):
        session = client.open_session()["session"]
        with pytest.raises(ServiceError) as excinfo:
            client.compile(session)
        assert excinfo.value.code == "empty-session"
        client.close_session(session)


class TestSharedCache:
    def test_sessions_dedupe_against_each_other(self, client, service):
        first = client.open_session(dict(SOURCES))["session"]
        client.compile(first)
        second = client.open_session(dict(SOURCES))["session"]
        out = client.compile(second)
        # The second session never saw these sources, but the shared
        # cache did: zero phase-1 and zero phase-2 recompiles.
        assert out["phase1_compiled"] == 0
        assert out["phase2_compiled"] == 0
        assert out["fingerprint"] == serial_fingerprint(SOURCES)
        client.close_session(first)
        client.close_session(second)

    def test_server_stats_report_shared_cache(self, client):
        stats = client.stats()
        assert set(stats["cache"]) == {
            "hit_rate", "hits", "misses", "bad_entries", "evictions",
        }
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert "workers" not in stats

    def test_session_stats(self, client):
        session = client.open_session(dict(SOURCES))["session"]
        client.compile(session)
        stats = client.stats(session)
        assert stats["compiles"] == 1
        assert stats["modules"] == ["lib", "main"]
        assert stats["stage_tasks"].get("analyze") == 1
        client.close_session(session)


class TestConcurrency:
    def test_workers_keyword_accepts_only_one(self, tmp_path):
        """The daemon has exactly one compile thread; ``workers``
        survives only as a keyword that accepts 1."""
        cache = ArtifactCache(tmp_path / "cache")
        CompileService(
            unix_path=str(tmp_path / "s.sock"), workers=1, cache=cache,
            trace_path="",
        )
        for workers in (2, None):
            with pytest.raises(ValueError, match="one thread"):
                CompileService(
                    unix_path=str(tmp_path / "s.sock"), workers=workers,
                    cache=cache, trace_path="",
                )

    def test_concurrent_sessions_match_serial(self, service):
        """Seeded edit sessions driven from racing threads produce
        byte-identical executables vs fresh serial compiles."""
        seeds = (11, 23, 47)
        failures = []
        fingerprints = {}

        def drive(seed: int) -> None:
            try:
                generator = FuzzProgramGenerator(seed)
                sources = generator.generate()
                with ServiceClient.connect_unix(
                    service.service.unix_path
                ) as conn:
                    session = conn.open_session(dict(sources))["session"]
                    first = conn.compile(session)["fingerprint"]
                    mutated = generator.mutate(sources, step=1)
                    for name, text in mutated.items():
                        if sources.get(name) != text:
                            conn.edit(session, name, text)
                    second = conn.compile(session)["fingerprint"]
                    conn.close_session(session)
                fingerprints[seed] = (sources, mutated, first, second)
            except Exception as err:  # propagated to the main thread
                failures.append((seed, repr(err)))

        threads = [
            threading.Thread(target=drive, args=(seed,))
            for seed in seeds
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not failures, failures
        for seed in seeds:
            sources, mutated, first, second = fingerprints[seed]
            assert first == serial_fingerprint(sources), seed
            assert second == serial_fingerprint(mutated), seed

    def test_session_stats_wait_for_an_inflight_compile(
        self, tmp_path, monkeypatch
    ):
        """While a compile runs, its session's scheduler opens spans on
        the request's tracer; ``stats`` for the session waits for the
        compile, so it reports the finished compile's stage seconds."""
        import repro.service.server as server_module

        entered, release = threading.Event(), threading.Event()
        fingerprint = server_module.executable_fingerprint

        def held_fingerprint(executable):
            entered.set()
            release.wait(timeout=60)
            return fingerprint(executable)

        monkeypatch.setattr(
            server_module, "executable_fingerprint", held_fingerprint
        )
        reply, stats = {}, {}
        with ServiceThread(unix_path=str(tmp_path / "stats.sock")) as handle:
            path = handle.service.unix_path
            with ServiceClient.connect_unix(path) as conn, \
                    ServiceClient.connect_unix(path) as other:
                session = conn.open_session(dict(SOURCES))["session"]
                compiling = threading.Thread(
                    target=lambda: reply.update(conn.compile(session))
                )
                compiling.start()
                assert entered.wait(timeout=60)
                asking = threading.Thread(
                    target=lambda: stats.update(other.stats(session))
                )
                asking.start()
                asking.join(timeout=0.5)  # still waiting on the lock
                release.set()
                compiling.join(timeout=60)
                asking.join(timeout=60)
        assert not compiling.is_alive() and not asking.is_alive()
        assert stats["compiles"] == 1
        assert stats["stage_seconds"] == reply["stage_seconds"]

    def test_tcp_listener(self, service):
        host, port = service.tcp_address
        with ServiceClient.connect_tcp(host, port) as conn:
            assert conn.ping()["pong"] is True
            session = conn.open_session(
                {"m": "int main() { print(7); return 0; }"}
            )["session"]
            assert conn.compile(session)["modules"] == 1
            conn.close_session(session)


class TestMetricsEndpoint:
    def test_prometheus_text(self, client, service):
        client.ping()  # ensure at least one request is on the books
        host, port = service.metrics_address
        body = urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=30
        ).read().decode("utf-8")
        assert "# TYPE repro_service_requests_total counter" in body
        assert "repro_service_sessions_open" in body
        assert "repro_service_jobs_active" in body
        assert "repro_service_workers" not in body
        assert "repro_service_cache_shards" not in body
        assert "repro_service_request_seconds_bucket" in body

    def test_unknown_path_404(self, service):
        host, port = service.metrics_address
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://{host}:{port}/nope", timeout=30
            )
        assert excinfo.value.code == 404

    def test_healthz(self, service):
        host, port = service.metrics_address
        body = urllib.request.urlopen(
            f"http://{host}:{port}/healthz", timeout=30
        ).read()
        assert body == b"ok\n"


class TestDrain:
    def test_shutdown_drains_gracefully(self, tmp_path):
        with ServiceThread(unix_path=str(tmp_path / "drain.sock")) as handle:
            path = handle.service.unix_path
            with ServiceClient.connect_unix(path) as conn:
                session = conn.open_session(
                    {"m": "int main() { print(3); return 0; }"}
                )["session"]
                compiled = conn.compile(session)
                assert compiled["fingerprint"]
                assert conn.shutdown()["draining"] is True
                # The existing connection stays readable, but new work
                # is refused with a structured error.
                with pytest.raises((ServiceError, ConnectionError)) as excinfo:
                    conn.open_session({"m": "int main() { return 0; }"})
                if isinstance(excinfo.value, ServiceError):
                    assert excinfo.value.code == "shutting-down"

    def test_shutdown_mid_compile_finishes_job(self, tmp_path):
        """A shutdown racing an in-flight compile: the compile's
        response is still delivered before the daemon goes down."""
        with ServiceThread(unix_path=str(tmp_path / "race.sock")) as handle:
            path = handle.service.unix_path
            sources = FuzzProgramGenerator(5).generate()
            with ServiceClient.connect_unix(path) as conn:
                session = conn.open_session(dict(sources))["session"]
                result = {}
                refused = []

                def compile_now():
                    try:
                        result.update(conn.compile(session))
                    except ServiceError as err:
                        refused.append(err)

                worker = threading.Thread(target=compile_now)
                worker.start()
                import time

                time.sleep(0.2)  # let the compile reach the queue
                with ServiceClient.connect_unix(path) as other:
                    try:
                        other.shutdown()
                    except (ServiceError, ConnectionError):
                        pass  # lost the race with its own drain
                worker.join(timeout=300)
                if refused:  # shutdown won the race: structured refusal
                    assert refused[0].code == "shutting-down"
                else:  # drain waited for the in-flight compile
                    assert result.get(
                        "fingerprint"
                    ) == serial_fingerprint(sources)
