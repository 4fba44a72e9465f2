"""The compile service daemon.

A long-lived asyncio server multiplexing many concurrent edit/compile
sessions over the newline-JSON protocol of
:mod:`repro.service.protocol`, composed entirely from existing
subsystems:

* each session owns a serial
  :class:`~repro.driver.scheduler.CompilationScheduler`; an
  edit-recompile loop re-runs phase 1 only for the edited modules,
  phase 2 only for modules whose directives moved, and the
  whole-program analyzer in between — the paper's
  separate-compilation story as a service;
* every session's scheduler compiles against **one shared**
  :class:`~repro.driver.cache.ArtifactCache` (one LRU domain under
  ``REPRO_CACHE_MAX_BYTES``), so concurrent sessions dedupe
  phase-1/phase-2 work against each other;
* compiles run **off the event loop** on one compile thread: the loop
  admits jobs through a semaphore-guarded queue into a one-thread
  :class:`~concurrent.futures.ThreadPoolExecutor`, so slow compiles
  never block protocol traffic.  Compiles are CPU-bound Python, so
  more threads only contend for the GIL: one thread beat two and four
  on the 100-session load;
* one :class:`~repro.obs.metrics.MetricsRegistry` (mutated only from
  the loop) is exported at an HTTP ``/metrics`` prometheus endpoint
  plus per-session JSON ``stats`` replies.

Concurrency discipline, in one paragraph: the event loop owns all
mutable service state (sessions table, registry, counters).  A compile
job receives an immutable snapshot of its session's sources, runs on
the compile thread under the session's lock (so one session's compiles
are serialized and its scheduler state is single-threaded), and only
its *result* crosses back to the loop.  The shared cache's writes are
atomic (tempfile + rename) and content-addressed, so even a second
process sharing the directory can only ever store identical bytes
under the same key.

Shutdown drains gracefully: listeners close first, in-flight jobs run
to completion and their responses are delivered, new work is refused
with a structured ``shutting-down`` error, and only then do the
connections and the pool go down.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager
from dataclasses import dataclass, field

from repro.analyzer.options import AnalyzerOptions
from repro.driver.cache import ArtifactCache
from repro.driver.pipeline import collect_profile
from repro.driver.scheduler import CompilationScheduler
from repro.linker.link import executable_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, STAGES, SpanClock, Tracer
from repro.service import metrics as service_metrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceError,
    decode_frame,
    encode_frame,
    error_response,
    max_frame_bytes,
    ok_response,
    validate_request,
)

def _default_trace_path() -> str | None:
    return os.environ.get("REPRO_SERVICE_TRACE", "").strip() or None


@dataclass
class Session:
    """One edit/compile session's server-side state."""

    name: str
    sources: dict
    opt_level: int
    config: str | None
    allocator: str | None
    max_cycles: int
    scheduler: CompilationScheduler
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    profile: object = None
    compiles: int = 0
    edits: int = 0
    last_fingerprint: str | None = None


class CompileService:
    """The daemon.  Construct, ``await start()``, serve, ``await
    stop()`` — or use :class:`ServiceThread` from synchronous code.

    Args:
        unix_path: Path for the unix-domain listener (``None`` skips).
        host/port: TCP listener endpoint (``host=None`` skips;
            ``port=0`` picks a free port, see :attr:`tcp_address`).
        workers: Must be 1; any other value raises :class:`ValueError`.
            The daemon runs every compile on one thread, because more
            threads were slower on CPU-bound compiles
            (``BENCH_results.json`` → ``concurrency_decision``).
        cache: A shared :class:`ArtifactCache` to compile against.
        cache_dir: Root for a service-owned cache.  When neither
            ``cache`` nor ``cache_dir`` is given the service makes a
            private temporary cache and removes it on ``stop()``.
        metrics_port: Enable the HTTP ``/metrics`` endpoint on this
            port (``None`` disables; ``0`` picks a free port).
        drain_timeout: Seconds ``stop()`` waits for in-flight requests.
        trace_path: Write every request's span tree to this JSONL file
            (one stream per daemon; records are tagged with each
            request's ``trace`` id so concurrent sessions' streams can
            be regrouped deterministically — see
            :func:`repro.obs.tracer.trace_groups`).  ``None`` (the
            default) reads ``REPRO_SERVICE_TRACE``; unset disables
            request tracing entirely.
    """

    def __init__(
        self,
        unix_path: str | None = None,
        host: str | None = None,
        port: int = 0,
        workers: int = 1,
        cache: ArtifactCache | None = None,
        cache_dir: str | None = None,
        metrics_host: str = "127.0.0.1",
        metrics_port: int | None = None,
        drain_timeout: float = 30.0,
        trace_path: str | None = None,
    ):
        if unix_path is None and host is None:
            raise ValueError("need a unix_path and/or a TCP host")
        if workers != 1:
            raise ValueError(
                f"workers={workers!r} is no longer supported: the "
                "daemon runs every compile on one thread"
            )
        self.unix_path = unix_path
        self.host = host
        self.port = port
        self._cache_tempdir = None
        if cache is not None:
            self.cache = cache
        else:
            if cache_dir is None:
                self._cache_tempdir = tempfile.TemporaryDirectory(
                    prefix="repro-service-cache-"
                )
                cache_dir = self._cache_tempdir.name
            self.cache = ArtifactCache(cache_dir)
        self.metrics_host = metrics_host
        self.metrics_port = metrics_port
        self.drain_timeout = drain_timeout
        if trace_path is None:
            trace_path = _default_trace_path()
        self.trace_path = str(trace_path) if trace_path else None
        # Written only from the event loop (_flush_request_trace), so
        # concurrent requests' record blocks never interleave mid-line.
        self._trace_file = (
            open(self.trace_path, "w", encoding="utf-8")
            if self.trace_path
            else None
        )

        self.registry = MetricsRegistry()
        self.sessions: dict[str, Session] = {}
        self.sessions_opened = 0
        self.requests_total = 0
        self.compiles_total = 0
        self.jobs_pending = 0
        self.jobs_active = 0
        self.draining = False

        self._servers: list = []
        self._metrics_server = None
        self._pool: ThreadPoolExecutor | None = None
        self._job_slots: asyncio.Semaphore | None = None
        self._session_counter = 0
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._max_frame = max_frame_bytes()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service"
        )
        self._job_slots = asyncio.Semaphore(1)
        if self.unix_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_connection,
                    path=self.unix_path,
                    limit=self._max_frame + 1024,
                )
            )
        if self.host is not None:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_connection,
                    host=self.host,
                    port=self.port,
                    limit=self._max_frame + 1024,
                )
            )
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics,
                host=self.metrics_host,
                port=self.metrics_port,
            )

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or a ``shutdown`` request)."""
        tasks = [
            asyncio.create_task(server.serve_forever())
            for server in self._servers
        ]
        if self._metrics_server is not None:
            tasks.append(
                asyncio.create_task(self._metrics_server.serve_forever())
            )
        with contextlib.suppress(asyncio.CancelledError):
            await asyncio.gather(*tasks)

    @property
    def tcp_address(self):
        """``(host, port)`` of the TCP listener (``None`` without one)."""
        for server in self._servers:
            for sock in server.sockets:
                name = sock.getsockname()
                if isinstance(name, tuple):
                    return name[:2]
        return None

    @property
    def metrics_address(self):
        if self._metrics_server is None:
            return None
        return self._metrics_server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        """Graceful drain: refuse new work, finish in-flight requests,
        then tear down listeners, pool, and the private cache."""
        self.draining = True
        for server in self._servers + (
            [self._metrics_server] if self._metrics_server else []
        ):
            server.close()
        # In-flight requests (including queued compiles) run to
        # completion and their responses are delivered before the
        # connections die with the loop.
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.drain_timeout
            )
        for server in self._servers + (
            [self._metrics_server] if self._metrics_server else []
        ):
            with contextlib.suppress(Exception):
                await server.wait_closed()
        self._servers = []
        self._metrics_server = None
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        for session in self.sessions.values():
            session.scheduler.close()
        self.sessions.clear()
        if self.unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.unix_path)
        if self._cache_tempdir is not None:
            with contextlib.suppress(OSError):
                self._cache_tempdir.cleanup()
            self._cache_tempdir = None
        if self._trace_file is not None:
            with contextlib.suppress(OSError):
                self._trace_file.close()
            self._trace_file = None

    # -- connection handling ----------------------------------------------

    async def _send(self, writer, payload: dict) -> None:
        writer.write(encode_frame(payload))
        await writer.drain()

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Frame exceeded the stream limit: the buffer was
                    # discarded and the stream is desynced — answer
                    # with a structured error, then hang up.
                    with contextlib.suppress(Exception):
                        await self._send(
                            writer,
                            error_response(
                                None,
                                "frame-too-large",
                                f"frame exceeds the "
                                f"{self._max_frame}-byte limit",
                            ),
                        )
                    break
                if not line:
                    break  # EOF (covers truncated trailing frames)
                if line.strip() == b"":
                    continue
                response = await self._handle_frame(line)
                try:
                    await self._send(writer, response)
                except (ConnectionError, BrokenPipeError):
                    # Client vanished mid-reply (possibly mid-compile).
                    # The work is done and the session state is
                    # consistent; just drop the connection.
                    break
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _handle_frame(self, line: bytes) -> dict:
        self.requests_total += 1
        self._active_requests += 1
        self._idle.clear()
        operation = "invalid"
        outcome = "error"
        # The request's clock: its span totals are the reply's
        # durations and the registry's observations.
        tracer = Tracer() if self._trace_file is not None else SpanClock()
        trace_id = None
        try:
            try:
                payload = decode_frame(line, limit=self._max_frame)
                request_id, operation, params = validate_request(payload)
            except ProtocolError as err:
                return error_response(
                    err.request_id, err.code, err.message
                )
            # The request span: every record of this request — the
            # queue/lock waits recorded on the loop and the scheduler's
            # phase spans recorded on the compile thread — nests under
            # it in a private, request-scoped tracer whose ordinals and
            # span ids restart per request (that privacy is what makes
            # per-trace streams deterministic under concurrency).
            trace_id = (
                params.pop("trace", None)
                or params.get("session")
                or "-"
            )
            with tracer.span(
                "request",
                op=operation,
                request=request_id,
                trace=trace_id,
                session=params.get("session"),
            ):
                try:
                    result = await self._dispatch(
                        operation, params, tracer
                    )
                    outcome = "ok"
                    return ok_response(request_id, result)
                except ServiceError as err:
                    if tracer.enabled:
                        tracer.event("request-error", code=err.code)
                    return error_response(
                        request_id, err.code, err.message
                    )
                except Exception as err:  # noqa: BLE001 — the server
                    # must survive anything a compile can throw
                    # (front-end errors, audit failures, pickling
                    # trouble); the failure is the client's news, not
                    # the daemon's end.
                    if tracer.enabled:
                        tracer.event(
                            "request-error", code="internal-error"
                        )
                    return error_response(
                        request_id,
                        "internal-error",
                        f"{type(err).__name__}: {err}",
                    )
        finally:
            self._active_requests -= 1
            if self._active_requests == 0:
                self._idle.set()
            if tracer.enabled:
                self._flush_request_trace(tracer, trace_id)
            # A frame that fails to decode opens no request span.
            service_metrics.record_request(
                self.registry, operation, outcome,
                tracer.totals.get("request", 0.0),
            )

    def _flush_request_trace(self, tracer, trace_id) -> None:
        """Append one finished request's records to the daemon stream.

        Runs on the event loop only, after the request span has closed,
        so each request's block lands contiguously; within one trace id
        the client's request/response cycle already serializes blocks,
        which keeps every per-trace stream in deterministic order no
        matter how many other traces interleave around it.
        """
        file = self._trace_file
        if file is None:
            return
        lines = []
        for record in tracer.records:
            tagged = dict(record)
            tagged["trace"] = trace_id
            lines.append(json.dumps(tagged, sort_keys=True))
        if lines:
            file.write("\n".join(lines) + "\n")
            file.flush()

    # -- operations -------------------------------------------------------

    async def _dispatch(
        self, operation: str, params: dict, tracer=NULL_TRACER
    ) -> dict:
        handler = getattr(self, f"_op_{operation}")
        return await handler(params, tracer)

    @asynccontextmanager
    async def _locked(self, session: Session, tracer):
        """Acquire the session lock under a ``lock-wait`` span."""
        with tracer.span("lock-wait"):
            await session.lock.acquire()
        try:
            yield
        finally:
            session.lock.release()

    def _session(self, name: str) -> Session:
        session = self.sessions.get(name)
        if session is None:
            raise ServiceError(
                "unknown-session", f"no session named {name!r}"
            )
        return session

    async def _run_job(self, fn, tracer=NULL_TRACER):
        """Admit one compute job to the compile thread.

        The wait for the thread is the ``queue-wait`` span and the job
        itself, on the compile thread, the ``job`` span.  After the job
        returns, a ``worker-handoff`` event records how long the job
        sat between submission to the executor and its first
        instruction on the thread — executor-side latency the
        semaphore cannot see.
        """
        if self.draining:
            raise ServiceError(
                "shutting-down", "service is draining; no new jobs"
            )
        loop = asyncio.get_running_loop()
        self.jobs_pending += 1
        try:
            with tracer.span("queue-wait"):
                await self._job_slots.acquire()
            self.jobs_active += 1
            try:
                submitted = time.perf_counter()
                handoff: dict = {}

                def entered():
                    handoff["start"] = time.perf_counter()
                    with tracer.span("job"):
                        return fn()

                result = await loop.run_in_executor(
                    self._pool, entered
                )
                if tracer.enabled:
                    tracer.event(
                        "worker-handoff",
                        seconds=(
                            handoff.get("start", submitted) - submitted
                        ),
                    )
                return result
            finally:
                self.jobs_active -= 1
                self._job_slots.release()
        finally:
            self.jobs_pending -= 1

    async def _op_open_session(
        self, params: dict, tracer=NULL_TRACER
    ) -> dict:
        if self.draining:
            raise ServiceError(
                "shutting-down", "service is draining; no new sessions"
            )
        self._session_counter += 1
        name = f"s{self._session_counter}"
        session = Session(
            name=name,
            sources=dict(params.get("sources") or {}),
            opt_level=params.get("opt_level", 2),
            config=params.get("config", "C"),
            allocator=params.get("allocator"),
            max_cycles=params.get("max_cycles", 200_000_000),
            scheduler=CompilationScheduler(
                cache=self.cache,
                verify=False,
                allocator=params.get("allocator"),
            ),
        )
        self.sessions[name] = session
        self.sessions_opened += 1
        return {
            "session": name,
            "modules": sorted(session.sources),
            "opt_level": session.opt_level,
            "config": session.config,
            "protocol_version": PROTOCOL_VERSION,
        }

    async def _op_edit(
        self, params: dict, tracer=NULL_TRACER
    ) -> dict:
        session = self._session(params["session"])
        module, text = params["module"], params["text"]
        async with self._locked(session, tracer):
            if text is None:
                if module not in session.sources:
                    raise ServiceError(
                        "unknown-module",
                        f"session {session.name} has no module "
                        f"{module!r} to remove",
                    )
                del session.sources[module]
            else:
                session.sources[module] = text
            session.edits += 1
            return {
                "session": session.name,
                "modules": sorted(session.sources),
            }

    async def _op_compile(
        self, params: dict, tracer=NULL_TRACER
    ) -> dict:
        session = self._session(params["session"])
        async with self._locked(session, tracer):
            if not session.sources:
                raise ServiceError(
                    "empty-session",
                    f"session {session.name} has no modules",
                )
            # Snapshot on the loop: `edit` can run the moment the lock
            # is released, but this job's view stays consistent.
            sources = dict(session.sources)
            scheduler = session.scheduler
            config = session.config
            opt_level = session.opt_level
            profile = session.profile

            def job():
                # Point the session's scheduler at the request-scoped
                # tracer so its stage spans nest under this request's
                # span tree (its analyzer runs with that tracer
                # ambient), then add them to the scheduler's own tracer
                # (the session's cumulative stats).  Safe because the
                # session lock serializes this session's compiles.
                own = scheduler.tracer
                scheduler.tracer = tracer
                try:
                    options = None
                    if config is not None:
                        options = AnalyzerOptions.config(
                            config,
                            profile if config in ("B", "F") else None,
                        )
                    result = scheduler.compile_program(
                        sources, opt_level, options
                    )
                    return (
                        executable_fingerprint(result.executable),
                        result.metrics,
                    )
                finally:
                    scheduler.tracer = own
                    for stage in STAGES:
                        if stage in tracer.totals:
                            own.totals[stage] = (
                                own.totals.get(stage, 0.0)
                                + tracer.totals[stage]
                            )

            with tracer.span("compile"):
                fingerprint, metrics = await self._run_job(job, tracer)
            session.compiles += 1
            session.last_fingerprint = fingerprint
            self.compiles_total += 1
            totals = tracer.totals
            service_metrics.fold_compile(
                self.registry, totals, metrics.stage_tasks
            )
            modules = len(sources)
            phase1_compiled = metrics.stage_tasks.get("phase1", 0)
            phase2_compiled = metrics.stage_tasks.get("phase2", 0)
            return {
                "session": session.name,
                "fingerprint": fingerprint,
                "modules": modules,
                "phase1_compiled": phase1_compiled,
                "phase1_cached": modules - phase1_compiled,
                "phase2_compiled": phase2_compiled,
                "phase2_cached": modules - phase2_compiled,
                # Always empty; kept so clients that read it still work.
                "analyze": {},
                # This compile's stage spans (the request tracer's).
                "stage_seconds": metrics.stage_seconds,
                "seconds": totals["job"],
                "queue_seconds": totals["queue-wait"],
                "lock_seconds": totals["lock-wait"],
            }

    async def _op_profile(
        self, params: dict, tracer=NULL_TRACER
    ) -> dict:
        session = self._session(params["session"])
        async with self._locked(session, tracer):
            if not session.sources:
                raise ServiceError(
                    "empty-session",
                    f"session {session.name} has no modules",
                )
            sources = dict(session.sources)
            scheduler = session.scheduler
            opt_level = session.opt_level
            max_cycles = session.max_cycles

            def job():
                phase1 = scheduler.run_phase1(sources, opt_level)
                return collect_profile(
                    phase1, opt_level, max_cycles, scheduler=scheduler
                )

            profile = await self._run_job(job, tracer)
            session.profile = profile
            return {
                "session": session.name,
                "procedures": len(profile.call_counts),
                "call_counts": {
                    name: profile.call_counts[name]
                    for name in sorted(profile.call_counts)
                },
            }

    async def _op_stats(
        self, params: dict, tracer=NULL_TRACER
    ) -> dict:
        name = params.get("session")
        if name is None:
            return service_metrics.server_stats(self)
        session = self._session(name)
        # Under the lock: an in-flight compile has swapped the
        # scheduler's tracer for its request's (see _op_compile).
        async with self._locked(session, tracer):
            return service_metrics.session_stats(session)

    async def _op_close(
        self, params: dict, tracer=NULL_TRACER
    ) -> dict:
        session = self._session(params["session"])
        # let an in-flight compile finish
        async with self._locked(session, tracer):
            self.sessions.pop(session.name, None)
            session.scheduler.close()
        return {"session": session.name, "closed": True}

    async def _op_ping(
        self, params: dict, tracer=NULL_TRACER
    ) -> dict:
        return {"pong": True, "protocol_version": PROTOCOL_VERSION}

    async def _op_shutdown(
        self, params: dict, tracer=NULL_TRACER
    ) -> dict:
        # Reply first, then drain: the requester gets its answer.
        asyncio.get_running_loop().create_task(self.stop())
        return {"draining": True}

    # -- /metrics endpoint -------------------------------------------------

    async def _handle_metrics(self, reader, writer) -> None:
        """A deliberately tiny HTTP/1.1 responder: enough for a
        prometheus scraper, zero dependencies."""
        try:
            request_line = await reader.readline()
            while True:  # drain request headers
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else "/"
            if path.split("?")[0] == "/metrics":
                body = service_metrics.render_prometheus(
                    self.registry, self
                ).encode("utf-8")
                status = "200 OK"
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            elif path == "/healthz":
                body = b"ok\n"
                status = "200 OK"
                ctype = "text/plain; charset=utf-8"
            else:
                body = b"not found\n"
                status = "404 Not Found"
                ctype = "text/plain; charset=utf-8"
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()


class ServiceThread:
    """Run a :class:`CompileService` on a dedicated event-loop thread.

    The synchronous world's handle on the daemon: tests, benchmarks,
    and ``compiler_explorer.py --serve`` use it as a context manager::

        with ServiceThread(unix_path=path) as handle:
            client = ServiceClient.connect_unix(path)
            ...

    Exit waits for a graceful drain before joining the thread.
    """

    def __init__(self, **service_kwargs):
        self._kwargs = service_kwargs
        self.service: CompileService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error = None

    def __enter__(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.service is None:
            raise RuntimeError("service failed to start in time")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop
        try:
            self.service = CompileService(**self._kwargs)
            loop.run_until_complete(self.service.start())
        except Exception as err:  # surfaced to __enter__
            self._startup_error = err
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def __exit__(self, *exc_info) -> None:
        if self.loop is None:
            return
        if self.service is not None:
            future = asyncio.run_coroutine_threadsafe(
                self.service.stop(), self.loop
            )
            with contextlib.suppress(Exception):
                future.result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)

    @property
    def tcp_address(self):
        return self.service.tcp_address if self.service else None

    @property
    def metrics_address(self):
        return self.service.metrics_address if self.service else None
