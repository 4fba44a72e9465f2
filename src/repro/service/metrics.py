"""Observability glue between the compile service and :mod:`repro.obs`.

The daemon owns one :class:`~repro.obs.metrics.MetricsRegistry`,
mutated only from the event loop (the compile thread computes, the
loop narrates).  Every duration in it is a span's: each request runs
under its own tracer (a sinkless :class:`~repro.obs.tracer.SpanClock`
unless the daemon writes a trace), and this module pours that
tracer's per-name span totals into the registry:

* per-request counters and a latency histogram of the ``request``
  span (:func:`record_request`);
* each compile's stage, ``queue-wait`` and ``lock-wait`` spans and its
  stage task counts (:func:`fold_compile`) — the spans are the ones
  the compile reply reports and the trace records, so ``/metrics`` and
  a trace of the same requests sum to the same seconds;
* point-in-time service state — open sessions, queued/active jobs,
  shared-cache counters (:func:`fold_service_state`).  Cache counters
  are cache-wide (the cache is shared by design, that is the point),
  so they are exported as totals, not per-session.

``render_prometheus`` stamps the state gauges and returns the
exposition text the ``/metrics`` endpoint serves.
"""

from __future__ import annotations

from repro.obs.metrics import SECONDS_BUCKETS, MetricsRegistry
from repro.obs.tracer import STAGES
from repro.service.protocol import PROTOCOL_VERSION

#: Request latencies and per-phase compile histograms share one
#: explicit log-spaced bucket schema (``repro.obs.metrics.
#: SECONDS_BUCKETS``), so the prometheus exposition is structurally
#: stable across runs and the two families diff cleanly against each
#: other.
LATENCY_BUCKETS = SECONDS_BUCKETS

#: The compile spans ``repro_service_phase_seconds`` observes.
PHASES = STAGES + ("queue-wait", "lock-wait")


def record_request(registry: MetricsRegistry, operation: str,
                   outcome: str, seconds: float) -> None:
    """Count one finished frame and observe its ``request`` span."""
    registry.inc(
        "repro_service_requests_total", type=operation, outcome=outcome
    )
    registry.observe(
        "repro_service_request_seconds", seconds,
        buckets=LATENCY_BUCKETS, type=operation,
    )


def fold_compile(registry: MetricsRegistry, totals: dict,
                 stage_tasks: dict) -> None:
    """Pour one compile request's span totals into the registry.

    Each of :data:`PHASES` spans once per compile, so each observation
    of ``repro_service_phase_seconds`` is one span's seconds.  The
    compile's own ``stage_tasks`` (not the shared cache's counters,
    which :func:`fold_service_state` exports) go beside them.
    """
    for phase in PHASES:
        if phase in totals:
            registry.observe(
                "repro_service_phase_seconds", totals[phase],
                buckets=LATENCY_BUCKETS, phase=phase,
            )
            if phase in STAGES:
                registry.inc(
                    "repro_service_stage_seconds_total", totals[phase],
                    stage=phase,
                )
    for stage, count in stage_tasks.items():
        registry.inc(
            "repro_service_stage_tasks_total", count, stage=stage
        )


def fold_service_state(registry: MetricsRegistry, service) -> None:
    """Stamp the point-in-time gauges for one exposition/stats render."""
    registry.set_gauge(
        "repro_service_sessions_open", len(service.sessions)
    )
    registry.set_gauge(
        "repro_service_jobs_pending", service.jobs_pending
    )
    registry.set_gauge(
        "repro_service_jobs_active", service.jobs_active
    )
    registry.set_gauge(
        "repro_service_draining", int(service.draining)
    )
    cache = service.cache
    if cache is None:
        return
    for outcome, counters in cache.stats.snapshot().items():
        for stage, count in counters.items():
            registry.set_gauge(
                "repro_service_cache_events",
                count, stage=stage, outcome=outcome,
            )


def cache_hit_rate(cache) -> float:
    """Shared-cache hit rate across all stages (0.0 when idle)."""
    if cache is None:
        return 0.0
    snapshot = cache.stats.snapshot()
    hits = sum(snapshot["hits"].values())
    misses = sum(snapshot["misses"].values())
    total = hits + misses
    return hits / total if total else 0.0


def render_prometheus(registry: MetricsRegistry, service) -> str:
    """The ``/metrics`` endpoint body."""
    fold_service_state(registry, service)
    return registry.to_text()


def session_stats(session) -> dict:
    """Per-session JSON statistics (the ``stats`` operation's result).

    Everything is taken from the session's own scheduler, so the
    numbers are exact per session: ``stage_seconds`` are its tracer's
    stage totals, to which every compile adds its request's stage
    spans.  Shared-cache counters appear in the server-level stats
    instead.
    """
    snapshot = session.scheduler.metrics_snapshot()
    return {
        "session": session.name,
        "modules": sorted(session.sources),
        "opt_level": session.opt_level,
        "config": session.config,
        "allocator": session.allocator,
        "compiles": session.compiles,
        "edits": session.edits,
        "has_profile": session.profile is not None,
        "last_fingerprint": session.last_fingerprint,
        "stage_seconds": dict(snapshot.stage_seconds),
        "stage_tasks": dict(snapshot.stage_tasks),
    }


def server_stats(service) -> dict:
    """Server-level JSON statistics (``stats`` without a session)."""
    cache = service.cache
    payload = {
        "protocol_version": PROTOCOL_VERSION,
        "sessions_open": len(service.sessions),
        "sessions_opened_total": service.sessions_opened,
        "requests_total": service.requests_total,
        "compiles_total": service.compiles_total,
        "jobs_pending": service.jobs_pending,
        "jobs_active": service.jobs_active,
        "draining": service.draining,
        "trace_path": service.trace_path,
    }
    if cache is not None:
        payload["cache"] = {
            "hit_rate": cache_hit_rate(cache),
            **cache.stats.snapshot(),
        }
    return payload
