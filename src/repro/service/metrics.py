"""Observability glue between the compile service and :mod:`repro.obs`.

The daemon owns one :class:`~repro.obs.metrics.MetricsRegistry`,
mutated only from the event loop (the compile thread computes, the
loop narrates).  This module holds the fold functions that pour service
activity into it:

* per-request counters and a latency histogram
  (:func:`record_request`);
* each compile's per-stage wall-clock/task deltas
  (:func:`fold_compile_delta`) — these come from the *session's own*
  scheduler under the session lock, so they are exact even with many
  sessions in flight;
* point-in-time service state — open sessions, queued/active jobs,
  shared-cache counters (:func:`fold_service_state`).  Cache counters
  are cache-wide (the cache is shared by design, that is the point),
  so they are exported as totals, not per-session.

``render_prometheus`` stamps the state gauges and returns the
exposition text the ``/metrics`` endpoint serves.
"""

from __future__ import annotations

from repro.obs.metrics import SECONDS_BUCKETS, MetricsRegistry
from repro.service.protocol import PROTOCOL_VERSION

#: Request latencies and per-phase compile histograms share one
#: explicit log-spaced bucket schema (``repro.obs.metrics.
#: SECONDS_BUCKETS``), so the prometheus exposition is structurally
#: stable across runs and the two families diff cleanly against each
#: other.
LATENCY_BUCKETS = SECONDS_BUCKETS


def record_request(registry: MetricsRegistry, operation: str,
                   outcome: str, seconds: float) -> None:
    """Count one finished request and observe its wall-clock."""
    registry.inc(
        "repro_service_requests_total", type=operation, outcome=outcome
    )
    registry.observe(
        "repro_service_request_seconds", seconds,
        buckets=LATENCY_BUCKETS, type=operation,
    )


def fold_compile_delta(registry: MetricsRegistry, delta) -> None:
    """Fold one compile's :class:`MetricsSnapshot` difference.

    Only the per-scheduler families are folded (stage seconds and stage
    tasks): the ``cache_*`` families in a per-compile delta are deltas
    of the *shared* cache's counters and would double-count concurrent
    sessions' traffic; the shared cache is exported once, as totals, by
    :func:`fold_service_state`.

    Each stage's wall-clock additionally lands in the per-phase
    latency histogram ``repro_service_phase_seconds`` (one observation
    per compile per stage, shared :data:`LATENCY_BUCKETS` schema), so
    ``/metrics`` answers "where do compiles spend their time" with a
    distribution, not just a running total.
    """
    for stage, seconds in delta.stage_seconds.items():
        registry.inc(
            "repro_service_stage_seconds_total", seconds, stage=stage
        )
        registry.observe(
            "repro_service_phase_seconds", seconds,
            buckets=LATENCY_BUCKETS, phase=stage,
        )
    for stage, count in delta.stage_tasks.items():
        registry.inc(
            "repro_service_stage_tasks_total", count, stage=stage
        )


def record_compile_waits(registry: MetricsRegistry,
                         queue_seconds: float,
                         lock_seconds: float) -> None:
    """Observe one compile's queue/session-lock waits (same schema)."""
    registry.observe(
        "repro_service_phase_seconds", queue_seconds,
        buckets=LATENCY_BUCKETS, phase="queue-wait",
    )
    registry.observe(
        "repro_service_phase_seconds", lock_seconds,
        buckets=LATENCY_BUCKETS, phase="lock-wait",
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
    numbers are exact per session; shared-cache counters appear in the
    server-level stats instead.
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
