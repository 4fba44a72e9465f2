"""Tracing overhead smoke: untraced hooks and enabled request tracing.

The observability instrumentation stays compiled into the pipeline even
when nothing is traced, and spans are the one clock: an untraced
scheduler and every untraced daemon request run a sinkless
:class:`~repro.obs.tracer.SpanClock` whose spans add their wall-clock to
per-name totals (the stage seconds, reply durations and ``/metrics``
histograms).  The contract is that these untraced hooks — ambient-tracer
lookups, ``enabled`` checks, and aggregating span entries — cost under
5% of compile wall-clock.  There is no un-instrumented build to diff
against, so the measurement is constructive:

1. time an untraced othello compile (phase 1, config-C analysis,
   phase 2, link) on the default scheduler;
2. count every hook invocation the same compile performs, by giving the
   scheduler a counting (still sinkless) clock and swapping it into each
   instrumented module's ambient lookup;
3. price the hooks with measured per-call costs (best of 5 x 200k
   calls) and assert that ``hook_seconds / compile_seconds < 0.05``.

The same per-call prices also cover the service's request hooks (the
request's clock, its request/lock-wait/compile/queue-wait/job spans
and the event guards an untraced daemon still evaluates), asserted to
cost well under a millisecond per request.  A second test prices
*enabled* request tracing end-to-end: the same serial edit/recompile
session is driven through an untraced and a traced daemon (best of five
each), and the traced run's server-reported compile seconds must stay
within 5% of the untraced run.

Results are recorded in the repo-root ``BENCH_results.json`` under
``"observability_overhead"``.
"""

import os
import tempfile
import timeit

from repro.analyzer.options import AnalyzerOptions
from repro.driver.scheduler import CompilationScheduler
from repro.obs.tracer import NULL_TRACER, SpanClock, current_tracer
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread
from repro.verify.progen import FuzzProgramGenerator
from repro.workloads import get_workload

from conftest import _OBSERVABILITY, record_note

WORKLOAD = "othello"
CONFIG = "C"
BUDGET_FRACTION = 0.05

#: Aggregating spans an untraced daemon opens per compile request
#: (request, lock-wait, compile, queue-wait, job) beside the
#: scheduler's, and the event guards it still evaluates
#: (worker-handoff, request-error).
REQUEST_SPAN_SITES = 5
REQUEST_EVENT_GUARDS = 2

#: Calls per timing and timings per price (the best one counts).
CALLS = 200_000
REPEATS = 5

#: Edit/recompile rounds of the enabled-tracing service measurement.
SERVICE_EDIT_ROUNDS = 3


class _CountingClock(SpanClock):
    """Sinkless clock that tallies hook invocations.

    ``enabled`` stays ``False`` and its spans still aggregate, so every
    site behaves exactly as in the untraced compile: payload
    construction is skipped and only the guard and the span run.
    """

    def __init__(self):
        super().__init__()
        self.span_calls = 0
        self.event_calls = 0
        self.lookups = 0

    def span(self, name, **attrs):
        self.span_calls += 1
        return super().span(name, **attrs)

    def event(self, type_, **payload):
        self.event_calls += 1


#: Modules that bound ``current_tracer`` at import time; the counting
#: pass swaps each binding so lookups are tallied too.
_INSTRUMENTED_MODULES = (
    "repro.analyzer.driver",
    "repro.analyzer.coloring",
    "repro.analyzer.clusters",
    "repro.analyzer.regsets",
    "repro.machine.simulator",
)


def _compile_once(tracer=None):
    """One compile on the default (sinkless, untraced) scheduler, or on
    ``tracer`` when given."""
    workload = get_workload(WORKLOAD)
    with CompilationScheduler(trace=tracer, verify=False) as scheduler:
        phase1 = scheduler.run_phase1(workload.sources)
        database = scheduler.analyze(
            [result.summary for result in phase1],
            AnalyzerOptions.config(CONFIG),
        )
        scheduler.compile_with_database(phase1, database)


def _count_hooks() -> _CountingClock:
    """One compile with every hook routed through a counting clock."""
    import importlib

    counter = _CountingClock()

    def counting_lookup():
        counter.lookups += 1
        return counter

    modules = [importlib.import_module(name)
               for name in _INSTRUMENTED_MODULES]
    saved = [module.current_tracer for module in modules]
    for module in modules:
        module.current_tracer = counting_lookup
    try:
        _compile_once(tracer=counter)
    finally:
        for module, original in zip(modules, saved):
            module.current_tracer = original
    return counter


def _price(fn) -> float:
    """Seconds per call of ``fn``, best of :data:`REPEATS`."""
    return min(timeit.repeat(fn, number=CALLS, repeat=REPEATS)) / CALLS


def test_untraced_hooks_overhead_under_budget(monkeypatch):
    # The default scheduler is the untraced one only without a trace
    # path in the environment.
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    # Warm caches/imports, then take the best of three untraced
    # compiles as the wall-clock denominator.
    _compile_once()
    compile_seconds = min(
        timeit.timeit(_compile_once, number=1) for _ in range(3)
    )

    counter = _count_hooks()

    # Per-call prices of the untraced primitives, measured hot.
    lookup_seconds = _price(current_tracer)
    clock = SpanClock()

    def aggregating_span():
        with clock.span("x"):
            pass

    def null_span():
        with NULL_TRACER.span("x"):
            pass

    span_seconds = _price(aggregating_span)
    null_span_seconds = _price(null_span)
    event = clock.event
    event_seconds = _price(lambda: event("x"))
    flag_seconds = _price(lambda: clock.enabled)
    clock_seconds = _price(SpanClock)

    hook_seconds = (
        counter.lookups * lookup_seconds
        + counter.span_calls * span_seconds
        + counter.event_calls * event_seconds
    )
    fraction = hook_seconds / compile_seconds

    # Price the service's per-request untraced hooks with the same
    # measured primitives: the request's clock, the aggregating spans
    # an untraced daemon opens per compile request, and its
    # `tracer.enabled` event guards.
    request_hook_seconds = (
        clock_seconds
        + REQUEST_SPAN_SITES * span_seconds
        + REQUEST_EVENT_GUARDS * flag_seconds
    )

    payload = {
        "workload": WORKLOAD,
        "config": CONFIG,
        "compile_seconds": compile_seconds,
        "hook_invocations": {
            "current_tracer_lookups": counter.lookups,
            "span_calls": counter.span_calls,
            "event_calls": counter.event_calls,
        },
        "per_call_seconds": {
            "lookup": lookup_seconds,
            "span": span_seconds,
            "null_span": null_span_seconds,
            "event": event_seconds,
            "enabled_check": flag_seconds,
            "span_clock": clock_seconds,
        },
        "per_call_timing": f"best of {REPEATS} x {CALLS} calls",
        "estimated_hook_seconds": hook_seconds,
        "request_hook_seconds": request_hook_seconds,
        "overhead_fraction": fraction,
        "budget_fraction": BUDGET_FRACTION,
    }
    _OBSERVABILITY.update(payload)
    record_note(
        f"observability: untraced hooks "
        f"{100.0 * fraction:.3f}% of {compile_seconds:.3f}s compile "
        f"({counter.lookups} lookups, {counter.span_calls} aggregating "
        f"spans at {1e6 * span_seconds:.2f}µs, {counter.event_calls} "
        f"events) — budget {100.0 * BUDGET_FRACTION:.0f}%; untraced "
        f"request hooks {1e6 * request_hook_seconds:.2f}µs/request"
    )
    assert fraction < BUDGET_FRACTION, (
        f"untraced hooks cost {100.0 * fraction:.2f}% of "
        f"compile wall-clock (budget {100.0 * BUDGET_FRACTION:.0f}%)"
    )
    assert counter.span_calls > 0
    assert counter.lookups > 0
    # Per-request price of the untraced daemon's hooks: one clock, five
    # aggregating spans and two flag checks must stay deep in the noise.
    assert request_hook_seconds < 1e-4, request_hook_seconds


def _service_session_seconds(trace_path) -> float:
    """Server-reported compile seconds of one serial edit session.

    ``trace_path`` empty forces request tracing *off* even when the
    surrounding environment sets ``REPRO_SERVICE_TRACE`` (CI's traced
    smoke step does), so the untraced control stays untraced.
    """
    generator = FuzzProgramGenerator(7)
    program = generator.generate()
    total = 0.0
    with tempfile.TemporaryDirectory(prefix="repro-obs-svc-") as tmp, \
            ServiceThread(
                unix_path=os.path.join(tmp, "svc.sock"),
                trace_path=trace_path or "",
            ) as handle:
        with ServiceClient.connect_unix(
            handle.service.unix_path, trace="obs-overhead"
        ) as conn:
            session = conn.open_session(
                dict(program), config=CONFIG
            )["session"]
            total += conn.compile(session)["seconds"]
            for step in range(1, SERVICE_EDIT_ROUNDS + 1):
                mutated = generator.mutate(program, step=step)
                for name in sorted(mutated):
                    if program.get(name) != mutated[name]:
                        conn.edit(session, name, mutated[name])
                program = mutated
                total += conn.compile(session)["seconds"]
            conn.close_session(session)
    return total


def test_enabled_request_tracing_overhead_under_budget(tmp_path):
    # Warm imports and code paths once, then best-of-five per mode,
    # *interleaved* so machine-wide slow phases (frequency scaling,
    # other CI jobs) hit both modes alike; the min of each side is the
    # noise-free floor.  Server-reported compile seconds (not
    # wall-clock) keep socket and event-loop noise out of the
    # comparison; each run gets a fresh daemon with a cold private
    # cache, so both modes do the same work.
    _service_session_seconds("")
    trace_file = str(tmp_path / "overhead-trace.jsonl")
    untraced_runs, traced_runs = [], []
    for _ in range(5):
        untraced_runs.append(_service_session_seconds(""))
        traced_runs.append(_service_session_seconds(trace_file))
    untraced = min(untraced_runs)
    traced = min(traced_runs)
    overhead = (traced - untraced) / untraced

    _OBSERVABILITY["service_tracing"] = {
        "edit_rounds": SERVICE_EDIT_ROUNDS,
        "untraced_compile_seconds": untraced,
        "traced_compile_seconds": traced,
        "overhead_fraction": overhead,
        "budget_fraction": BUDGET_FRACTION,
    }
    record_note(
        f"observability: enabled request tracing "
        f"{untraced:.3f}s -> {traced:.3f}s compile "
        f"({100.0 * overhead:+.2f}%, budget "
        f"{100.0 * BUDGET_FRACTION:.0f}%)"
    )
    assert overhead < BUDGET_FRACTION, (
        f"enabled request tracing costs {100.0 * overhead:.2f}% "
        f"({untraced:.3f}s -> {traced:.3f}s, budget "
        f"{100.0 * BUDGET_FRACTION:.0f}%)"
    )
