"""What every workload shares: the run record, drift correction, and
the metric tables the run prints.

A workload fills one :class:`Run`.  Every timed block, each set-up
repetition and each request, runs inside :meth:`Run.timed`, which
collects the previous block's garbage, takes a probe burst before and
after the block and scales the block's wall time by them.
:meth:`Run.end_to_end` and :meth:`Run.per_layer` then turn the record
into the metric dictionaries named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from contextlib import contextmanager
from pathlib import Path

from perfbench.probe import NOMINAL_PROBE_US, Probe
from perfbench.recorder import LAYERS, Recorder, fold_self_times

#: Working space of the runs (daemon sockets and caches, span files).
WORK = Path(__file__).resolve().with_name(".work")

#: Set-up is repeated this many times per run and the median is kept.
SETUP_REPEATS = 3

#: The paper programs, in Table 3 order.
PROGRAMS = (
    "dhrystone", "fgrep", "othello", "war", "crtool", "protoc", "paopt",
)

#: name -> unit of every end-to-end metric, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "throughput_per_s": "1/s",
    "procs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "share",
    "sim_cycles": "cycles",
    "singleton_refs": "refs",
    "code_words": "words",
}

#: Exact counts, totals over the traced requests.  Some are taken at
#: layer boundaries by the recorder, the rest by the workloads.
LAYER_COUNTS = (
    "machine.instructions", "frontend.modules", "frontend.cached",
    "backend.modules", "backend.cached", "linker.words",
    "verify.functions", "verify.violations", "analyzer.webs",
    "analyzer.webs_colored", "analyzer.clusters",
    "incremental.webs_reused", "incremental.webs_recomputed",
    "incremental.full_fallbacks",
)

#: Where edit-loop request time goes, from the compile reply's fields
#: (corrected mean ms per traced request).
SERVICE_SPLITS = (
    "service.wire_ms", "service.queue_ms", "service.lock_ms",
    "service.other_ms",
)

#: Per-program exact metrics (geometric mean over the program's builds).
PROGRAM_METRICS = ("cycles", "singleton_refs", "code_words")


def percentile(values: list, fraction: float) -> float:
    """Harrell-Davis estimate of the ``fraction`` quantile (0..1).

    A beta-weighted mean of every order statistic rather than one or
    two of them.  The paper matrix's 49 requests are all different, so
    its plain median is whichever single request lands in the middle
    and carries that request's own noise; this estimate averages the
    requests around it (the weight of the i-th smallest of n values is
    the Beta(f(n+1), (1-f)(n+1)) probability of [(i-1)/n, i/n]).
    """
    ranked = sorted(values)
    n = len(ranked)
    a, b = fraction * (n + 1), (1 - fraction) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_norm)

    steps = 32  # Simpson's rule per order statistic; even
    weights = []
    for i in range(n):
        low, step = i / n, 1 / (n * steps)
        inner = math.fsum((4 if k % 2 else 2) * density(low + k * step)
                          for k in range(1, steps))
        weights.append(
            (density(low) + inner + density(low + 1 / n)) * step / 3
        )
    total = math.fsum(weights)
    return math.fsum(w * v for w, v in zip(weights, ranked)) / total


def twins(trace: bool, index: int) -> tuple:
    """Which copies of request ``index`` to run: (untraced,) in an
    untraced run; in a traced run both, traced first on odd indices."""
    if not trace:
        return (False,)
    return (False, True) if index % 2 == 0 else (True, False)


def geomean(values: list) -> float:
    """Geometric mean; 1.0, the empty product, for no values."""
    if not values:
        return 1.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timing:
    """One timed block: raw wall seconds and its drift correction."""

    def __init__(self):
        self.raw = 0.0
        self.factor = 1.0

    @property
    def seconds(self) -> float:
        """Drift-corrected seconds."""
        return self.raw * self.factor


class Run:
    """The record of one benchmark run."""

    def __init__(self, trace: bool):
        self.probe = Probe()
        self.counts = dict.fromkeys(LAYER_COUNTS, 0)
        self.recorder = Recorder(trace, self.counts)
        self.import_seconds = 0.0
        self.setups: list = []
        #: Untraced requests, the source of the end-to-end timings.
        self.requests: list = []
        #: Traced requests by request id (traced runs only).
        self.traced: dict = {}
        #: Procedures the untraced requests processed.
        self.procedures = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        #: Exact code-quality samples, one per checked build.
        self.builds: dict = {metric: [] for metric in PROGRAM_METRICS}
        self.per_program: dict = {}
        #: Corrected seconds per service split, over traced requests.
        self.service = dict.fromkeys(SERVICE_SPLITS, 0.0)

    @property
    def trace(self) -> bool:
        return self.recorder.enabled

    @contextmanager
    def timed(self, request_id=None, traced: bool = False):
        """Time one block between two probe bursts.

        Collects the previous block's cyclic garbage first, so every
        block starts from the same collector state.  Yields a
        :class:`Timing` that is filled in when the block exits.  A
        traced request also gets a root span (see
        :meth:`Recorder.request`).
        """
        timing = Timing()
        gc.collect()
        before = self.probe.burst()
        with self.recorder.request(request_id, traced) as wall:
            yield timing
        after = self.probe.burst()
        timing.raw = wall[0]
        timing.factor = NOMINAL_PROBE_US / ((before + after) / 2)

    def record(self, request_id, timing: Timing, traced: bool,
               procedures: int = 0) -> None:
        """Keep a checked request's timing."""
        if traced:
            self.traced[request_id] = timing
        else:
            self.requests.append(timing)
            self.procedures += procedures

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def record_build(self, program: str | None, cycles, singleton_refs,
                     code_words) -> None:
        """One checked build's exact code-quality numbers."""
        row = self.per_program.setdefault(
            program, {metric: [] for metric in PROGRAM_METRICS}
        )
        for metric, value in zip(
            PROGRAM_METRICS, (cycles, singleton_refs, code_words)
        ):
            if value is None:
                continue
            self.builds[metric].append(value)
            row[metric].append(value)

    # -- metrics ------------------------------------------------------

    def end_to_end(self) -> dict:
        return {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in self._end_to_end_values(True).items()
        }

    def raw_timings(self) -> dict:
        """The end-to-end timings without drift correction."""
        values = self._end_to_end_values(False)
        return {name: values[name] for name in (
            "setup_s", "latency_ms.p50", "latency_ms.p90",
            "throughput_per_s", "procs_per_s",
        )}

    def _end_to_end_values(self, corrected: bool) -> dict:
        def seconds(timing):
            return timing.seconds if corrected else timing.raw

        latencies = [seconds(timing) for timing in self.requests]
        busy = math.fsum(latencies)
        setup = self.import_seconds * (
            self.probe.factor if corrected else 1.0
        ) + statistics.median(seconds(timing) for timing in self.setups)
        return {
            "setup_s": setup,
            "latency_ms.p50": percentile(latencies, 0.5) * 1e3,
            "latency_ms.p90": percentile(latencies, 0.9) * 1e3,
            "throughput_per_s": len(latencies) / busy,
            "procs_per_s": self.procedures / busy,
            "peak_rss_mb": peak_rss_mb(),
            "ok_rate": (self.attempted - self.failed) / self.attempted,
            "sim_cycles": geomean(self.builds["cycles"]),
            "singleton_refs": geomean(self.builds["singleton_refs"]),
            "code_words": geomean(self.builds["code_words"]),
        }

    def layer_seconds(self, corrected: bool = True) -> tuple:
        """(layer -> self seconds summed over the traced requests,
        number of traced requests); each request's rows are scaled by
        its own drift correction unless ``corrected`` is False."""
        folded = fold_self_times(self.recorder.spans)
        totals = dict.fromkeys(LAYERS, 0.0)
        for request_id, rows in folded.items():
            factor = self.traced[request_id].factor if corrected else 1.0
            for layer, seconds in rows.items():
                totals[layer] += seconds * factor
        return totals, len(folded)

    def layer_shares(self) -> dict:
        """layer -> share of the traced requests' wall time."""
        totals, _requests = self.layer_seconds()
        wall = math.fsum(totals.values())
        return {layer: seconds / wall for layer, seconds in totals.items()}

    def per_layer(self) -> dict:
        totals, requests = self.layer_seconds()
        metrics: dict = {}

        def put(name, value, unit):
            metrics[name] = {"value": value, "unit": unit}

        def mean_ms(seconds):
            return seconds / requests * 1e3 if requests else 0.0

        for layer in LAYERS:
            put(f"{layer}.ms", mean_ms(totals[layer]), "ms")
        put(
            "machine.minstr_per_s",
            self.counts["machine.instructions"] / totals["machine"] / 1e6
            if totals["machine"] else 0.0,
            "Minstr/s",
        )
        for name in LAYER_COUNTS:
            put(name, self.counts[name], "count")
        hits = self.counts["frontend.cached"] + self.counts["backend.cached"]
        lookups = hits + self.counts["frontend.modules"] + self.counts[
            "backend.modules"
        ]
        put("driver.cache_hit_rate", hits / lookups if lookups else 0.0,
            "share")
        for name in SERVICE_SPLITS:
            put(name, mean_ms(self.service[name]), "ms")
        raw = [timing.raw for timing in self.requests]
        put("host.probe_us", self.probe.mean_us, "us")
        put("raw.latency_ms.p50", percentile(raw, 0.5) * 1e3, "ms")
        put("raw.throughput_per_s", len(raw) / math.fsum(raw), "1/s")
        put(
            "trace.overhead_ms",
            (percentile([t.seconds for t in self.traced.values()], 0.5)
             - percentile([t.seconds for t in self.requests], 0.5)) * 1e3,
            "ms",
        )
        for program in PROGRAMS:
            row = self.per_program.get(program)
            for metric in PROGRAM_METRICS:
                put(f"{metric}.{program}",
                    geomean(row[metric]) if row else 0.0, "count")
        return metrics
