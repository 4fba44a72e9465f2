"""Incremental compilation scheduler.

The paper splits compilation at module boundaries on purpose: phase 1
and phase 2 are per-module jobs that communicate only through summary
files and the program database (sections 2 and 7.4), so nothing in the
design forces whole-program recompilation.  :class:`CompilationScheduler`
exploits that freedom with a content-addressed on-disk cache
(:mod:`repro.driver.cache`) keyed on exactly the inputs each phase
depends on: source text + opt level for phase 1, (phase-1 fingerprint,
per-module directive digest, opt level) for phase 2.  Editing one
module re-runs phase 1 for that module alone; changing
:class:`~repro.analyzer.options.AnalyzerOptions` re-runs the analyzer
and then only the phase-2 jobs of modules whose directives actually
changed.  Every job runs inline, in module order.

Every stage runs inside one span of the scheduler's tracer, and the
span is its only clock: a stage's seconds are the tracer's per-name
span totals (:attr:`repro.obs.tracer.SpanClock.totals`), and tasks and
cache counters sit beside them.  By default the tracer is a sinkless
:class:`~repro.obs.tracer.SpanClock`, which keeps no records.  One
compilation's share is surfaced on
:attr:`repro.driver.pipeline.CompilationResult.metrics`.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from functools import partial

from repro.analyzer.database import ProgramDatabase
from repro.analyzer.driver import analyze_program
from repro.backend.allocators import resolve_allocator
from repro.backend.phase2 import compile_module_phase2
from repro.driver.cache import ArtifactCache, phase2_key
from repro.frontend.phase1 import (
    Phase1Result,
    compile_module_phase1,
    phase1_fingerprint,
)
from repro.linker.link import Executable, link
from repro.obs.tracer import STAGES, SpanClock, Tracer, activate
from repro.verify.auditor import AuditError, audit_executable


def _phase2_task(ir_blob, database, opt_level, allocator):
    """One module's second phase, on a private copy of the phase-1 IR
    loaded from its pickled blob (phase 2 rewrites the IR in place)."""
    return compile_module_phase2(
        pickle.loads(ir_blob), database, opt_level, allocator
    )


@dataclass
class MetricsSnapshot:
    """Point-in-time (or differenced) scheduler instrumentation.

    ``stage_seconds`` are the scheduler tracer's span totals for
    :data:`STAGES`; the other counter fields are counted beside the
    spans.
    """

    stage_seconds: dict = field(default_factory=dict)
    stage_tasks: dict = field(default_factory=dict)
    cache_hits: dict = field(default_factory=dict)
    cache_misses: dict = field(default_factory=dict)
    cache_bad_entries: dict = field(default_factory=dict)
    cache_evictions: dict = field(default_factory=dict)

    def minus(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """The activity between ``earlier`` and this snapshot: every
        field is differenced key by key, dropping zero deltas."""

        def diff(now: dict, then: dict) -> dict:
            return {
                key: value - then.get(key, 0)
                for key, value in now.items()
                if value - then.get(key, 0)
            }

        return MetricsSnapshot(
            stage_seconds=diff(self.stage_seconds, earlier.stage_seconds),
            stage_tasks=diff(self.stage_tasks, earlier.stage_tasks),
            cache_hits=diff(self.cache_hits, earlier.cache_hits),
            cache_misses=diff(self.cache_misses, earlier.cache_misses),
            cache_bad_entries=diff(
                self.cache_bad_entries, earlier.cache_bad_entries
            ),
            cache_evictions=diff(
                self.cache_evictions, earlier.cache_evictions
            ),
        )

    def to_json_dict(self) -> dict:
        return {
            "stage_seconds": dict(self.stage_seconds),
            "stage_tasks": dict(self.stage_tasks),
            "cache_hits": dict(self.cache_hits),
            "cache_misses": dict(self.cache_misses),
            "cache_bad_entries": dict(self.cache_bad_entries),
            "cache_evictions": dict(self.cache_evictions),
        }


def _normalize_sources(sources) -> list:
    if isinstance(sources, dict):
        return sorted(sources.items())
    return list(sources)


class CompilationScheduler:
    """Runs the two compiler phases per-module, inline and in module
    order, with an artifact cache.

    Args:
        jobs: Must be 1; any other value raises :class:`ValueError`.
            The process pool it sized was removed (``BENCH_results.json``
            → ``concurrency_decision``).
        cache_dir: Root of the artifact cache, or ``None`` to disable
            caching entirely.
        cache: An existing :class:`~repro.driver.cache.ArtifactCache`
            to compile against, shared with other schedulers — the
            compile service hands every session's scheduler one cache
            so concurrent sessions dedupe phase-1/phase-2 work against
            each other.  Mutually exclusive with ``cache_dir``;
            the cache (and its statistics) stays caller-owned.
        verify: Run the post-link allocation auditor
            (:mod:`repro.verify.auditor`) on every linked executable and
            raise :class:`~repro.verify.auditor.AuditError` on any
            directive violation.  ``None`` (the default) reads the
            ``REPRO_VERIFY`` environment variable ("1" enables).
        incremental: Must be false.  The incremental analyzer was
            removed because a full re-analysis is faster at every
            measured program size; a true value raises
            :class:`ValueError`.
        trace: Observability tracing (:mod:`repro.obs.tracer`).  A path
            writes a deterministic JSONL event stream there; ``True``
            collects records in memory on ``scheduler.tracer.records``;
            an existing tracer is used as-is (and stays caller-owned;
            its span totals are the stage seconds, and
            :data:`~repro.obs.tracer.NULL_TRACER` keeps them empty).
            ``None`` (the default) reads the ``REPRO_TRACE`` environment
            variable (a path enables) and otherwise uses a sinkless
            :class:`~repro.obs.tracer.SpanClock`.
        allocator: Default register-allocation strategy for phase 2
            (:mod:`repro.backend.allocators`: ``paper``, ``linearscan``,
            ``spill-everywhere``).  ``None`` (the default) selects the
            ``paper`` strategy; individual ``compile_*`` calls may
            override per compilation.  The strategy is part of each
            phase-2 cache key, so strategies never share object modules.

    Use as a context manager or call :meth:`close` to close an owned
    trace file.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir=None,
        verify: bool | None = None,
        incremental: bool = False,
        trace=None,
        allocator: str | None = None,
        cache: ArtifactCache | None = None,
    ):
        if incremental:
            raise ValueError(
                "incremental=True is no longer supported: the "
                "incremental analyzer was removed, and every compile "
                "runs the full analyzer"
            )
        if jobs != 1:
            raise ValueError(
                f"jobs={jobs!r} is no longer supported: the process "
                "pool was removed, and every job runs inline"
            )
        self.allocator = allocator
        if trace is None:
            trace = os.environ.get("REPRO_TRACE") or None
        self._owns_tracer = False
        if trace is None:
            self.tracer = SpanClock()
        elif trace is True:
            self.tracer = Tracer()
            self._owns_tracer = True
        elif isinstance(trace, (str, os.PathLike)):
            self.tracer = Tracer(trace)
            self._owns_tracer = True
        else:
            self.tracer = trace
        if cache is not None and cache_dir is not None:
            raise ValueError("pass cache_dir or cache, not both")
        if cache is not None:
            self.cache = cache
        else:
            self.cache = (
                ArtifactCache(cache_dir) if cache_dir is not None else None
            )
        if verify is None:
            verify = os.environ.get("REPRO_VERIFY", "") not in ("", "0")
        self.verify = verify
        self.last_audit_report = None
        self._stage_tasks: dict = {}

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self._owns_tracer:
            # Records stay readable in memory; only the file is closed.
            self.tracer.close()

    def __enter__(self) -> "CompilationScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- instrumentation --------------------------------------------------

    def _count_tasks(self, stage: str, count: int) -> None:
        self._stage_tasks[stage] = self._stage_tasks.get(stage, 0) + count

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Cumulative instrumentation since construction (or reset)."""
        cache_stats = (
            self.cache.stats.snapshot()
            if self.cache is not None
            else {
                "hits": {},
                "misses": {},
                "bad_entries": {},
                "evictions": {},
            }
        )
        totals = self.tracer.totals
        return MetricsSnapshot(
            stage_seconds={
                stage: totals[stage] for stage in STAGES if stage in totals
            },
            stage_tasks=dict(self._stage_tasks),
            cache_hits=cache_stats["hits"],
            cache_misses=cache_stats["misses"],
            cache_bad_entries=cache_stats["bad_entries"],
            cache_evictions=cache_stats["evictions"],
        )

    def reset_metrics(self) -> None:
        self.tracer.totals.clear()
        self._stage_tasks.clear()
        if self.cache is not None:
            self.cache.stats.clear()

    # -- execution core ---------------------------------------------------

    def _run_modules(self, stage: str, tasks: list) -> list:
        """Run each ``(module name, task)`` pair inline, in module order,
        inside one ``module`` span carrying the stage and module name,
        so flamegraph folding can attribute phase time per module."""
        results: list = []
        for label, task in tasks:
            with self.tracer.span("module", stage=stage, module=label):
                results.append(task())
        return results

    # -- pipeline stages --------------------------------------------------

    def run_phase1(self, sources, opt_level: int = 2) -> list:
        """Compiler first phase over every module (cached)."""
        modules = _normalize_sources(sources)
        tracer = self.tracer
        with tracer.span("phase1", modules=len(modules)):
            results: list = [None] * len(modules)
            pending: list = []  # (index, module name, source, cache key)
            for index, (name, text) in enumerate(modules):
                key = phase1_fingerprint(text, name, opt_level)
                if self.cache is not None:
                    cached = self.cache.load("phase1", key)
                    if isinstance(cached, Phase1Result):
                        results[index] = cached
                        continue
                pending.append((index, name, text, key))
            self._count_tasks("phase1", len(pending))
            computed = self._run_modules("phase1", [
                (name, partial(compile_module_phase1, text, name, opt_level))
                for _index, name, text, _key in pending
            ])
            for (index, _name, _text, key), result in zip(pending, computed):
                results[index] = result
                if self.cache is not None:
                    self.cache.store("phase1", key, result)
            if tracer.enabled:
                recompiled = {index for index, *_rest in pending}
                for index, (name, _text) in enumerate(modules):
                    tracer.event(
                        "module-phase1",
                        module=name,
                        cached=index not in recompiled,
                        fingerprint=results[index].fingerprint,
                        functions=sorted(
                            p.name
                            for p in results[index].summary.procedures
                        ),
                    )
        return results

    def analyze(self, summaries: list, options) -> ProgramDatabase:
        """The program analyzer, re-run from scratch every time: it is
        whole-program by nature, and per-module reuse lives in the
        phase-1 and phase-2 caches."""
        tracer = self.tracer
        with tracer.span("analyze"), activate(tracer):
            self._count_tasks("analyze", 1)
            return analyze_program(summaries, options)

    def compile_objects(
        self,
        phase1_results: list,
        database: ProgramDatabase,
        opt_level: int = 2,
        allocator: str | None = None,
    ) -> list:
        """Compiler second phase over every module (cached).

        Cache keys pair each module's phase-1 fingerprint with a digest
        of the directives its compilation can observe (plus the
        allocation strategy), so two databases that agree on a module's
        slice of directives share its object module no matter how much
        they differ elsewhere.
        """
        resolved = resolve_allocator(
            allocator if allocator is not None else self.allocator
        )
        tracer = self.tracer
        with tracer.span("phase2", modules=len(phase1_results)):
            objects: list = [None] * len(phase1_results)
            pending: list = []  # (index, cache key or None)
            for index, result in enumerate(phase1_results):
                key = None
                if self.cache is not None and result.fingerprint:
                    digest = database.directive_digest(
                        result.directive_names
                    )
                    key = phase2_key(
                        result.fingerprint, digest, opt_level,
                        allocator=resolved,
                    )
                    cached = self.cache.load("phase2", key)
                    if cached is not None:
                        objects[index] = cached
                        continue
                pending.append((index, key))
            self._count_tasks("phase2", len(pending))
            computed = self._run_modules("phase2", [
                (
                    phase1_results[index].module_name,
                    partial(
                        _phase2_task, phase1_results[index].ir_blob,
                        database, opt_level, resolved,
                    ),
                )
                for index, _key in pending
            ])
            for (index, key), obj in zip(pending, computed):
                objects[index] = obj
                if self.cache is not None and key is not None:
                    self.cache.store("phase2", key, obj)
            if tracer.enabled:
                recompiled = {index for index, _key in pending}
                for index, result in enumerate(phase1_results):
                    tracer.event(
                        "module-phase2",
                        module=result.module_name,
                        cached=index not in recompiled,
                        allocator=resolved,
                    )
        return objects

    def audit(
        self, executable: Executable, database: ProgramDatabase
    ):
        """Run the post-link allocation auditor; raise on violations.

        The report is kept on :attr:`last_audit_report` either way, and
        a recording tracer gets its summary as an ``audit`` event.
        """
        with self.tracer.span("verify"):
            # Counted before the audit runs: a raising auditor must
            # still show up in stage_tasks (and the span's exit keeps
            # its wall-clock), or failed verification work would vanish
            # from the metrics.
            self._count_tasks("verify", 1)
            report = audit_executable(executable, database)
        self.last_audit_report = report
        if self.tracer.enabled:
            self.tracer.event("audit", **report.summary())
        if not report.ok:
            raise AuditError(report)
        return report

    # -- whole-program conveniences ---------------------------------------

    def compile_with_database(
        self,
        phase1_results: list,
        database: ProgramDatabase,
        opt_level: int = 2,
        allocator: str | None = None,
    ) -> Executable:
        """Second phase + link, leaving phase-1 results intact."""
        objects = self.compile_objects(
            phase1_results, database, opt_level, allocator=allocator
        )
        executable = self._link(objects)
        if self.verify:
            self.audit(executable, database)
        return executable

    def _link(self, objects: list) -> Executable:
        with self.tracer.span("link"):
            executable = link(objects)
        if self.tracer.enabled:
            self.tracer.event(
                "link",
                modules=len(objects),
                functions=sorted(executable.function_entries),
                instructions=len(executable.instructions),
            )
        return executable

    def compile_program(
        self,
        sources,
        opt_level: int = 2,
        analyzer_options=None,
        allocator: str | None = None,
    ):
        """Full pipeline; the returned result carries this
        compilation's share of the scheduler metrics."""
        from repro.driver.pipeline import CompilationResult

        before = self.metrics_snapshot()
        phase1_results = self.run_phase1(sources, opt_level)
        if analyzer_options is not None:
            database = self.analyze(
                [result.summary for result in phase1_results],
                analyzer_options,
            )
        else:
            database = ProgramDatabase()
        objects = self.compile_objects(
            phase1_results, database, opt_level, allocator=allocator
        )
        executable = self._link(objects)
        if self.verify:
            self.audit(executable, database)
        return CompilationResult(
            executable,
            database,
            phase1_results,
            objects,
            metrics=self.metrics_snapshot().minus(before),
        )
