"""Allocation observability: tracing, provenance, metrics, reporting.

The analyzer makes thousands of interdependent decisions per program —
web formation, interference coloring, cluster selection, register-set
assignment — and the scheduler and auditor judge those decisions.
This package is what lets a human (or a later tool) *explain* them:

* :mod:`repro.obs.tracer` — zero-dependency structured event/span
  tracer producing deterministic JSONL streams;
* :mod:`repro.obs.provenance` — machine-readable reason records for
  every promotion, rejection, and spill-motion decision, queryable via
  :func:`~repro.obs.provenance.explain_global` /
  :func:`~repro.obs.provenance.explain_procedure`;
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry and
  :func:`~repro.obs.metrics.fold_trace`, which folds a compile's
  stage spans, audit summary, and execution counters into it;
* :mod:`repro.obs.flame` — span-stream profiling: collapsed-stack
  flamegraph folding, self-time tables, per-request latency
  breakdowns over daemon trace streams;
* :mod:`repro.obs.report` — the ``repro-explain`` CLI rendering
  paper-style allocation reports, answering ``why`` / ``why-not``
  queries, and fronting the ``flame`` / ``slow`` views.

Every query, report and metric here reads a trace: a
:class:`~repro.obs.tracer.Tracer`, its record list, or a saved JSONL
file.  See ``docs/OBSERVABILITY.md`` for the event schema and usage.
"""

from repro.obs.flame import (
    fold_spans,
    render_collapsed,
    request_summaries,
    self_time_table,
    slowest_requests,
    span_tree,
)
from repro.obs.metrics import MetricsRegistry, fold_trace
from repro.obs.report import compile_workload, render_report, report_data
from repro.obs.provenance import (
    explain_global,
    explain_procedure,
    format_explanation,
)
from repro.obs.tracer import (
    NULL_TRACER,
    Tracer,
    activate,
    canonicalize_request_trace,
    canonicalize_trace,
    current_tracer,
    read_trace,
    trace_groups,
)

__all__ = [
    "MetricsRegistry",
    "NULL_TRACER",
    "Tracer",
    "activate",
    "canonicalize_request_trace",
    "canonicalize_trace",
    "compile_workload",
    "current_tracer",
    "explain_global",
    "explain_procedure",
    "fold_spans",
    "fold_trace",
    "format_explanation",
    "read_trace",
    "render_collapsed",
    "render_report",
    "report_data",
    "request_summaries",
    "self_time_table",
    "slowest_requests",
    "span_tree",
    "trace_groups",
]
