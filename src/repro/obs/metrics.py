"""Metrics registry and the fold that fills it from a trace.

One registry with three metric types — monotonically increasing
**counters**, point-in-time **gauges**, and bucketed **histograms** —
plus text and JSON exporters.  :func:`fold_trace` builds one from a
compile's trace records alone:

* stage span seconds and task counts (the ``module`` spans of phases 1
  and 2, and the ``analyze`` and ``verify`` spans);
* the last post-link ``audit`` summary, through :func:`fold_audit`;
* the last ``execution`` event's run, per-procedure and per-cluster
  counters, each procedure attributed to a cluster root by
  :func:`~repro.obs.provenance.cluster_owners`.

Metrics are identified by name plus a sorted label set, prometheus
style; the text exporter renders the conventional exposition format so
the output can be scraped or diffed directly.  Float samples and
histogram sums print at full precision (``repr``), so a scrape compares
exactly with the span seconds of a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.provenance import cluster_owners, events_of
from repro.obs.tracer import STAGES

#: Default histogram bucket upper bounds; wide because observed values
#: range from fractions of a second to hundreds of millions of cycles.
DEFAULT_BUCKETS = (
    1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
)

#: The one bucket schema for wall-clock histograms, shared by the
#: service request-latency histograms and the per-phase compile
#: histograms so their prometheus exposition stays structurally stable
#: across runs and directly comparable between metric families.
#: Explicit log-spaced bounds (1/2.5/5 per decade) from 100µs to one
#: minute — request latencies and single phases both land inside.
SECONDS_BUCKETS = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 25.0, 60.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _format_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


@dataclass
class _Histogram:
    buckets: tuple
    counts: list = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self):
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # +inf bucket

    def observe(self, value) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def to_json(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Name+labels -> value store with counter/gauge/histogram types."""

    def __init__(self):
        # name -> {"type": ..., "values": {label_key: value|_Histogram}}
        self._families: dict = {}

    # -- writing ----------------------------------------------------------

    def _family(self, name: str, type_: str) -> dict:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = {"type": type_, "values": {}}
        elif family["type"] != type_:
            raise ValueError(
                f"metric {name!r} is a {family['type']}, not a {type_}"
            )
        return family

    def inc(self, name: str, amount=1, **labels) -> None:
        """Add ``amount`` to the counter ``name``."""
        values = self._family(name, "counter")["values"]
        key = _label_key(labels)
        values[key] = values.get(key, 0) + amount

    def set_gauge(self, name: str, value, **labels) -> None:
        """Set the gauge ``name`` to ``value``."""
        self._family(name, "gauge")["values"][_label_key(labels)] = value

    def observe(self, name: str, value, buckets=DEFAULT_BUCKETS,
                **labels) -> None:
        """Record one observation in the histogram ``name``."""
        values = self._family(name, "histogram")["values"]
        key = _label_key(labels)
        histogram = values.get(key)
        if histogram is None:
            histogram = values[key] = _Histogram(tuple(buckets))
        histogram.observe(value)

    # -- reading ----------------------------------------------------------

    def value(self, name: str, **labels):
        """Current value of a counter/gauge (None when unset)."""
        family = self._families.get(name)
        if family is None:
            return None
        return family["values"].get(_label_key(labels))

    def names(self) -> list:
        return sorted(self._families)

    # -- exporters --------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {}
        for name in sorted(self._families):
            family = self._families[name]
            rendered = []
            for key in sorted(family["values"]):
                value = family["values"][key]
                rendered.append(
                    {
                        "labels": dict(key),
                        "value": (
                            value.to_json()
                            if isinstance(value, _Histogram)
                            else value
                        ),
                    }
                )
            out[name] = {"type": family["type"], "values": rendered}
        return out

    def to_text(self) -> str:
        """Prometheus-style exposition text."""
        lines = []
        for name in sorted(self._families):
            family = self._families[name]
            lines.append(f"# TYPE {name} {family['type']}")
            for key in sorted(family["values"]):
                value = family["values"][key]
                if isinstance(value, _Histogram):
                    cumulative = 0
                    for bound, count in zip(value.buckets, value.counts):
                        cumulative += count
                        bucket_key = key + (("le", f"{bound:g}"),)
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_key)} "
                            f"{cumulative}"
                        )
                    cumulative += value.counts[-1]
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(
                        f"{name}_bucket{_format_labels(inf_key)} "
                        f"{cumulative}"
                    )
                    lines.append(
                        f"{name}_sum{_format_labels(key)} {value.total!r}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(key)} {value.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_format_labels(key)} {value!r}"
                    )
        return "\n".join(lines) + "\n"


# -- fold functions --------------------------------------------------------


def fold_audit(registry: MetricsRegistry, summary: dict) -> None:
    """Fold a post-link audit summary (``AuditReport.summary()``)."""
    registry.set_gauge(
        "repro_audit_functions_checked",
        summary.get("functions_checked", 0),
    )
    registry.set_gauge(
        "repro_audit_calls_checked", summary.get("calls_checked", 0)
    )
    registry.set_gauge(
        "repro_audit_violations", summary.get("violation_count", 0)
    )
    for check, count in summary.get("violations_by_check", {}).items():
        registry.inc(
            "repro_audit_violations_total", count, check=check
        )


def fold_trace(records) -> MetricsRegistry:
    """One compile's metrics, folded from its trace records."""
    registry = MetricsRegistry()
    for record in records:
        kind, name = record.get("ev"), record.get("name")
        if kind == "span-end" and name in STAGES:
            registry.inc(
                "repro_stage_seconds_total", record["seconds"], stage=name
            )
        elif kind == "span-begin" and name == "module":
            registry.inc(
                "repro_stage_tasks_total", stage=record["data"]["stage"]
            )
        elif kind == "span-begin" and name in ("analyze", "verify"):
            registry.inc("repro_stage_tasks_total", stage=name)
    audits = events_of(records, "audit")
    if audits:
        fold_audit(registry, audits[-1])
    executions = events_of(records, "execution")
    if not executions:
        return registry
    execution = executions[-1]
    for field_name in (
        "cycles", "instructions", "memory_references",
        "singleton_references", "save_restore_executed",
    ):
        registry.set_gauge(f"repro_run_{field_name}", execution[field_name])
    owners = cluster_owners(records)
    for name, entry in sorted(execution["per_procedure"].items()):
        root = owners.get(name, "<none>")
        registry.inc(
            "repro_procedure_cycles_total", entry["cycles"], procedure=name
        )
        registry.inc(
            "repro_procedure_memrefs_total",
            entry["loads"] + entry["stores"],
            procedure=name,
        )
        registry.inc(
            "repro_procedure_save_restore_total",
            entry["save_restore"],
            procedure=name,
        )
        registry.observe(
            "repro_procedure_cycles_histogram", entry["cycles"]
        )
        registry.inc(
            "repro_cluster_cycles_total", entry["cycles"], root=root
        )
        registry.inc(
            "repro_cluster_save_restore_total",
            entry["save_restore"],
            root=root,
        )
    return registry
