"""Compile-phase profiling views over span streams.

The tracer's record stream (:mod:`repro.obs.tracer`) already carries a
full span tree per compilation — request, queue/lock waits, scheduler
phases, per-module work.  This module folds that tree into the two
classic profiler shapes:

* **collapsed stacks** (:func:`fold_spans` / :func:`render_collapsed`)
  — the ``a;b;c weight`` format every flamegraph renderer eats
  (Brendan Gregg's ``flamegraph.pl``, speedscope, the Firefox
  profiler).  Weights are *self-time* in integer microseconds: each
  span contributes its own wall-clock minus its children's, so the
  flame's widths add up instead of double-counting nested work;
* a **self-time table** (:func:`self_time_table`) — per span label,
  aggregate self seconds and visit counts, the "where does the time
  actually go" answer in text form;
* **per-request summaries** (:func:`request_summaries` /
  :func:`slowest_requests`) — for daemon trace streams: one row per
  ``request`` span with queue-wait, session-lock wait, and per-phase
  breakdown, the input of ``repro-explain slow``.

Everything here consumes plain record dicts, so an in-memory
``tracer.records`` list, a ``REPRO_TRACE`` file, and a daemon's
``REPRO_SERVICE_TRACE`` stream all share one code path.
"""

from __future__ import annotations

from repro.obs.tracer import STAGES, trace_groups


def span_tree(records) -> list:
    """Rebuild the span forest from one record stream.

    Returns root nodes (spans whose begin arrived with no span open);
    each node is ``{"name", "id", "data", "seconds", "children",
    "events"}``.  Reconstruction is purely stack-based on stream
    order, so per-request streams with restarting span ids parse the
    same way as one tracer's global stream.  Unclosed spans (a torn
    stream) keep ``seconds == 0.0``.
    """
    roots: list = []
    stack: list = []
    for record in records:
        kind = record.get("ev")
        if kind == "span-begin":
            node = {
                "name": record.get("name", "?"),
                "id": record.get("id"),
                "data": record.get("data") or {},
                "seconds": 0.0,
                "children": [],
                "events": [],
            }
            if stack:
                stack[-1]["children"].append(node)
            else:
                roots.append(node)
            stack.append(node)
        elif kind == "span-end":
            span_id = record.get("id")
            while stack:
                node = stack.pop()
                if node["id"] == span_id:
                    node["seconds"] = record.get("seconds", 0.0) or 0.0
                    break
        elif kind == "event" and stack:
            stack[-1]["events"].append(
                {
                    "type": record.get("type"),
                    "data": record.get("data") or {},
                }
            )
    return roots


def frame_label(node: dict) -> str:
    """One span's frame name in a collapsed stack.

    Per-module spans carry the module name (``module:othello``) so the
    flame splits by module where the work actually splits; every other
    span is just its name.
    """
    module = (node.get("data") or {}).get("module")
    if module:
        return f"{node['name']}:{module}"
    return node["name"]


def _self_seconds(node: dict) -> float:
    children = sum(child["seconds"] for child in node["children"])
    return max(0.0, node["seconds"] - children)


def fold_spans(records) -> dict:
    """Collapsed stacks: ``"a;b;c" -> self-time microseconds``.

    Zero-weight stacks (pure container spans whose time is entirely in
    their children, below microsecond resolution) are dropped — they
    would render as invisible slivers anyway.
    """
    folded: dict = {}

    def walk(node, prefix):
        label = frame_label(node)
        stack_name = f"{prefix};{label}" if prefix else label
        micros = int(round(_self_seconds(node) * 1e6))
        if micros:
            folded[stack_name] = folded.get(stack_name, 0) + micros
        for child in node["children"]:
            walk(child, stack_name)

    for root in span_tree(records):
        walk(root, "")
    return folded


def render_collapsed(folded: dict) -> str:
    """The ``.folded`` file body (one ``stack weight`` line, sorted)."""
    lines = [
        f"{stack} {weight}" for stack, weight in sorted(folded.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def self_time_table(records) -> list:
    """Aggregate self-time per frame label, heaviest first.

    Returns ``[{"label", "self_seconds", "total_seconds", "count"},
    ...]`` sorted by descending self-time (ties by label).
    """
    totals: dict = {}

    def walk(node):
        label = frame_label(node)
        entry = totals.setdefault(
            label,
            {"label": label, "self_seconds": 0.0,
             "total_seconds": 0.0, "count": 0},
        )
        entry["self_seconds"] += _self_seconds(node)
        entry["total_seconds"] += node["seconds"]
        entry["count"] += 1
        for child in node["children"]:
            walk(child)

    for root in span_tree(records):
        walk(root)
    return sorted(
        totals.values(),
        key=lambda entry: (-entry["self_seconds"], entry["label"]),
    )


def request_summaries(records) -> list:
    """One row per ``request`` span in a daemon trace stream.

    Groups the stream by trace id first (per-request span ids restart,
    so the forest must be rebuilt per trace), then summarizes every
    request root: operation, request id, total seconds, queue-wait and
    session-lock wait, per-phase scheduler seconds, and any
    ``request-error`` code.  Plain (untagged) scheduler traces simply
    yield no rows — they have no request spans.
    """
    rows: list = []
    for trace_id, group in trace_groups(records).items():
        for root in span_tree(group):
            if root["name"] != "request":
                continue
            data = root["data"]
            row = {
                "trace": trace_id or data.get("trace") or "-",
                "op": data.get("op"),
                "request": data.get("request"),
                "session": data.get("session"),
                "seconds": root["seconds"],
                "queue_wait": 0.0,
                "lock_wait": 0.0,
                "phases": {},
                "error": None,
            }

            def walk(node):
                for event in node["events"]:
                    if event["type"] == "request-error":
                        row["error"] = event["data"].get("code")
                for child in node["children"]:
                    name = child["name"]
                    if name == "queue-wait":
                        row["queue_wait"] += child["seconds"]
                    elif name == "lock-wait":
                        row["lock_wait"] += child["seconds"]
                    elif name in STAGES:
                        row["phases"][name] = (
                            row["phases"].get(name, 0.0)
                            + child["seconds"]
                        )
                    walk(child)

            walk(root)
            rows.append(row)
    return rows


def slowest_requests(records, top: int = 10) -> list:
    """The ``top`` slowest requests of a daemon trace, slowest first.

    Ties (identical wall-clock, common for sub-resolution pings) break
    deterministically by trace id then request id.
    """
    return sorted(
        request_summaries(records),
        key=lambda row: (
            -row["seconds"], str(row["trace"]), str(row["request"])
        ),
    )[: max(0, top)]
