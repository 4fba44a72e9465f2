"""Span recorder for the traced run, and the self-time fold.

The traced run wraps the public entry points of each layer (listed in
``LAYER_TARGETS``) for the length of the run and records one span per
call: name, start, end, parent and request id.  Spans stay in memory
and are written as JSONL when the run ends.  Nothing inside ``src/`` is
instrumented; the wrappers are installed by attribute assignment and
removed again on exit.

One stack serves every thread.  That is sound only because each
workload is a closed loop with one request in flight: while the daemon's
worker thread runs a compile, the client thread is blocked waiting for
the reply, so spans never interleave.  ``_end`` checks this and raises
if two spans ever overlap without nesting.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

#: The ``other`` row: request time that no layer span covers.
OTHER = "other"

#: Layers in report order (``other`` last).
LAYERS = (
    "machine", "frontend", "backend", "linker", "verify", "analyzer",
    "callgraph", "analyzer.webs", "analyzer.coloring",
    "analyzer.clusters", "analyzer.regsets", "service", OTHER,
)


def _linked(executable) -> dict:
    return {"linker.words": executable.code_size}


def _simulated(stats) -> dict:
    return {"machine.instructions": stats.instructions}


def _audited(report) -> dict:
    return {
        "verify.functions": report.functions_checked,
        "verify.violations": len(report.violations),
    }


def _analyzed(database) -> dict:
    statistics = database.statistics
    return {
        "analyzer.webs": statistics.total_webs,
        "analyzer.webs_colored": statistics.webs_colored,
        "analyzer.clusters": statistics.clusters,
    }


#: (module, attribute path, layer, counter) of every public call the
#: traced run wraps.  ``counter`` maps the call's return value to the
#: counts taken at that boundary.  ``repro.driver.scheduler.link`` is
#: the scheduler's own binding of the linker, which the daemon's
#: compiles go through; ``analyze_program`` is wrapped where callers
#: reach it through its module, which the scheduler does not.  The
#: analyzer's kernels are wrapped where ``analyze_program`` looks them
#: up.
LAYER_TARGETS = (
    ("repro.driver.scheduler", "CompilationScheduler.run_phase1",
     "frontend", None),
    ("repro.driver.scheduler", "CompilationScheduler.analyze", "analyzer",
     _analyzed),
    ("repro.driver.scheduler", "CompilationScheduler.compile_objects",
     "backend", None),
    ("repro.linker.link", "link", "linker", _linked),
    ("repro.driver.scheduler", "link", "linker", _linked),
    ("repro.verify.auditor", "audit_executable", "verify", _audited),
    ("repro.machine.simulator", "run_executable", "machine", _simulated),
    ("repro.analyzer.driver", "analyze_program", "analyzer", _analyzed),
    ("repro.service.client", "ServiceClient.request", "service", None),
    ("repro.callgraph.graph", "CallGraph.build", "callgraph", None),
    ("repro.analyzer.driver", "compute_reference_sets", "callgraph", None),
    ("repro.analyzer.webs", "identify_variable_webs", "analyzer.webs",
     None),
    ("repro.analyzer.driver", "identify_webs", "analyzer.webs", None),
    ("repro.analyzer.driver", "color_webs_priority", "analyzer.coloring",
     None),
    ("repro.analyzer.driver", "color_webs_greedy", "analyzer.coloring",
     None),
    ("repro.analyzer.driver", "identify_clusters", "analyzer.clusters",
     None),
    ("repro.analyzer.driver", "compute_register_sets", "analyzer.regsets",
     None),
)


class Recorder:
    """In-memory span store.  ``enabled`` is False for untraced runs,
    where :meth:`request` only measures the request's wall time.

    ``counts`` accumulates the boundary counts of traced requests.
    """

    def __init__(self, enabled: bool, counts: dict):
        self.enabled = enabled
        self.counts = counts
        self.spans: list = []  # [name, start, end, parent, request]
        self._stack: list = []
        self._request = None

    @contextmanager
    def request(self, request_id, traced: bool = True):
        """Time one request; yields a one-item list that holds its wall
        seconds once the block exits.  A traced request (traced run and
        ``traced``) also gets a root span that its layer spans nest
        under; an untraced one passes straight through the wrappers."""
        elapsed = [0.0]
        index = None
        if self.enabled and traced:
            self._request = request_id
            index = self._begin("request")
        start = time.perf_counter()
        try:
            yield elapsed
        finally:
            elapsed[0] = time.perf_counter() - start
            if index is not None:
                self._end(index)
            self._request = None

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self._request]
        )
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed out of order; "
                "spans from two threads overlapped"
            )
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, layer: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            index = self._begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if counter is not None:
                for name, amount in counter(result).items():
                    self.counts[name] += amount
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block (traced
        runs only); the originals are restored on exit."""
        if not self.enabled:
            yield
            return
        restore = []
        try:
            for module_name, path, layer, counter in LAYER_TARGETS:
                owner = importlib.import_module(module_name)
                *outer, attribute = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                # A class attribute is taken raw, so a classmethod stays
                # one when it is wrapped and restored.
                original = (
                    owner.__dict__[attribute] if isinstance(owner, type)
                    else getattr(owner, attribute)
                )
                if isinstance(original, classmethod):
                    replacement = classmethod(
                        self.wrap(layer, original.__func__, counter)
                    )
                else:
                    replacement = self.wrap(layer, original, counter)
                setattr(owner, attribute, replacement)
                restore.append((owner, attribute, original))
            yield
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start,
                    "end": end, "parent": parent, "request": request,
                }) + "\n")


def fold_self_times(spans: list) -> dict:
    """request id -> {layer: self seconds}, with the root's own time as
    ``other``.

    A span's self time is its duration minus the durations of its
    direct children; summed over a request, the rows add up to the
    root's duration exactly, so no time is counted twice or dropped.
    """
    child_seconds = [0.0] * len(spans)
    for name, start, end, parent, _request in spans:
        if parent is not None:
            child_seconds[parent] += end - start
    folded: dict = {}
    for index, (name, start, end, _parent, request) in enumerate(spans):
        row = folded.setdefault(request, {})
        layer = OTHER if name == "request" else name
        row[layer] = (
            row.get(layer, 0.0) + (end - start) - child_seconds[index]
        )
    return folded
