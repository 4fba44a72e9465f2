"""Spans are the one clock in ``src/``.

Every stage, wait and request duration is a span's seconds, read from
the tracer that opened it (``repro.obs.tracer``).  A second clock
beside a span would let a trace and a ``/metrics`` scrape of the same
requests measure different intervals, so the only clock reads allowed
are the tracer's own and the daemon's ``worker-handoff`` reading (the
executor's latency between submitting a job and the job's first
instruction on the compile thread, which no span can bracket).
"""

import ast
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

#: ``time`` functions that read a clock.
_CLOCKS = {
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "process_time", "process_time_ns", "thread_time", "thread_time_ns",
    "time", "time_ns",
}

#: file -> the functions allowed to read a clock there (``None``: any).
_ALLOWED = {
    "obs/tracer.py": None,
    "service/server.py": {"_run_job", "entered"},
}


def _clock_reads(tree) -> list:
    """``(enclosing function, line)`` of every clock read in ``tree``."""
    reads: list = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        hit = (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
            and node.attr in _CLOCKS
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "time"
            and any(alias.name in _CLOCKS for alias in node.names)
        )
        if hit:
            reads.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return reads


def _src_reads() -> dict:
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = _clock_reads(tree)
        if reads:
            found[path.relative_to(SRC).as_posix()] = reads
    return found


def test_only_the_tracer_and_the_worker_handoff_read_a_clock():
    found = _src_reads()
    assert set(found) <= set(_ALLOWED), sorted(set(found) - set(_ALLOWED))
    for name, reads in found.items():
        allowed = _ALLOWED[name]
        if allowed is not None:
            stray = [read for read in reads if read[0] not in allowed]
            assert not stray, (name, stray)
    # The scan sees the tracer's clock (so it is not blind), and the
    # handoff is the two readings around the executor hand-off.
    assert len(found["obs/tracer.py"]) == 2
    assert [function for function, _line in found["service/server.py"]] \
        == ["_run_job", "entered"]


def test_scan_catches_a_second_clock():
    source = (
        "import time\n"
        "from time import monotonic\n"
        "def stage():\n"
        "    start = time.perf_counter()\n"
        "    return time.time() - start\n"
    )
    assert _clock_reads(ast.parse(source)) == [
        (None, 2), ("stage", 4), ("stage", 5),
    ]
