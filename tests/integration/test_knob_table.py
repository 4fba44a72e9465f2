"""The environment-knob table in ``docs/SERVICE.md`` matches the code.

Every ``REPRO_*`` variable that ``src/`` reads through ``os.environ``
must have a row in the table, and every row whose consumer lives in
``src/`` must name a variable that ``src/`` still reads.  A consumer
lives in ``src/`` when it names a module or package there
(``scheduler`` is ``repro/driver/scheduler.py``, ``service`` is
``repro/service/``).  Every other row must name a variable that
``tests/`` or ``benchmarks/`` reads through ``os.environ``, and each
such read must have a row, so a row whose reader is gone fails here.
"""

import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

_READ_RE = re.compile(
    r"""(?:environ\.get\(|environ\[|getenv\()\s*["'](REPRO_\w+)["']"""
)
_ROW_RE = re.compile(r"^\| `(REPRO_\w+)` \|[^|]*\| ([^|]+?) \|", re.M)


def _reads(*roots) -> set:
    return {
        name
        for root in roots
        for path in root.rglob("*.py")
        for name in _READ_RE.findall(path.read_text(encoding="utf-8"))
    }


def _table_rows() -> dict:
    text = (REPO_ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
    rows = _ROW_RE.findall(text)
    names = [name for name, _consumer in rows]
    assert len(names) == len(set(names)), "duplicate knob rows"
    return dict(rows)


def _in_src(consumer: str) -> bool:
    return (
        any(SRC.rglob(f"{consumer}.py"))
        or any(path.is_dir() for path in SRC.rglob(consumer))
    )


def test_src_knobs_match_the_table():
    rows = _table_rows()
    documented = {
        name for name, consumer in rows.items() if _in_src(consumer)
    }
    assert documented, "no knob rows parsed from docs/SERVICE.md"
    assert _reads(SRC) == documented


def test_test_and_bench_knobs_match_the_table():
    rows = _table_rows()
    reads = _reads(REPO_ROOT / "tests", REPO_ROOT / "benchmarks")
    assert reads, "no REPRO_* reads found in tests/ or benchmarks/"
    assert reads - set(rows) == set(), "reads without a knob row"
    others = {
        name for name, consumer in rows.items() if not _in_src(consumer)
    }
    assert others - reads == set(), "knob rows that nothing reads"
