"""Determinism at scale: 1000 synthesized procedures, byte-pinned.

The analyzer's output must be a pure function of its input — equal to
the set-based oracle's (``tests/analysis/set_kernels.py``) and
independent of Python's per-process hash randomization.  Unordered-set
iteration leaking into web numbering, cluster membership, or directive
order shows up exactly here: the same program analyzed under two
``PYTHONHASHSEED`` values (or two kernel sets) producing different
database bytes.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.analyzer.driver import AnalyzerOptions, analyze_program
from repro.verify.progen import FuzzProgramGenerator
from tests.analysis.set_kernels import use_set_kernels

MODULES = 20
PROCEDURES = 1000


def _digest() -> str:
    summaries = FuzzProgramGenerator(0).synthesize_large(
        MODULES, PROCEDURES
    )
    database = analyze_program(summaries, AnalyzerOptions.config("C"))
    return hashlib.sha256(database.to_json().encode()).hexdigest()


def test_packed_matches_reference_at_1k_scale(monkeypatch):
    packed = _digest()
    use_set_kernels(monkeypatch)
    assert _digest() == packed


_SUBPROCESS_SCRIPT = """
import hashlib, sys
from repro.analyzer.driver import AnalyzerOptions, analyze_program
from repro.verify.progen import FuzzProgramGenerator

summaries = FuzzProgramGenerator(0).synthesize_large({modules}, {procs})
database = analyze_program(summaries, AnalyzerOptions.config("C"))
sys.stdout.write(hashlib.sha256(database.to_json().encode()).hexdigest())
"""


@pytest.mark.slow
def test_database_bytes_stable_across_hash_seeds():
    """Same program, different ``PYTHONHASHSEED`` -> same bytes.  Set
    iteration order changes between these runs; sorted()/insertion-order
    discipline in the analyzer must absorb that."""
    script = _SUBPROCESS_SCRIPT.format(modules=MODULES, procs=PROCEDURES)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    pythonpath = os.path.abspath(src)
    if os.environ.get("PYTHONPATH"):
        pythonpath += os.pathsep + os.environ["PYTHONPATH"]
    digests = {}
    for seed in ("0", "42"):
        env = dict(
            os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        digests[seed] = result.stdout.strip()
    assert digests["0"] == digests["42"]
    assert len(digests["0"]) == 64  # a real sha256, not an empty run
