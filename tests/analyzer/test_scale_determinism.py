"""Determinism at scale: 1000 (and 10 000) synthesized procedures, byte-pinned.

The analyzer's output must be a pure function of its input — equal to
the set-based oracle's (``tests/analysis/set_kernels.py``) and
independent of Python's per-process hash randomization.  Unordered-set
iteration leaking into web numbering, cluster membership, or directive
order shows up exactly here: the same program analyzed under two
``PYTHONHASHSEED`` values (or two kernel sets) producing different
database bytes.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.packed import DenseIndex
from repro.analyzer import driver, webs
from repro.analyzer.database import PromotedGlobal
from repro.analyzer.driver import AnalyzerOptions, analyze_program
from repro.verify.progen import FuzzProgramGenerator
from tests.analysis.set_kernels import use_set_kernels

MODULES = 20
PROCEDURES = 1000
CONFIGS = ("A", "C", "D", "E")

#: config -> sha256 of ``to_json()`` and of :func:`_census` for
#: ``synthesize_large(20, 1000)`` seed 0, recorded from the analyzer
#: whose web kernel still grew node bitmasks over variable-major
#: transposes.  The oracle swaps only the kernels: the driver's web
#: database loop, coloring and blanket promotion run on both sides of
#: the differential test, so drift there shows only here.
GOLDEN = {
    "A": ("f7ee3e5e2f3c2680f73e11127212de02eb40560e11afdf78b82c66f18fd7d565",
          "19f0a0f0be5d68d2d4f061c08f09d7fa0ce16df50d50b233f1e1be9c8f67321c"),
    "C": ("3993b8ab968280b4c129bc9ad33b7093435b1443ed442319d0026e5a66a751f3",
          "30d2a0fbdc82acaf63761eb766cf322964ae909afc6d4950473abfb69a2237cc"),
    "D": ("e4610fdf1c2231d6d3103635b624c48c19cfbd577f609e6b49ff1c24829ebbec",
          "dfd12643c523e81e641fb4bfaf75b241f6c85a3bffff9aca5663eea8b35fbe59"),
    "E": ("1b6bddc74e7ba143fa31e9eab3d748a46ce270688bac2b34e3adba9351c08e8c",
          "7eb556b9412169946286ccd62e7ce326daa4c5bb1a70d61320abf4d77a432e04"),
}


#: config -> sha256 of ``to_json()`` for ``synthesize_large(200,
#: 10_000)`` seed 0, recorded from the analyzer whose back half (weights,
#: clusters, register sets and the directive loop) still ran on
#: procedure names.  These stages run on both sides of the oracle
#: comparison, and the 1k program is one shape; a second, larger one
#: guards them.
GOLDEN_10K = {
    "C": "c91f8ef8caf4b0197d18d883017e82a5d823a435de5ae25c12252bf2d67a8f47",
    "D": "ffb6206b8e0e2c018b49a9c19409c467d2fc7e983a956acdf92790cc3fa337f4",
}


@pytest.fixture(scope="module")
def summaries():
    return FuzzProgramGenerator(0).synthesize_large(MODULES, PROCEDURES)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _census(database) -> str:
    """The web census and statistics as canonical JSON (``to_json()``
    carries the directives only)."""
    webs = [
        [web.web_id, web.variable, sorted(web.nodes),
         sorted(web.entry_nodes), web.register,
         sorted(web.interferes_with), web.priority, web.discarded_reason]
        for web in database.webs
    ]
    return json.dumps(
        {"webs": webs,
         "statistics": dataclasses.asdict(database.statistics)},
        sort_keys=True,
    )


def _digests(summaries) -> dict:
    digests = {}
    for config in CONFIGS:
        database = analyze_program(summaries, AnalyzerOptions.config(config))
        digests[config] = (
            _sha256(database.to_json()), _sha256(_census(database))
        )
    return digests


def test_golden_digests_at_1k_scale(summaries):
    assert _digests(summaries) == GOLDEN


@pytest.mark.slow
def test_golden_digests_at_10k_scale():
    summaries = FuzzProgramGenerator(0).synthesize_large(200, 10_000)
    digests = {
        config: _sha256(
            analyze_program(
                summaries, AnalyzerOptions.config(config)
            ).to_json()
        )
        for config in GOLDEN_10K
    }
    assert digests == GOLDEN_10K


def test_packed_matches_reference_at_1k_scale(monkeypatch, summaries):
    packed = _digests(summaries)
    use_set_kernels(monkeypatch)
    assert _digests(summaries) == packed


def test_names_decoded_once_at_1k_scale(monkeypatch, summaries):
    """Config C decodes no L_REF/P_REF/C_REF mask to a set, and no web's
    procedure names while it analyzes: no web is split, so the
    directives need none.  The web census is built on first read, which
    names each web's members and entries once; a second read decodes
    nothing.  The analysis builds one ``PromotedGlobal`` per distinct
    record (2,562 for 4,017 promoted entries).  Every count here repeats
    exactly, so a decode or a record that comes back shows."""
    row_decodes = []
    name_decodes = []
    records = []
    set_of = DenseIndex.set_of
    node_names = webs.node_names

    def counting_set_of(index, mask):
        row_decodes.append(mask)
        return set_of(index, mask)

    def counting_node_names(names, indices):
        name_decodes.append(len(indices))
        return node_names(names, indices)

    def counting_record(*args):
        records.append(args)
        return PromotedGlobal(*args)

    monkeypatch.setattr(DenseIndex, "set_of", counting_set_of)
    monkeypatch.setattr(webs, "node_names", counting_node_names)
    monkeypatch.setattr(driver, "PromotedGlobal", counting_record)
    database = analyze_program(summaries, AnalyzerOptions.config("C"))
    assert row_decodes == []
    assert name_decodes == []
    assert len(records) == 2562
    assert sum(
        len(directives.promoted)
        for directives in database.procedures.values()
    ) == 4017
    census = database.webs
    assert len(census) == 2688
    assert len(name_decodes) == 2 * len(census)
    assert database.webs is census
    assert len(name_decodes) == 2 * len(census)
    assert row_decodes == []


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
