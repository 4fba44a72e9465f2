"""Analyzer throughput at scale: packed kernels vs the set-based oracle.

The interprocedural analyzer is the piece of this system that must run
over *whole programs* — the paper's pitch is analysis cheap enough to
rerun at every link.  This harness synthesizes optimizer-shaped programs
(binary call trees per module, ~one file-scope global per procedure,
cross-module calls; see ``FuzzProgramGenerator.synthesize_large``) at
1 000 / 10 000 / 50 000 procedures and measures full ``analyze_program``
runs (config C) on the shipped bit-packed kernels and, patched in
through ``use_set_kernels``, on the set-based oracle the differential
tests use (``tests/analysis/set_kernels.py``).

Methodology: ``time.process_time`` (CPU, immune to scheduler noise),
best of ``ROUNDS`` runs.  For the best packed run the entry also
records what the cyclic garbage collector did inside it, read through
``gc.callbacks``: its CPU seconds, its share of the run, its passes per
generation and the objects it freed (reported, not asserted).  The
oracle is only timed through 10k procedures — its per-variable
whole-graph sweeps make 50k runs take minutes, which is the point of
the packed kernels.  Database byte-identity between the two is
asserted at every scale where both run.  Results land in the ``scalability`` section of
``BENCH_results.json``; when both 10k and 50k run, so does the ratio of
their packed procs/s (``procs_per_sec_50k_over_10k``), which ROADMAP
item 3 wants at 0.7 or more.  The ratio is reported, not asserted.

``REPRO_SCALE_PROCS`` (comma-separated procedure counts) restricts the
scales — CI's smoke step runs ``REPRO_SCALE_PROCS=1000``.
"""

import gc
import hashlib
import os
import time

from repro.analysis.liveness import compute_ir_liveness
from repro.analysis.frequency import (
    _function_walk,
    estimate_callee_saves_need,
    estimate_caller_saves_need,
)
from repro.analyzer.driver import AnalyzerOptions, analyze_program
from repro.ir import lower_source
from repro.verify.progen import FuzzProgramGenerator, generate_fuzz_program
from tests.analysis.set_kernels import use_set_kernels

from conftest import _SCALABILITY, print_table, record_note

#: (procedures, modules) — modules scale so each holds ~50 procedures.
SCALES = ((1_000, 20), (10_000, 200), (50_000, 1_000))
REFERENCE_CEILING = 10_000  # oracle not timed above this
ROUNDS = 3
TARGET_SPEEDUP_AT_10K = 10.0
#: CI floor for the 1k smoke run (observed ~9k procs/sec on a dev box;
#: the floor leaves ~6x headroom for slower runners).
MIN_PACKED_PROCS_PER_SEC_1K = 1_500


def _selected_scales():
    override = os.environ.get("REPRO_SCALE_PROCS")
    if not override:
        return SCALES
    wanted = {int(v) for v in override.split(",") if v.strip()}
    return tuple(s for s in SCALES if s[0] in wanted)


class _CollectorClock:
    """While installed in ``gc.callbacks``: the CPU seconds, passes per
    generation and freed objects of the cyclic garbage collector."""

    def __init__(self):
        self.seconds = 0.0
        self.passes = [0, 0, 0]
        self.collected = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.process_time()
            return
        self.seconds += time.process_time() - self._start
        self.passes[info["generation"]] += 1
        self.collected += info["collected"]

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def _timed_analysis(summaries, rounds=ROUNDS):
    """Best-of CPU seconds, the database digest of one run, and the
    collector's work inside the best run."""
    best = None
    digest = None
    for _ in range(rounds):
        with _CollectorClock() as collector:
            start = time.process_time()
            database = analyze_program(
                summaries, AnalyzerOptions.config("C")
            )
            elapsed = time.process_time() - start
        if best is None or elapsed < best:
            best, best_collector = elapsed, collector
        if digest is None:
            digest = hashlib.sha256(database.to_json().encode()).hexdigest()
    return best, digest, best_collector


def test_analyzer_scale(monkeypatch):
    rows = []
    rates = {}
    for procedures, modules in _selected_scales():
        summaries = FuzzProgramGenerator(0).synthesize_large(
            modules, procedures
        )
        packed_s, packed_digest, collector = _timed_analysis(summaries)
        entry = {
            "procedures": procedures,
            "modules": modules,
            "packed_seconds": packed_s,
            "packed_procs_per_sec": procedures / packed_s,
            "gc_seconds": collector.seconds,
            "gc_share": collector.seconds / packed_s,
            "gc_passes": collector.passes,
            "gc_collected": collector.collected,
        }
        if procedures <= REFERENCE_CEILING:
            with monkeypatch.context() as patch:
                use_set_kernels(patch)
                reference_s, reference_digest, _ = _timed_analysis(
                    summaries, rounds=max(1, ROUNDS - 1)
                )
            assert packed_digest == reference_digest, (
                f"{procedures} procs: database bytes diverge from the oracle"
            )
            entry["reference_seconds"] = reference_s
            entry["reference_procs_per_sec"] = procedures / reference_s
            entry["speedup"] = reference_s / packed_s
        _SCALABILITY[str(procedures)] = entry
        rates[procedures] = entry["packed_procs_per_sec"]
        rows.append((
            procedures,
            modules,
            f"{entry['packed_procs_per_sec']:.0f}",
            f"{entry['reference_procs_per_sec']:.0f}"
            if "reference_procs_per_sec" in entry else "-",
            f"{entry['speedup']:.1f}x" if "speedup" in entry else "-",
            f"{collector.seconds:.3f} s ({entry['gc_share']:.0%})",
            "/".join(map(str, collector.passes)),
            collector.collected,
        ))

        if procedures == 1_000:
            assert (
                entry["packed_procs_per_sec"]
                > MIN_PACKED_PROCS_PER_SEC_1K
            ), entry
        if procedures == 10_000 and "speedup" in entry:
            assert entry["speedup"] >= TARGET_SPEEDUP_AT_10K, entry
            _SCALABILITY["target_speedup_at_10k"] = TARGET_SPEEDUP_AT_10K

    print_table(
        "Analyzer scale: full interprocedural analysis (config C)",
        ("procs", "modules", "packed procs/s", "reference procs/s",
         "speedup", "packed gc", "gc passes 0/1/2", "gc freed"),
        rows,
    )
    if 10_000 in rates and 50_000 in rates:
        ratio = rates[50_000] / rates[10_000]
        _SCALABILITY["procs_per_sec_50k_over_10k"] = ratio
        record_note(
            f"analyzer scale: 50k packed procs/s is {ratio:.0%} of the "
            f"10k rate"
        )


def test_frequency_walk_hoisting():
    """The register-need estimators accept a precomputed liveness result
    and instruction walk; sharing them (as ``analyze_function_usage``
    does) must beat per-estimator re-derivation — the old hot path
    solved the same liveness fixpoint three times per function."""
    functions = []
    for seed in range(4):
        for module_name, text in sorted(
            generate_fuzz_program(seed).items()
        ):
            module = lower_source(text, f"s{seed}_{module_name}")
            functions.extend(module.functions.values())
    assert len(functions) >= 10

    def shared():
        for function in functions:
            liveness = compute_ir_liveness(function)
            walk = _function_walk(function)
            estimate_callee_saves_need(function, liveness, walk)
            estimate_caller_saves_need(function, liveness, walk)

    def rederived():
        for function in functions:
            estimate_callee_saves_need(function)
            estimate_caller_saves_need(function)

    best = {"shared": None, "rederived": None}
    for _ in range(5):
        for name, body in (("shared", shared), ("rederived", rederived)):
            start = time.process_time()
            body()
            elapsed = time.process_time() - start
            if best[name] is None or elapsed < best[name]:
                best[name] = elapsed
    speedup = best["rederived"] / best["shared"]
    _SCALABILITY["frequency_walk_hoisting"] = {
        "shared_seconds": best["shared"],
        "rederived_seconds": best["rederived"],
        "speedup": speedup,
    }
    record_note(
        f"frequency estimate hoisting: shared liveness+walk "
        f"{speedup:.2f}x faster than per-estimator re-derivation"
    )
    assert speedup > 1.1, best
