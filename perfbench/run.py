"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-matrix --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (its spans are also written as JSONL
under ``perfbench/.work/``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it say the same for a reader.  See
``perfbench/README.md`` for what each metric means.

Exit codes: 0 after a complete run (``correct`` says whether every
output checked out), 2 when the program's sources are not in the
checkout, 3 when a generator produced other inputs than the recorded
ones.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "paper-matrix": "perfbench.paper_matrix",
    "edit-loop": "perfbench.edit_loop",
    "large-program": "perfbench.large_program",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hermetic_environment() -> dict:
    """Drop every ambient ``REPRO_*`` setting (CI exports some) and
    keep temporary files inside the checkout."""
    from perfbench.harness import WORK

    cleared = {
        name: os.environ.pop(name)
        for name in sorted(os.environ) if name.startswith("REPRO_")
    }
    WORK.mkdir(exist_ok=True)
    tempfile.tempdir = str(WORK)
    return cleared


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no program sources under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(source)]
    cleared = hermetic_environment()

    from perfbench.frozen import InputsChanged
    from perfbench.harness import WORK, Run
    from perfbench.probe import CALLS_PER_BURST, NOMINAL_PROBE_US

    workload = importlib.import_module(WORKLOADS[args.workload])
    run = Run(trace=bool(args.trace))
    run.import_seconds = time.perf_counter() - START
    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}")
    print(f"python {sys.version.split()[0]}  nproc "
          f"{len(os.sched_getaffinity(0))}  probe nominal "
          f"{NOMINAL_PROBE_US:g} us x{CALLS_PER_BURST} per burst")
    print(f"settings {json.dumps(workload.SETTINGS, sort_keys=True)}")
    print(f"cleared environment {sorted(cleared) or 'none'}")
    try:
        workload.run_workload(run, args.seed, args.seconds)
    except InputsChanged as err:
        print(f"inputs changed: {err}", file=sys.stderr)
        return 3

    for failure in run.failures:
        print(f"FAILED {failure}")
    if args.trace:
        path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        run.recorder.write_jsonl(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        print("layer share of traced request time:")
        for layer, share in run.layer_shares().items():
            print(f"  {layer:20s} {share:7.2%}")
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end()
    print(f"probe mean {run.probe.mean_us:.1f} us over "
          f"{len(run.probe.samples_us)} bursts")
    print(f"requests {len(run.requests)} untraced, {len(run.traced)} "
          "traced")
    raw = {} if args.trace else run.raw_timings()
    for name, metric in metrics.items():
        line = f"  {name:28s} {metric['value']:14.6g} {metric['unit']}"
        if name in raw:
            line += f"   raw {raw[name]:.6g}"
        print(line)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
