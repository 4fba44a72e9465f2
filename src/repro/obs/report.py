"""``repro-explain``: paper-style allocation reports from a trace.

The CLI compiles a registered workload under one of the paper's Table 4
configurations (or loads a previously saved ``REPRO_TRACE`` JSONL file)
and renders what the allocator *decided* and what it *cost*:

* a global-promotion table in the spirit of the paper's Tables 1-2 —
  per eligible global: webs formed, coloring outcome, registers,
  rejection reasons;
* a per-cluster spill-code-motion summary (section 4.2.3) — which
  MSPILL registers migrated to each cluster root and which stayed put;
* per-procedure execution attribution (Tables 4-5 flavor) — cycles,
  memory references, and save/restore traffic, rolled up per cluster;
* the post-link audit summary when verification ran.

Everything, the ``metrics`` exposition included, is rendered from the
trace record stream alone, so ``--from-trace`` and a fresh compile
share one code path.

Two profiling commands ride on the same trace plumbing: ``flame``
folds a span stream (a compile trace or a daemon's
``REPRO_SERVICE_TRACE`` stream) into collapsed stacks plus a self-time
table, and ``slow`` ranks a daemon trace's requests by latency with
queue-wait and per-phase breakdowns.

Usage::

    repro-explain [report] --workload othello --config C
    repro-explain why passes --workload othello
    repro-explain why-not black_wins --workload othello
    repro-explain proc main --workload othello
    repro-explain metrics --workload othello
    repro-explain report --from-trace trace.jsonl
    repro-explain metrics --from-trace trace.jsonl
    repro-explain flame --from-trace service.jsonl --out out.folded
    repro-explain slow --from-trace service.jsonl --top 5
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from repro.obs.metrics import fold_trace
from repro.obs.provenance import (
    cluster_owners,
    events_of,
    explain_global,
    explain_procedure,
    format_explanation,
)
from repro.obs.tracer import (
    STAGES,
    Tracer,
    activate,
    canonicalize_trace,
    read_trace,
)

COMMANDS = (
    "report", "why", "why-not", "proc", "metrics", "flame", "slow",
)


# -- compilation front-end -------------------------------------------------


def _collect_profile(workload, opt_level: int):
    """The gprof step for configs B/F, kept out of the main trace.

    Uses a throwaway untraced scheduler: the baseline compile-and-run
    is scaffolding for call counts, not part of the allocation story
    the report narrates.
    """
    from repro.analyzer.database import ProgramDatabase
    from repro.driver.scheduler import CompilationScheduler
    from repro.machine.profiler import ProfileData
    from repro.machine.simulator import run_executable
    from repro.obs.tracer import NULL_TRACER

    with CompilationScheduler(trace=NULL_TRACER, verify=False) as scheduler:
        phase1 = scheduler.run_phase1(workload.sources, opt_level)
        executable = scheduler.compile_with_database(
            phase1, ProgramDatabase(), opt_level
        )
    stats = run_executable(executable, workload.max_cycles)
    return ProfileData.from_stats(stats)


def compile_workload(
    workload_name: str,
    config: str = "C",
    opt_level: int = 2,
    save_trace=None,
    verify: bool | None = None,
):
    """Compile + simulate one workload under full tracing.

    Returns the in-memory trace records (also written to
    ``save_trace`` when given).
    """
    from repro.analyzer.options import AnalyzerOptions
    from repro.driver.scheduler import CompilationScheduler
    from repro.machine.simulator import Simulator
    from repro.workloads import get_workload

    workload = get_workload(workload_name)
    tracer = Tracer(save_trace)
    try:
        profile = None
        if config.upper() in ("B", "F"):
            profile = _collect_profile(workload, opt_level)
        options = AnalyzerOptions.config(config, profile)
        with CompilationScheduler(trace=tracer, verify=verify) as scheduler:
            phase1 = scheduler.run_phase1(workload.sources, opt_level)
            database = scheduler.analyze(
                [result.summary for result in phase1], options
            )
            executable = scheduler.compile_with_database(
                phase1, database, opt_level
            )
            with activate(tracer):
                simulator = Simulator(
                    executable,
                    volatile_registers=(
                        database.convention_volatile_registers()
                    ),
                )
                simulator.run(workload.max_cycles)
    finally:
        tracer.close()
    return tracer.records


# -- report model ----------------------------------------------------------


def _last(payloads: list) -> dict:
    return payloads[-1] if payloads else {}


def report_data(records) -> dict:
    """Distill a record stream into the report's structured form."""
    records = canonicalize_trace(records)

    modules = events_of(records, "module-phase1")
    link = _last(events_of(records, "link"))
    audit = _last(events_of(records, "audit"))
    execution = _last(events_of(records, "execution"))

    webs_formed = events_of(records, "web-formed")
    screened = Counter(
        payload["reason"]
        for payload in events_of(records, "web-screened")
    )
    colored = {
        payload["web_id"]: payload
        for payload in events_of(records, "web-colored")
    }
    uncolored = {
        payload["web_id"]: payload
        for payload in events_of(records, "web-uncolored")
    }
    rejected = {
        payload["web_id"]: payload
        for payload in events_of(records, "web-rejected")
    }

    globals_table = []
    for data in events_of(records, "global-decision"):
        globals_table.append(
            {
                "global": data["name"],
                "status": data["decision"],
                "registers": list(data.get("registers", ())),
                "webs": list(data.get("webs", ())),
                "reasons": list(data.get("reasons", ())),
            }
        )
    ineligible = [
        {"global": data["name"], "reasons": list(data["reasons"])}
        for data in events_of(records, "global-ineligible")
    ]

    clusters = []
    migrated = events_of(records, "mspill-migrated")
    kept = events_of(records, "mspill-kept")
    for data in events_of(records, "cluster-formed"):
        root = data["root"]
        moved: set = set()
        for move in migrated:
            if move["cluster_root"] == root:
                moved.update(move["registers"])
        stayed: set = set()
        for keep in kept:
            if keep["cluster_root"] == root:
                stayed.update(keep["registers"])
        clusters.append(
            {
                "root": root,
                "members": list(data["members"]),
                "migrated_registers": sorted(moved),
                "kept_registers": sorted(stayed),
            }
        )

    owner = cluster_owners(records)
    procedures = []
    cluster_cycles: Counter = Counter()
    cluster_saves: Counter = Counter()
    total_cycles = execution.get("cycles", 0) or 0
    for name, counters in sorted(
        execution.get("per_procedure", {}).items(),
        key=lambda item: (-item[1]["cycles"], item[0]),
    ):
        root = owner.get(name, "<none>")
        cluster_cycles[root] += counters["cycles"]
        cluster_saves[root] += counters["save_restore"]
        procedures.append(
            {
                "procedure": name,
                "cycles": counters["cycles"],
                "percent": (
                    100.0 * counters["cycles"] / total_cycles
                    if total_cycles
                    else 0.0
                ),
                "memory_references": (
                    counters["loads"] + counters["stores"]
                ),
                "save_restore": counters["save_restore"],
                "cluster": root,
            }
        )

    return {
        "modules": modules,
        "link": link,
        "globals": globals_table,
        "ineligible": ineligible,
        "web_stats": {
            "formed": len(webs_formed),
            "screened": dict(sorted(screened.items())),
            "colored": len(colored),
            "uncolored": len(uncolored),
            "rejected": len(rejected),
        },
        "clusters": clusters,
        "execution": {
            "cycles": execution.get("cycles"),
            "instructions": execution.get("instructions"),
            "memory_references": execution.get("memory_references"),
            "save_restore_executed": execution.get(
                "save_restore_executed"
            ),
            "exit_code": execution.get("exit_code"),
            "procedures": procedures,
            "cluster_cycles": dict(sorted(cluster_cycles.items())),
            "cluster_save_restore": dict(sorted(cluster_saves.items())),
        },
        "audit": audit,
    }


# -- text rendering --------------------------------------------------------


def _table(headers: list, rows: list) -> str:
    """Fixed-width text table (left-aligned, two-space gutters)."""
    rendered = [
        [str(cell) for cell in row] for row in [headers] + list(rows)
    ]
    widths = [
        max(len(row[col]) for row in rendered)
        for col in range(len(headers))
    ]
    lines = []
    for index, row in enumerate(rendered):
        lines.append(
            "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            ).rstrip()
        )
        if index == 0:
            lines.append(
                "  ".join("-" * width for width in widths)
            )
    return "\n".join(lines)


def _csv(items) -> str:
    return ",".join(str(item) for item in items) if items else "-"


def render_report(records, title: str = "") -> str:
    """The paper-style allocation report as plain text."""
    data = report_data(records)
    out: list = []
    if title:
        out.append(f"Allocation report: {title}")
        out.append("")

    if data["modules"]:
        out.append("== Modules (phase 1) ==")
        out.append(
            _table(
                ["module", "functions", "cached"],
                [
                    [
                        mod["module"],
                        _csv(mod["functions"]),
                        "yes" if mod["cached"] else "no",
                    ]
                    for mod in data["modules"]
                ],
            )
        )
        out.append("")

    out.append("== Global promotion (paper Tables 1-2) ==")
    if data["globals"]:
        out.append(
            _table(
                ["global", "status", "registers", "webs", "reasons"],
                [
                    [
                        row["global"],
                        row["status"],
                        _csv(f"r{r}" for r in row["registers"]),
                        _csv(f"#{w}" for w in row["webs"]),
                        _csv(row["reasons"]),
                    ]
                    for row in data["globals"]
                ],
            )
        )
    else:
        out.append("(no eligible globals)")
    stats = data["web_stats"]
    screened_total = sum(stats["screened"].values())
    out.append(
        "webs: {formed} formed, {screened} screened, {colored} colored,"
        " {uncolored} uncolored, {rejected} rejected".format(
            formed=stats["formed"],
            screened=screened_total,
            colored=stats["colored"],
            uncolored=stats["uncolored"],
            rejected=stats["rejected"],
        )
    )
    if stats["screened"]:
        out.append(
            "screening: "
            + ", ".join(
                f"{reason}={count}"
                for reason, count in stats["screened"].items()
            )
        )
    if data["ineligible"]:
        out.append("")
        out.append("== Ineligible globals (section 3) ==")
        out.append(
            _table(
                ["global", "reasons"],
                [
                    [row["global"], _csv(row["reasons"])]
                    for row in data["ineligible"]
                ],
            )
        )
    out.append("")

    out.append("== Clusters (spill code motion, section 4.2.3) ==")
    if data["clusters"]:
        out.append(
            _table(
                ["root", "members", "migrated", "kept"],
                [
                    [
                        cluster["root"],
                        len(cluster["members"]),
                        _csv(
                            f"r{r}"
                            for r in cluster["migrated_registers"]
                        ),
                        _csv(
                            f"r{r}" for r in cluster["kept_registers"]
                        ),
                    ]
                    for cluster in data["clusters"]
                ],
            )
        )
    else:
        out.append("(no clusters formed)")
    out.append("")

    execution = data["execution"]
    if execution["procedures"]:
        out.append("== Per-procedure execution (overhead attribution) ==")
        out.append(
            _table(
                [
                    "procedure",
                    "cycles",
                    "%total",
                    "memrefs",
                    "save/restore",
                    "cluster",
                ],
                [
                    [
                        row["procedure"],
                        row["cycles"],
                        f"{row['percent']:.1f}",
                        row["memory_references"],
                        row["save_restore"],
                        row["cluster"],
                    ]
                    for row in execution["procedures"]
                ],
            )
        )
        out.append(
            "total: cycles={cycles} instructions={instructions}"
            " memrefs={memory_references}"
            " save/restore={save_restore_executed}"
            " exit={exit_code}".format(**execution)
        )
        out.append("")
        out.append("== Per-cluster attribution ==")
        out.append(
            _table(
                ["cluster root", "cycles", "save/restore"],
                [
                    [
                        root,
                        cycles,
                        execution["cluster_save_restore"].get(root, 0),
                    ]
                    for root, cycles in sorted(
                        execution["cluster_cycles"].items(),
                        key=lambda item: (-item[1], item[0]),
                    )
                ],
            )
        )
        out.append("")

    if data["audit"]:
        out.append("== Post-link audit ==")
        out.append(
            " ".join(
                f"{key}={value}"
                for key, value in sorted(data["audit"].items())
                if not isinstance(value, (dict, list))
            )
        )
        out.append("")

    return "\n".join(out).rstrip() + "\n"


def render_metrics(records) -> str:
    """The metrics exposition text folded from one compile's trace."""
    return fold_trace(records).to_text()


def render_self_time(records, top: int = 20) -> str:
    """The flame view's text companion: heaviest self-time first."""
    from repro.obs.flame import self_time_table

    rows = self_time_table(records)[:top]
    if not rows:
        return "(no spans in trace)\n"
    return (
        _table(
            ["span", "self s", "total s", "count"],
            [
                [
                    row["label"],
                    f"{row['self_seconds']:.6f}",
                    f"{row['total_seconds']:.6f}",
                    row["count"],
                ]
                for row in rows
            ],
        )
        + "\n"
    )


def render_slow(records, top: int = 10) -> str:
    """Slowest daemon requests with waits and per-phase breakdown."""
    from repro.obs.flame import slowest_requests

    rows = slowest_requests(records, top=top)
    if not rows:
        return (
            "(no request spans in trace — is this a daemon "
            "REPRO_SERVICE_TRACE stream?)\n"
        )
    headers = ["trace", "req", "op", "seconds", "queue", "lock"]
    headers += list(STAGES) + ["error"]
    body = []
    for row in rows:
        line = [
            row["trace"],
            row["request"],
            row["op"],
            f"{row['seconds']:.6f}",
            f"{row['queue_wait']:.6f}",
            f"{row['lock_wait']:.6f}",
        ]
        for phase in STAGES:
            seconds = row["phases"].get(phase)
            line.append("-" if seconds is None else f"{seconds:.6f}")
        line.append(row["error"] or "-")
        body.append(line)
    return _table(headers, body) + "\n"


# -- CLI -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-explain",
        description=(
            "Explain interprocedural register-allocation decisions "
            "from a compilation trace."
        ),
    )
    parser.add_argument(
        "command",
        choices=COMMANDS,
        nargs="?",
        default="report",
        help="report (default), why NAME, why-not NAME, proc NAME,"
        " metrics",
    )
    parser.add_argument(
        "name",
        nargs="?",
        help="global (why/why-not) or procedure (proc) to explain",
    )
    parser.add_argument(
        "--workload",
        default="othello",
        help="registered workload name (default: othello)",
    )
    parser.add_argument(
        "--config",
        default="C",
        help="paper Table 4 configuration A-F (default: C)",
    )
    parser.add_argument(
        "--opt-level", type=int, default=2, help="optimization level"
    )
    parser.add_argument(
        "--from-trace",
        metavar="PATH",
        help="render from a saved REPRO_TRACE JSONL instead of"
        " compiling",
    )
    parser.add_argument(
        "--save-trace",
        metavar="PATH",
        help="also write the trace JSONL here",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="run the post-link auditor (REPRO_VERIFY=1 also works)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of text",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="flame: write the collapsed-stack file here (stdout gets"
        " the self-time table instead)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="slow: how many requests to list (default: 10)",
    )
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if not argv or argv[0].startswith("-"):
        argv.insert(0, "report")
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command in ("why", "why-not", "proc") and not args.name:
        parser.error(f"{args.command} requires a NAME argument")
    if args.command == "slow" and not args.from_trace:
        parser.error(
            "slow ranks daemon requests and needs --from-trace"
            " pointing at a REPRO_SERVICE_TRACE stream"
        )
    if args.from_trace:
        records = read_trace(args.from_trace)
        title = os.path.basename(args.from_trace)
    else:
        verify = args.verify or None
        records = compile_workload(
            args.workload,
            config=args.config,
            opt_level=args.opt_level,
            save_trace=args.save_trace,
            verify=verify,
        )
        title = (
            f"{args.workload}, config {args.config.upper()},"
            f" O{args.opt_level}"
        )

    if args.command == "report":
        if args.json:
            print(json.dumps(report_data(records), indent=2))
        else:
            print(render_report(records, title=title), end="")
        return 0

    if args.command == "flame":
        from repro.obs.flame import fold_spans, render_collapsed

        collapsed = render_collapsed(fold_spans(records))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(collapsed)
            print(f"wrote {args.out}")
            print(render_self_time(records), end="")
        elif args.json:
            print(json.dumps(fold_spans(records), indent=2))
        else:
            print(collapsed, end="")
        return 0

    if args.command == "slow":
        if args.json:
            from repro.obs.flame import slowest_requests

            print(json.dumps(
                slowest_requests(records, top=args.top), indent=2
            ))
        else:
            print(render_slow(records, top=args.top), end="")
        return 0

    if args.command == "metrics":
        print(render_metrics(records), end="")
        return 0

    # why / why-not / proc: one explanation path answers all three.
    if args.command == "proc":
        explanation = explain_procedure(records, args.name)
    else:
        explanation = explain_global(records, args.name)
    if args.json:
        print(json.dumps(explanation, indent=2))
    else:
        print(format_explanation(explanation))
    return 1 if explanation.get("status") == "unknown" else 0


if __name__ == "__main__":
    sys.exit(main())
