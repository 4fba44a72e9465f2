#!/usr/bin/env python3
"""Compiler explorer: watch one function travel through every stage.

Without arguments, shows the artifacts of the two-pass system for a
small function:

1. the optimized IR the first phase stores in the intermediate file,
2. the summary record it writes for the analyzer,
3. the analyzer's directives for the procedure,
4. the final PRISM machine code, annotated.

With ``--serve`` / ``--connect`` it becomes the compile service's
first real client (``docs/SERVICE.md``): ``--serve`` runs the daemon
in the foreground, ``--connect`` opens an interactive edit-recompile
session against a running daemon.

Run:
    python examples/compiler_explorer.py
    python examples/compiler_explorer.py --serve --socket /tmp/repro.sock
    python examples/compiler_explorer.py --connect /tmp/repro.sock
    python examples/compiler_explorer.py --serve --tcp 127.0.0.1:7707
    python examples/compiler_explorer.py --connect 127.0.0.1:7707
"""

import argparse
import copy
import sys

from repro import AnalyzerOptions
from repro.analyzer.driver import analyze_program
from repro.backend.allocators.paper import allocate_function
from repro.backend.finalize import finalize_frame
from repro.backend.isel import select_function
from repro.backend.promotion import apply_web_promotion
from repro.frontend.phase1 import compile_module_phase1
from repro.ir.printer import format_function
from repro.opt.pipeline import _local_fixpoint
from repro.target.registers import register_name

SOURCE = """
int total;
int scale;

int accumulate(int x) {
  total += x * scale;
  return total;
}

int main() {
  int i;
  scale = 3;
  for (i = 0; i < 100; i++) accumulate(i);
  print(total);
  return 0;
}
"""


def demo() -> None:
    # --- compiler first phase -----------------------------------------
    phase1 = compile_module_phase1(SOURCE, "demo", opt_level=2)
    function = phase1.ir_module.functions["accumulate"]

    print("=" * 64)
    print("1. optimized IR from the first phase")
    print("=" * 64)
    print(format_function(function))

    print()
    print("=" * 64)
    print("2. the procedure's summary record")
    print("=" * 64)
    record = next(
        p for p in phase1.summary.procedures if p.name == "accumulate"
    )
    print(f"  global refs:         {record.global_refs}")
    print(f"  global stores:       {record.global_stores}")
    print(f"  calls:               {record.calls}")
    print(f"  callee-saves needed: {record.callee_saves_needed}")

    # --- program analyzer ------------------------------------------------
    database = analyze_program(
        [phase1.summary], AnalyzerOptions.config("C")
    )
    directives = database.get("accumulate")

    print()
    print("=" * 64)
    print("3. analyzer directives for 'accumulate'")
    print("=" * 64)
    for promoted in directives.promoted:
        print(
            f"  promoted: {promoted.name} -> "
            f"{register_name(promoted.register)} "
            f"(web entry: {promoted.is_entry}, "
            f"store at exit: {promoted.needs_store})"
        )
    for label, registers in [
        ("FREE", directives.free),
        ("CALLER", directives.caller),
        ("CALLEE", directives.callee),
        ("MSPILL", directives.mspill),
    ]:
        names = " ".join(register_name(r) for r in sorted(registers))
        print(f"  {label:<7}= {names or '(empty)'}")

    # --- compiler second phase --------------------------------------------
    function = copy.deepcopy(function)
    apply_web_promotion(function, directives)
    _local_fixpoint(function)
    machine = select_function(function, directives)
    allocate_function(machine)
    finalize_frame(machine)

    print()
    print("=" * 64)
    print("4. final PRISM machine code")
    print("=" * 64)
    print(machine.format())
    print()
    promoted_names = ", ".join(
        f"{p.name} in {register_name(p.register)}"
        for p in directives.promoted
    )
    if promoted_names:
        print(f"note: no loads/stores of [{promoted_names}] remain — the "
              f"globals live in registers across the whole web.")


# --- compile-service client mode ------------------------------------------


def _parse_endpoint(endpoint: str):
    """``host:port`` -> ("tcp", host, port); anything else is a unix
    socket path."""
    if ":" in endpoint and not endpoint.startswith(("/", ".")):
        host, _colon, port = endpoint.rpartition(":")
        return "tcp", host, int(port)
    return "unix", endpoint, None


def serve(args) -> None:
    """Run the daemon in the foreground until interrupted."""
    import asyncio

    from repro.service.server import CompileService

    kwargs = {}
    if args.socket:
        kwargs["unix_path"] = args.socket
    if args.tcp:
        _kind, host, port = _parse_endpoint(args.tcp)
        kwargs["host"], kwargs["port"] = host, port
    if not kwargs:
        kwargs["host"], kwargs["port"] = "127.0.0.1", 7707
    if args.metrics_port is not None:
        kwargs["metrics_port"] = args.metrics_port

    async def run() -> None:
        service = CompileService(**kwargs)
        await service.start()
        if args.socket:
            print(f"compile service on unix:{args.socket}", flush=True)
        if service.tcp_address:
            host, port = service.tcp_address
            print(f"compile service on tcp:{host}:{port}", flush=True)
        if service.metrics_address:
            host, port = service.metrics_address
            print(f"metrics at http://{host}:{port}/metrics", flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nservice stopped")


HELP = """\
commands:
  compile           recompile the session (shows cache reuse)
  edit <module>     replace a module's source; end input with a lone "."
  profile           run the program, feed call counts back (configs B/F)
  modules           list the session's modules
  stats             this session's statistics
  server            server-wide statistics (shared cache, sessions)
  help              this text
  quit              close the session and exit
"""


def connect(args) -> None:
    """Interactive edit-recompile loop against a running daemon."""
    from repro.service.client import ServiceClient, ServiceError

    kind, host_or_path, port = _parse_endpoint(args.connect)
    if kind == "tcp":
        client = ServiceClient.connect_tcp(host_or_path, port)
    else:
        client = ServiceClient.connect_unix(host_or_path)
    with client:
        opened = client.open_session(
            {"demo": SOURCE}, config=args.config
        )
        session = opened["session"]
        print(f"session {session} open (config {opened['config']}, "
              f"modules: {', '.join(opened['modules'])})")
        print(HELP, end="")
        interactive = sys.stdin.isatty()
        while True:
            if interactive:
                print("> ", end="", flush=True)
            line = sys.stdin.readline()
            if not line:
                break
            command, _space, argument = line.strip().partition(" ")
            try:
                if command in ("quit", "exit"):
                    break
                elif command == "compile":
                    out = client.compile(session)
                    print(
                        f"fingerprint {out['fingerprint'][:16]}…  "
                        f"phase1 {out['phase1_compiled']} compiled / "
                        f"{out['phase1_cached']} cached, "
                        f"phase2 {out['phase2_compiled']} compiled / "
                        f"{out['phase2_cached']} cached"
                    )
                    print(
                        f"timing: {out['seconds'] * 1000:.1f}ms compile"
                        f" ({out['queue_seconds'] * 1000:.1f}ms queued,"
                        f" {out['lock_seconds'] * 1000:.1f}ms on the"
                        f" session lock)"
                    )
                elif command == "edit":
                    if not argument:
                        print("usage: edit <module>")
                        continue
                    if interactive:
                        print(f"new source for {argument!r}; end with "
                              f"a lone '.':")
                    body = []
                    while True:
                        source_line = sys.stdin.readline()
                        if not source_line or source_line.strip() == ".":
                            break
                        body.append(source_line.rstrip("\n"))
                    out = client.edit(
                        session, argument, "\n".join(body) + "\n"
                    )
                    print(f"modules now: {', '.join(out['modules'])}")
                elif command == "profile":
                    out = client.profile(session)
                    counts = ", ".join(
                        f"{name}={count}"
                        for name, count in sorted(
                            out["call_counts"].items()
                        )
                    )
                    print(f"profiled {out['procedures']} procedures: "
                          f"{counts}")
                elif command == "modules":
                    print(", ".join(
                        client.stats(session)["modules"]
                    ))
                elif command == "stats":
                    stats = client.stats(session)
                    print(f"compiles={stats['compiles']} "
                          f"edits={stats['edits']} "
                          f"tasks={stats['stage_tasks']}")
                elif command == "server":
                    stats = client.stats()
                    cache = stats.get("cache", {})
                    print(f"sessions={stats['sessions_open']} "
                          f"compiles={stats['compiles_total']} "
                          f"cache_hit_rate={cache.get('hit_rate', 0):.2f}")
                elif command == "help":
                    print(HELP, end="")
                elif command == "":
                    continue
                else:
                    print(f"unknown command {command!r} (try 'help')")
            except ServiceError as err:
                print(f"error: {err}")
        client.close_session(session)
        print(f"session {session} closed")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", action="store_true",
                        help="run the compile service daemon")
    parser.add_argument("--socket", help="unix socket path for --serve")
    parser.add_argument("--tcp", help="host:port for --serve")
    parser.add_argument("--metrics-port", type=int, default=None,
                        help="expose /metrics on this port (--serve)")
    parser.add_argument("--connect", metavar="ENDPOINT",
                        help="connect to a daemon (socket path or "
                             "host:port) and edit interactively")
    parser.add_argument("--config", default="C",
                        help="analyzer configuration for --connect "
                             "sessions (default C)")
    args = parser.parse_args(argv)
    if args.serve and args.connect:
        parser.error("--serve and --connect are mutually exclusive")
    if args.serve:
        serve(args)
    elif args.connect:
        connect(args)
    else:
        demo()


if __name__ == "__main__":
    main()
