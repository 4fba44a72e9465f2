"""edit-loop: one client editing and recompiling through the daemon.

A compile daemon (``ServiceThread``) runs in this process.  Set-up
opens one session per program in ``SESSION_PROGRAMS`` (seeded
``FuzzProgramGenerator`` programs, config C) and cold-compiles each.
Each timed request is one seeded ``mutate`` step of one session: its
``edit`` frames, then ``compile``, over one unix-socket connection,
round-robin across the sessions.  The seed shuffles the order of the
sessions within each round.  Every run edits the same programs through
the same recorded sequences: drawing them per seed moved the run's
latency percentiles and code size by several percent, more than the
host's noise.

This is the only workload that reads and writes the shared artifact
cache and runs the incremental analyzer, and it never simulates.
After the timed window, fingerprints are checked against cold serial
compiles of the same sources.
"""

from __future__ import annotations

import os
import random
import re
import shutil
from pathlib import Path

from repro.analyzer.options import AnalyzerOptions
from repro.driver.scheduler import CompilationScheduler
from repro.linker.link import executable_fingerprint
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.service.server import ServiceThread
from repro.verify.progen import FuzzProgramGenerator

from perfbench import frozen
from perfbench.harness import SETUP_REPEATS, WORK

NAME = "edit-loop"
SESSION_PROGRAMS = tuple(range(12))
WARMUP_PROGRAM = 12
#: Length of every recorded edit sequence; caps the edits per session.
MAX_EDITS = 24
#: Requests per second on the calibration host, which sizes a run:
#: round(seconds * RATE / sessions) edits per session.
RATE = 7.0
CONFIG = "C"
SETTINGS = {
    "workers": 1, "config": CONFIG, "allocator": "paper",
    "opt_level": 2, "request_tracing": False, "metrics_port": None,
}

_FUNCTION_RE = re.compile(r"^int \w+\([^)]*\) \{$", re.MULTILINE)


def edit_sequence(program: int) -> list:
    """Sources of ``program`` before and after each of ``MAX_EDITS``
    seeded ``mutate`` steps."""
    generator = FuzzProgramGenerator(program)
    states = [generator.generate()]
    for step in range(1, MAX_EDITS + 1):
        states.append(generator.mutate(states[-1], step))
    return states


def freeze_inputs() -> dict:
    return {
        str(program): frozen.digest(edit_sequence(program))
        for program in SESSION_PROGRAMS + (WARMUP_PROGRAM,)
    }


def plan(seed: int, seconds: float) -> list:
    """The seeded session order of each round; one round per edit."""
    rng = random.Random(f"perfbench-edit-loop-{seed}")
    edits = min(MAX_EDITS, max(
        2, round(seconds * RATE / len(SESSION_PROGRAMS))
    ))
    rounds = []
    for _ in range(edits):
        order = list(range(len(SESSION_PROGRAMS)))
        rng.shuffle(order)
        rounds.append(order)
    return rounds


def reference_compile(sources: dict):
    """A cold, serial, uncached compile of ``sources``."""
    with CompilationScheduler(
        jobs=1, cache_dir=None, verify=False, incremental=False,
        allocator=SETTINGS["allocator"],
    ) as scheduler:
        return scheduler.compile_program(
            dict(sources), SETTINGS["opt_level"],
            AnalyzerOptions.config(CONFIG),
        ).executable


class _Daemon:
    """One in-process daemon and the client connected to it."""

    def __init__(self, directory: Path):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        self.directory = directory
        # Relative: the checkout's absolute path may exceed the
        # ~107-byte limit on unix socket paths.
        self.socket = os.path.relpath(directory / "daemon.sock")
        self.thread = ServiceThread(
            unix_path=self.socket, workers=SETTINGS["workers"],
            cache_dir=str(directory / "cache"), trace_path="",
            metrics_port=None,
        )
        self.thread.__enter__()
        try:
            self.client = ServiceClient.connect_unix(
                self.socket, timeout=120
            )
        except OSError:
            self.thread.__exit__(None, None, None)
            raise

    def open(self, sources: dict) -> str:
        session = self.client.open_session(
            dict(sources), config=CONFIG,
            allocator=SETTINGS["allocator"],
            opt_level=SETTINGS["opt_level"],
        )["session"]
        self.client.compile(session)
        return session

    def edit_and_compile(self, session: str, before: dict, after: dict):
        for module in sorted(set(before) | set(after)):
            if before.get(module) != after.get(module):
                self.client.edit(session, module, after.get(module))
        return self.client.compile(session)

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.thread.__exit__(None, None, None)
            shutil.rmtree(self.directory, ignore_errors=True)


def _prepare(seed: int, seconds: float, directory: Path):
    record = frozen.load()
    rounds = plan(seed, seconds)
    states = []
    for program in SESSION_PROGRAMS:
        sequence = edit_sequence(program)
        frozen.check(record, NAME, str(program), sequence)
        states.append(sequence[:len(rounds) + 1])
    warmup = edit_sequence(WARMUP_PROGRAM)
    frozen.check(record, NAME, str(WARMUP_PROGRAM), warmup)
    daemon = _Daemon(directory)
    try:
        sessions = [daemon.open(sequence[0]) for sequence in states]
        warm = daemon.open(warmup[0])
        daemon.edit_and_compile(warm, warmup[0], warmup[1])
    except BaseException:
        daemon.close()
        raise
    return daemon, sessions, states, rounds


def run_workload(run, seed: int, seconds: float):
    base = WORK / f"edit-loop-{os.getpid()}"
    daemon = None
    try:
        for repeat in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.close()
                daemon = None
            with run.timed() as timing:
                daemon, sessions, states, rounds = _prepare(
                    seed, seconds, base / f"setup{repeat}"
                )
            run.setups.append(timing)
        fingerprints = _timed_loop(run, daemon, sessions, states, rounds)
    finally:
        if daemon is not None:
            daemon.close()
        shutil.rmtree(base, ignore_errors=True)
    _check_fingerprints(run, seed, states, fingerprints)


def _timed_loop(run, daemon, sessions, states, rounds) -> dict:
    """Run every round; returns (session index, step) -> fingerprint."""
    fingerprints: dict = {}
    with run.recorder.installed():
        for step, order in enumerate(rounds, start=1):
            # A traced run traces every other round and leaves the rest
            # untraced, which prices the tracing overhead.
            traced = run.trace and step % 2 == 0
            for index in order:
                before, after = states[index][step - 1], states[index][step]
                request_id = (index, step)
                run.attempted += 1
                try:
                    with run.timed(request_id, traced) as timing:
                        reply = daemon.edit_and_compile(
                            sessions[index], before, after
                        )
                except ServiceError as err:
                    run.fail(f"session {index} step {step}: {err}")
                    continue
                fingerprints[request_id] = reply["fingerprint"]
                run.record(request_id, timing, traced, procedures=len(
                    _FUNCTION_RE.findall("\n".join(after.values()))
                ))
                if traced:
                    _count_reply(run, reply, timing)
    return fingerprints


def _count_reply(run, reply: dict, timing) -> None:
    counts = run.counts
    counts["frontend.modules"] += reply["phase1_compiled"]
    counts["frontend.cached"] += reply["phase1_cached"]
    counts["backend.modules"] += reply["phase2_compiled"]
    counts["backend.cached"] += reply["phase2_cached"]
    analyze = reply["analyze"]
    counts["incremental.webs_reused"] += analyze.get("webs_reused", 0)
    counts["incremental.webs_recomputed"] += analyze.get(
        "webs_recomputed", 0)
    counts["incremental.full_fallbacks"] += analyze.get(
        "full_fallbacks", 0)
    job, queue, lock = (
        reply["seconds"], reply["queue_seconds"], reply["lock_seconds"]
    )
    splits = {
        "service.wire_ms": timing.raw - job - queue - lock,
        "service.queue_ms": queue,
        "service.lock_ms": lock,
        "service.other_ms": job - sum(reply["stage_seconds"].values()),
    }
    for name, seconds in splits.items():
        run.service[name] += seconds * timing.factor


def _check_fingerprints(run, seed: int, states, fingerprints) -> None:
    """Compare each session's last fingerprint, and one seeded earlier
    one, with a cold serial compile of the same sources.  Checking every
    reply would cost one cold compile per request, several times the
    timed window; the last state carries every earlier edit's effect on
    the incremental state."""
    rng = random.Random(f"perfbench-edit-loop-check-{seed}")
    for index, sequence in enumerate(states):
        last = len(sequence) - 1
        steps = sorted({last, rng.randint(1, last)})
        for step in steps:
            returned = fingerprints.get((index, step))
            if returned is None:
                continue  # the request failed and is already counted
            executable = reference_compile(sequence[step])
            if executable_fingerprint(executable) != returned:
                run.fail(f"session {index} step {step}: fingerprint "
                         "differs from a cold serial compile")
            if step == last:
                run.record_build(None, None, None, executable.code_size)
