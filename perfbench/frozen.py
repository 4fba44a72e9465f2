"""Frozen inputs: the sha256 of every input the workloads generate.

The workloads draw their inputs from generators inside the program
under test (``repro.workloads``, ``repro.verify.progen``).  A change to
one of those generators would silently change what the benchmark
measures, so every run digests the inputs it generated and stops, before
timing anything, if any digest differs from the one recorded in
``frozen.json``.  ``python3 perfbench/freeze.py`` rewrites the record
(and the expected outputs) and is only for a change that means to
redefine a workload.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FROZEN_PATH = Path(__file__).with_name("frozen.json")


class InputsChanged(RuntimeError):
    """A generator produced inputs other than the recorded ones."""


def digest(value) -> str:
    """sha256 of a value's ``repr`` (dicts and dataclasses print their
    contents in a fixed order, so equal inputs give equal digests)."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def load() -> dict:
    return json.loads(FROZEN_PATH.read_text(encoding="utf-8"))


def check(record: dict, workload: str, key: str, value) -> None:
    """Raise :class:`InputsChanged` unless ``value`` digests to the
    recorded sha256 of ``workload``'s input ``key``."""
    expected = record.get(workload, {}).get(key)
    actual = digest(value)
    if actual != expected:
        raise InputsChanged(
            f"{workload} input {key}: generated sha256 {actual} but "
            f"{FROZEN_PATH.name} records {expected}"
        )
