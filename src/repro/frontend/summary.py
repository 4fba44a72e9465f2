"""Summary files: the compiler first phase's record for the analyzer.

Paper section 3 — for each procedure the first phase records:

* the globals it accesses, with estimated reference frequencies and
  aliasing flags;
* the procedures it calls, with estimated call frequencies;
* procedures whose addresses it computes, and whether it makes indirect
  calls;
* an estimate of the callee-saves registers it needs.

One :class:`ModuleSummary` per compilation unit aggregates the procedure
records plus the module's global-variable declarations.  Summaries are
JSON-serializable — they are the *files* the two-pass system shuttles
between phases.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class ProcedureSummary:
    """Per-procedure record in a summary file."""

    name: str
    module: str
    global_refs: dict = field(default_factory=dict)  # name -> weighted count
    global_stores: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)  # callee -> weighted count
    address_taken_procs: list = field(default_factory=list)
    makes_indirect_calls: bool = False
    indirect_call_freq: int = 0
    callee_saves_needed: int = 0
    caller_saves_needed: int = 0
    max_call_args: int = 0
    num_params: int = 0


@dataclass
class GlobalSummary:
    """Per-global record: what the analyzer needs for eligibility."""

    name: str
    module: str
    is_scalar_word: bool = True
    address_taken: bool = False
    is_static: bool = False


@dataclass
class ModuleSummary:
    """Summary file for one compilation unit."""

    module_name: str
    globals: list = field(default_factory=list)
    procedures: list = field(default_factory=list)
    # Data symbols whose address this module computes (includes externs).
    aliased_globals: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModuleSummary":
        raw = json.loads(text)
        summary = cls(module_name=raw["module_name"])
        summary.globals = [GlobalSummary(**g) for g in raw["globals"]]
        summary.procedures = [ProcedureSummary(**p) for p in raw["procedures"]]
        summary.aliased_globals = list(raw["aliased_globals"])
        return summary
