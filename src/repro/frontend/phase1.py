"""Compiler first phase (paper section 3).

Parses and analyzes one source module, lowers it to IR, runs the
requested optimization level, and collects the summary records the
program analyzer consumes.  Following the paper's prototype (section 6),
summaries are generated *after* optimization "to obtain better heuristic
information on usage counts ... and estimates for callee-saves register
requirements".

The optimized :class:`~repro.ir.IRModule` plays the role of the paper's
intermediate file, handed to the second phase unchanged: it is pickled
once, and every consumer loads its own copy from those bytes.
"""

from __future__ import annotations

import hashlib
import pickle

from repro.analysis.frequency import analyze_function_usage
from repro.backend.phase2 import module_directive_names
from repro.frontend.summary import (
    GlobalSummary,
    ModuleSummary,
    ProcedureSummary,
)
from repro.ir.builder import lower_module
from repro.ir.instructions import LoadAddr
from repro.ir.module import IRModule
from repro.ir.verifier import verify_module
from repro.lang.sema import analyze_source
from repro.opt.pipeline import optimize_module


#: Bump when phase-1 output changes for unchanged inputs (new optimizer
#: passes, summary fields, ...): fingerprints — and therefore any cache
#: entries keyed on them — must not survive such a change.
#: v2: the IR travels as one pickled blob (``Phase1Result.ir_blob``).
PHASE1_SCHEMA = 2


def phase1_fingerprint(
    source: str, module_name: str, opt_level: int
) -> str:
    """Content address of one module's phase-1 computation.

    Phase 1 is a pure function of exactly these inputs (the paper's
    module-boundary separation), so the fingerprint doubles as the
    cache key for :class:`Phase1Result` artifacts.
    """
    source_digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    token = "|".join(
        ("phase1", str(PHASE1_SCHEMA), module_name, str(opt_level),
         source_digest)
    )
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


class Phase1Result:
    """The first phase's two outputs for one module.

    The optimized IR is kept as one pickled blob, made once: phase 2
    rewrites IR in place and one phase-1 result feeds many
    configurations, so every reader gets its own copy through
    :attr:`ir_module`, and nothing can write back into the result.
    ``module_name`` and ``directive_names`` (see
    :func:`~repro.backend.phase2.module_directive_names`) are recorded
    up front so that a phase-2 cache hit never unpickles IR.

    ``fingerprint`` content-addresses the inputs that produced the
    result (see :func:`phase1_fingerprint`); the scheduler keys phase-2
    cache entries on it.  Hand-built results may leave it empty, which
    simply opts them out of caching.

    The class has slots and no instance dict, so a cache entry pickled
    in the earlier format (a dataclass holding ``ir_module``) fails to
    unpickle, and the artifact cache reads it as a miss.
    """

    __slots__ = (
        "ir_blob", "summary", "fingerprint", "module_name",
        "directive_names",
    )

    def __init__(
        self, ir_module: IRModule, summary: ModuleSummary,
        fingerprint: str = "",
    ):
        self.ir_blob = pickle.dumps(
            ir_module, protocol=pickle.HIGHEST_PROTOCOL
        )
        self.summary = summary
        self.fingerprint = fingerprint
        self.module_name = ir_module.name
        self.directive_names = module_directive_names(ir_module)

    @property
    def ir_module(self) -> IRModule:
        """A fresh private copy of the optimized IR."""
        return pickle.loads(self.ir_blob)


def compile_module_phase1(
    source: str, module_name: str, opt_level: int = 2
) -> Phase1Result:
    """Front end + optimization + summary collection for one module."""
    module_info = analyze_source(source, module_name)
    ir_module = lower_module(module_info)
    verify_module(ir_module)
    optimize_module(ir_module, opt_level)
    verify_module(ir_module)
    summary = summarize_module(ir_module)
    return Phase1Result(
        ir_module, summary,
        fingerprint=phase1_fingerprint(source, module_name, opt_level),
    )


def summarize_module(ir_module: IRModule) -> ModuleSummary:
    """Collect the summary file from (optimized) module IR."""
    summary = ModuleSummary(module_name=ir_module.name)
    aliased: set[str] = set()
    for function in ir_module.functions.values():
        usage = analyze_function_usage(function)
        summary.procedures.append(
            ProcedureSummary(
                name=function.name,
                module=ir_module.name,
                global_refs=dict(usage.global_refs),
                global_stores=dict(usage.global_stores),
                calls=dict(usage.calls),
                address_taken_procs=sorted(usage.address_taken_functions),
                makes_indirect_calls=usage.makes_indirect_calls,
                indirect_call_freq=usage.indirect_call_freq,
                callee_saves_needed=usage.callee_saves_needed,
                caller_saves_needed=usage.caller_saves_needed,
                max_call_args=usage.max_call_args,
                num_params=len(function.params),
            )
        )
        for instruction in function.iter_instructions():
            if isinstance(instruction, LoadAddr) and not instruction.is_function:
                aliased.add(instruction.symbol)
    for var in ir_module.globals.values():
        summary.globals.append(
            GlobalSummary(
                name=var.name,
                module=ir_module.name,
                is_scalar_word=var.is_scalar_word,
                address_taken=var.address_taken or var.name in aliased,
                is_static=var.is_static,
            )
        )
    summary.aliased_globals = sorted(aliased)
    return summary
