"""Compiler second phase (paper section 5).

Consumes the intermediate representation produced by the first phase plus
the program database produced by the analyzer, and produces an object
module:

1. apply web promotion rewrites from the database,
2. re-run the local optimization fixpoint to clean up,
3. instruction selection against the PRISM target,
4. register allocation under the directive sets — by default the
   paper's graph colorer, selectable per compilation via the
   :mod:`repro.backend.allocators` strategy registry,
5. frame finalization (spill code placement per CALLEE/MSPILL/web rules),
6. emission to an object module.

Because all interprocedural decisions live in the database, modules can be
compiled independently and in any order.
"""

from __future__ import annotations

from repro.analyzer.database import ProgramDatabase
from repro.backend.allocators import get_allocator
from repro.backend.finalize import finalize_frame
from repro.backend.isel import select_function
from repro.backend.mir import validate_machine_function
from repro.backend.object import ObjectModule, emit_module
from repro.backend.promotion import apply_web_promotion
from repro.ir.module import IRModule
from repro.opt.pipeline import _local_fixpoint


def module_directive_names(module: IRModule) -> frozenset:
    """Names whose directives can influence this module's phase 2.

    Phase 2 consults the database for (a) every procedure the module
    defines — promotion rewrites and the allocator's usage sets — and
    (b) every direct callee, whose ``caller_prefix`` /
    ``subtree_caller_used`` shape the clobber sets at call sites.
    Intra-module callees are already covered by (a); indirect calls
    assume the full convention and never consult the database.  The
    scheduler digests exactly this set to decide whether a new program
    database requires recompiling the module.
    """
    return frozenset(module.functions) | frozenset(module.extern_functions)


def compile_module_phase2(
    module: IRModule,
    database: ProgramDatabase,
    opt_level: int = 2,
    allocator: str | None = None,
) -> ObjectModule:
    """Translate one IR module to an object module.

    ``allocator`` names a registered allocation strategy (``paper``,
    ``linearscan``, ``spill-everywhere``); ``None`` selects the
    default, ``paper``.
    """
    strategy = get_allocator(allocator)
    machine_functions = []
    for function in module.functions.values():
        directives = database.get(function.name)
        changed = apply_web_promotion(function, directives)
        if changed and opt_level >= 1:
            _local_fixpoint(function)
        machine = select_function(function, directives, database)
        strategy.allocate(machine)
        finalize_frame(machine)
        validate_machine_function(machine)
        machine_functions.append(machine)
    return emit_module(
        module.name,
        machine_functions,
        list(module.globals.values()),
        module.extern_globals,
        module.extern_functions,
    )
