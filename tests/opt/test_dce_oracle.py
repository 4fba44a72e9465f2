"""Mask-based DCE against the sweep-until-stable oracle.

Every ``dce.run`` call of a full compile (phase 1's fixpoints and phase
2's clean-up after web promotion, config C) also runs the oracle in
``sweep_dce.py`` on a deep copy of the same function; the two must
report the same change and leave byte-identical IR.  The compiles
share a cache, so each state of an edit chain recompiles only what the
edit touched.

In compiled programs a DCE run's later sweeps never remove anything
(dead chains that span blocks are exposed by the other passes, one
fixpoint round later), so hand-built functions below need a second,
third and fourth sweep: a dead chain across blocks, one through a
loop, and a dead cycle around a loop that liveness keeps alive.
"""

import copy

import pytest

from repro import AnalyzerOptions, CompilationScheduler
from repro.ir.function import IRFunction
from repro.ir.instructions import (
    BinOp,
    Call,
    CJump,
    Jump,
    Move,
    Return,
)
from repro.ir.printer import format_function
from repro.ir.values import Const
from repro.opt import dce
from tests.opt import sweep_dce
from tests.oracle_corpus import programs


@pytest.mark.parametrize("sources, opt_level", programs())
def test_dce_matches_sweep_oracle(
    sources, opt_level, monkeypatch, tmp_path
):
    mask_run = dce.run
    calls = []
    mismatches = []

    def checked_run(function):
        oracle_function = copy.deepcopy(function)
        expected = sweep_dce.run(oracle_function)
        removed = mask_run(function)
        calls.append(function.name)
        if (removed, format_function(function)) != (
            expected, format_function(oracle_function)
        ):
            mismatches.append(function.name)
        return removed

    monkeypatch.setattr(dce, "run", checked_run)
    with CompilationScheduler(cache_dir=tmp_path) as scheduler:
        for program in sources():
            scheduler.compile_program(
                program, opt_level=opt_level,
                analyzer_options=AnalyzerOptions.config("C"),
            )
    assert calls
    assert not mismatches, mismatches


def chain_across_blocks():
    """entry: a = 1 -> mid: b = a + 1 -> exit: c = b * 2; return 0.
    Each sweep exposes the next link one block up."""
    func = IRFunction("chain")
    entry = func.add_entry_block()
    mid = func.new_block("mid")
    exit_ = func.new_block("exit")
    a, b, c = func.new_temp(), func.new_temp(), func.new_temp()
    entry.append(Move(a, Const(1)))
    entry.terminator = Jump(mid.label)
    mid.append(BinOp(b, "+", a, Const(1)))
    mid.terminator = Jump(exit_.label)
    exit_.append(BinOp(c, "*", b, Const(2)))
    exit_.terminator = Return(Const(0))
    return func


def chain_through_loop():
    """A dead chain whose middle link sits in a loop body, beside a
    loop-carried counter that stays live; a pinned temp is written
    before a call and at return."""
    func = IRFunction("loop")
    entry = func.add_entry_block()
    head = func.new_block("head", loop_depth=1)
    body = func.new_block("body", loop_depth=1)
    done = func.new_block("done")
    i, a, b, c, g = (func.new_temp() for _ in range(5))
    func.pinned_temps[g] = 26
    entry.append(Move(i, Const(0)))
    entry.append(Move(a, Const(7)))
    entry.terminator = Jump(head.label)
    head.append(BinOp(c, "<", i, Const(10)))
    head.terminator = CJump(c, body.label, done.label)
    body.append(BinOp(b, "+", a, i))
    body.append(Move(g, b))
    body.append(Call(None, "h", []))
    body.append(BinOp(i, "+", i, Const(1)))
    body.terminator = Jump(head.label)
    done.append(BinOp(b, "*", b, Const(3)))
    done.terminator = Return(i)
    return func


def dead_cycle():
    """``x = x + 1`` around a loop with no use outside it: a liveness
    sweep keeps the cycle (a mark-and-sweep pass would not)."""
    func = IRFunction("cycle")
    entry = func.add_entry_block()
    head = func.new_block("head", loop_depth=1)
    done = func.new_block("done")
    x, n, c, d = (func.new_temp() for _ in range(4))
    entry.append(Move(x, Const(0)))
    entry.append(Move(n, Const(0)))
    entry.terminator = Jump(head.label)
    head.append(BinOp(x, "+", x, Const(1)))
    head.append(BinOp(d, "+", x, Const(5)))
    head.append(BinOp(n, "+", n, Const(1)))
    head.append(BinOp(c, "<", n, Const(4)))
    head.terminator = CJump(c, head.label, done.label)
    done.terminator = Return(n)
    return func


@pytest.mark.parametrize(
    "build", [chain_across_blocks, chain_through_loop, dead_cycle]
)
def test_dce_matches_sweep_oracle_across_blocks(build):
    function, oracle_function = build(), build()
    assert dce.run(function) == sweep_dce.run(oracle_function)
    assert format_function(function) == format_function(oracle_function)


def test_dead_chain_across_blocks_fully_removed():
    function = chain_across_blocks()
    assert dce.run(function)
    assert not any(block.instructions for block in function.blocks.values())
