"""Constant folding, copy propagation and CSE against their rescanning
oracles.

Every ``run`` call of the three passes in a full compile (phase 1's
fixpoints and phase 2's clean-up after web promotion, config C, so
phase 2 runs with pinned temps) also runs the pass's oracle in
``scan_passes.py`` on a deep copy of the same function; the two must
report the same change and leave byte-identical IR.  The compiles
share a cache, so each state of an edit chain recompiles only what the
edit touched.

The hand-built blocks below cover what the corpus may not reach: a
copy whose source is redefined, ``x = x``, a user call while pinned
temps hold cached constants, copies and expressions, a CSE key that is
added again after its result was redefined, and expressions whose
result is one of their own operands.
"""

import copy

import pytest

from repro import AnalyzerOptions, CompilationScheduler
from repro.ir.function import IRFunction
from repro.ir.instructions import (
    BinOp,
    Call,
    CallIndirect,
    CJump,
    Jump,
    LoadAddr,
    Move,
    Return,
    UnOp,
)
from repro.ir.printer import format_function
from repro.ir.values import Const
from repro.opt import constant_folding, copy_propagation, cse
from tests.opt import scan_passes
from tests.oracle_corpus import programs

PASSES = (
    (constant_folding, scan_passes.run_constant_folding),
    (copy_propagation, scan_passes.run_copy_propagation),
    (cse, scan_passes.run_cse),
)


@pytest.mark.parametrize("sources, opt_level", programs())
def test_local_passes_match_scan_oracles(
    sources, opt_level, monkeypatch, tmp_path
):
    calls = {module.__name__: 0 for module, _oracle in PASSES}
    mismatches = []

    def checked(module, oracle):
        run = module.run

        def checked_run(function):
            oracle_function = copy.deepcopy(function)
            expected = oracle(oracle_function)
            changed = run(function)
            calls[module.__name__] += 1
            if (changed, format_function(function)) != (
                expected, format_function(oracle_function)
            ):
                mismatches.append((module.__name__, function.name))
            return changed

        return checked_run

    for module, oracle in PASSES:
        monkeypatch.setattr(module, "run", checked(module, oracle))
    with CompilationScheduler(cache_dir=tmp_path) as scheduler:
        for program in sources():
            scheduler.compile_program(
                program, opt_level=opt_level,
                analyzer_options=AnalyzerOptions.config("C"),
            )
    assert all(calls.values()), calls
    assert not mismatches, mismatches


def redefined_copy_source():
    """``b = a`` then ``a`` is redefined: later uses of ``b`` keep
    ``b``; a constant in ``a`` dies with the redefinition too."""
    func = IRFunction("redefined")
    entry = func.add_entry_block()
    a, b, c, d, e = (func.new_temp() for _ in range(5))
    entry.append(Move(a, Const(3)))
    entry.append(Move(b, a))
    entry.append(BinOp(a, "+", b, Const(1)))
    entry.append(BinOp(c, "*", b, a))
    entry.append(Move(d, c))
    entry.append(Move(c, Const(9)))
    entry.append(BinOp(e, "-", d, c))
    entry.terminator = Return(e)
    return func


def self_copy():
    """``x = x`` beside a copy chain through ``x``."""
    func = IRFunction("selfcopy")
    entry = func.add_entry_block()
    x, y, z = (func.new_temp() for _ in range(3))
    entry.append(Call(x, "read", []))
    entry.append(Move(x, x))
    entry.append(Move(y, x))
    entry.append(Move(x, x))
    entry.append(Move(z, y))
    entry.append(Move(x, z))
    entry.append(Move(x, x))
    entry.terminator = Return(x)
    return func


def pinned_across_call():
    """Pinned temps hold a constant, a copy and an expression result,
    and cached copies and expressions read them, when a builtin call
    (which leaves them be), a user call and an indirect call (which
    rewrite them) come by."""
    func = IRFunction("pinned")
    entry = func.add_entry_block()
    done = func.new_block("done")
    g, h, p, a, b, k, c, m = (func.new_temp() for _ in range(8))
    x = [func.new_temp() for _ in range(12)]
    func.pinned_temps[g] = 26
    func.pinned_temps[h] = 27
    func.pinned_temps[p] = 28
    entry.append(Call(a, "read", []))
    entry.append(Move(g, Const(5)))
    entry.append(Move(h, a))
    entry.append(Move(b, g))
    entry.append(Move(k, h))
    entry.append(BinOp(c, "+", g, a))
    entry.append(BinOp(m, "*", a, Const(2)))
    entry.append(BinOp(p, "*", a, Const(3)))
    entry.append(Call(None, "print", [b], is_builtin=True))
    entry.append(BinOp(x[0], "+", b, k))
    entry.append(BinOp(x[1], "+", g, a))
    entry.append(BinOp(x[2], "*", a, Const(3)))
    entry.append(Call(None, "update", []))
    entry.append(BinOp(x[3], "+", b, k))
    entry.append(BinOp(x[4], "+", g, a))
    entry.append(BinOp(x[5], "*", a, Const(3)))
    entry.append(BinOp(x[6], "*", a, Const(2)))
    entry.append(BinOp(x[7], "+", g, Const(1)))
    entry.append(Move(g, Const(7)))
    entry.append(Move(b, g))
    entry.append(Move(h, m))
    entry.append(UnOp(x[8], "-", h))
    entry.append(LoadAddr(x[9], "update", True))
    entry.append(CallIndirect(None, x[9], [b, h]))
    entry.append(BinOp(x[10], "+", b, g))
    entry.append(UnOp(x[11], "-", h))
    entry.terminator = CJump(g, done.label, done.label)
    done.append(BinOp(c, "+", g, a))
    done.terminator = Return(c)
    return func


def key_readded():
    """A CSE key whose result is redefined, then computed again into
    another temp, then reused; the same for an address load; and keys
    whose result is one of their own operands."""
    func = IRFunction("readd")
    entry = func.add_entry_block()
    loop = func.new_block("loop", loop_depth=1)
    a, b, r, s, u, v, w = (func.new_temp() for _ in range(7))
    entry.append(Call(a, "read", []))
    entry.append(Call(b, "read", []))
    entry.append(BinOp(r, "+", a, b))
    entry.append(Call(r, "read", []))
    entry.append(BinOp(s, "+", a, b))
    entry.append(BinOp(u, "+", a, b))
    entry.append(Move(s, Const(0)))
    entry.append(BinOp(r, "+", a, b))
    entry.append(BinOp(v, "+", a, b))
    entry.append(LoadAddr(w, "g"))
    entry.append(Move(w, v))
    entry.append(LoadAddr(u, "g"))
    entry.append(LoadAddr(w, "g"))
    entry.append(BinOp(a, "+", a, Const(1)))
    entry.append(BinOp(s, "+", a, Const(1)))
    entry.terminator = Jump(loop.label)
    loop.append(BinOp(a, "+", a, b))
    loop.append(BinOp(a, "+", a, b))
    loop.terminator = CJump(a, loop.label, loop.label)
    return func


def self_operand_key():
    """``a = a + b`` then ``c = a + b``: the first redefines an operand
    of its own expression, so the second computes a new value."""
    func = IRFunction("selfkey")
    entry = func.add_entry_block()
    a, b, c = (func.new_temp() for _ in range(3))
    entry.append(BinOp(a, "+", a, b))
    entry.append(BinOp(c, "+", a, b))
    entry.terminator = Return(c)
    return func


BUILDS = (redefined_copy_source, self_copy, pinned_across_call, key_readded,
          self_operand_key)


@pytest.mark.parametrize("run", [cse.run, scan_passes.run_cse],
                         ids=["cse", "oracle"])
def test_cse_keeps_expression_over_its_own_result(run):
    function = self_operand_key()
    assert run(function) is False
    assert [type(i) for i in function.entry.instructions] == [BinOp, BinOp]
    function = key_readded()
    run(function)
    loop = next(b for b in function.blocks.values() if b.loop_depth)
    assert [type(i) for i in loop.instructions] == [BinOp, BinOp]


@pytest.mark.parametrize(
    "module, oracle", PASSES,
    ids=["constant_folding", "copy_propagation", "cse"],
)
@pytest.mark.parametrize("build", BUILDS)
def test_local_pass_matches_scan_oracle_on_hand_built(build, module, oracle):
    function, oracle_function = build(), build()
    assert module.run(function) == oracle(oracle_function)
    assert format_function(function) == format_function(oracle_function)


@pytest.mark.parametrize("build", BUILDS)
def test_local_pass_sequence_matches_scan_oracles(build):
    """The three passes in pipeline order, twice, each fed what the
    previous one left."""
    function, oracle_function = build(), build()
    for _ in range(2):
        for module, oracle in PASSES:
            assert module.run(function) == oracle(oracle_function)
            assert format_function(function) == format_function(
                oracle_function
            )
