"""Threaded-code simulator backend: decoded instructions compiled to
specialized Python closures.

The reference loop (:func:`repro.machine.simulator.step_reference`)
pays, per dynamic instruction, for tuple indexing, a ~40-way
``if/elif`` dispatch chain, and counter updates.  This backend removes
all three:

* an **extended basic block** starts at any pc control enters.  It
  extends through the fall-through edge of conditional branches (each
  taken edge is an inline early exit), through unconditional jumps
  (**jump threading**), and, when per-procedure attribution is off,
  straight into the callee of a direct call and back out at its return
  (**inline call/return**: every inlined return keeps a guard that
  leaves the block if the return pointer no longer holds the static
  return site);
* each block is generated and compiled when control first reaches its
  pc — blocks that never run cost nothing — into one Python function
  with every operand, cost, and stats increment folded in as a
  constant; registers touched more than once are hoisted into Python
  locals, loaded just before their first read and written back at
  every later exit.  The code object is kept for later runs of the
  same simulator;
* the run loop chains closures directly: each block *returns the next
  block's closure* (threaded code), and the driver is just
  ``block = block()``.  An exit to a static pc names that block's
  closure cell, which holds a compile-on-first-call stub until the
  block is entered.

Within a block the compiler keeps five tricks, each measured to pay
for itself (``docs/SIMULATOR.md``):

* **constant lattice** — a per-block lattice (seeded with the
  architecturally-zero r0) folds immediates through moves, arithmetic
  (with the exact wrap/mask semantics), comparisons, and branch
  conditions (a decided branch emits no test); a hoisted register
  holding a known constant is never assigned, its write-back stores
  the literal; loads and stores whose address is known compile to a
  direct ``memory[addr]`` index with the bounds check resolved at
  compile time (an out-of-range constant address compiles to the
  reference backend's exact fault);
* **one-sided wrap checks** — an add/sub whose second operand's sign
  is known (every immediate, plus lattice-known registers) can wrap in
  only one direction, so the other range check is dropped;
* **uniform-cost counter elision** — when every instruction costs one
  cycle, the instruction counter equals the cycle counter and is not
  kept during the run;
* **lazy slot accounting** — when per-procedure attribution is off,
  blocks commit only the cycle counter eagerly (the budget pre-check
  needs it) and bump one per-exit-site counter for the rest;
  load/store/singleton/save-restore totals are reconstructed from the
  exit-site counts once, after HALT, also when the reference loop ran
  the end of the run;
* **call/return cancellation** — an inlined call's call-stack push is
  deferred to the block's exits, so a call that also returns inside
  the block neither pushes nor pops, and a nested call's caller is a
  constant.

Accounting stays **bit-identical** to the reference backend.  Counters
are committed per block exit (the per-instruction order of counter
updates is unobservable: results only escape through
:class:`~repro.machine.simulator.ExecutionStats` on a normal HALT).
The one place per-block accounting could diverge observably is the
cycle budget: the reference loop raises
:class:`~repro.machine.simulator.ExecutionLimitExceeded` *after
charging* the instruction that crosses the limit and *before executing
it*.  Each compiled block therefore pre-checks whether its whole cost
could cross the budget and, if so, hands the rest of the run to
:func:`~repro.machine.simulator.step_reference` on the shared machine
state, so faults and the limit exception land on the identical
instruction boundary with the identical message.  (This assumes
non-negative per-instruction costs, which every
:class:`~repro.machine.simulator.CostModel` satisfies: any partial
path through a block costs no more than the whole block.)

Per-procedure attribution (``track``) and calling-convention checking
(``check``) are compiled in only when requested: the unobserved
configuration costs nothing at run time.

Entering the middle of a block (only possible by returning through a
corrupted return pointer) is an ordinary first entry at that pc, so
arbitrary control flow keeps the exact reference semantics.
"""

from __future__ import annotations

import builtins
from types import CellType, CodeType, FunctionType

from repro.machine.simulator import (
    _ADD,
    _ADDI,
    _AND,
    _ANDI,
    _B,
    _BEQ,
    _BGE,
    _BGT,
    _BL,
    _BLE,
    _BLR,
    _BLT,
    _BNE,
    _CEQ,
    _CGE,
    _CGT,
    _CLE,
    _CLT,
    _CNE,
    _DIV,
    _DIVI,
    _HALT,
    _LDI,
    _LDW,
    _MOV,
    _MUL,
    _MULI,
    _OR,
    _ORI,
    _PRINT,
    _PUTC,
    _REM,
    _REMI,
    _RET,
    _SLL,
    _SLLI,
    _SRA,
    _SRAI,
    _STW,
    _SUB,
    _SUBI,
    _XOR,
    _XORI,
    MachineError,
    _check_return,
    _flush_proc,
    _preserved_registers,
    step_reference,
)
from repro.target.registers import RP


class _Halted(Exception):
    """Internal control-flow signal: the program executed HALT."""


# Add/sub of two in-range (sign-extended 32-bit) values overflows by at
# most one wrap of 2**32, so a compare-and-adjust replaces the reference
# backend's mask (which allocates a big int for the 2**32-1 constant on
# every execution).  Multiplication can wrap many times and keeps the
# mask.
_WRAP_BIN = {_ADD: "+", _SUB: "-"}
_WRAP_BIN_IMM = {_ADDI: "+", _SUBI: "-"}
_MASK_BIN = {_MUL: "*"}
_MASK_BIN_IMM = {_MULI: "*"}
# Bitwise ops and arithmetic shift right of two in-range (sign-extended
# 32-bit) values are closed over the 32-bit range, so the reference
# backend's mask + sign-fix is the identity and is elided here.
_CLOSED_BIN = {_AND: "&", _OR: "|", _XOR: "^"}
_CLOSED_BIN_IMM = {_ANDI: "&", _ORI: "|", _XORI: "^"}
_CMP_PY = {_CEQ: "==", _CNE: "!=", _CLT: "<", _CLE: "<=",
           _CGT: ">", _CGE: ">="}
_BC_PY = {_BEQ: "==", _BNE: "!=", _BLT: "<", _BLE: "<=",
          _BGT: ">", _BGE: ">="}
_CMP_FOLD = {
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}

# Stop extending a block once it has this many instructions (bounds
# generated-code size; correctness does not depend on the value).
_MAX_BLOCK = 64

# Hoist a register into a Python local when a block touches it at least
# this many times.
_HOIST_MIN_USES = 2


def _op_counts(op) -> list:
    """Counter deltas charged by one instruction:
    [cycles, instructions, loads, stores, singleton_loads,
    singleton_stores, save_restore]."""
    counts = [op[1], 1, 0, 0, 0, 0, 0]
    code = op[0]
    if code == _LDW:
        counts[2] = 1
        if op[5]:
            counts[4] = 1
        if op[6]:
            counts[6] = 1
    elif code == _STW:
        counts[3] = 1
        if op[5]:
            counts[5] = 1
        if op[6]:
            counts[6] = 1
    return counts


def _add_counts(total: list, delta: list) -> None:
    for slot in range(7):
        total[slot] += delta[slot]


def _operands(op) -> tuple:
    """``(reads, writes)``: the registers one instruction reads and
    writes."""
    code = op[0]
    if code == _LDW:
        return (op[3],), (op[2],)
    if code == _STW:
        return (op[3], op[2]), ()
    if code == _LDI:
        return (), (op[2],)
    if code == _MOV:
        return (op[3],), (op[2],)
    if code <= _SRA or _CEQ <= code <= _CGE:
        return (op[3], op[4]), (op[2],)
    if code <= _SRAI:
        return (op[3],), (op[2],)
    if code == _PRINT or code == _PUTC:
        return (op[2],), ()
    if _BEQ <= code <= _BGE:
        return (op[2], op[3]), ()
    if code == _BLR:
        return (op[2],), (RP,)
    if code == _BL:
        return (), (RP,)
    if code == _RET:
        return (RP,), ()
    return (), ()  # _B, _HALT: no register operands.


class _BlockCompiler:
    """Emits the Python source of one extended-basic-block closure."""

    def __init__(self, program: "_CompiledProgram"):
        self.program = program
        # Names of the blocks this one exits to (``_target``).
        self.targets: set = set()
        self.hoisted: set = set()
        self.entry_loads: set = set()
        self.written_so_far: set = set()
        # Callees of inlined calls whose push onto the call stack is
        # deferred to the block's exits (``_emit_inline_call``).
        self.pending: list = []
        # Block-local constant lattice: register -> known int value at
        # the current emission point.  r0 is architecturally zero (the
        # reference backend never writes it).
        self.const: dict = {0: 0}

    # ------------------------------------------------------------------
    # scanning

    def _scan(self, start: int):
        """Collect the instructions of the extended block at ``start``.

        Returns ``(items, inline)`` where ``items`` is a list of
        ``(pc, op)`` pairs and ``inline`` maps the item index of a BL
        whose callee is scanned straight through, and of the RET that
        closes it, to that call's static return site.

        Direct calls are threaded through only when per-procedure
        attribution is off: attribution flushes counters at every call
        boundary, which would force a commit mid-block and defeat the
        batching.
        """
        program = self.program
        decoded = program.decoded
        n = program.n
        inline_calls = not program.track
        items: list = []
        inline: dict = {}
        return_sites: list = []
        seen: set = set()
        pc = start
        while True:
            seen.add(pc)
            op = decoded[pc]
            code = op[0]
            items.append((pc, op))
            if code == _BL:
                if (inline_calls and len(items) < _MAX_BLOCK
                        and 0 <= op[2] < n):
                    # Re-entering already-scanned pcs just duplicates
                    # them in ``items`` (each scan step appends an item,
                    # so the block cap still bounds the scan — including
                    # through direct recursion).
                    inline[len(items) - 1] = pc + 1
                    return_sites.append(pc + 1)
                    pc = op[2]
                    continue
                return items, inline
            if code == _RET:
                if (return_sites and len(items) < _MAX_BLOCK
                        and 0 <= return_sites[-1] < n):
                    pc = return_sites.pop()
                    inline[len(items) - 1] = pc
                    continue
                return items, inline
            if code == _BLR or code == _HALT:
                return items, inline
            if code == _B:
                if (op[2] in seen or len(items) >= _MAX_BLOCK
                        or not 0 <= op[2] < n):
                    return items, inline
                # Jump-threading: the branch is free at run time — keep
                # emitting straight through its target.
                pc = op[2]
                continue
            if _BEQ <= code <= _BGE:
                if len(items) >= _MAX_BLOCK or pc + 1 >= n:
                    # Cap (or end of code): emit both edges of this BC
                    # and stop.
                    return items, inline
                pc += 1
                continue
            pc += 1
            if pc >= n or pc in seen or len(items) >= _MAX_BLOCK:
                # Other blocks' heads do NOT stop the scan: a block
                # falling through into one duplicates its tail (the head
                # keeps its own closure for incoming jumps), which
                # trades code size for one less dispatch per boundary.
                return items, inline

    # ------------------------------------------------------------------
    # register analysis

    def _analyze(self, items: list) -> None:
        """Choose the registers to hoist into Python locals.

        A register touched at least twice is hoisted (break-even: one
        subscript at entry/exit versus one per use).  ``r0`` is never
        written (codegen skips writes to the hardwired zero register)
        and every read of it folds to 0, so it is never hoisted.

        A hoisted register whose first access is a read is loaded just
        before that read (``_load``), so exits taken earlier do not pay
        for it; one whose first access is a write is never loaded:
        straight-line order guarantees every later read is dominated by
        that write, and exits before it never write the register back
        (``_writeback`` covers only registers written so far).
        """
        uses: dict = {}
        first_is_read: dict = {}
        for _pc, op in items:
            reads, writes = _operands(op)
            for i in reads:
                if i:
                    uses[i] = uses.get(i, 0) + 1
                    first_is_read.setdefault(i, True)
            for i in writes:
                if i:
                    uses[i] = uses.get(i, 0) + 1
                    first_is_read.setdefault(i, False)
        self.hoisted = {
            i for i, count in uses.items() if count >= _HOIST_MIN_USES
        }
        self.entry_loads = {i for i in self.hoisted if first_is_read[i]}

    def _load(self, out: list, op) -> None:
        """Load the hoisted registers ``op`` reads for the first time."""
        for i in _operands(op)[0]:
            if i in self.entry_loads:
                self.entry_loads.discard(i)
                out.append(f"r{i} = regs[{i}]")

    def reg(self, i: int) -> str:
        return f"r{i}" if i in self.hoisted else f"regs[{i}]"

    @staticmethod
    def _lit(v: int) -> str:
        return str(v) if v >= 0 else f"({v})"

    def val(self, i: int) -> str:
        """Read expression for register ``i``: its literal value when
        the constant lattice knows it, its storage location otherwise."""
        v = self.const.get(i)
        return self.reg(i) if v is None else self._lit(v)

    def _set_const(self, body: list, rd: int, v: int) -> None:
        """``rd`` now holds the constant ``v``.  A hoisted register's
        local is not assigned: every read folds the value and the
        write-back stores the literal."""
        self.const[rd] = v
        if rd not in self.hoisted:
            body.append(f"regs[{rd}] = {self._lit(v)}")

    def _writeback(self) -> list:
        return [f"regs[{i}] = {self.val(i)}"
                for i in sorted(self.written_so_far)]

    # ------------------------------------------------------------------
    # counter commits

    def _commit(self, prefix: list) -> list:
        """Lines that fold the executed path's counter deltas
        (``prefix``) into ``ctr``."""
        first = 2 if self.program.uniform else 1
        out = [f"ctr[0] += {prefix[0]}"]
        if self.program.track:
            for slot in range(first, 7):
                if prefix[slot]:
                    out.append(f"ctr[{slot}] += {prefix[slot]}")
        else:
            # Lazy: one execution-count bump covers slots 1..6 (the
            # static per-exit totals are folded in at reconstruction).
            totals = tuple(
                prefix[slot] if slot >= first else 0
                for slot in range(1, 7)
            )
            if any(totals):
                out.append(f"ec[{self.program.exit_site(totals)}] += 1")
        return out

    def _exit_lines(self, prefix: list) -> list:
        """Everything a block exit must flush: counters, hoisted
        registers and the pending call-stack pushes."""
        return self._commit(prefix) + self._writeback() + self._push()

    def _caller(self) -> str:
        """The top of the logical call stack, as an expression."""
        return repr(self.pending[-1]) if self.pending else "call_stack[-1]"

    def _push(self, callee: str | None = None) -> list:
        """Lines pushing the pending inline callees, then ``callee`` (an
        expression), onto the call stack."""
        names = [repr(name) for name in self.pending]
        if callee is not None:
            names.append(callee)
        if not names:
            return []
        if len(names) == 1:
            return [f"call_stack.append({names[0]})"]
        return [f"call_stack.extend(({', '.join(names)}))"]

    # ------------------------------------------------------------------
    # control-transfer targets

    def _target(self, pc: int) -> str:
        """An exit to the static ``pc``: that block's closure cell, or
        ``goto``'s exact fault when ``pc`` is out of range."""
        if not 0 <= pc < self.program.n:
            return f"goto({pc})"
        name = f"_b{pc}"
        self.targets.add(name)
        return name

    # ------------------------------------------------------------------
    # per-instruction bodies (non-control instructions)

    def _signfix(self, body: list, expr: str, rd: int) -> None:
        body.append(f"v = ({expr}) & 4294967295")
        body.append("if v > 2147483647:")
        body.append("    v -= 4294967296")
        if rd:
            body.append(f"{self.reg(rd)} = v")

    def _signfix_wrap(
        self, body: list, expr: str, rd: int, direction: str = "both"
    ) -> None:
        """Sign fix for a result at most one wrap out of range.

        ``direction`` narrows the check when the sign of one operand is
        known: an add of a positive constant can only overflow, of a
        negative one only underflow, and adding zero needs no check.
        """
        dest = self.reg(rd) if rd in self.hoisted else "v"
        body.append(f"{dest} = {expr}")
        if direction in ("both", "over"):
            body.append(f"if {dest} > 2147483647:")
            body.append(f"    {dest} -= 4294967296")
        if direction == "both":
            body.append(f"elif {dest} < -2147483648:")
            body.append(f"    {dest} += 4294967296")
        elif direction == "under":
            body.append(f"if {dest} < -2147483648:")
            body.append(f"    {dest} += 4294967296")
        if rd not in self.hoisted:
            body.append(f"{self.reg(rd)} = v")

    def _instr_lines(self, op) -> list:
        program = self.program
        code = op[0]
        rd = op[2]
        if (code not in (_STW, _PRINT, _PUTC) and rd
                and rd in self.hoisted):
            # Every remaining opcode writes op[2]; later exits must
            # write the hoisted local back.
            self.written_so_far.add(rd)
        const = self.const
        body: list = []
        if code == _LDW:
            known = const.get(op[3])
            if rd:
                const.pop(rd, None)
            if known is not None:
                # Constant base: the bounds check resolves at compile
                # time (the static raise keeps the fault at the same
                # execution point as the reference check).
                address = known + op[4]
                if not 0 <= address < program.memory_words:
                    body.append(
                        "raise MachineError("
                        f"'load from bad address {address}')"
                    )
                elif rd:
                    body.append(f"{self.reg(rd)} = memory[{address}]")
                return body
            base_expr = self.reg(op[3])
            addr = f"{base_expr} + {op[4]}" if op[4] else base_expr
            body.append(f"a = {addr}")
            body.append(f"if not 0 <= a < {program.memory_words}:")
            body.append(
                "    raise MachineError('load from bad address %d' % a)"
            )
            if rd:
                body.append(f"{self.reg(rd)} = memory[a]")
        elif code == _STW:
            known = const.get(op[3])
            if known is not None:
                address = known + op[4]
                if not program.base <= address < program.memory_words:
                    body.append(
                        "raise MachineError("
                        f"'store to bad address {address}')"
                    )
                else:
                    body.append(f"memory[{address}] = {self.val(rd)}")
                return body
            base_expr = self.reg(op[3])
            addr = f"{base_expr} + {op[4]}" if op[4] else base_expr
            body.append(f"a = {addr}")
            body.append(
                f"if not {program.base} <= a < {program.memory_words}:"
            )
            body.append(
                "    raise MachineError('store to bad address %d' % a)"
            )
            body.append(f"memory[a] = {self.val(rd)}")
        elif code == _LDI:
            if rd:
                self._set_const(body, rd, op[3])
        elif code == _MOV:
            if rd:
                known = const.get(op[3])
                if known is not None:
                    self._set_const(body, rd, known)
                else:
                    const.pop(rd, None)
                    body.append(f"{self.reg(rd)} = {self.reg(op[3])}")
        elif code in _WRAP_BIN or code in _WRAP_BIN_IMM:
            if rd:
                imm = code in _WRAP_BIN_IMM
                sym = _WRAP_BIN_IMM[code] if imm else _WRAP_BIN[code]
                a = const.get(op[3])
                b = op[4] if imm else const.get(op[4])
                if a is not None and b is not None:
                    v = a + b if sym == "+" else a - b
                    if v > 2147483647:
                        v -= 4294967296
                    elif v < -2147483648:
                        v += 4294967296
                    self._set_const(body, rd, v)
                else:
                    rhs = f"({op[4]})" if imm else self.val(op[4])
                    if sym == "+":
                        known = a if a is not None else b
                    else:
                        known = -b if b is not None else None
                    if known is None:
                        direction = "both"
                    elif known > 0:
                        direction = "over"
                    elif known < 0:
                        direction = "under"
                    else:
                        direction = "none"
                    self._signfix_wrap(
                        body, f"{self.val(op[3])} {sym} {rhs}", rd,
                        direction,
                    )
                    const.pop(rd, None)
        elif code in _MASK_BIN or code in _MASK_BIN_IMM:
            if rd:
                imm = code in _MASK_BIN_IMM
                a = const.get(op[3])
                b = op[4] if imm else const.get(op[4])
                if a is not None and b is not None:
                    v = (a * b) & 4294967295
                    if v > 2147483647:
                        v -= 4294967296
                    self._set_const(body, rd, v)
                else:
                    rhs = f"({op[4]})" if imm else self.val(op[4])
                    self._signfix(body, f"{self.val(op[3])} * {rhs}", rd)
                    const.pop(rd, None)
        elif code in _CLOSED_BIN or code in _CLOSED_BIN_IMM:
            if rd:
                imm = code in _CLOSED_BIN_IMM
                sym = _CLOSED_BIN_IMM[code] if imm else _CLOSED_BIN[code]
                a = const.get(op[3])
                b = op[4] if imm else const.get(op[4])
                if a is not None and b is not None:
                    if sym == "&":
                        v = a & b
                    elif sym == "|":
                        v = a | b
                    else:
                        v = a ^ b
                    self._set_const(body, rd, v)
                else:
                    rhs = f"({op[4]})" if imm else self.val(op[4])
                    body.append(
                        f"{self.reg(rd)} = {self.val(op[3])} {sym} {rhs}"
                    )
                    const.pop(rd, None)
        elif code in (_SLL, _SLLI):
            if rd:
                a = const.get(op[3])
                b = op[4] if code == _SLLI else const.get(op[4])
                if a is not None and b is not None:
                    v = (a << (b & 31)) & 4294967295
                    if v > 2147483647:
                        v -= 4294967296
                    self._set_const(body, rd, v)
                else:
                    shift = (f"{op[4] & 31}" if code == _SLLI
                             else f"({self.val(op[4])} & 31)")
                    self._signfix(
                        body, f"{self.val(op[3])} << {shift}", rd
                    )
                    const.pop(rd, None)
        elif code in (_SRA, _SRAI):
            if rd:
                a = const.get(op[3])
                b = op[4] if code == _SRAI else const.get(op[4])
                if a is not None and b is not None:
                    self._set_const(body, rd, a >> (b & 31))
                else:
                    shift = (f"{op[4] & 31}" if code == _SRAI
                             else f"({self.val(op[4])} & 31)")
                    body.append(
                        f"{self.reg(rd)} = {self.val(op[3])} >> {shift}"
                    )
                    const.pop(rd, None)
        elif code in (_DIV, _REM):
            self._emit_divrem(body, op, code == _REM)
            if rd:
                const.pop(rd, None)
        elif code in (_DIVI, _REMI):
            self._emit_divrem_imm(body, op, code == _REMI)
            if rd:
                const.pop(rd, None)
        elif code in _CMP_PY:
            if rd:
                a = const.get(op[3])
                b = const.get(op[4])
                sym = _CMP_PY[code]
                if a is not None and b is not None:
                    self._set_const(body, rd, int(_CMP_FOLD[sym](a, b)))
                else:
                    body.append(
                        f"{self.reg(rd)} = 1 if "
                        f"{self.val(op[3])} {sym} {self.val(op[4])} "
                        f"else 0"
                    )
                    const.pop(rd, None)
        elif code == _PRINT:
            known = const.get(op[2])
            if known is not None:
                body.append(f"output.append({str(known)!r})")
            else:
                body.append(f"output.append(str({self.reg(op[2])}))")
            body.append("output.append('\\n')")
        elif code == _PUTC:
            known = const.get(op[2])
            if known is not None:
                body.append(f"output.append({chr(known & 255)!r})")
            else:
                body.append(f"output.append(chr({self.reg(op[2])} & 255))")
        else:  # pragma: no cover - control ops handled by the walker
            raise MachineError(f"cannot compile opcode {code}")
        return body

    def _emit_divrem(self, body: list, op, is_rem: bool) -> None:
        fault = "remainder by zero" if is_rem else "division by zero"
        if not op[2]:
            body.append(f"if {self.val(op[4])} == 0:")
            body.append(f"    raise MachineError('{fault}')")
            return
        body.append(f"a = {self.val(op[3])}")
        body.append(f"b = {self.val(op[4])}")
        body.append("if b == 0:")
        body.append(f"    raise MachineError('{fault}')")
        if is_rem:
            body.append("q = abs(a) // abs(b)")
            body.append("if (a < 0) != (b < 0):")
            body.append("    q = -q")
            self._signfix(body, "a - q * b", op[2])
        else:
            body.append("v = abs(a) // abs(b)")
            body.append("if (a < 0) != (b < 0):")
            body.append("    v = -v")
            self._signfix(body, "v", op[2])

    def _emit_divrem_imm(self, body: list, op, is_rem: bool) -> None:
        imm = op[4]
        fault = "remainder by zero" if is_rem else "division by zero"
        if imm == 0:
            body.append(f"raise MachineError('{fault}')")
            return
        if not op[2]:
            return
        negate = "if a < 0:" if imm > 0 else "if a >= 0:"
        body.append(f"a = {self.val(op[3])}")
        if is_rem:
            body.append(f"q = abs(a) // {abs(imm)}")
            body.append(negate)
            body.append("    q = -q")
            self._signfix(body, f"a - q * ({imm})", op[2])
        else:
            body.append(f"v = abs(a) // {abs(imm)}")
            body.append(negate)
            body.append("    v = -v")
            self._signfix(body, "v", op[2])

    # ------------------------------------------------------------------
    # terminators

    def _emit_call(self, out: list, prefix: list, return_pc: int,
                   callee: str, clobbers, target: str) -> None:
        """Call sequence shared by BL (constant callee) and BLR
        (``callee``/``target`` are expressions over run state); order
        matches the reference backend exactly: counters committed
        before the per-procedure flush, registers written back before
        the convention frame snapshots them."""
        out.extend(self._commit(prefix))
        self.written_so_far.discard(RP)
        out.extend(self._writeback())
        out.append(f"regs[{RP}] = {return_pc}")
        out.append(f"call_edges[({self._caller()}, {callee})] += 1")
        if self.program.track:
            out.append("flush(call_stack[-1])")
        out.extend(self._push(callee))
        if self.program.check:
            preserved = _preserved_registers(clobbers, self.program.volatile)
            out.append(
                f"frames.append(({return_pc}, {callee}, {preserved!r}, "
                f"[regs[i] for i in {preserved!r}]))"
            )
        out.append(f"return {target}")

    def _branch(self, out: list, op, prefix: list) -> bool:
        """The taken edge of a conditional branch, as an early exit.
        A branch whose operands the constant lattice knows emits no
        test; returns True when it is always taken (the exit then
        closes the block)."""
        a = self.const.get(op[2])
        b = self.const.get(op[3])
        sym = _BC_PY[op[0]]
        target = self._target(op[4])
        if a is not None and b is not None:
            if not _CMP_FOLD[sym](a, b):
                return False
            out.extend(self._exit_lines(prefix))
            out.append(f"return {target}")
            return True
        out.append(f"if {self.val(op[2])} {sym} {self.val(op[3])}:")
        out.extend("    " + line for line in self._exit_lines(prefix))
        out.append(f"    return {target}")
        return False

    def _emit_terminator(self, out: list, pc: int, op,
                         prefix: list) -> None:
        """The last item of a block: a control transfer, HALT, a
        both-edges BC (cap stop), or a plain fall-through."""
        code = op[0]
        self._load(out, op)
        if code == _B:
            out.extend(self._exit_lines(prefix))
            out.append(f"return {self._target(op[2])}")
        elif _BEQ <= code <= _BGE:
            if not self._branch(out, op, prefix):
                out.extend(self._exit_lines(prefix))
                out.append(f"return {self._target(pc + 1)}")
        elif code == _BL:
            self._emit_call(out, prefix, return_pc=pc + 1,
                            callee=repr(op[3]), clobbers=op[4],
                            target=self._target(op[2]))
        elif code == _BLR:
            out.append(f"t = {self.val(op[2])}")
            out.append("name = entry_names.get(t)")
            out.append("if name is None:")
            out.append(
                "    raise MachineError("
                "'indirect call to non-function address %d' % t)"
            )
            # A function entry no block has entered yet has an empty
            # dispatch slot; goto compiles it.
            self._emit_call(out, prefix, return_pc=pc + 1,
                            callee="name", clobbers=op[3],
                            target="dispatch[t] or goto(t)")
        elif code == _RET:
            if self.pending:
                # Returns from the innermost pending inline call.
                self.pending.pop()
                out.extend(self._exit_lines(prefix))
            else:
                out.extend(self._exit_lines(prefix))
                if self.program.track:
                    out.append("flush(call_stack[-1])")
                out.append("if len(call_stack) > 1:")
                out.append("    call_stack.pop()")
            out.append(f"p = {self.val(RP)}")
            if self.program.check:
                out.append("ret_check(p)")
            out.append(f"nb = dispatch[p] if 0 <= p < {self.program.n} "
                       f"else None")
            out.append("if nb is None:")
            out.append("    return goto(p)")
            out.append("return nb")
        elif code == _HALT:
            out.extend(self._exit_lines(prefix))
            out.append("raise Halted")
        else:
            # Plain fall-through at the block cap or into a pc this
            # block already holds (or past the end of the code, which
            # goto faults on exactly like the reference backend's
            # bounds check).
            out.extend(self._instr_lines(op))
            out.extend(self._exit_lines(prefix))
            out.append(f"return {self._target(pc + 1)}")

    # ------------------------------------------------------------------
    # block emission

    def _emit_inline_call(self, out: list, pc: int, op) -> None:
        """A BL whose callee continues inline: only the observable
        bookkeeping is emitted — control never leaves the closure.

        The call-stack push is left pending (``self.pending``): every
        exit pushes the pending callees (``_push``), and the matching
        inline return cancels it, so a call that returns inside the
        block never touches the stack.  Nothing else inside a block
        reads the stack: the caller of a nested call is known
        statically, and a fault ends the run unobserved."""
        callee = repr(op[3])
        if RP in self.hoisted:
            self.written_so_far.add(RP)
        self._set_const(out, RP, pc + 1)
        out.append(f"call_edges[({self._caller()}, {callee})] += 1")
        self.pending.append(op[3])
        if self.program.check:
            out.extend(self._writeback())
            preserved = _preserved_registers(op[4], self.program.volatile)
            out.append(
                f"frames.append(({pc + 1}, {callee}, {preserved!r}, "
                f"[regs[i] for i in {preserved!r}]))"
            )

    def _emit_inline_ret(self, out: list, ret_pc: int,
                         prefix: list) -> None:
        """A RET inside an inlined call: execution continues at the
        statically known return site ``ret_pc`` unless the program
        returns somewhere else (corrupted return pointer), in which
        case the block is left through the generic dispatch path.
        The matching call's push is still pending, so the pop cancels
        it and emits nothing."""
        self.pending.pop()
        fail = self._exit_lines(prefix)
        if self.program.check:
            out.extend(self._writeback())
            out.append(f"p = {self.val(RP)}")
            out.append("ret_check(p)")
            out.append(f"if p != {ret_pc}:")
            out.extend("    " + line for line in fail)
            out.append("    return goto(p)")
        elif self.const.get(RP) != ret_pc:
            known = self.const.get(RP)
            target = (f"goto({self.reg(RP)})" if known is None
                      else self._target(known))
            out.append(f"if {self.val(RP)} != {ret_pc}:")
            out.extend("    " + line for line in fail)
            out.append(f"    return {target}")

    def _emit_items(self, out: list, items: list, inline: dict,
                    prefix: list) -> bool:
        """Emit every item but the last; conditional branches inside
        the block become inline early exits.  Returns True when a
        branch that is always taken closed the block early."""
        for index, (pc, op) in enumerate(items[:-1]):
            _add_counts(prefix, _op_counts(op))
            code = op[0]
            self._load(out, op)
            if index in inline:
                if code == _BL:
                    self._emit_inline_call(out, pc, op)
                else:
                    self._emit_inline_ret(out, inline[index], prefix)
            elif code == _B:
                # Jump-threaded: charged above, no code — execution
                # continues at the branch target inline.
                continue
            elif _BEQ <= code <= _BGE:
                if self._branch(out, op, prefix):
                    return True
            else:
                out.extend(self._instr_lines(op))
        return False

    def block_source(self, start: int) -> list:
        """Body lines (unindented) of the closure for the extended
        block at ``start``."""
        items, inline = self._scan(start)
        self._analyze(items)
        cost = sum(op[1] for _pc, op in items)
        out = [f"if ctr[0] + {cost} > limit:",
               f"    return slow({start})"]
        prefix = [0] * 7
        if not self._emit_items(out, items, inline, prefix):
            last_pc, last_op = items[-1]
            _add_counts(prefix, _op_counts(last_op))
            self._emit_terminator(out, last_pc, last_op, prefix)
        return out


# The run state a block may read: free variables of every block,
# bound to one run's cells in ``_CompiledProgram.run``.
_RUN_NAMES = ("regs", "memory", "ctr", "output", "call_stack",
              "call_edges", "limit", "slow", "flush", "frames",
              "ret_check", "entry_names", "dispatch", "goto", "Halted",
              "MachineError", "ec")
_BLOCK_GLOBALS = {"__builtins__": builtins}


class _CompiledProgram:
    """One executable compiled for one accounting configuration, one
    block at a time as runs first enter it."""

    def __init__(self, simulator, track: bool, check: bool):
        self.decoded = simulator._decoded
        self.n = len(self.decoded)
        self.entry_pc = simulator.executable.entry_pc
        self.base = simulator.executable.data_base
        self.memory_words = simulator.memory_words
        self.entry_names = simulator._entry_names
        self.volatile = simulator.volatile_registers
        self.track = track
        self.check = check
        # Uniform cost model: cycles ≡ instructions, so blocks commit
        # only ctr[0] and the instruction counter is recovered by copy.
        # Per-procedure attribution reads ctr[1] mid-run (flush), so it
        # keeps both counters live.
        self.uniform = (not track) and all(
            op[1] == 1 for op in self.decoded
        )
        # Lazy slot accounting (non-attributed runs): block exits bump
        # one per-site execution counter instead of committing every
        # counter slot; the per-site static totals (slots 1..6)
        # recorded here are folded into ``ctr`` once, after HALT, also
        # when the reference loop ran the end of the run (``slow``).
        self.exit_totals: list = []
        self._exit_index: dict = {}
        # pc -> code object of the block starting there.
        self.codes: dict = {}

    def exit_site(self, totals: tuple) -> int:
        """Index of the lazy-commit site for ``totals`` (slots 1..6),
        shared by every exit charging the same deltas."""
        idx = self._exit_index.get(totals)
        if idx is None:
            idx = self._exit_index[totals] = len(self.exit_totals)
            self.exit_totals.append(totals)
        return idx

    def block_code(self, pc: int) -> CodeType:
        """The code object of the block at ``pc``, compiled on first
        use.  Its free variables are ``_RUN_NAMES`` and the ``_b<pc>``
        names of the blocks it exits to."""
        code = self.codes.get(pc)
        if code is None:
            compiler = _BlockCompiler(self)
            body = compiler.block_source(pc)
            names = _RUN_NAMES + tuple(sorted(compiler.targets))
            lines = [f"def _bind({', '.join(names)}):",
                     f"    def _b{pc}():"]
            lines.extend("        " + line for line in body)
            module = compile("\n".join(lines), "<repro-sim-compiled>",
                             "exec")
            code = self.codes[pc] = next(
                const for const in module.co_consts[0].co_consts
                if isinstance(const, CodeType)
            )
        return code

    def run(self, simulator, machine, ctr: list, max_cycles: int) -> None:
        """Run ``machine`` from the entry point to HALT, leaving the
        settled counters in ``ctr``."""
        regs = machine.regs
        frames = machine.frames
        per_proc = machine.per_proc
        marks = machine.marks
        n = self.n

        def flush(name):
            _flush_proc(per_proc, name, ctr[0], ctr[1], ctr[2], ctr[3],
                        ctr[6], marks)

        def ret_check(pc):
            if frames:
                _check_return(frames, regs, pc)

        def slow(pc):
            # The cycle budget may run out inside the next block: finish
            # the run on the reference loop, so the limit (or an earlier
            # fault) lands on the same instruction boundary.  Never
            # returns normally.  Lazy and elided counters are settled
            # after HALT either way: they are additive, and the loop
            # reads them only to attribute per-procedure counts, which
            # keeps every counter live.
            step_reference(simulator, machine, pc, ctr, max_cycles)
            raise _Halted

        dispatch: list = [None] * n
        ec: list = [0] * len(self.exit_totals)

        def cell(name):
            # An exit target's cell holds the block once it is bound,
            # and until then a stub that binds it on its first call.
            found = cells.get(name)
            if found is None:
                pc = int(name[2:])
                found = cells[name] = CellType(
                    dispatch[pc] or (lambda: goto(pc)())
                )
            return found

        def goto(pc):
            if not 0 <= pc < n:
                raise MachineError(f"pc out of range: {pc}")
            block = dispatch[pc]
            if block is None:
                code = self.block_code(pc)
                # A block compiled mid-run can register new lazy-commit
                # sites; grow this run's counter list in place before
                # the new closure can execute.
                grow = len(self.exit_totals) - len(ec)
                if grow > 0:
                    ec.extend([0] * grow)
                block = dispatch[pc] = FunctionType(
                    code, _BLOCK_GLOBALS, code.co_name, None,
                    tuple(cell(name) for name in code.co_freevars),
                )
                cell(code.co_name).cell_contents = block
            return block

        cells = {
            name: CellType(value) for name, value in zip(_RUN_NAMES, (
                regs, machine.memory, ctr, machine.output,
                machine.call_stack, machine.call_edges, max_cycles, slow,
                flush, frames, ret_check, self.entry_names, dispatch,
                goto, _Halted, MachineError, ec,
            ))
        }
        block = goto(self.entry_pc)
        try:
            while True:
                block = block()
        except _Halted:
            pass
        # Fold the lazy exit-site counts into ``ctr``, and recover the
        # instruction counter elided under a uniform cost model.
        for totals, count in zip(self.exit_totals, ec):
            if count:
                for slot, delta in enumerate(totals, 1):
                    if delta:
                        ctr[slot] += count * delta
        if self.uniform:
            ctr[1] = ctr[0]


def compiled_program(simulator, track: bool) -> _CompiledProgram:
    """``simulator``'s program for one accounting configuration, made
    once per simulator so later runs reuse the blocks already
    compiled."""
    key = (track, bool(simulator.check_conventions))
    program = simulator._compiled_cache.get(key)
    if program is None:
        program = simulator._compiled_cache[key] = _CompiledProgram(
            simulator, *key
        )
    return program
