"""PRISM machine simulator.

Executes a linked :class:`~repro.linker.link.Executable` and collects the
paper's metrics:

* **cycles** — one per instruction by default (a configurable cost model
  can charge more for multiplies/divides); cache effects are not modelled,
  matching the paper's "excluding cache miss penalties";
* **memory references** — dynamic load/store counts, split into
  *singleton* references (accesses of simple scalar variables, including
  register save/restore traffic) and the rest (array elements, pointer
  dereferences) for Table 5;
* **call counts and call edges** — the gprof-equivalent profile that can
  be fed back into the program analyzer.

The machine is Harvard-style and word-addressed: instruction indices and
data addresses are separate spaces.  Reads of the guard region below the
data base return zero; writes there are errors, as are out-of-range
accesses.

Execution is delegated to one of two pluggable backends behind the
:class:`Simulator` facade (see ``docs/SIMULATOR.md``):

* ``reference`` — instructions are pre-decoded into flat tuples with
  integer opcodes and :func:`step_reference` dispatches on those, one
  instruction at a time.  This is the semantic baseline every other
  backend must match bit for bit.
* ``compiled`` — the threaded-code backend in
  :mod:`repro.machine.compiled`: basic blocks of decoded instructions
  are compiled to specialized Python closures (operands, costs, and
  stats increments folded in as constants) chained by returned program
  counters.  Near the cycle limit it hands the run to
  :func:`step_reference` itself, so faults and
  :class:`ExecutionLimitExceeded` land on the identical instruction
  boundary.

Both backends start from one :class:`_Machine` and finish through it,
so the result is assembled in one place.  The default backend is
``compiled``; pass ``backend=`` to select explicitly.  All arithmetic
matches :mod:`repro.ir.arith` (32-bit two's complement, C semantics).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

from repro.linker.link import Executable
from repro.obs.tracer import current_tracer
from repro.target import costs, isa
from repro.target.registers import NUM_REGISTERS, RP, RV, SP

_WORD_MASK = 0xFFFFFFFF
_INT_MAX = 0x7FFFFFFF

#: Execution backends selectable via ``Simulator(backend=...)``.
BACKENDS = ("compiled", "reference")
DEFAULT_BACKEND = "compiled"


def resolve_backend(backend: str | None = None) -> str:
    """Validate an explicit backend name; ``None`` means the default."""
    name = (backend or DEFAULT_BACKEND).strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulator backend {name!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    return name


class MachineError(Exception):
    """Raised for runtime faults (bad address, division by zero...)."""


class ExecutionLimitExceeded(MachineError):
    """Raised when the cycle budget is exhausted."""


@dataclass
class CostModel:
    """Cycles charged per instruction category."""

    alu: int = costs.ALU_CYCLES
    mul: int = costs.MUL_CYCLES
    div: int = costs.DIV_CYCLES
    load: int = costs.LOAD_CYCLES
    store: int = costs.STORE_CYCLES
    branch: int = costs.BRANCH_CYCLES
    call: int = costs.CALL_CYCLES
    other: int = costs.OTHER_CYCLES


@dataclass
class ProcedureStats:
    """Per-procedure execution counts (``procedure_stats`` runs only).

    Counters are attributed to the procedure *executing* the
    instructions: cycles spent inside a callee belong to the callee, not
    the caller.  Summing ``cycles`` over all procedures (plus the
    ``<stub>`` pseudo-procedure) reproduces the program total exactly.
    """

    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    save_restore: int = 0


@dataclass
class ExecutionStats:
    """Dynamic counts collected from one program run."""

    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    singleton_loads: int = 0
    singleton_stores: int = 0
    save_restore_executed: int = 0
    call_counts: Counter = field(default_factory=Counter)
    call_edges: Counter = field(default_factory=Counter)
    per_procedure: dict = field(default_factory=dict)
    output: str = ""
    exit_code: int = 0

    @property
    def memory_references(self) -> int:
        return self.loads + self.stores

    @property
    def singleton_references(self) -> int:
        return self.singleton_loads + self.singleton_stores

    @property
    def total_calls(self) -> int:
        return sum(self.call_counts.values())


# Opcodes.
(
    _LDI, _MOV,
    _ADD, _SUB, _MUL, _DIV, _REM, _AND, _OR, _XOR, _SLL, _SRA,
    _ADDI, _SUBI, _MULI, _DIVI, _REMI, _ANDI, _ORI, _XORI, _SLLI, _SRAI,
    _CEQ, _CNE, _CLT, _CLE, _CGT, _CGE,
    _LDW, _STW,
    _B, _BEQ, _BNE, _BLT, _BLE, _BGT, _BGE,
    _BL, _BLR, _RET, _PRINT, _PUTC, _HALT,
) = range(43)

_ALU_OPS = {
    "+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV, "%": _REM,
    "&": _AND, "|": _OR, "^": _XOR, "<<": _SLL, ">>": _SRA,
}
_ALUI_OPS = {
    "+": _ADDI, "-": _SUBI, "*": _MULI, "/": _DIVI, "%": _REMI,
    "&": _ANDI, "|": _ORI, "^": _XORI, "<<": _SLLI, ">>": _SRAI,
}
_CMP_OPS = {
    "==": _CEQ, "!=": _CNE, "<": _CLT, "<=": _CLE, ">": _CGT, ">=": _CGE,
}
_BC_OPS = {
    "==": _BEQ, "!=": _BNE, "<": _BLT, "<=": _BLE, ">": _BGT, ">=": _BGE,
}


def _decode(executable: Executable, costs: CostModel) -> list:
    decoded = []
    for instruction in executable.instructions:
        if isinstance(instruction, isa.LDI):
            decoded.append((_LDI, costs.alu, instruction.rd, instruction.imm))
        elif isinstance(instruction, isa.LDA):
            decoded.append(
                (_LDI, costs.alu, instruction.rd, instruction.resolved)
            )
        elif isinstance(instruction, isa.MOV):
            decoded.append((_MOV, costs.alu, instruction.rd, instruction.rs))
        elif isinstance(instruction, isa.ALU):
            opcode = _ALU_OPS[instruction.op]
            cost = costs.alu
            if opcode == _MUL:
                cost = costs.mul
            elif opcode in (_DIV, _REM):
                cost = costs.div
            decoded.append(
                (opcode, cost, instruction.rd, instruction.ra, instruction.rb)
            )
        elif isinstance(instruction, isa.ALUI):
            opcode = _ALUI_OPS[instruction.op]
            cost = costs.alu
            if opcode == _MULI:
                cost = costs.mul
            elif opcode in (_DIVI, _REMI):
                cost = costs.div
            decoded.append(
                (opcode, cost, instruction.rd, instruction.ra, instruction.imm)
            )
        elif isinstance(instruction, isa.CMP):
            decoded.append(
                (
                    _CMP_OPS[instruction.op],
                    costs.alu,
                    instruction.rd,
                    instruction.ra,
                    instruction.rb,
                )
            )
        elif isinstance(instruction, isa.LDW):
            decoded.append(
                (
                    _LDW,
                    costs.load,
                    instruction.rd,
                    instruction.base,
                    instruction.offset,
                    instruction.singleton,
                    # getattr: tolerate artifacts pickled before the
                    # slot existed (a schema bump evicts them anyway).
                    getattr(instruction, "save_restore", False),
                )
            )
        elif isinstance(instruction, isa.STW):
            decoded.append(
                (
                    _STW,
                    costs.store,
                    instruction.rs,
                    instruction.base,
                    instruction.offset,
                    instruction.singleton,
                    getattr(instruction, "save_restore", False),
                )
            )
        elif isinstance(instruction, isa.B):
            decoded.append((_B, costs.branch, instruction.target))
        elif isinstance(instruction, isa.BC):
            decoded.append(
                (
                    _BC_OPS[instruction.op],
                    costs.branch,
                    instruction.ra,
                    instruction.rb,
                    instruction.target,
                )
            )
        elif isinstance(instruction, isa.BL):
            decoded.append(
                (
                    _BL,
                    costs.call,
                    instruction.resolved,
                    instruction.callee,
                    tuple(instruction.clobbers),
                )
            )
        elif isinstance(instruction, isa.BLR):
            decoded.append(
                (
                    _BLR,
                    costs.call,
                    instruction.target,
                    tuple(instruction.clobbers),
                )
            )
        elif isinstance(instruction, isa.RET):
            decoded.append((_RET, costs.branch))
        elif isinstance(instruction, isa.SYS):
            opcode = _PRINT if instruction.kind == "print" else _PUTC
            decoded.append((opcode, costs.other, instruction.ra))
        elif isinstance(instruction, isa.HALT):
            decoded.append((_HALT, costs.other))
        else:  # pragma: no cover
            raise MachineError(f"cannot decode {instruction!r}")
    return decoded


class ConventionViolation(MachineError):
    """A callee destroyed a register its caller was entitled to keep.

    Raised only when the simulator runs with ``check_conventions=True``:
    at every call the registers *not* in the call's clobber set are
    snapshotted, and verified untouched at the matching return.  This
    validates the analyzer's directives (FREE preservation, MSPILL
    placement, caller-saves subtree bounds) against actual execution.
    """


def _preserved_registers(clobbers, volatile) -> tuple:
    """The registers a convention-checked call must leave untouched."""
    return tuple(
        i for i in range(NUM_REGISTERS)
        if i != RP and i not in clobbers and i not in volatile
    )


def _check_return(frames: list, regs: list, pc: int) -> None:
    """Pop the innermost convention frame at a return to ``pc`` and
    verify the callee left every preserved register untouched."""
    ret_pc, callee, preserved, values = frames.pop()
    if ret_pc == pc:
        for register, value in zip(preserved, values):
            if regs[register] != value:
                raise ConventionViolation(
                    f"call to {callee} destroyed "
                    f"register r{register} "
                    f"({value} -> {regs[register]}) "
                    f"not in its clobber set"
                )
    else:  # pragma: no cover - no tail calls exist
        frames.append((ret_pc, callee, preserved, values))


def _flush_proc(per_proc, name, cycles, instructions, loads, stores,
                save_restore, marks) -> None:
    """Attribute the counter deltas since the last call boundary to the
    procedure that executed them (``marks`` is updated in place)."""
    entry = per_proc.get(name)
    if entry is None:
        entry = per_proc[name] = [0, 0, 0, 0, 0]
    entry[0] += cycles - marks[0]
    entry[1] += instructions - marks[1]
    entry[2] += loads - marks[2]
    entry[3] += stores - marks[3]
    entry[4] += save_restore - marks[4]
    marks[0] = cycles
    marks[1] = instructions
    marks[2] = loads
    marks[3] = stores
    marks[4] = save_restore


class _Machine:
    """The mutable state of one run, shared by both backends.

    Registers, memory (data segment loaded, ``SP`` at the top), the
    output, the logical call stack, the call-edge counter, the
    convention frames (``check_conventions`` runs only) and the
    per-procedure attribution (``track`` runs only).  The seven run
    counters travel beside it as a list in :class:`ExecutionStats`
    field order: cycles, instructions, loads, stores, singleton loads,
    singleton stores, save/restore executions.
    """

    __slots__ = ("regs", "memory", "output", "call_stack", "call_edges",
                 "frames", "track", "per_proc", "marks")

    def __init__(self, simulator: "Simulator", track: bool):
        executable = simulator.executable
        self.regs = [0] * NUM_REGISTERS
        self.regs[SP] = simulator.memory_words
        self.memory = [0] * simulator.memory_words
        base = executable.data_base
        data_words = executable.data_words
        self.memory[base:base + len(data_words)] = data_words
        self.output: list = []
        self.call_stack = ["<stub>"]
        self.call_edges: Counter = Counter()
        self.frames: list | None = (
            [] if simulator.check_conventions else None
        )
        self.track = track
        self.per_proc: dict = {}
        self.marks = [0, 0, 0, 0, 0]

    def finish(self, ctr: list, tracer) -> ExecutionStats:
        """The statistics of a run that reached HALT with counters
        ``ctr``.  Call counts are the per-callee marginal of the call
        edges; with ``track``, the instructions since the last call
        boundary (including the HALT itself) belong to the procedure
        on top of the stack."""
        call_counts: Counter = Counter()
        for (_caller, callee), count in self.call_edges.items():
            call_counts[callee] += count
        stats = ExecutionStats(
            *ctr,
            call_counts=call_counts,
            call_edges=self.call_edges,
            output="".join(self.output),
            exit_code=self.regs[RV],
        )
        if not self.track:
            return stats
        _flush_proc(self.per_proc, self.call_stack[-1], ctr[0], ctr[1],
                    ctr[2], ctr[3], ctr[6], self.marks)
        stats.per_procedure = {
            name: ProcedureStats(*entry)
            for name, entry in sorted(self.per_proc.items())
        }
        if tracer.enabled:
            tracer.event(
                "execution",
                cycles=stats.cycles,
                instructions=stats.instructions,
                memory_references=stats.memory_references,
                singleton_references=stats.singleton_references,
                save_restore_executed=stats.save_restore_executed,
                exit_code=stats.exit_code,
                per_procedure={
                    name: asdict(entry)
                    for name, entry in stats.per_procedure.items()
                },
            )
        return stats


def step_reference(simulator: "Simulator", machine: _Machine, pc: int,
                   ctr: list, max_cycles: int) -> None:
    """Execute one instruction at a time from ``pc`` until HALT.

    The semantic baseline: the reference backend runs a whole program
    through it from ``entry_pc`` with zeroed counters, and the compiled
    backend hands it the rest of a run whose next block could cross the
    cycle budget.  ``ctr`` holds the seven run counters on entry and
    receives them at HALT.  :class:`ExecutionLimitExceeded` is raised
    after charging the instruction that crosses ``max_cycles`` and
    before executing it.
    """
    decoded = simulator._decoded
    code_size = len(decoded)
    base = simulator.executable.data_base
    memory_words = simulator.memory_words
    entry_names = simulator._entry_names
    volatile = simulator.volatile_registers
    regs = machine.regs
    memory = machine.memory
    output = machine.output
    call_stack = machine.call_stack
    call_edges = machine.call_edges
    check_frames = machine.frames
    track = machine.track
    per_proc = machine.per_proc
    marks = machine.marks
    (cycles, instructions, loads, stores, singleton_loads,
     singleton_stores, save_restore) = ctr

    while True:
        if not 0 <= pc < code_size:
            raise MachineError(f"pc out of range: {pc}")
        op = decoded[pc]
        code = op[0]
        cycles += op[1]
        instructions += 1
        if cycles > max_cycles:
            raise ExecutionLimitExceeded(
                f"exceeded {max_cycles} cycles"
            )
        if code == _LDW:
            address = regs[op[3]] + op[4]
            if not 0 <= address < memory_words:
                raise MachineError(f"load from bad address {address}")
            if op[2]:
                regs[op[2]] = memory[address]
            loads += 1
            if op[5]:
                singleton_loads += 1
            if op[6]:
                save_restore += 1
            pc += 1
        elif code == _STW:
            address = regs[op[3]] + op[4]
            if not base <= address < memory_words:
                raise MachineError(f"store to bad address {address}")
            memory[address] = regs[op[2]]
            stores += 1
            if op[5]:
                singleton_stores += 1
            if op[6]:
                save_restore += 1
            pc += 1
        elif code == _ADD or code == _ADDI:
            value = (regs[op[3]] + (regs[op[4]] if code == _ADD else op[4])) & _WORD_MASK
            if value > _INT_MAX:
                value -= 0x100000000
            if op[2]:
                regs[op[2]] = value
            pc += 1
        elif code == _SUB or code == _SUBI:
            value = (regs[op[3]] - (regs[op[4]] if code == _SUB else op[4])) & _WORD_MASK
            if value > _INT_MAX:
                value -= 0x100000000
            if op[2]:
                regs[op[2]] = value
            pc += 1
        elif code == _LDI:
            if op[2]:
                regs[op[2]] = op[3]
            pc += 1
        elif code == _MOV:
            if op[2]:
                regs[op[2]] = regs[op[3]]
            pc += 1
        elif _BEQ <= code <= _BGE:
            a = regs[op[2]]
            b = regs[op[3]]
            if code == _BEQ:
                taken = a == b
            elif code == _BNE:
                taken = a != b
            elif code == _BLT:
                taken = a < b
            elif code == _BLE:
                taken = a <= b
            elif code == _BGT:
                taken = a > b
            else:
                taken = a >= b
            pc = op[4] if taken else pc + 1
        elif code == _B:
            pc = op[2]
        elif _CEQ <= code <= _CGE:
            a = regs[op[3]]
            b = regs[op[4]]
            if code == _CEQ:
                value = int(a == b)
            elif code == _CNE:
                value = int(a != b)
            elif code == _CLT:
                value = int(a < b)
            elif code == _CLE:
                value = int(a <= b)
            elif code == _CGT:
                value = int(a > b)
            else:
                value = int(a >= b)
            if op[2]:
                regs[op[2]] = value
            pc += 1
        elif _MUL <= code <= _SRA or _MULI <= code <= _SRAI:
            a = regs[op[3]]
            b = regs[op[4]] if code <= _SRA else op[4]
            if code == _MUL or code == _MULI:
                value = a * b
            elif code == _DIV or code == _DIVI:
                if b == 0:
                    raise MachineError("division by zero")
                value = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    value = -value
            elif code == _REM or code == _REMI:
                if b == 0:
                    raise MachineError("remainder by zero")
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                value = a - quotient * b
            elif code == _AND or code == _ANDI:
                value = a & b
            elif code == _OR or code == _ORI:
                value = a | b
            elif code == _XOR or code == _XORI:
                value = a ^ b
            elif code == _SLL or code == _SLLI:
                value = a << (b & 31)
            else:  # arithmetic shift right
                value = a >> (b & 31)
            value &= _WORD_MASK
            if value > _INT_MAX:
                value -= 0x100000000
            if op[2]:
                regs[op[2]] = value
            pc += 1
        elif code == _BL or code == _BLR:
            if code == _BL:
                target = op[2]
                callee = op[3]
            else:
                target = regs[op[2]]
                callee = entry_names.get(target)
                if callee is None:
                    raise MachineError(
                        f"indirect call to non-function address {target}"
                    )
            regs[RP] = pc + 1
            call_edges[(call_stack[-1], callee)] += 1
            if track:
                _flush_proc(per_proc, call_stack[-1], cycles,
                            instructions, loads, stores, save_restore,
                            marks)
            call_stack.append(callee)
            if check_frames is not None:
                preserved = _preserved_registers(op[-1], volatile)
                check_frames.append(
                    (pc + 1, callee, preserved,
                     [regs[i] for i in preserved])
                )
            pc = target
        elif code == _RET:
            if track:
                _flush_proc(per_proc, call_stack[-1], cycles,
                            instructions, loads, stores, save_restore,
                            marks)
            if len(call_stack) > 1:
                call_stack.pop()
            pc = regs[RP]
            if check_frames:
                _check_return(check_frames, regs, pc)
        elif code == _PRINT:
            output.append(str(regs[op[2]]))
            output.append("\n")
            pc += 1
        elif code == _PUTC:
            output.append(chr(regs[op[2]] & 0xFF))
            pc += 1
        elif code == _HALT:
            break
        else:  # pragma: no cover
            raise MachineError(f"bad opcode {code}")

    ctr[:] = (cycles, instructions, loads, stores, singleton_loads,
              singleton_stores, save_restore)


class Simulator:
    """Facade over the pluggable execution backends.

    Decoding, accounting configuration, machine state and result shape
    are shared; ``backend`` picks how the decoded stream is executed
    (``compiled`` closures or :func:`step_reference`).  Both backends
    produce bit-identical :class:`ExecutionStats` and raise the same
    exceptions at the same instruction boundaries.
    """

    def __init__(
        self,
        executable: Executable,
        memory_words: int = 1 << 20,
        cost_model: CostModel | None = None,
        check_conventions: bool = False,
        volatile_registers: set | None = None,
        procedure_stats: bool | None = None,
        backend: str | None = None,
    ):
        self.executable = executable
        self.memory_words = memory_words
        self.costs = cost_model or CostModel()
        self.check_conventions = check_conventions
        # Registers holding interprocedurally promoted globals: callees
        # rewrite them by design, so the convention checker skips them.
        self.volatile_registers = frozenset(volatile_registers or ())
        # None = decide at run time: attribute per-procedure counters
        # whenever a trace is being collected.
        self.procedure_stats = procedure_stats
        self.backend = resolve_backend(backend)
        self._decoded = _decode(executable, self.costs)
        self._entry_names = {
            pc: name for name, pc in executable.function_entries.items()
        }
        # (track, check) -> compiled program, owned by machine.compiled.
        self._compiled_cache: dict = {}

    def run(self, max_cycles: int = 200_000_000) -> ExecutionStats:
        """Execute from the startup stub until HALT."""
        tracer = current_tracer()
        track = bool(
            tracer.enabled
            if self.procedure_stats is None
            else self.procedure_stats
        )
        ctr = [0] * 7
        if self.backend == "compiled":
            from repro.machine.compiled import compiled_program

            # Code generation's transient peak comes before the
            # machine's memory exists, so the two do not add up.
            program = compiled_program(self, track)
            machine = _Machine(self, track)
            program.run(self, machine, ctr, max_cycles)
        else:
            machine = _Machine(self, track)
            step_reference(self, machine, self.executable.entry_pc, ctr,
                           max_cycles)
        return machine.finish(ctr, tracer)


def run_executable(
    executable: Executable,
    max_cycles: int = 200_000_000,
    memory_words: int = 1 << 20,
    cost_model: CostModel | None = None,
    check_conventions: bool = False,
    volatile_registers: set | None = None,
    procedure_stats: bool | None = None,
    backend: str | None = None,
) -> ExecutionStats:
    """Convenience wrapper: simulate ``executable`` and return stats.

    Accepts the full :class:`Simulator` configuration so callers on the
    convenience path (``obs/report.py``, ``driver/pipeline.py``) can
    enable convention checking, per-procedure attribution, and backend
    selection without constructing the simulator themselves.
    """
    simulator = Simulator(
        executable,
        memory_words,
        cost_model,
        check_conventions=check_conventions,
        volatile_registers=volatile_registers,
        procedure_stats=procedure_stats,
        backend=backend,
    )
    return simulator.run(max_cycles)
