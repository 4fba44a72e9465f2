"""Linker: binds object modules into an executable PRISM image.

Responsibilities (paper section 2: "the object files are then bound
together by the linker"):

* symbol resolution — every referenced global/function must have exactly
  one definition across all modules (statics were qualified by the first
  phase, so identically-named statics in different modules never clash);
* data layout — globals get word addresses in the data segment;
* code layout — a two-instruction startup stub (``BL main; HALT``)
  followed by every function's instruction stream;
* relocation — function-local branch targets are rebased, ``BL`` callees
  and ``LDA`` symbols are resolved (function symbols resolve to code
  indices, data symbols to data addresses; the machine is Harvard-style).

Only the instructions relocation rewrites (``B``/``BC``, ``BL``, ``LDA``)
are copied; every other instruction object is shared with its object
module.  Nothing after the linker writes to an instruction, so object
modules (cached, or linked again under another configuration) stay
exactly as phase 2 emitted them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from repro.backend.object import ObjectModule
from repro.ir.module import GlobalVar
from repro.target import isa

DATA_BASE = 1024  # first 1024 words are a guard region reading as zero


class LinkError(Exception):
    """Raised for duplicate or unresolved symbols."""


@dataclass
class FunctionRange:
    """Code range of one linked function (for profiling attribution)."""

    name: str
    start: int
    end: int  # exclusive
    source_module: str = ""


@dataclass
class Executable:
    """A linked PRISM program."""

    instructions: list = field(default_factory=list)
    data_words: list = field(default_factory=list)
    data_base: int = DATA_BASE
    entry_pc: int = 0
    function_entries: dict = field(default_factory=dict)  # name -> pc
    global_addresses: dict = field(default_factory=dict)  # name -> address
    function_ranges: list = field(default_factory=list)
    globals_by_name: dict = field(default_factory=dict)  # name -> GlobalVar

    def function_at(self, pc: int) -> str:
        """Name of the function containing ``pc`` (binary search)."""
        low, high = 0, len(self.function_ranges) - 1
        while low <= high:
            mid = (low + high) // 2
            rng = self.function_ranges[mid]
            if pc < rng.start:
                high = mid - 1
            elif pc >= rng.end:
                low = mid + 1
            else:
                return rng.name
        return "<stub>"

    @property
    def code_size(self) -> int:
        return len(self.instructions)


#: ``json.dumps(value, sort_keys=True)``.
_dumps = json.JSONEncoder(sort_keys=True).encode

#: The same text, without a trip through the encoder, for the types
#: instruction slots hold.
_SLOT_JSON = {
    int: int.__repr__,
    str: _quote,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}

#: instruction class -> (its slot names in sorted order, a ``%``
#: template of its JSON text with one ``%s`` per slot value).
_INSTRUCTION_FORMATS: dict = {}


def _instruction_format(kind: type) -> tuple:
    names = set()
    for klass in kind.__mro__:
        names.update(getattr(klass, "__slots__", ()))
    names = tuple(sorted(names))
    fields = ", ".join(f"[{_quote(name)}, %s]" for name in names)
    template = f"[{_quote(kind.__name__)}, [{fields}]]"
    _INSTRUCTION_FORMATS[kind] = entry = (names, template)
    return entry


def _instruction_json(instruction) -> str:
    """``[class name, [[slot, value], ...]]`` over the set slots, in
    sorted order, as ``json.dumps`` writes it."""
    kind = type(instruction)
    names, template = (
        _INSTRUCTION_FORMATS.get(kind) or _instruction_format(kind)
    )
    values = []
    try:
        for name in names:
            value = getattr(instruction, name)
            values.append(_SLOT_JSON.get(type(value), _dumps)(value))
    except AttributeError:
        # An unset slot is left out of the image.
        return _dumps([kind.__name__, [
            [name, getattr(instruction, name)]
            for name in names if hasattr(instruction, name)
        ]])
    return template % tuple(values)


def serialize_executable(executable: Executable) -> bytes:
    """Canonical byte image of a linked executable.

    A flat, aliasing-free rendering of everything the simulator can
    observe (instructions with their resolved operands, data image,
    symbol tables).  Two executables are behaviorally identical iff
    their images are byte-identical, which is what the determinism
    suite asserts across cold/warm-cache builds.

    The image is the text ``json.dumps(payload, sort_keys=True)`` gives
    for ``payload = {"entry_pc", "data_base", "instructions",
    "data_words", "function_entries", "global_addresses",
    "function_ranges"}``, each instruction ``[class name, [[slot,
    value], ...]]`` over its set slots in sorted order.  It is written
    directly: the keys in sorted order, and each instruction through a
    cached template of its class.
    """
    ranges = [
        [rng.name, rng.start, rng.end, rng.source_module]
        for rng in executable.function_ranges
    ]
    text = (
        '{"data_base": %s, "data_words": %s, "entry_pc": %s, '
        '"function_entries": %s, "function_ranges": %s, '
        '"global_addresses": %s, "instructions": [%s]}'
    ) % (
        _dumps(executable.data_base),
        _dumps(list(executable.data_words)),
        _dumps(executable.entry_pc),
        _dumps(dict(executable.function_entries)),
        _dumps(ranges),
        _dumps(dict(executable.global_addresses)),
        ", ".join(map(_instruction_json, executable.instructions)),
    )
    return text.encode("utf-8")


def executable_fingerprint(executable: Executable) -> str:
    """sha256 of :func:`serialize_executable` (the identity oracle)."""
    return hashlib.sha256(serialize_executable(executable)).hexdigest()


def link(modules: list, entry: str = "main") -> Executable:
    """Link object modules into an executable."""
    global_defs: dict[str, GlobalVar] = {}
    for module in modules:
        for var in module.globals:
            if var.name in global_defs:
                raise LinkError(
                    f"duplicate definition of global {var.name!r} "
                    f"(modules {global_defs[var.name].defining_module!r} "
                    f"and {module.name!r})"
                )
            global_defs[var.name] = var

    function_defs: dict[str, tuple] = {}
    for module in modules:
        for function in module.functions:
            if function.name in function_defs:
                raise LinkError(
                    f"duplicate definition of function {function.name!r}"
                )
            function_defs[function.name] = (module, function)

    for module in modules:
        for name in module.extern_globals:
            if name not in global_defs:
                raise LinkError(
                    f"module {module.name!r}: undefined global {name!r}"
                )
        for name in module.extern_functions:
            if name not in function_defs:
                raise LinkError(
                    f"module {module.name!r}: undefined function {name!r}"
                )
    if entry not in function_defs:
        raise LinkError(f"undefined entry point {entry!r}")

    executable = Executable()

    # Data layout.
    address = DATA_BASE
    for name in sorted(global_defs):
        var = global_defs[name]
        executable.global_addresses[name] = address
        executable.globals_by_name[name] = var
        words = list(var.init_words)
        words += [0] * (var.size_words - len(words))
        executable.data_words.extend(words[: var.size_words])
        address += var.size_words

    # Code layout: startup stub, then functions.  The stub call may
    # clobber anything (main owes the runtime no register preservation
    # beyond the convention; the exit code travels in RV).
    from repro.target.registers import ALL_ALLOCATABLE, RP

    stub_call = isa.BL(entry, [], sorted(ALL_ALLOCATABLE | {RP}))
    executable.instructions.append(stub_call)
    executable.instructions.append(isa.HALT())
    base = len(executable.instructions)
    for name in sorted(function_defs):
        executable.function_entries[name] = base
        base += len(function_defs[name][1].instructions)

    # Relocation, copying only the instructions it rewrites.
    function_entries = executable.function_entries
    global_addresses = executable.global_addresses
    stub_call.resolved = function_entries[stub_call.callee]
    for name in sorted(function_defs):
        function = function_defs[name][1]
        base = function_entries[name]
        instructions = list(function.instructions)
        for position, instruction in enumerate(instructions):
            kind = type(instruction)
            if kind is isa.B:
                instructions[position] = isa.B(instruction.target + base)
            elif kind is isa.BC:
                instructions[position] = isa.BC(
                    instruction.op, instruction.ra, instruction.rb,
                    instruction.target + base,
                )
            elif kind is isa.BL:
                call = isa.BL(
                    instruction.callee, instruction.arg_regs,
                    instruction.clobbers,
                )
                call.resolved = function_entries[instruction.callee]
                instructions[position] = call
            elif kind is isa.LDA:
                symbol = instruction.symbol
                if instruction.is_function:
                    if symbol not in function_entries:
                        raise LinkError(f"undefined function {symbol!r}")
                    resolved = function_entries[symbol]
                else:
                    if symbol not in global_addresses:
                        raise LinkError(f"undefined global {symbol!r}")
                    resolved = global_addresses[symbol]
                load = isa.LDA(
                    instruction.rd, symbol, instruction.is_function
                )
                load.resolved = resolved
                instructions[position] = load
        executable.instructions.extend(instructions)
        executable.function_ranges.append(
            FunctionRange(name, base, len(executable.instructions),
                          function.source_module)
        )
    return executable
