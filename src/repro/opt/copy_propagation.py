"""Local copy propagation.

Within a block, after ``dst = src`` every use of ``dst`` is replaced by
``src`` until either side is redefined.  Dead ``Move`` instructions are
left for DCE to sweep.
"""

from __future__ import annotations

from repro.analysis.liveness import _is_user_call
from repro.ir.function import IRFunction
from repro.ir.instructions import Move
from repro.ir.values import Temp


def run(function: IRFunction) -> bool:
    """Run the pass; returns True if any use was rewritten.

    Beside the environment (copy -> source) a reverse map lists the
    copies taken of each source, so a redefinition drops exactly the
    entries that mention the redefined temp.  The reverse map may name
    copies that were dropped or retargeted since; each is checked
    against the environment before it is dropped.
    """
    changed = False
    pinned = function.pinned_temps
    for block in function.blocks.values():
        env: dict[Temp, Temp] = {}
        copies_of: dict[Temp, list[Temp]] = {}
        for instruction in block.instructions:
            kind = type(instruction)
            if env:
                if pinned and _is_user_call(instruction):
                    # Calls may read and rewrite promoted globals'
                    # registers: copies into or out of pinned temps do
                    # not survive.
                    for temp in pinned:
                        _forget(env, copies_of, temp)
                for use in instruction.uses():
                    if type(use) is Temp and use in env:
                        instruction.replace_uses(env)
                        changed = True
                        break
                for defined in instruction.defs():
                    _forget(env, copies_of, defined)
            if kind is Move:
                source = instruction.src
                if type(source) is Temp and source is not instruction.dst:
                    env[instruction.dst] = source
                    copies_of.setdefault(source, []).append(instruction.dst)
        terminator = block.terminator
        if env and terminator is not None:
            for use in terminator.uses():
                if type(use) is Temp and use in env:
                    terminator.replace_uses(env)
                    changed = True
                    break
    return changed


def _forget(env: dict, copies_of: dict, temp: Temp) -> None:
    """Drop the copy ``temp`` and every live copy of ``temp``."""
    env.pop(temp, None)
    for dst in copies_of.pop(temp, ()):
        if env.get(dst) is temp:
            del env[dst]
