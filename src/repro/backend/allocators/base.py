"""Allocator strategy interface and registry.

Phase 2's register allocation step is pluggable: a strategy consumes a
:class:`~repro.backend.mir.MachineFunction` fresh out of instruction
selection (virtual registers, directive sets attached, promoted globals
precolored) and must leave it fully physical with
``machine.used_registers`` set — everything after (frame finalization,
validation, emission) is shared.

Three strategies ship in-tree (see ``docs/ALLOCATORS.md``):

* ``paper`` — the directive-driven priority coloring of the source
  paper (:mod:`repro.backend.allocators.paper`); the default.
* ``linearscan`` — an iterative liveness → dead-statement elimination →
  linear scan → spill loop in the shape of the sire compiler
  (SNIPPETS.md Snippet 2), intraprocedural by construction
  (:mod:`repro.backend.allocators.linearscan`).
* ``spill-everywhere`` — every tracked value lives in its stack slot
  and visits registers only between def/use points, the
  Bouchez/Darte/Rastello-style lower bound
  (:mod:`repro.backend.allocators.spilleverywhere`).

Selection: pass a name to :func:`get_allocator` / the driver entry
points; ``None`` selects the default.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

#: Allocation strategies selectable via the ``allocator=`` arguments
#: threaded through the driver.
ALLOCATORS = ("paper", "linearscan", "spill-everywhere")
DEFAULT_ALLOCATOR = "paper"


class RegisterAllocationError(Exception):
    """Raised when allocation cannot make progress."""


class AllocatorStrategy(ABC):
    """One register-allocation algorithm.

    Strategies are stateless singletons: ``allocate`` may be called for
    many functions, from many threads of compilation, in any order.
    """

    #: Registry key and user-facing selector name.
    name: str = ""

    @abstractmethod
    def allocate(self, machine) -> None:
        """Allocate registers in place.

        On return every register operand must be physical, spill code
        (if any) inserted, and ``machine.used_registers`` populated —
        the contract :func:`repro.backend.finalize.finalize_frame`
        relies on.
        """


_REGISTRY: dict[str, AllocatorStrategy] = {}


def register_allocator(strategy: AllocatorStrategy) -> AllocatorStrategy:
    """Add a strategy instance to the registry (module import time)."""
    if not strategy.name:
        raise ValueError("allocator strategy must carry a name")
    if strategy.name in _REGISTRY:
        raise ValueError(f"duplicate allocator strategy {strategy.name!r}")
    _REGISTRY[strategy.name] = strategy
    return strategy


def resolve_allocator(name: str | None = None) -> str:
    """Validate a strategy name (any case); ``None`` selects the
    default."""
    name = name or DEFAULT_ALLOCATOR
    name = name.strip().lower()
    if name not in ALLOCATORS:
        raise ValueError(
            f"unknown allocator strategy {name!r}; expected one of "
            f"{', '.join(ALLOCATORS)}"
        )
    return name


def get_allocator(name: str | None = None) -> AllocatorStrategy:
    """The strategy instance for ``name`` (resolved like
    :func:`resolve_allocator`)."""
    resolved = resolve_allocator(name)
    if resolved not in _REGISTRY:
        # Register the built-in strategies on first use; the package
        # __init__ does this eagerly, but a direct ``base`` import must
        # work too.
        from repro.backend.allocators import (  # noqa: F401
            linearscan,
            paper,
            spilleverywhere,
        )
    return _REGISTRY[resolved]
