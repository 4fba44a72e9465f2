"""The program database (paper section 4.3).

The program analyzer's output: for every procedure, a set of register
allocation *directives* that the compiler second phase consults.  Because
directives are precomputed and stored per procedure, the second phase can
compile modules independently and in any order — the property that makes
the scheme work across module boundaries.

Each entry contains:

* the four register usage sets **FREE / CALLER / CALLEE / MSPILL**
  (section 4.2.3), and
* the list of globals promoted in the procedure, each with its reserved
  register and web-entry flags (section 4.1.3).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from repro.target.registers import CALLEE_SAVES, CALLER_SAVES


class PromotedGlobal(NamedTuple):
    """One global variable promoted to a register in a procedure.

    A record is immutable and shared by every procedure it applies to
    (the analyzer builds one per distinct value).  A named tuple builds
    in about a quarter of a frozen dataclass's time, with the same
    ``repr``, the same hash and the same equality between records.

    Attributes:
        name: Qualified global name.
        register: The callee-saves register dedicated to it in this web.
        is_entry: True if this procedure is a web entry node (must load
            the global at entry and store it back at exit).
        needs_store: False when no procedure in the web modifies the
            global, in which case entry nodes skip the exit store.
        wrap_callees: For *split* webs (section 7.6.1): direct callees
            around which the register must be stored to memory before
            the call (when ``needs_store``) and reloaded afterwards,
            because the variable is reachable from them outside the web.
    """

    name: str
    register: int
    is_entry: bool = False
    needs_store: bool = True
    wrap_callees: tuple = ()


@dataclass
class ProcedureDirectives:
    """Register allocation directives for one procedure.

    ``caller_prefix`` / ``subtree_caller_used`` implement the section
    7.6.2 caller-saves preallocation extension: when ``caller_prefix``
    is not ``None``, the procedure's allocator restricts its standard
    caller-saves usage to that prefix (plus RV and the argument
    registers it demonstrably touches), and callers may treat
    ``subtree_caller_used`` as the complete set of standard caller-saves
    registers a call to this procedure can clobber.
    """

    name: str
    free: frozenset = frozenset()
    caller: frozenset = frozenset(CALLER_SAVES)
    callee: frozenset = frozenset(CALLEE_SAVES)
    mspill: frozenset = frozenset()
    promoted: tuple = ()
    is_cluster_root: bool = False
    caller_prefix: object = None  # Optional[tuple]
    subtree_caller_used: frozenset = frozenset(CALLER_SAVES)

    @property
    def reserved_web_registers(self) -> frozenset:
        """Registers dedicated to promoted globals in this procedure."""
        return frozenset(entry.register for entry in self.promoted)

    def validate(self) -> None:
        """Check the linkage-convention invariants of the usage sets."""
        free, caller, callee, mspill = (
            self.free, self.caller, self.callee, self.mspill
        )
        # Fast path for the common (valid) case, with no set built; the
        # slow path below is only entered to attribute a violation.
        if (
            free.isdisjoint(caller) and free.isdisjoint(callee)
            and free.isdisjoint(mspill) and caller.isdisjoint(callee)
            and caller.isdisjoint(mspill) and callee.isdisjoint(mspill)
            and not (mspill and not self.is_cluster_root)
        ):
            for entry in self.promoted:
                register = entry.register
                if (register in free or register in caller
                        or register in callee or register in mspill):
                    break
            else:
                return
        sets = {
            "free": self.free,
            "caller": self.caller,
            "callee": self.callee,
            "mspill": self.mspill,
        }
        names = list(sets)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                overlap = sets[a] & sets[b]
                if overlap:
                    raise ValueError(
                        f"{self.name}: {a} and {b} sets overlap: {overlap}"
                    )
        web_regs = self.reserved_web_registers
        for set_name, regs in sets.items():
            overlap = regs & web_regs
            if overlap:
                raise ValueError(
                    f"{self.name}: web-reserved registers appear in "
                    f"{set_name}: {overlap}"
                )
        if self.mspill and not self.is_cluster_root:
            raise ValueError(
                f"{self.name}: MSPILL is non-empty but the procedure is "
                f"not a cluster root"
            )


def default_directives(name: str) -> ProcedureDirectives:
    """The standard linkage convention (no interprocedural allocation)."""
    return ProcedureDirectives(name=name)


def directive_payload(directives: ProcedureDirectives) -> dict:
    """Canonical JSON-able form of one procedure's directives.

    The single source of truth for directive serialization: both the
    database's JSON round-trip and the per-module digests the
    scheduler keys its phase-2 cache on are built from it.
    """
    return {
        "free": sorted(directives.free),
        "caller": sorted(directives.caller),
        "callee": sorted(directives.callee),
        "mspill": sorted(directives.mspill),
        "is_cluster_root": directives.is_cluster_root,
        "caller_prefix": (
            list(directives.caller_prefix)
            if directives.caller_prefix is not None
            else None
        ),
        "subtree_caller_used": sorted(directives.subtree_caller_used),
        "promoted": [
            {
                "name": p.name,
                "register": p.register,
                "is_entry": p.is_entry,
                "needs_store": p.needs_store,
                "wrap_callees": sorted(p.wrap_callees),
            }
            for p in directives.promoted
        ],
    }


@dataclass
class WebRecord:
    """Analyzer census entry for one web (used by stats and Table 2)."""

    web_id: int
    variable: str
    nodes: frozenset
    entry_nodes: frozenset
    register: Optional[int] = None
    interferes_with: frozenset = frozenset()
    priority: float = 0.0
    discarded_reason: Optional[str] = None

    @property
    def colored(self) -> bool:
        return self.register is not None


@dataclass
class ClusterRecord:
    """Analyzer census entry for one cluster."""

    root: str
    members: frozenset  # non-root member names


@dataclass
class AnalyzerStatistics:
    """Whole-program census mirroring the paper's section 6.2 numbers."""

    eligible_globals: int = 0
    ineligible_globals: int = 0
    total_webs: int = 0
    webs_considered: int = 0
    webs_colored: int = 0
    webs_discarded_sparse: int = 0
    webs_discarded_single_low: int = 0
    webs_discarded_static_cross_module: int = 0
    clusters: int = 0
    cluster_nodes: int = 0

    @property
    def average_cluster_size(self) -> float:
        if self.clusters == 0:
            return 0.0
        # +1 counts the root itself as a member of its cluster.
        return self.cluster_nodes / self.clusters


class ProgramDatabase:
    """Maps procedure names to directives; answers with the standard
    convention for procedures the analyzer never saw (e.g. library code).

    The web census (:attr:`webs`) is built on first read: phase 2, the
    auditor and the daemon never read it, and decoding every web's
    procedure names costs about as much as the rest of the database.
    """

    def __init__(self):
        self.procedures: dict[str, ProcedureDirectives] = {}
        self.clusters: list[ClusterRecord] = []
        self.statistics = AnalyzerStatistics()
        self._webs: list[WebRecord] = []
        self._census: Optional[Callable[[], list]] = None

    @property
    def webs(self) -> list:
        """The :class:`WebRecord` census, in web order."""
        if self._census is not None:
            self._webs = self._census()
            self._census = None
        return self._webs

    def defer_webs(self, census: Callable[[], list]) -> None:
        """Make ``census()`` the web census, called on first read."""
        self._census = census

    def __getstate__(self) -> dict:
        # Copies and pickles carry the census itself, not the closure.
        self.webs
        return self.__dict__

    def put(self, directives: ProcedureDirectives) -> None:
        directives.validate()
        self.procedures[directives.name] = directives

    def get(self, name: str) -> ProcedureDirectives:
        if name in self.procedures:
            return self.procedures[name]
        return default_directives(name)

    def convention_volatile_registers(self) -> frozenset:
        """Registers the simulator's convention checker must not track:
        registers dedicated to promoted globals (callees rewrite them by
        design) and FREE-set registers (callees use them without
        save/restore — a dominating cluster root spilled them, which the
        per-call snapshot cannot see)."""
        volatile: set = set()
        for directives in self.procedures.values():
            volatile |= set(directives.reserved_web_registers)
            volatile |= set(directives.free)
            # CALLER additions beyond the standard convention come from
            # a cluster root's MSPILL set and behave like FREE here.
            from repro.target.registers import CALLER_SAVES

            volatile |= set(directives.caller) - set(CALLER_SAVES)
        return frozenset(volatile)

    def __contains__(self, name: str) -> bool:
        return name in self.procedures

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """Serialize the database (directives only) to JSON."""
        payload = {
            name: directive_payload(d)
            for name, d in self.procedures.items()
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def directive_digest(self, names) -> str:
        """Digest of the directives phase 2 would see for ``names``.

        ``names`` is the set of procedures one module's compilation can
        query (its own definitions plus its direct callees; see
        :func:`repro.backend.phase2.module_directive_names`).  Because
        :meth:`get` answers the standard convention for unknown names,
        a procedure with explicitly-default directives digests the same
        as an absent one — exactly the equivalence phase 2 observes.
        """
        payload = {
            name: directive_payload(self.get(name))
            for name in sorted(set(names))
        }
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "ProgramDatabase":
        """Deserialize a database written by :meth:`to_json`."""
        database = cls()
        for name, raw in json.loads(text).items():
            database.put(
                ProcedureDirectives(
                    name=name,
                    free=frozenset(raw["free"]),
                    caller=frozenset(raw["caller"]),
                    callee=frozenset(raw["callee"]),
                    mspill=frozenset(raw["mspill"]),
                    is_cluster_root=raw["is_cluster_root"],
                    caller_prefix=(
                        tuple(raw["caller_prefix"])
                        if raw.get("caller_prefix") is not None
                        else None
                    ),
                    subtree_caller_used=frozenset(
                        raw.get("subtree_caller_used", CALLER_SAVES)
                    ),
                    promoted=tuple(
                        PromotedGlobal(
                            name=p["name"],
                            register=p["register"],
                            is_entry=p["is_entry"],
                            needs_store=p["needs_store"],
                            wrap_callees=tuple(
                                p.get("wrap_callees", ())
                            ),
                        )
                        for p in raw["promoted"]
                    ),
                )
            )
        return database
