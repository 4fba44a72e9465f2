"""Decision provenance: machine-readable reasons for every allocation
decision.

Every directive the analyzer writes into the
:class:`~repro.analyzer.database.ProgramDatabase` — and every
*rejection* along the way — is narrated into the ambient trace as a
typed event carrying the benefit/cost numbers that drove it.  This
module defines the reason-code vocabulary, and the query API that turns
a trace back into an explanation:

* :func:`explain_global` — why was this global promoted, and into which
  register — or why not: ineligible (and how), its webs screened out
  (and by which test), priority non-positive, or outcolored by which
  winning neighbor webs;
* :func:`explain_procedure` — a procedure's directives, cluster
  membership, spill-motion history, and (when the trace includes an
  ``execution`` event) its attributed runtime counters;
* :func:`cluster_owners` — the one rule attributing a procedure's
  runtime counters to a cluster root, shared by the report and the
  metrics fold.

Reason codes map to paper sections as documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro.obs.tracer import Tracer, read_trace

# -- reason codes ----------------------------------------------------------

#: Global is not a word-sized scalar (section 4.1.2 eligibility).
REASON_NOT_SCALAR_WORD = "not-scalar-word"
#: Some module computed the global's address (section 4.1.2).
REASON_ADDRESS_TAKEN = "address-taken"
#: The global appears in a module's alias set (section 4.1.2).
REASON_ALIASED = "aliased"
#: Options requested no global promotion at all (config A).
REASON_PROMOTION_DISABLED = "promotion-disabled"
#: Web screening (section 4.1.3): reasons copied verbatim from
#: ``Web.discarded_reason``.
REASON_SCREENED_EXTERNAL = "external-caller"
REASON_SCREENED_SPARSE = "sparse"
REASON_SCREENED_SINGLE_LOW = "single-node-low-frequency"
REASON_SCREENED_STATIC_CROSS = "static-cross-module-entry"
#: Coloring (section 4.1.4): estimated benefit did not cover the web
#: entry/exit transfer cost.
REASON_NON_POSITIVE_PRIORITY = "non-positive-priority"
#: Coloring: every candidate register was held by an interfering web of
#: higher priority (the *winners* named in the explanation).
REASON_LOST_COLORING = "lost-coloring"
#: Blanket promotion (config-E style): global not among the selected.
REASON_BLANKET_NOT_SELECTED = "blanket-not-selected"
#: Spill motion (section 4.2.3): a save stayed at the nested root
#: because its register is not available on all paths from the parent.
REASON_NOT_AVAILABLE_ALL_PATHS = "not-available-on-all-paths"

#: Event types the provenance queries consume (emitted by the analyzer
#: driver, coloring, clusters, regsets, scheduler, and simulator).
EVENT_TYPES = (
    "global-ineligible",
    "global-decision",
    "web-formed",
    "web-screened",
    "web-colored",
    "web-uncolored",
    "web-rejected",
    "cluster-root-candidate",
    "cluster-formed",
    "mspill-migrated",
    "mspill-kept",
    "directive",
    "module-phase1",
    "module-phase2",
    "link",
    "audit",
    "execution",
)


def _records_from(source) -> list:
    """Normalize a trace ``source`` to its record list."""
    if isinstance(source, Tracer):
        return source.records
    if isinstance(source, (list, tuple)):
        return list(source)
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return read_trace(source)
    raise TypeError(
        "expected a Tracer, a record list or a trace path, got "
        f"{type(source).__name__}"
    )


def events_of(records, type_) -> list:
    """All event payloads of one type, in ordinal order."""
    return [
        record["data"]
        for record in records
        if record.get("ev") == "event" and record.get("type") == type_
    ]


def cluster_owners(records) -> dict:
    """procedure name -> the cluster root its counters attribute to.

    Every ``cluster-formed`` member maps to its cluster's root, and
    every root maps to itself, even when nested inside a parent
    cluster: a root executes the saves migrated up to it (section
    4.2.3), so its traffic is its own.  Procedures in no cluster are
    absent.
    """
    clusters = events_of(records, "cluster-formed")
    owner: dict = {}
    for payload in clusters:
        for member in payload["members"]:
            owner[member] = payload["root"]
    for payload in clusters:
        owner[payload["root"]] = payload["root"]
    return owner


# -- explain_global --------------------------------------------------------


def _web_entry(payload, status, **extra) -> dict:
    entry = {
        "web_id": payload.get("web_id"),
        "status": status,
        "nodes": payload.get("nodes", []),
        "priority": payload.get("priority"),
        "benefit": payload.get("benefit"),
        "entry_cost": payload.get("entry_cost"),
        "register": payload.get("register"),
        "reason": payload.get("reason"),
        "winners": payload.get("winners", []),
    }
    entry.update(extra)
    return entry


def _explain_global_from_trace(records, name) -> dict:
    for payload in events_of(records, "global-ineligible"):
        if payload["name"] == name:
            return {
                "name": name,
                "status": "ineligible",
                "reasons": list(payload.get("reasons", [])),
                "webs": [],
                "registers": [],
            }
    webs = []
    for type_, status in (
        ("web-screened", "screened"),
        ("web-rejected", "rejected"),
        ("web-uncolored", "uncolored"),
        ("web-colored", "colored"),
    ):
        for payload in events_of(records, type_):
            if payload.get("variable") == name:
                webs.append(_web_entry(payload, status))
    webs.sort(key=lambda entry: entry.get("web_id") or 0)
    for payload in events_of(records, "global-decision"):
        if payload["name"] == name:
            return {
                "name": name,
                "status": payload["decision"],
                "mode": payload.get("mode"),
                "reasons": list(payload.get("reasons", [])),
                "registers": list(payload.get("registers", [])),
                "webs": webs,
            }
    return {
        "name": name,
        "status": "unknown",
        "reasons": ["not-in-trace"],
        "registers": [],
        "webs": webs,
    }


def explain_global(source, name: str) -> dict:
    """Explain the promotion decision for global ``name``.

    ``source`` is a trace: a :class:`~repro.obs.tracer.Tracer`, a
    record list, or a JSONL path; anything else raises
    :class:`TypeError`.
    """
    return _explain_global_from_trace(_records_from(source), name)


# -- explain_procedure -----------------------------------------------------


def explain_procedure(source, name: str) -> dict:
    """Explain a procedure's directives, cluster role, spill motion,
    and attributed runtime counters, from a trace as
    :func:`explain_global` takes it.  A procedure that no
    ``directive``, ``cluster-formed`` or ``execution`` record names is
    ``unknown`` with reason ``not-in-trace``."""
    records = _records_from(source)
    explanation = {
        "name": name,
        "directives": None,
        "cluster_root": None,
        "cluster_members": [],
        "spill_motion": [],
        "execution": None,
    }
    for payload in events_of(records, "directive"):
        if payload["procedure"] == name:
            explanation["directives"] = {
                key: value
                for key, value in payload.items()
                if key != "procedure"
            }
    explanation["cluster_root"] = cluster_owners(records).get(name)
    for payload in events_of(records, "cluster-formed"):
        if payload["root"] == name:
            explanation["cluster_members"] = list(payload["members"])
    for type_ in ("mspill-migrated", "mspill-kept"):
        for payload in events_of(records, type_):
            if payload.get("node") == name or (
                type_ == "mspill-migrated"
                and payload.get("cluster_root") == name
            ):
                entry = dict(payload)
                entry["event"] = type_
                explanation["spill_motion"].append(entry)
    for payload in events_of(records, "execution"):
        per_procedure = payload.get("per_procedure", {})
        if name in per_procedure:
            explanation["execution"] = per_procedure[name]
    if (
        explanation["directives"] is None
        and explanation["cluster_root"] is None
        and explanation["execution"] is None
    ):
        explanation["status"] = "unknown"
        explanation["reasons"] = ["not-in-trace"]
    return explanation


# -- formatting ------------------------------------------------------------


def _format_web(entry) -> list:
    lines = [
        f"  web #{entry['web_id']}: {entry['status']}"
        + (
            f" -> r{entry['register']}"
            if entry.get("register") is not None
            else ""
        )
    ]
    if entry.get("priority") is not None:
        parts = [f"priority={entry['priority']:.2f}"]
        if entry.get("benefit") is not None:
            parts.append(f"benefit={entry['benefit']:.2f}")
        if entry.get("entry_cost") is not None:
            parts.append(f"entry_cost={entry['entry_cost']:.2f}")
        lines.append("    " + " ".join(parts))
    if entry.get("nodes"):
        lines.append("    nodes: " + ", ".join(entry["nodes"]))
    if entry.get("reason"):
        lines.append(f"    reason: {entry['reason']}")
    for winner in entry.get("winners", []):
        lines.append(
            f"    lost to web #{winner['web_id']} "
            f"({winner['variable']}) holding r{winner['register']}"
        )
    return lines


def format_explanation(explanation: dict) -> str:
    """Render an :func:`explain_global` / :func:`explain_procedure`
    result as human-readable text."""
    lines = []
    if "webs" in explanation:  # global explanation
        header = f"global {explanation['name']}: {explanation['status']}"
        if explanation.get("registers"):
            header += " -> " + ", ".join(
                f"r{register}" for register in explanation["registers"]
            )
        lines.append(header)
        for reason in explanation.get("reasons", []):
            lines.append(f"  reason: {reason}")
        for entry in explanation.get("webs", []):
            lines.extend(_format_web(entry))
        if explanation.get("procedures"):
            lines.append(
                "  promoted in: " + ", ".join(explanation["procedures"])
            )
    else:  # procedure explanation
        header = f"procedure {explanation['name']}"
        if explanation.get("status"):
            header += f": {explanation['status']}"
        lines.append(header)
        for reason in explanation.get("reasons", []):
            lines.append(f"  reason: {reason}")
        if explanation.get("cluster_root"):
            role = (
                "cluster root"
                if explanation["cluster_root"] == explanation["name"]
                else f"member of cluster {explanation['cluster_root']}"
            )
            lines.append(f"  {role}")
            if explanation.get("cluster_members"):
                lines.append(
                    "  members: "
                    + ", ".join(explanation["cluster_members"])
                )
        directives = explanation.get("directives")
        if directives:
            for key in ("free", "caller", "callee", "mspill"):
                if key in directives:
                    regs = ", ".join(
                        f"r{register}" for register in directives[key]
                    )
                    lines.append(f"  {key.upper()}: {regs or '-'}")
            for promoted in directives.get("promoted", []):
                lines.append(
                    f"  promoted: {promoted['name']} -> "
                    f"r{promoted['register']}"
                    + (" (entry)" if promoted.get("is_entry") else "")
                )
        for entry in explanation.get("spill_motion", []):
            registers = ", ".join(
                f"r{register}" for register in entry.get("registers", [])
            )
            if entry["event"] == "mspill-migrated":
                lines.append(
                    f"  saves migrated up to {entry['cluster_root']}: "
                    f"{registers}"
                )
            else:
                lines.append(
                    f"  saves kept at {entry['node']}: {registers} "
                    f"({entry.get('reason')})"
                )
        execution = explanation.get("execution")
        if execution:
            lines.append(
                "  execution: "
                f"cycles={execution.get('cycles')} "
                f"memrefs={execution.get('loads', 0) + execution.get('stores', 0)} "
                f"save_restore={execution.get('save_restore')}"
            )
    return "\n".join(lines)
