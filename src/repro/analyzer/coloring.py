"""Web coloring: assigning callee-saves registers to webs.

Three strategies, matching the configurations of the paper's Table 4:

* **priority coloring** (configs C/F) — webs are sorted by a priority
  that weighs the dynamic references saved inside the web against the
  load/store traffic added at web entry nodes, then greedily colored out
  of a fixed pool of N callee-saves registers (the paper reserved 6);
* **greedy coloring** (config D) — tries to color as many webs as
  possible *without* reserving any of the callee-saves registers required
  by any individual member procedure: each web may only use registers
  beyond its members' own estimated callee-saves demand, but the pool is
  the full callee-saves file;
* **blanket promotion** (config E) — the [Wall 86] comparison: the N most
  frequently referenced eligible globals each get a register dedicated
  over the *entire* program.

Register numbering: web registers are taken from the top of the
callee-saves file downward, which keeps them maximally out of the way of
the spill-code-motion preallocation (which prefers low-numbered
callee-saves registers first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from repro.analysis.packed import iter_bits
from repro.analyzer.interference import WebInterferenceGraph
from repro.analyzer.webs import Web, node_terms
from repro.callgraph.graph import CallGraph
from repro.obs.tracer import current_tracer
from repro.target.registers import CALLEE_SAVES

# Cost/benefit weights for the priority heuristic: a promoted reference
# saves the address setup + memory access (2 instructions); each call of
# a web entry node costs an entry load and (usually) an exit store plus
# the save/restore of the dedicated register.
REFERENCE_GAIN = 2.0
ENTRY_CALL_COST = 4.0


def web_register_pool(count: int) -> list:
    """The ``count`` callee-saves registers reserved for web coloring."""
    return sorted(CALLEE_SAVES, reverse=True)[:count]


def web_priority_parts(web: Web, graph: CallGraph) -> tuple:
    """The ``(benefit, entry_cost)`` pair behind a web's priority."""
    terms = node_terms(graph, web.names)
    return _priority_parts(web, terms.refs, terms.priced)


def _priority_parts(web: Web, refs_of: list, priced: list) -> tuple:
    """:func:`web_priority_parts` on the ``refs`` and ``priced`` lists of
    the graph's :func:`node_terms`.

    Both accumulations use :func:`math.fsum`, whose result is independent
    of summation order: ``web.members`` is a set, so its iteration order
    depends on how the set was built, and the priority (and everything
    downstream of its ordering) must not.  Plain ``sum`` would round
    differently and could move priorities, and with them the database
    bytes.  A one-member web has at most one term per sum, and the
    ``fsum`` of one term is that term, so it skips the lists.
    """
    variable = web.variable
    members = web.members
    if len(members) == 1:
        (i,) = members
        refs = refs_of[i].get(variable, 0)
        weight = priced[i]
        return (
            REFERENCE_GAIN * refs * weight if refs else 0.0,
            ENTRY_CALL_COST * weight if i in web.entries else 0.0,
        )
    benefits = []
    for i in members:
        refs = refs_of[i].get(variable, 0)
        if refs:
            benefits.append(REFERENCE_GAIN * refs * priced[i])
    benefit = math.fsum(benefits)
    entry_cost = math.fsum(
        [ENTRY_CALL_COST * priced[i] for i in web.entries]
    )
    return benefit, entry_cost


def compute_web_priority(web: Web, graph: CallGraph) -> float:
    """Estimated dynamic benefit of promoting ``web`` (section 4.1.3)."""
    benefit, entry_cost = web_priority_parts(web, graph)
    return benefit - entry_cost


def price_webs(webs: list, graph: CallGraph) -> None:
    """Set each web's ``priority`` to :func:`compute_web_priority`'s
    value, reading the graph's node terms once for all of them."""
    if not webs:
        return
    terms = node_terms(graph, webs[0].names)
    refs_of = terms.refs
    priced = terms.priced
    for web in webs:
        benefit, entry_cost = _priority_parts(web, refs_of, priced)
        web.priority = benefit - entry_cost


def _register_mask(registers) -> int:
    mask = 0
    for register in registers:
        mask |= 1 << register
    return mask


def _coloring_event(tracer, web, graph, colored, interference,
                    candidates) -> None:
    """Narrate one web's coloring outcome into the trace."""
    benefit, entry_cost = web_priority_parts(web, graph)
    base = {
        "web_id": web.web_id,
        "variable": web.variable,
        "priority": web.priority,
        "benefit": benefit,
        "entry_cost": entry_cost,
    }
    if web.discarded_reason == "non-positive-priority":
        tracer.event("web-rejected", reason=web.discarded_reason, **base)
    elif web.register is not None:
        tracer.event("web-colored", register=web.register, **base)
    else:
        winners = [
            {
                "web_id": colored[n].web_id,
                "variable": colored[n].variable,
                "register": colored[n].register,
            }
            for n in sorted(interference.neighbors(web))
            if n in colored and colored[n].register in candidates
        ]
        tracer.event(
            "web-uncolored",
            reason="lost-coloring",
            winners=winners,
            candidates=sorted(candidates),
            **base,
        )


def _color(webs: list, graph: CallGraph, allowed_of) -> None:
    """Price the live ``webs`` and color them in priority order, each
    with the highest register in the mask ``allowed_of(web)`` that no
    colored web sharing a node with it holds.

    Two live webs interfere exactly when they share a call-graph node
    (section 4.1.3), so one register mask per node index — the
    registers of the colored webs over that node — stands in for the
    interference graph: the registers a web's colored neighbors hold
    are the OR of its members' masks.  Both register pools run in
    descending register order, so the first free one is the highest
    set bit.  The graph itself is built only to name the winners in a
    traced run's ``web-uncolored`` events.
    """
    tracer = current_tracer()
    live = [web for web in webs if web.is_live]
    price_webs(live, graph)
    colored = interference = None
    if tracer.enabled:
        colored = {}
        interference = WebInterferenceGraph(live)
    taken_at = [0] * len(live[0].names) if live else []
    # Highest priority first, ties by web id: sorted by id, then by
    # priority alone, since a reversed sort keeps equal keys in order.
    live.sort(key=attrgetter("web_id"))
    live.sort(key=attrgetter("priority"), reverse=True)
    for web in live:
        allowed = 0
        if web.priority <= 0:
            web.discarded_reason = "non-positive-priority"
        else:
            allowed = allowed_of(web)
            members = web.members
            taken = 0
            for i in members:
                taken |= taken_at[i]
            free = allowed & ~taken
            if free:
                register = web.register = free.bit_length() - 1
                bit = 1 << register
                for i in members:
                    taken_at[i] |= bit
                if colored is not None:
                    colored[web.web_id] = web
        if colored is not None:
            _coloring_event(
                tracer, web, graph, colored, interference,
                set(iter_bits(allowed)),
            )


def color_webs_priority(
    webs: list,
    graph: CallGraph,
    num_registers: int = 6,
) -> None:
    """Priority-based coloring out of a fixed register pool.

    Mutates ``web.register`` (None stays for uncolored webs) and
    ``web.priority``.
    """
    pool = _register_mask(web_register_pool(num_registers))
    _color(webs, graph, lambda web: pool)


def color_webs_greedy(webs: list, graph: CallGraph) -> None:
    """Greedy coloring constrained by member procedures' register needs.

    A web may only use callee-saves registers beyond the maximum
    ``callee_saves_needed`` estimate over its member procedures — i.e. it
    never reserves a register some member wants for its own locals.  The
    pool is the entire callee-saves file, so *more* webs usually get
    colored, but webs whose members are register-hungry (often the most
    important ones) may fail — exactly the behaviour the paper reports
    for config D.
    """
    callee_sorted = sorted(CALLEE_SAVES, reverse=True)
    # allowed[need]: the highest ``len - need`` callee-saves registers
    # as a mask, those a web may use when a member needs ``need``.
    allowed = [
        _register_mask(callee_sorted[: len(callee_sorted) - need])
        for need in range(len(callee_sorted) + 1)
    ]
    needs = _callee_saves_needed(graph, webs[0].names) if webs else []

    def allowed_of(web: Web) -> int:
        members = web.members
        if len(members) == 1:
            (i,) = members
            need = needs[i]
        else:
            need = max([needs[i] for i in members])
        return allowed[need] if need < len(allowed) else 0

    _color(webs, graph, allowed_of)


def _callee_saves_needed(graph: CallGraph, names: tuple) -> list:
    """Each node's ``callee_saves_needed`` per node index, memoized on
    the graph beside the priority terms."""
    needs = getattr(graph, "_callee_saves_needed", None)
    if needs is None:
        nodes = graph.nodes
        needs = graph._callee_saves_needed = [
            nodes[name].summary.callee_saves_needed for name in names
        ]
    return needs


@dataclass
class BlanketPromotion:
    """One global dedicated a register over the whole program."""

    variable: str
    register: int
    needs_store: bool = True


def select_blanket_globals(webs: list, count: int = 6) -> list:
    """Pick the ``count`` hottest eligible globals (by summing the
    priorities of their webs, as the paper did by "analyzing the
    prioritized web list") and dedicate one register to each.  Reads
    each web's ``priority``, which the caller sets first."""
    totals: dict[str, float] = {}
    for web in webs:
        if web.discarded_reason not in (None, "sparse",
                                        "single-node-low-frequency"):
            continue
        totals[web.variable] = totals.get(web.variable, 0.0) + max(
            web.priority, 0.0
        )
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    pool = web_register_pool(count)
    selected = []
    for (variable, total), register in zip(ranked[:count], pool):
        if total <= 0:
            continue
        selected.append(BlanketPromotion(variable, register))
    return selected
