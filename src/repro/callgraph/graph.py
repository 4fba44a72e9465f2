"""Program call graph built from summary files.

Nodes are procedures; edges carry estimated (or profiled) call
frequencies.  Indirect calls are handled conservatively (paper section
7.3): every procedure whose address has been computed anywhere in the
program is a potential target of every indirect call site.

The analyzer normalizes raw heuristic call counts over the whole graph
(section 6.2): absolute node weights are propagated top-down through the
SCC condensation, with extra weight on recursive components, so that a
procedure called from a hot loop deep in the program outweighs one called
once from ``main``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analysis.dominators import DominatorTree, compute_dominators
from repro.analysis.packed import PackedGraph
from repro.frontend.summary import ModuleSummary, ProcedureSummary

# Weight multiplier applied to members of recursive components, mirroring
# the paper's "increasing the weights on recursive arcs".
RECURSION_BOOST = 10.0
_MAX_WEIGHT = 1e15

# Pseudo-node standing for unknown callers of a *partial* call graph
# (paper section 7.2): it calls every exported procedure and, being an
# unknown party, may also make indirect calls to any address-taken
# procedure.  It is never given directives, never joins a web or a
# cluster, and never acts as a cluster root.
EXTERNAL_CALLER = "<external>"


@dataclass
class CallGraphNode:
    """One procedure in the program call graph."""

    name: str
    summary: ProcedureSummary
    successors: dict = field(default_factory=dict)  # callee -> local freq
    predecessors: dict = field(default_factory=dict)  # caller -> local freq
    weight: float = 0.0  # normalized absolute invocation estimate

    def __repr__(self) -> str:
        return f"<cgnode {self.name}>"


class CallGraph:
    """The whole-program call graph."""

    def __init__(self):
        self.nodes: dict[str, CallGraphNode] = {}
        self.indirect_targets: set[str] = set()

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        summaries: Iterable[ModuleSummary],
        exported: Optional[set] = None,
    ) -> "CallGraph":
        """Construct the graph from all modules' summary files.

        ``exported`` marks the program as a *partial* call graph
        (section 7.2): a pseudo :data:`EXTERNAL_CALLER` node calls every
        listed procedure (and, conservatively, every address-taken
        procedure), standing in for unknown outside callers.
        """
        graph = cls()
        for module_summary in summaries:
            for procedure in module_summary.procedures:
                if procedure.name in graph.nodes:
                    raise ValueError(
                        f"duplicate procedure {procedure.name!r} in summaries"
                    )
                graph.nodes[procedure.name] = CallGraphNode(
                    procedure.name, procedure
                )
        if exported is not None:
            from repro.frontend.summary import ProcedureSummary

            unknown = {p: 1 for p in exported if p in graph.nodes}
            graph.nodes[EXTERNAL_CALLER] = CallGraphNode(
                EXTERNAL_CALLER,
                ProcedureSummary(
                    name=EXTERNAL_CALLER,
                    module=EXTERNAL_CALLER,
                    calls=unknown,
                    makes_indirect_calls=True,
                ),
            )
        for node in graph.nodes.values():
            for target in node.summary.address_taken_procs:
                if target in graph.nodes:
                    graph.indirect_targets.add(target)
        for node in graph.nodes.values():
            for callee, frequency in node.summary.calls.items():
                if callee in graph.nodes:
                    node.successors[callee] = (
                        node.successors.get(callee, 0) + frequency
                    )
            if node.summary.makes_indirect_calls:
                indirect_freq = getattr(
                    node.summary, "indirect_call_freq", 1
                ) or 1
                for target in graph.indirect_targets:
                    node.successors[target] = (
                        node.successors.get(target, 0) + indirect_freq
                    )
        for node in graph.nodes.values():
            for callee, frequency in node.successors.items():
                graph.nodes[callee].predecessors[node.name] = frequency
        return graph

    # -- queries ---------------------------------------------------------

    def start_nodes(self) -> list[str]:
        """Nodes without predecessors (paper: every such node is a start
        node).  Falls back to ``main`` if the graph is fully cyclic."""
        starts = [
            name for name, node in self.nodes.items() if not node.predecessors
        ]
        if not starts and "main" in self.nodes:
            starts = ["main"]
        return sorted(starts)

    def successors(self, name: str) -> list[str]:
        return sorted(self.nodes[name].successors)

    def predecessors(self, name: str) -> list[str]:
        return sorted(self.nodes[name].predecessors)

    def dominator_tree(self) -> DominatorTree:
        """Dominators with every start node treated as a root."""
        return compute_dominators(
            self.nodes.keys(),
            self.start_nodes(),
            lambda name: self.nodes[name].successors.keys(),
        )

    # -- strongly connected components -------------------------------------

    def strongly_connected_components(self) -> list[list[str]]:
        """Tarjan's algorithm; components in reverse topological order.

        The components of :meth:`PackedGraph.components`, named.  The
        result is memoized (topology is immutable once built) and
        shared between callers — callers must not mutate it.
        """
        cached = getattr(self, "_scc_cache", None)
        if cached is None:
            packed = PackedGraph.of(self)
            names = packed.names
            cached = self._scc_cache = [
                [names[i] for i in component]
                for component in packed.components()
            ]
        return cached

    def recursive_nodes(self) -> set[str]:
        """Nodes on some recursive call chain (SCC > 1 or self loop)."""
        recursive: set[str] = set()
        for component in self.strongly_connected_components():
            if len(component) > 1:
                recursive.update(component)
        for name, node in self.nodes.items():
            if name in node.successors:
                recursive.add(name)
        return recursive

    # -- call count normalization -------------------------------------------

    def normalize_weights(self, profile=None) -> None:
        """Compute absolute node weights (``node.weight``).

        With profile data, weights are actual invocation counts.  Without,
        heuristic local frequencies are propagated top-down through the
        SCC condensation, boosting recursive components.
        """
        # Weight-derived caches must not survive a re-normalization.
        self._node_terms = None
        if profile is not None:
            for node in self.nodes.values():
                node.weight = float(profile.node_count(node.name))
            for start in self.start_nodes():
                self.nodes[start].weight = max(
                    self.nodes[start].weight, 1.0
                )
            return

        # On node indices; the components and each node's successors
        # keep their order, so every float sum runs in the same order.
        packed = PackedGraph.of(self)
        nodes = [self.nodes[name] for name in packed.names]
        components = packed.components()
        component_of = [0] * len(nodes)
        for comp_index, component in enumerate(components):
            for i in component:
                component_of[i] = comp_index

        weights = [0.0] * len(nodes)
        index_of = packed.index.index_of
        for start in self.start_nodes():
            weights[index_of[start]] = 1.0

        # Reverse topological order of SCCs -> process callers first.
        succ = packed.succ
        for component in reversed(components):
            first = component[0]
            is_recursive = len(component) > 1 or first in succ[first]
            if is_recursive:
                boost = RECURSION_BOOST
                for i in component:
                    weights[i] = min(weights[i] * boost or 0.0, _MAX_WEIGHT)
                # Distribute entry weight across the component: every
                # member is assumed to run as often as the component.
                total = sum(weights[i] for i in component)
                total = min(max(total, 1.0) * boost, _MAX_WEIGHT)
                for i in component:
                    weights[i] = max(weights[i], total)
            for i in component:
                node_weight = max(weights[i], 0.0)
                home = component_of[i]
                for callee, local_freq in zip(
                    succ[i], nodes[i].successors.values()
                ):
                    if component_of[callee] == home:
                        continue  # intra-component edges already handled
                    weights[callee] = min(
                        weights[callee] + node_weight * local_freq,
                        _MAX_WEIGHT,
                    )
        for node, weight in zip(nodes, weights):
            node.weight = weight

    def edge_weight(self, caller: str, callee: str,
                    profile=None) -> float:
        """Absolute estimated count for one call edge."""
        if profile is not None:
            counted = profile.edge_count(caller, callee)
            if counted:
                return float(counted)
            # The profile may miss conservative indirect edges; fall back
            # to a tiny heuristic weight so orderings stay total.
            return 0.0
        local = self.nodes[caller].successors.get(callee, 0)
        return self.nodes[caller].weight * local
