"""Cluster identification for spill code motion (paper section 4.2).

A *cluster* is a call-graph region inside which the standard linkage
convention is suspended so that callee-saves save/restore code can move
from frequently-called members up to the cluster root:

1. the root dominates every member;
2. every predecessor of a non-root member is in the cluster (so the only
   way in is through the root);
3. a node joins only the cluster of its *nearest* dominating root;
4. no recursive call cycle may lie wholly within a cluster (a recursive
   procedure relies on the convention to protect its registers across the
   recursive call), though clusters may well sit inside larger cycles.

Root selection uses the paper's heuristic: a node is a candidate root
when its dominated successors are called more often than the node itself
is called (moving their spill code up then saves work).  Calls are
compared using normalized heuristic counts, or profiled counts when
available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.dominators import DominatorTree
from repro.callgraph.graph import CallGraph
from repro.obs.tracer import current_tracer


@dataclass
class Cluster:
    """One cluster: the root and its non-root members.

    Members may themselves be roots of nested clusters (they are then
    leaves of this cluster — spill code chains upward through them).
    """

    root: str
    members: set = field(default_factory=set)

    @property
    def all_nodes(self) -> set:
        return {self.root} | self.members

    def __repr__(self) -> str:
        return f"<cluster {self.root}: {sorted(self.members)}>"


@dataclass
class ClusterOptions:
    """Root-selection heuristic knobs."""

    # A node becomes a root when (calls to dominated successors) exceeds
    # (calls to the node itself) by this factor.
    root_benefit_ratio: float = 1.0
    # Start nodes (main) are treated as called once.
    start_node_incoming: float = 1.0


def identify_clusters(
    graph: CallGraph,
    dominators: Optional[DominatorTree] = None,
    profile=None,
    options: Optional[ClusterOptions] = None,
) -> list[Cluster]:
    """Find all clusters; returns them in discovery (top-down) order."""
    options = options or ClusterOptions()
    if dominators is None:
        dominators = graph.dominator_tree()
    reachable = dominators.reachable_nodes
    self_recursive = {
        name for name in graph.nodes if name in graph.nodes[name].successors
    }

    roots = _select_roots(graph, dominators, profile, options, reachable)
    nearest_root = _nearest_dominating_roots(graph, dominators, roots)

    clusters: list[Cluster] = []
    for root in sorted(roots):
        cluster = _grow_cluster(
            graph, root, nearest_root, self_recursive
        )
        if cluster.members:
            clusters.append(cluster)
    return clusters


def _incoming_weight(graph: CallGraph, name: str, profile,
                     options: ClusterOptions) -> float:
    node = graph.nodes[name]
    if not node.predecessors:
        return options.start_node_incoming
    total = 0.0
    for predecessor in node.predecessors:
        total += graph.edge_weight(predecessor, name, profile)
    return max(total, options.start_node_incoming)


def _select_roots(
    graph: CallGraph,
    dominators: DominatorTree,
    profile,
    options: ClusterOptions,
    reachable: set,
) -> set:
    roots: set = set()
    self_recursive = {
        name for name in graph.nodes if name in graph.nodes[name].successors
    }
    from repro.callgraph.graph import EXTERNAL_CALLER

    tracer = current_tracer()
    for name in sorted(graph.nodes):
        if name not in reachable:
            continue
        if name == EXTERNAL_CALLER:
            # The partial-graph pseudo caller is not a real procedure;
            # it cannot execute spill code.
            continue
        if name in self_recursive:
            # A self-recursive root would place a recursive cycle inside
            # its own cluster (section 4.2.2's correctness rule).
            if tracer.enabled:
                tracer.event(
                    "cluster-root-candidate", name=name,
                    accepted=False, reason="self-recursive",
                )
            continue
        dominated_successors = [
            s
            for s in graph.nodes[name].successors
            if s != name and dominators.immediate_dominator(s) == name
        ]
        if not dominated_successors:
            continue
        incoming = _incoming_weight(graph, name, profile, options)
        outgoing = sum(
            graph.edge_weight(name, s, profile)
            for s in dominated_successors
        )
        accepted = outgoing > incoming * options.root_benefit_ratio
        if accepted:
            roots.add(name)
        if tracer.enabled:
            tracer.event(
                "cluster-root-candidate",
                name=name,
                accepted=accepted,
                incoming=incoming,
                outgoing=outgoing,
                ratio=options.root_benefit_ratio,
                dominated_successors=sorted(dominated_successors),
                reason=(
                    None if accepted
                    else "outgoing-below-incoming-threshold"
                ),
            )
    return roots


def _nearest_dominating_roots(
    graph: CallGraph, dominators: DominatorTree, roots: set
) -> dict:
    """For each node, the nearest strict dominator that is a root."""
    nearest: dict = {}
    for name in graph.nodes:
        current = dominators.immediate_dominator(name)
        while current is not None:
            if current in roots:
                nearest[name] = current
                break
            current = dominators.immediate_dominator(current)
    return nearest


def _grow_cluster(
    graph: CallGraph,
    root: str,
    nearest_root: dict,
    self_recursive: set,
) -> Cluster:
    """Fixpoint growth: add candidates whose predecessors are all in the
    cluster, rejecting additions that would close a call cycle inside it."""
    cluster_nodes: set = {root}
    changed = True
    while changed:
        changed = False
        frontier: set = set()
        for name in cluster_nodes:
            frontier.update(graph.nodes[name].successors)
        for candidate in sorted(frontier - cluster_nodes):
            if nearest_root.get(candidate) != root:
                continue
            if candidate in self_recursive:
                continue
            predecessors = set(graph.nodes[candidate].predecessors)
            if not predecessors or not predecessors <= cluster_nodes:
                continue
            if _would_close_cycle(graph, cluster_nodes, candidate):
                continue
            cluster_nodes.add(candidate)
            changed = True
    # Frozen members let ClusterRecord share the set instead of copying
    # it.
    return Cluster(root, frozenset(cluster_nodes - {root}))


def _would_close_cycle(
    graph: CallGraph, cluster_nodes: set, candidate: str
) -> bool:
    """True if adding ``candidate`` creates a cycle in the induced call
    subgraph (i.e. some in-cluster successor path leads back to it)."""
    target = candidate
    worklist = [
        s for s in graph.nodes[candidate].successors if s in cluster_nodes
    ]
    visited: set = set()
    while worklist:
        name = worklist.pop()
        if name == target:
            return True
        if name in visited:
            continue
        visited.add(name)
        for successor in graph.nodes[name].successors:
            if successor == target:
                return True
            if successor in cluster_nodes and successor not in visited:
                worklist.append(successor)
    return False


def check_cluster_invariants(
    graph: CallGraph, dominators: DominatorTree, clusters: list
) -> None:
    """Assert the section 4.2.1 cluster properties.  Used by tests."""
    membership: dict = {}
    for cluster in clusters:
        for member in cluster.members:
            if member in membership:
                raise AssertionError(
                    f"{member} is a member of two clusters "
                    f"({membership[member]} and {cluster.root})"
                )
            membership[member] = cluster.root
    for cluster in clusters:
        for member in cluster.members:
            if not dominators.strictly_dominates(cluster.root, member):
                raise AssertionError(
                    f"cluster root {cluster.root} does not dominate "
                    f"member {member}"
                )
            predecessors = set(graph.nodes[member].predecessors)
            if not predecessors <= cluster.all_nodes:
                raise AssertionError(
                    f"member {member} of cluster {cluster.root} has "
                    f"predecessors outside the cluster: "
                    f"{predecessors - cluster.all_nodes}"
                )
        _assert_acyclic(graph, cluster.all_nodes, cluster.root)


def _assert_acyclic(graph: CallGraph, nodes: set, root: str) -> None:
    state: dict = {}

    def dfs(name: str) -> None:
        state[name] = "visiting"
        for successor in graph.nodes[name].successors:
            if successor not in nodes:
                continue
            if state.get(successor) == "visiting":
                raise AssertionError(
                    f"cluster {root} contains a recursive cycle through "
                    f"{successor}"
                )
            if successor not in state:
                dfs(successor)
        state[name] = "done"

    for name in sorted(nodes):
        if name not in state:
            dfs(name)
