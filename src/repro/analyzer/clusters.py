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
from repro.analysis.packed import PackedGraph
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
    """Find all clusters; returns them in discovery (top-down) order.

    Runs on the node indices of :class:`PackedGraph` (index order is
    name order); only the clusters found are named.
    """
    options = options or ClusterOptions()
    if dominators is None:
        dominators = graph.dominator_tree()
    packed = PackedGraph.of(graph)
    names = packed.names
    index_of = packed.index.index_of
    # The immediate dominator of each node, -1 for start nodes and
    # unreachable nodes.
    idom = [-1] * len(names)
    for i, name in enumerate(names):
        parent = dominators.immediate_dominator(name)
        if parent is not None:
            idom[i] = index_of[parent]
    reachable = [False] * len(names)
    for name in dominators.reachable_nodes:
        reachable[index_of[name]] = True
    recursive = [i in successors for i, successors in enumerate(packed.succ)]

    roots = _select_roots(
        graph, packed, idom, reachable, recursive, profile, options
    )
    nearest_root = _nearest_dominating_roots(idom, roots)

    clusters: list[Cluster] = []
    for root in range(len(names)):
        if roots[root]:
            members = _grow_cluster(packed, root, nearest_root, recursive)
            if members:
                clusters.append(Cluster(
                    names[root], frozenset(map(names.__getitem__, members))
                ))
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
    packed: PackedGraph,
    idom: list,
    reachable: list,
    recursive: list,
    profile,
    options: ClusterOptions,
) -> list:
    """Per node index, whether the node is a cluster root."""
    from repro.callgraph.graph import EXTERNAL_CALLER

    names = packed.names
    roots = [False] * len(names)
    tracer = current_tracer()
    for i, successors in enumerate(packed.succ):
        if not reachable[i]:
            continue
        name = names[i]
        if name == EXTERNAL_CALLER:
            # The partial-graph pseudo caller is not a real procedure;
            # it cannot execute spill code.
            continue
        if recursive[i]:
            # A self-recursive root would place a recursive cycle inside
            # its own cluster (section 4.2.2's correctness rule).
            if tracer.enabled:
                tracer.event(
                    "cluster-root-candidate", name=name,
                    accepted=False, reason="self-recursive",
                )
            continue
        dominated_successors = [j for j in successors if idom[j] == i]
        if not dominated_successors:
            continue
        incoming = _incoming_weight(graph, name, profile, options)
        outgoing = sum(
            graph.edge_weight(name, names[j], profile)
            for j in dominated_successors
        )
        accepted = outgoing > incoming * options.root_benefit_ratio
        roots[i] = accepted
        if tracer.enabled:
            tracer.event(
                "cluster-root-candidate",
                name=name,
                accepted=accepted,
                incoming=incoming,
                outgoing=outgoing,
                ratio=options.root_benefit_ratio,
                dominated_successors=sorted(
                    names[j] for j in dominated_successors
                ),
                reason=(
                    None if accepted
                    else "outgoing-below-incoming-threshold"
                ),
            )
    return roots


def _nearest_dominating_roots(idom: list, roots: list) -> list:
    """For each node, the nearest strict dominator that is a root (-1
    for none)."""
    nearest = [-1] * len(idom)
    for i in range(len(idom)):
        current = idom[i]
        while current >= 0:
            if roots[current]:
                nearest[i] = current
                break
            current = idom[current]
    return nearest


def _grow_cluster(
    packed: PackedGraph, root: int, nearest_root: list, recursive: list
) -> list:
    """The non-root members of ``root``'s cluster.

    A node joins once every one of its predecessors has (the root
    counts as joined), unless the root is not its nearest dominating
    root, it calls itself, or it calls the root.  That last test is the
    whole of the no-recursive-cycle rule: every member joined after all
    of its predecessors, so no member can be on a cycle inside the
    cluster that avoids the root, and a cycle through the root enters
    it along an edge from a member.  Each condition either holds for
    good or, as more nodes join, only comes to hold, so the cluster is
    the same in whatever order nodes join.
    """
    succ = packed.succ
    pred = packed.pred
    members: list = []
    waiting: dict = {}  # node -> predecessors yet to join
    stack = [root]
    while stack:
        for j in succ[stack.pop()]:
            if nearest_root[j] != root or recursive[j] or root in succ[j]:
                continue
            left = waiting.get(j, len(pred[j])) - 1
            if left:
                waiting[j] = left
            else:
                members.append(j)
                stack.append(j)
    return members


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
