"""Cluster identification tests (paper section 4.2, Figure 5)."""

import random

from hypothesis import given, settings, strategies as st

from repro.analysis.packed import PackedGraph
from repro.analyzer import clusters as clusters_module
from repro.analyzer.clusters import (
    Cluster,
    ClusterOptions,
    check_cluster_invariants,
    identify_clusters,
)
from tests.support import build_graph


def clusters_for(procs, globals_=(), **kwargs):
    graph, _ = build_graph(procs, globals_)
    dominators = graph.dominator_tree()
    clusters = identify_clusters(graph, dominators, **kwargs)
    check_cluster_invariants(graph, dominators, clusters)
    return graph, clusters


def test_hot_callees_form_cluster():
    # main calls helper pair very often: main is the root.
    graph, clusters = clusters_for(
        {
            "main": {"calls": {"s": 50, "t": 50}},
            "s": {},
            "t": {},
        }
    )
    assert len(clusters) == 1
    assert clusters[0].root == "main"
    assert clusters[0].members == {"s", "t"}


def test_cold_callees_do_not_form_cluster():
    # Members called less often than the root is: no benefit.
    graph, clusters = clusters_for(
        {
            "main": {"calls": {"mid": 100}},
            "mid": {"calls": {"leaf": 1}},
            "leaf": {},
        }
    )
    roots = {c.root for c in clusters}
    assert "mid" not in roots


def test_member_with_external_predecessor_excluded():
    # "shared" is called from both the would-be cluster and outside.
    graph, clusters = clusters_for(
        {
            "main": {"calls": {"root": 10, "outside": 1}},
            "root": {"calls": {"shared": 100}},
            "outside": {"calls": {"shared": 1}},
            "shared": {},
        }
    )
    for cluster in clusters:
        if cluster.root == "root":
            assert "shared" not in cluster.members


def test_recursive_procedure_not_in_cluster():
    graph, clusters = clusters_for(
        {
            "main": {"calls": {"rec": 100}},
            "rec": {"calls": {"rec": 1}},
        }
    )
    for cluster in clusters:
        assert "rec" not in cluster.members


def test_mutual_recursion_not_enclosed():
    graph, clusters = clusters_for(
        {
            "main": {"calls": {"a": 100}},
            "a": {"calls": {"b": 100}},
            "b": {"calls": {"a": 1}},
        }
    )
    # a and b form a cycle; no cluster may contain the whole cycle.
    for cluster in clusters:
        assert not ({"a", "b"} <= cluster.all_nodes)


def test_clusters_within_cycles_allowed():
    # The paper: clusters can live inside larger call-graph cycles.
    graph, clusters = clusters_for(
        {
            "main": {"calls": {"j": 10}},
            "j": {"calls": {"k": 100, "main": 1}},  # j->main closes a cycle
            "k": {},
        }
    )
    assert any(c.root == "j" and "k" in c.members for c in clusters)


def test_nested_clusters_child_root_is_parent_leaf():
    graph, clusters = clusters_for(
        {
            "main": {"calls": {"mid": 50}},
            "mid": {"calls": {"leaf1": 50, "leaf2": 50}},
            "leaf1": {},
            "leaf2": {},
        }
    )
    by_root = {c.root: c for c in clusters}
    assert "main" in by_root and "mid" in by_root
    assert by_root["main"].members == {"mid"}
    assert by_root["mid"].members == {"leaf1", "leaf2"}


def test_nearest_root_claims_node():
    # "deep" is dominated by both roots; it belongs to the nearest (mid).
    graph, clusters = clusters_for(
        {
            "main": {"calls": {"mid": 50}},
            "mid": {"calls": {"deep": 50}},
            "deep": {},
        }
    )
    by_root = {c.root: c for c in clusters}
    assert "deep" in by_root["mid"].members
    assert "deep" not in by_root.get(
        "main", Cluster("main", set())
    ).members


def test_root_benefit_ratio_respected():
    procs = {
        "main": {"calls": {"s": 5}},
        "s": {},
    }
    _, eager = clusters_for(procs, options=ClusterOptions(
        root_benefit_ratio=1.0))
    _, reluctant = clusters_for(procs, options=ClusterOptions(
        root_benefit_ratio=100.0))
    assert eager and not reluctant


def test_diamond_cluster():
    # Figure 7 shape: J -> K, L; K, L -> M.
    graph, clusters = clusters_for(
        {
            "main": {"calls": {"j": 1}},
            "j": {"calls": {"k": 50, "l": 50}},
            "k": {"calls": {"m": 50}},
            "l": {"calls": {"m": 50}},
            "m": {},
        }
    )
    by_root = {c.root: c for c in clusters}
    assert by_root["j"].members == {"k", "l", "m"}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_cluster_invariants_on_random_graphs(seed):
    rng = random.Random(seed)
    size = rng.randint(3, 14)
    names = [f"p{i}" for i in range(size)]
    procs = {}
    for i, name in enumerate(names):
        calls = {}
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.85 and names[i + 1:]:
                target = rng.choice(names[i + 1:])
            else:
                target = rng.choice(names)
            if target != name or rng.random() < 0.2:
                calls[target] = rng.randint(1, 200)
        procs[name] = {"calls": calls}
    graph, _ = build_graph(procs)
    dominators = graph.dominator_tree()
    clusters = identify_clusters(graph, dominators)
    check_cluster_invariants(graph, dominators, clusters)


# -- cluster growth against the round-based fixpoint --------------------
#
# ``_grow_cluster`` admits a node once its last predecessor has joined
# and tests only the node's edge to the root for the recursive-cycle
# rule.  The fixpoint below is the growth it replaced: rounds over the
# sorted frontier until nothing joins, with a full in-cluster cycle
# search per candidate.  Both must grow the same cluster from every
# root.


def _fixpoint_growth(graph, root, nearest_root, self_recursive):
    cluster_nodes = {root}
    changed = True
    while changed:
        changed = False
        frontier = set()
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
            if _closes_cycle(graph, cluster_nodes, candidate):
                continue
            cluster_nodes.add(candidate)
            changed = True
    return cluster_nodes - {root}


def _closes_cycle(graph, cluster_nodes, candidate):
    worklist = [
        s for s in graph.nodes[candidate].successors if s in cluster_nodes
    ]
    visited = set()
    while worklist:
        name = worklist.pop()
        if name == candidate:
            return True
        if name in visited:
            continue
        visited.add(name)
        for successor in graph.nodes[name].successors:
            if successor == candidate:
                return True
            if successor in cluster_nodes and successor not in visited:
                worklist.append(successor)
    return False


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_growth_matches_fixpoint_on_random_graphs(seed):
    rng = random.Random(seed ^ 0xC1)
    size = rng.randint(3, 16)
    names = [f"p{i:02d}" for i in range(size)]
    procs = {}
    for i, name in enumerate(names):
        calls = {}
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.8 and names[i + 1:]:
                target = rng.choice(names[i + 1:])
            else:
                target = rng.choice(names)
            calls[target] = rng.randint(1, 200)
        procs[name] = {"calls": calls}
    graph, _ = build_graph(procs)
    packed = PackedGraph.of(graph)
    dominators = graph.dominator_tree()
    index_of = packed.index.index_of
    idom = [
        index_of.get(dominators.immediate_dominator(name), -1)
        for name in packed.names
    ]
    recursive = [i in succ for i, succ in enumerate(packed.succ)]
    # Every reachable node a root: the most growth to compare.
    reachable = dominators.reachable_nodes
    roots = [
        name in reachable and not recursive[i]
        for i, name in enumerate(packed.names)
    ]
    nearest = clusters_module._nearest_dominating_roots(idom, roots)
    nearest_by_name = {
        packed.names[i]: packed.names[j]
        for i, j in enumerate(nearest) if j >= 0
    }
    self_recursive = {
        packed.names[i] for i, flag in enumerate(recursive) if flag
    }
    for root, is_root in enumerate(roots):
        if not is_root:
            continue
        grown = clusters_module._grow_cluster(
            packed, root, nearest, recursive
        )
        assert {packed.names[i] for i in grown} == _fixpoint_growth(
            graph, packed.names[root], nearest_by_name, self_recursive
        )
