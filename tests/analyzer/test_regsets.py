"""Register usage set computation tests (paper sections 4.2.3-4.2.4)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.packed import PackedGraph
from repro.analyzer import regsets
from repro.analyzer.clusters import identify_clusters
from repro.analyzer.regsets import (
    RegisterSets,
    check_register_set_invariants,
    compute_register_sets,
)
from repro.target.registers import CALLEE_SAVES, CALLER_SAVES
from tests.analysis import set_kernels
from tests.support import build_graph


def reserved_masks(graph, web_reserved):
    """``name -> registers`` as ``compute_register_sets``' per-node
    masks (None for none)."""
    if not web_reserved:
        return None
    return [
        sum(1 << register for register in web_reserved.get(name, ()))
        for name in PackedGraph.of(graph).names
    ]


def sets_by_name(graph, sets):
    """``compute_register_sets``' per-node result keyed by name."""
    return dict(zip(PackedGraph.of(graph).names, sets))


def analyze(procs, globals_=(), web_reserved=None):
    graph, _ = build_graph(procs, globals_)
    dominators = graph.dominator_tree()
    clusters = identify_clusters(graph, dominators)
    sets = sets_by_name(graph, compute_register_sets(
        graph, clusters, dominators, reserved_masks(graph, web_reserved)
    ))
    roots = {c.root for c in clusters}
    check_register_set_invariants(sets, roots)
    return graph, clusters, sets


def test_no_clusters_standard_convention():
    graph, clusters, sets = analyze(
        {"main": {"calls": {"leaf": 1}}, "leaf": {}}
    )
    for name in graph.nodes:
        rs = sets[name]
        if not clusters or name not in {c.root for c in clusters}:
            assert rs.caller >= set(CALLER_SAVES)


def test_member_gets_free_registers_root_gets_mspill():
    graph, clusters, sets = analyze(
        {
            "main": {"calls": {"s": 50, "t": 50}},
            "s": {"need": 2},
            "t": {"need": 3},
        }
    )
    (cluster,) = clusters
    assert cluster.root == "main"
    assert len(sets["s"].free) == 2
    assert len(sets["t"].free) == 3
    # Every FREE register in a member is spilled by the root.
    assert sets["s"].free <= sets["main"].mspill
    assert sets["t"].free <= sets["main"].mspill


def test_members_with_no_need_get_nothing():
    graph, clusters, sets = analyze(
        {
            "main": {"calls": {"s": 50}},
            "s": {"need": 0},
        }
    )
    assert sets["s"].free == set()
    assert sets["main"].mspill == set()


def test_sibling_sharing_of_spilled_registers():
    # The paper: "R could spill a single set of registers that could be
    # used by both S and T."  Siblings may share FREE registers.
    graph, clusters, sets = analyze(
        {
            "main": {"calls": {"s": 50, "t": 50}},
            "s": {"need": 2},
            "t": {"need": 2},
        }
    )
    assert sets["s"].free == sets["t"].free
    assert len(sets["main"].mspill) == 2


def test_caller_callee_free_disjoint_along_paths():
    # K calls M: FREE[M] must not overlap FREE[K] (K holds values in its
    # FREE registers across the call).
    graph, clusters, sets = analyze(
        {
            "main": {"calls": {"k": 50}},
            "k": {"calls": {"m": 50}, "need": 2},
            "m": {"need": 2},
        }
    )
    assert sets["k"].free
    assert sets["m"].free
    assert not (sets["k"].free & sets["m"].free)


def test_figure7_caller_post_pass():
    # Diamond: J -> K, L -> M.  M needs registers; K does not use them,
    # so MSPILL[J] registers still available at K become extra
    # caller-saves registers there.
    graph, clusters, sets = analyze(
        {
            "main": {"calls": {"j": 1}},
            "j": {"calls": {"k": 50, "l": 50}},
            "k": {"calls": {"m": 50}, "need": 1},
            "l": {"calls": {"m": 50}, "need": 2},
            "m": {"need": 1},
        }
    )
    j_sets = sets["j"]
    assert j_sets.mspill  # spill code hoisted to J
    extra_caller_k = sets["k"].caller - set(CALLER_SAVES)
    assert extra_caller_k  # K gained caller-saves use of J's spills
    assert extra_caller_k <= j_sets.mspill
    # And those registers are callee-saves by convention.
    assert extra_caller_k <= set(CALLEE_SAVES)


def test_nested_cluster_spill_motion_moves_up():
    # main -> mid -> leaves; both are roots; mid's MSPILL migrates into
    # main's MSPILL because the registers are still available at mid.
    graph, clusters, sets = analyze(
        {
            "main": {"calls": {"mid": 50}},
            "mid": {"calls": {"leaf1": 50, "leaf2": 50}},
            "leaf1": {"need": 1},
            "leaf2": {"need": 1},
        }
    )
    by_root = {c.root: c for c in clusters}
    assert "main" in by_root and "mid" in by_root
    # The leaves' free registers end up spilled at main, not mid.
    leaf_free = sets["leaf1"].free | sets["leaf2"].free
    assert leaf_free
    assert leaf_free <= sets["main"].mspill
    assert not (leaf_free & sets["mid"].mspill)


def test_nested_root_own_callee_becomes_free():
    # mid needs registers of its own; as a member of main's cluster its
    # CALLEE registers become FREE (main spills them).
    graph, clusters, sets = analyze(
        {
            "main": {"calls": {"mid": 50}},
            "mid": {"calls": {"leaf": 50}, "need": 2},
            "leaf": {"need": 1},
        }
    )
    assert len(sets["mid"].free) == 2
    assert sets["mid"].free <= sets["main"].mspill


def test_web_reserved_registers_never_distributed():
    reserved_reg = max(CALLEE_SAVES)
    graph, clusters, sets = analyze(
        {
            "main": {"calls": {"s": 50}},
            "s": {"need": len(CALLEE_SAVES)},
        },
        web_reserved={"s": {reserved_reg}},
    )
    assert reserved_reg not in sets["s"].free
    assert reserved_reg not in sets["s"].callee
    assert reserved_reg not in sets["main"].mspill
    assert reserved_reg not in sets["main"].callee


def test_non_cluster_nodes_keep_standard_sets():
    graph, clusters, sets = analyze(
        {
            "main": {"calls": {"s": 50, "cold": 1}},
            "s": {"need": 1},
            "cold": {"calls": {}},
        }
    )
    # cold is not in the cluster (called rarely)... whether it is or not,
    # its sets must satisfy the convention; if not a member, they are
    # exactly standard.
    in_cluster = any("cold" in c.members for c in clusters)
    if not in_cluster:
        assert sets["cold"].caller == set(CALLER_SAVES)
        assert sets["cold"].free == set()


def test_need_capped_by_available_registers():
    graph, clusters, sets = analyze(
        {
            "main": {"calls": {"s": 50}},
            "s": {"need": 99},
        }
    )
    assert len(sets["s"].free) <= len(CALLEE_SAVES)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_register_set_invariants_on_random_graphs(seed):
    rng = random.Random(seed)
    size = rng.randint(3, 12)
    names = [f"p{i}" for i in range(size)]
    procs = {}
    for i, name in enumerate(names):
        calls = {}
        for _ in range(rng.randint(0, 3)):
            if names[i + 1:] and rng.random() < 0.9:
                target = rng.choice(names[i + 1:])
                calls[target] = rng.randint(1, 200)
        procs[name] = {"calls": calls, "need": rng.randint(0, 6)}
    web_reserved = {}
    if rng.random() < 0.5:
        web_reserved[rng.choice(names)] = {max(CALLEE_SAVES)}
    graph, _ = build_graph(procs)
    dominators = graph.dominator_tree()
    clusters = identify_clusters(graph, dominators)
    sets = sets_by_name(graph, compute_register_sets(
        graph, clusters, dominators, reserved_masks(graph, web_reserved)
    ))
    roots = {c.root for c in clusters}
    check_register_set_invariants(sets, roots)
    # FREE registers of a callee never overlap FREE of a caller on an
    # edge inside any cluster (the paths-disjointness invariant).
    for cluster in clusters:
        for name in cluster.all_nodes:
            for callee in graph.nodes[name].successors:
                if callee in cluster.all_nodes:
                    assert not (sets[name].free & sets[callee].free), (
                        name, callee,
                    )


# -- the invariant checker itself must have teeth -----------------------
#
# Each test below hands check_register_set_invariants a directive
# assignment violating exactly one rule and asserts the checker refuses
# it; a checker that silently accepts any of these would let the
# analyzer ship contradictory directives to phase 2.


def _sets(**kwargs):
    base = dict(free=set(), caller=set(), callee=set(), mspill=set())
    base.update(kwargs)
    return {"p": RegisterSets(**base)}


def test_invariant_rejects_overlapping_sets():
    reg = min(CALLEE_SAVES)
    with pytest.raises(AssertionError, match="overlap"):
        check_register_set_invariants(
            _sets(free={reg}, callee={reg}), roots=set()
        )


def test_invariant_rejects_mspill_at_non_root():
    reg = min(CALLEE_SAVES)
    with pytest.raises(AssertionError, match="non-root"):
        check_register_set_invariants(_sets(mspill={reg}), roots=set())
    # The same assignment at a root is legal.
    check_register_set_invariants(_sets(mspill={reg}), roots={"p"})


@pytest.mark.parametrize("label", ["free", "callee", "mspill"])
def test_invariant_rejects_caller_saves_leakage(label):
    reg = min(CALLER_SAVES)
    assert reg not in CALLEE_SAVES
    sets = _sets(**{label: {reg}})
    with pytest.raises(AssertionError, match="non-callee-saves"):
        check_register_set_invariants(sets, roots={"p"})


def test_invariant_rejects_unearned_extra_caller():
    extra = min(CALLEE_SAVES)
    sets = {
        "root": RegisterSets(
            free=set(), caller=set(), callee=set(), mspill=set()
        ),
        "p": RegisterSets(
            free=set(),
            caller=set(CALLER_SAVES) | {extra},
            callee=set(),
            mspill=set(),
        ),
    }
    with pytest.raises(AssertionError, match="MSPILL"):
        check_register_set_invariants(sets, roots={"root"})
    # Once a root actually spills the register, the grant is earned.
    sets["root"] = sets["root"]._replace(mspill={extra})
    check_register_set_invariants(sets, roots={"root"})


def test_invariant_rejects_web_reserved_in_any_set():
    reg = max(CALLEE_SAVES)
    for label in ("free", "caller", "callee", "mspill"):
        sets = _sets(**{label: {reg}})
        roots = {"p"}  # legitimizes mspill placement
        with pytest.raises(AssertionError, match="web-reserved"):
            check_register_set_invariants(
                sets, roots, web_reserved={"p": {reg}}
            )
    # Absent from every set: fine.
    check_register_set_invariants(
        _sets(), {"p"}, web_reserved={"p": {reg}}
    )


# -- worklist rewrite equivalence ---------------------------------------
#
# compute_register_sets orders cluster members with a Kahn worklist over
# node indices; the set-based oracle keeps the original sweep, which
# re-sorts and re-scans the whole pending set after every node.  The
# rewrite must be a pure strength reduction: identical RegisterSets,
# node for node.


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_worklist_matches_reference_sweep_on_random_graphs(seed):
    rng = random.Random(seed ^ 0x5EED)
    size = rng.randint(3, 14)
    names = [f"p{i}" for i in range(size)]
    procs = {}
    for i, name in enumerate(names):
        calls = {}
        for _ in range(rng.randint(0, 3)):
            if names[i + 1:]:
                calls[rng.choice(names[i + 1:])] = rng.randint(1, 200)
        procs[name] = {"calls": calls, "need": rng.randint(0, 6)}
    web_reserved = {}
    if rng.random() < 0.5:
        web_reserved[rng.choice(names)] = {max(CALLEE_SAVES)}
    graph, _ = build_graph(procs)
    dominators = graph.dominator_tree()
    clusters = identify_clusters(graph, dominators)
    masks = reserved_masks(graph, web_reserved)
    new = compute_register_sets(graph, clusters, dominators, masks)
    old = set_kernels.compute_register_sets(
        graph, clusters, dominators, masks
    )
    assert new == old


@pytest.mark.parametrize("workload", ["dhrystone", "othello", "paopt"])
def test_worklist_matches_reference_sweep_on_workloads(workload):
    from repro import run_phase1
    from repro.callgraph.graph import CallGraph
    from repro.workloads import get_workload

    phase1 = run_phase1(get_workload(workload).sources)
    summaries = [result.summary for result in phase1]
    graph = CallGraph.build(summaries, None)
    graph.normalize_weights(None)
    dominators = graph.dominator_tree()
    clusters = identify_clusters(graph, dominators)
    assert clusters, "benchmark workloads must form clusters"
    new = compute_register_sets(graph, clusters, dominators)
    old = set_kernels.compute_register_sets(graph, clusters, dominators)
    assert new == old


def test_bottom_up_order_on_a_deep_dominator_chain():
    """A chain of 400 nested clusters whose names grow with their
    depth, with a side leaf under every link: the memoized depths give
    the oracle's whole-chain order, deepest (last by name) first, and
    the register sets match the oracle's."""
    depth = 400
    chain = [f"p{k:04d}" for k in range(depth)]
    procs = {}
    for k, name in enumerate(chain):
        calls = {f"leaf{k:04d}": 1}
        if k + 1 < depth:
            calls[chain[k + 1]] = 2
        procs[name] = {"calls": calls, "need": k % 7}
        procs[f"leaf{k:04d}"] = {"need": (k * 3) % 5}
    graph, _ = build_graph(procs)
    dominators = graph.dominator_tree()
    clusters = identify_clusters(graph, dominators)
    assert len(clusters) > depth // 2
    order = [c.root for c in regsets._bottom_up(clusters, dominators)]
    assert order == [
        c.root for c in set_kernels._bottom_up(clusters, dominators)
    ]
    assert order == sorted(order, reverse=True)
    assert compute_register_sets(graph, clusters, dominators) == (
        set_kernels.compute_register_sets(graph, clusters, dominators)
    )
