"""Spill code motion ablation (Figures 5-6, section 6.2).

Prints the cluster census for every workload — the paper reports average
cluster sizes of 2-4 nodes and attributes the modest spill-motion gains
partly to that — and benchmarks cluster identification plus register
usage set computation.
"""

from repro.analyzer.clusters import identify_clusters
from repro.analyzer.regsets import compute_register_sets
from repro.callgraph.graph import CallGraph

from repro import AnalyzerOptions
from repro.analyzer.driver import analyze_program

from conftest import print_table, record_note


def test_cluster_census(paper_results, benchmark):
    rows = []
    for name, results in paper_results.items():
        database = results.databases["A"]
        clusters = database.clusters
        if clusters:
            sizes = [len(c.members) + 1 for c in clusters]
            average = sum(sizes) / len(sizes)
            largest = max(sizes)
        else:
            average = largest = 0
        mspill_regs = sum(
            len(database.get(c.root).mspill) for c in clusters
        )
        rows.append(
            (
                name,
                len(clusters),
                f"{average:.1f}",
                largest,
                mspill_regs,
                f"{results.cycle_improvement('A'):.1f}%",
            )
        )
    print_table(
        "Cluster census (config A: spill code motion only)",
        ["Benchmark", "Clusters", "Avg size", "Largest", "MSPILL regs",
         "Cycle gain"],
        rows,
    )
    record_note("paper: average cluster size ranged between 2 and 4 "
                "nodes; spill motion alone gained 0-6%")

    # Shape: like the paper, spill motion alone is a small effect.
    for name, results in paper_results.items():
        assert -2.0 < results.cycle_improvement("A") < 15.0, name

    # Benchmark cluster identification + register set computation.
    summaries = [r.summary for r in paper_results["paopt"].phase1]
    graph = CallGraph.build(summaries)
    graph.normalize_weights()

    def spill_motion_analysis():
        dominators = graph.dominator_tree()
        clusters = identify_clusters(graph, dominators)
        return compute_register_sets(graph, clusters, dominators)

    sets = benchmark(spill_motion_analysis)
    assert sets


def test_mspill_only_at_cluster_roots(paper_results, benchmark):
    """Database invariant from section 4.2.3: 'the MSPILL sets will
    contain registers only for cluster root nodes.'"""
    for name, results in paper_results.items():
        database = results.databases["A"]
        roots = {c.root for c in database.clusters}
        for proc_name, directives in database.procedures.items():
            if directives.mspill:
                assert proc_name in roots, (name, proc_name)

    database = paper_results["paopt"].databases["A"]
    benchmark(lambda: [d.validate() for d in database.procedures.values()])


def test_profile_guided_spill_motion_comparable(paper_results, benchmark):
    """Section 6.2: profile data was 'inconclusive' for these
    algorithms — heuristic counts do about as well.  Check B stays
    within a few points of A."""
    rows = []
    for name, results in paper_results.items():
        a = results.cycle_improvement("A")
        b = results.cycle_improvement("B")
        rows.append((name, f"{a:.1f}%", f"{b:.1f}%"))
        assert abs(a - b) < 10.0, name
    print_table(
        "Heuristic (A) vs profile-guided (B) spill motion",
        ["Benchmark", "A", "B"],
        rows,
    )

    results = paper_results["dhrystone"]
    summaries = [r.summary for r in results.phase1]
    benchmark(
        analyze_program, summaries,
        AnalyzerOptions.config("B", results.profile),
    )
