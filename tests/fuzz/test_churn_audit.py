"""Churn fuzzing: executables built across a chain of edits audit clean.

A seeded fuzz program is mutated step by step while one scheduler
recompiles it against its artifact cache; every link runs the post-link
auditor (``verify=True``), so each step's database must produce
directives the generated code — fresh or reused from the phase-2
cache — actually honors.  Mutants are analyzed, built, and audited —
never executed: call-edge mutations may create runtime recursion
(:meth:`FuzzProgramGenerator.mutate`).  The chain generator itself is
pinned too: deterministic per seed, with every edit kind reachable.
"""

import pytest

from repro import AnalyzerOptions
from repro.driver.scheduler import CompilationScheduler
from repro.verify.progen import FuzzProgramGenerator

STEPS = 8
SEEDS = (1, 4)


@pytest.fixture(scope="module")
def scheduler(tmp_path_factory):
    with CompilationScheduler(
        cache_dir=tmp_path_factory.mktemp("churn-cache"),
        verify=True,
    ) as sched:
        yield sched


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config", ["C", "D"])
def test_churned_programs_build_and_audit_clean(seed, config, scheduler):
    generator = FuzzProgramGenerator(seed)
    sources = generator.generate()
    options = AnalyzerOptions.config(config)

    for step in range(STEPS + 1):
        if step:
            sources = generator.mutate(sources, step)
        result = scheduler.compile_program(
            sources, analyzer_options=options
        )
        assert result.executable is not None, (seed, config, step)

        audit = scheduler.last_audit_report
        assert audit is not None and audit.ok, (
            seed, config, step, audit and audit.format()
        )
        assert audit.functions_checked == len(
            result.executable.function_ranges
        )


# -- the mutation chain itself ---------------------------------------------

CHAIN_STEPS = 20


@pytest.mark.parametrize("seed", (0, 7))
def test_mutation_chain_is_deterministic(seed):
    def final_sources():
        generator = FuzzProgramGenerator(seed)
        sources = generator.generate()
        for step in range(1, CHAIN_STEPS + 1):
            sources = generator.mutate(sources, step)
        return sources

    first = final_sources()
    assert first == final_sources()
    # ... and every step changed something analyzable at least once
    # over the chain: the final program differs from the seed program.
    assert first != FuzzProgramGenerator(seed).generate()


def test_mutation_kinds_all_reachable():
    """Across a modest seed sweep every mutation helper fires at least
    once, so the churn chains cover every edit kind."""
    fired = set()
    for seed in range(6):
        generator = FuzzProgramGenerator(seed)
        sources = generator.generate()
        for step in range(1, 11):
            before = sources
            sources = generator.mutate(sources, step)
            diff = "".join(
                text for module, text in sorted(sources.items())
                if before.get(module) != text
            )
            if f"mb{step}" in diff:
                fired.add("body")
            if f"pa{step}" in diff:
                fired.add("take-address")
            if "> 999983" in diff:
                fired.add("add-call")
            if "+= 0 + (" in diff:
                fired.add("remove-call")
    assert {"body", "take-address", "add-call", "remove-call"} <= fired
