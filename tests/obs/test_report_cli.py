"""The ``repro-explain`` CLI end to end (on the fast workload)."""

import contextlib
import io
import json

import pytest

from repro.obs.report import main, render_report, report_data


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def dhrystone_c(tmp_path_factory):
    """A saved dhrystone config-C trace, whose clusters nest (``main``
    holds ``Proc_1``), and what ``metrics`` printed while saving it."""
    path = tmp_path_factory.mktemp("trace") / "dhrystone-C.jsonl"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "metrics", "--workload", "dhrystone", "--config", "C",
            "--save-trace", str(path),
        ])
    assert code == 0
    return path, out.getvalue()


def test_report_renders_paper_tables(capsys):
    code, out = _run(
        capsys, "report", "--workload", "dhrystone", "--config", "C",
        "--verify",
    )
    assert code == 0
    assert "Global promotion (paper Tables 1-2)" in out
    assert "Clusters (spill code motion" in out
    assert "Per-procedure execution" in out
    assert "Post-link audit" in out
    # Non-empty tables: known dhrystone globals and procedures appear.
    assert "Int_Glob" in out
    assert "promoted" in out
    assert "main" in out
    assert "violation_count=0" in out


def test_default_command_is_report(capsys):
    code, out = _run(
        capsys, "--workload", "dhrystone", "--config", "A",
    )
    assert code == 0
    assert "Global promotion" in out
    # Config A turns promotion off: everything is rejected with the
    # machine-readable reason.
    assert "promotion-disabled" in out


def test_why_promoted_global(capsys):
    code, out = _run(
        capsys, "why", "Int_Glob", "--workload", "dhrystone",
        "--config", "C",
    )
    assert code == 0
    assert "global Int_Glob: promoted" in out
    assert "colored -> r" in out


def test_why_unknown_global_fails(capsys):
    code, out = _run(
        capsys, "why", "no_such_global", "--workload", "dhrystone",
        "--config", "C",
    )
    assert code == 1
    assert "unknown" in out


def test_proc_unknown_procedure_fails(dhrystone_c, capsys):
    path, _out = dhrystone_c
    code, out = _run(capsys, "proc", "no_such_proc", "--from-trace", str(path))
    assert code == 1
    assert "procedure no_such_proc: unknown" in out
    assert "reason: not-in-trace" in out


def test_save_and_reload_trace_render_identically(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code, compiled_out = _run(
        capsys, "report", "--workload", "dhrystone", "--config", "C",
        "--save-trace", str(path),
    )
    assert code == 0
    code, reloaded_out = _run(
        capsys, "report", "--from-trace", str(path),
    )
    assert code == 0
    # Identical below the title line (which names the source).
    strip = lambda text: text.split("\n", 2)[2]  # noqa: E731
    assert strip(reloaded_out) == strip(compiled_out)


def test_json_report_is_machine_readable(capsys):
    code, out = _run(
        capsys, "report", "--workload", "dhrystone", "--config", "C",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["globals"], "web table must be non-empty"
    assert payload["clusters"], "cluster table must be non-empty"
    assert payload["web_stats"]["formed"] > 0
    assert payload["execution"]["procedures"]
    total = payload["execution"]["cycles"]
    assert sum(
        row["cycles"] for row in payload["execution"]["procedures"]
    ) == total


def test_proc_subcommand(capsys):
    code, out = _run(
        capsys, "proc", "main", "--workload", "dhrystone",
        "--config", "C",
    )
    assert code == 0
    assert "procedure main" in out
    assert "CALLER:" in out
    assert "execution: cycles=" in out


def test_metrics_subcommand(capsys):
    code, out = _run(
        capsys, "metrics", "--workload", "dhrystone", "--config", "C",
    )
    assert code == 0
    assert "# TYPE repro_stage_seconds_total counter" in out
    assert "# TYPE repro_run_cycles gauge" in out
    assert 'repro_procedure_cycles_total{procedure="main"}' in out
    assert "# TYPE repro_cluster_cycles_total counter" in out


def test_metrics_from_trace_prints_what_the_compile_printed(
    dhrystone_c, capsys
):
    path, compiled_out = dhrystone_c
    code, reloaded_out = _run(capsys, "metrics", "--from-trace", str(path))
    assert code == 0
    assert reloaded_out == compiled_out


def test_report_and_metrics_attribute_cycles_alike(dhrystone_c, capsys):
    """A cluster root owns its own cycles, even when nested, in the
    report and in the metrics alike."""
    path, _out = dhrystone_c
    code, out = _run(capsys, "report", "--from-trace", str(path), "--json")
    assert code == 0
    cluster_cycles = json.loads(out)["execution"]["cluster_cycles"]
    code, out = _run(capsys, "metrics", "--from-trace", str(path))
    assert code == 0
    prefix = 'repro_cluster_cycles_total{root="'
    samples = {
        line[len(prefix):].split('"}')[0]: int(line.split()[-1])
        for line in out.splitlines()
        if line.startswith(prefix)
    }
    assert samples == cluster_cycles
    assert {"main", "Proc_1"} <= set(samples)


def test_why_requires_name(capsys):
    with pytest.raises(SystemExit):
        main(["why"])


def test_render_report_empty_trace_degrades_gracefully():
    data = report_data([])
    assert data["globals"] == []
    assert data["clusters"] == []
    text = render_report([], title="empty")
    assert "(no eligible globals)" in text
    assert "(no clusters formed)" in text
