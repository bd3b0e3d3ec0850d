"""`repro lint` end to end: exit codes, formats, baseline workflow."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src"

BAD = str(FIXTURES / "span_hygiene_bad.py")
CLEAN = str(FIXTURES / "span_hygiene_clean.py")


def _lint(tmp_path, *argv):
    """Run `repro lint` with the baseline pointed away from the repo's
    committed file."""
    return main(["lint", *argv,
                 "--baseline", str(tmp_path / "baseline.json")])


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        assert _lint(tmp_path, CLEAN) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        assert _lint(tmp_path, BAD) == 1
        output = capsys.readouterr().out
        assert "span-hygiene" in output
        assert "4 findings" in output

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert _lint(tmp_path, str(tmp_path / "nope")) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert _lint(tmp_path, CLEAN, "--rules", "made-up") == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err
        # The usage error lists every valid rule, project ones too.
        assert "units" in err and "unit-flow" in err

    def test_retired_kernel_parity_rule_is_usage_error(self, tmp_path,
                                                       capsys):
        assert _lint(tmp_path, CLEAN, "--rules", "kernel-parity") == 2
        err = capsys.readouterr().err
        assert "unknown rule(s): kernel-parity" in err
        assert "worker-safety-transitive" in err

    def test_empty_rule_selection_is_usage_error(self, tmp_path,
                                                 capsys):
        # ``--rules ,`` must not silently lint nothing and exit 0.
        assert _lint(tmp_path, CLEAN, "--rules", ",") == 2
        assert "no rules selected" in capsys.readouterr().err


class TestRuleSelection:
    def test_rules_flag_restricts_the_scan(self, tmp_path):
        # The only violation in this fixture is a determinism one, so
        # a span-hygiene-only scan comes back clean.
        bad = str(FIXTURES / "determinism_bad.py")
        assert _lint(tmp_path, bad, "--rules", "span-hygiene") == 0

    def test_exclude_skips_matching_paths(self, tmp_path):
        assert _lint(tmp_path, str(FIXTURES),
                     "--exclude", "_bad", "--exclude", "noqa") == 0


class TestOutputs:
    def test_json_format_is_parseable(self, tmp_path, capsys):
        assert _lint(tmp_path, BAD, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts_by_rule"] == {"span-hygiene": 4}
        assert payload["findings"][0]["rule"] == "span-hygiene"

    def test_report_writes_the_json_artifact(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert _lint(tmp_path, BAD, "--report", str(report)) == 1
        payload = json.loads(report.read_text())
        assert payload["files_scanned"] == 1
        assert payload["counts_by_rule"] == {"span-hygiene": 4}

    def test_stats_footer_reports_throughput(self, tmp_path, capsys):
        assert _lint(tmp_path, CLEAN, "--stats") == 0
        output = capsys.readouterr().out
        assert "lint.throughput" in output
        assert "files/s" in output


class TestGraphOutput:
    def test_json_graph_artifact(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        assert _lint(tmp_path, CLEAN, "--graph", str(out)) == 0
        assert "call graph written" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["nodes"] and payload["edges"]
        # The always-indexed src/repro context is in the graph.
        assert any(node["name"].startswith("repro.")
                   for node in payload["nodes"])

    def test_dot_graph_artifact(self, tmp_path):
        out = tmp_path / "graph.dot"
        assert _lint(tmp_path, CLEAN, "--graph", str(out)) == 0
        dot = out.read_text()
        assert dot.startswith("digraph repro_calls {")
        assert "->" in dot


class TestBaselineWorkflow:
    def test_write_then_scan_round_trip(self, tmp_path, capsys):
        assert _lint(tmp_path, BAD, "--write-baseline") == 0
        assert "grandfathered" in capsys.readouterr().out
        # The same finding is now baselined, so the gate passes ...
        assert _lint(tmp_path, BAD) == 0
        assert "4 baselined" in capsys.readouterr().out
        # ... but a different file's findings are still new.
        bad_elsewhere = str(FIXTURES / "worker_safety_bad.py")
        assert _lint(tmp_path, bad_elsewhere) == 1

    def test_prune_baseline_drops_fixed_entries(self, tmp_path,
                                                capsys):
        # Grandfather two files' findings, then prune against a scan
        # covering only one of them: the other file's entries go.
        bad_elsewhere = str(FIXTURES / "worker_safety_bad.py")
        assert _lint(tmp_path, BAD, bad_elsewhere,
                     "--write-baseline") == 0
        capsys.readouterr()
        assert _lint(tmp_path, BAD, "--prune-baseline") == 0
        assert "baseline pruned" in capsys.readouterr().out
        # The pruned baseline still admits BAD ...
        assert _lint(tmp_path, BAD) == 0
        # ... but no longer grandfathers the file dropped from scope.
        assert _lint(tmp_path, bad_elsewhere) == 1

    def test_prune_without_a_baseline_is_usage_error(self, tmp_path,
                                                     capsys):
        assert _lint(tmp_path, CLEAN, "--prune-baseline") == 2
        assert "no baseline" in capsys.readouterr().err

    def test_syntax_findings_survive_a_baseline(self, tmp_path,
                                                capsys):
        # Regression: an unparseable file can be neither written into
        # a baseline nor suppressed by one.
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        assert _lint(tmp_path, str(broken), "--write-baseline") == 0
        assert "0 findings grandfathered" in capsys.readouterr().out
        assert _lint(tmp_path, str(broken)) == 1
        assert "syntax" in capsys.readouterr().out


class TestMergedTree:
    def test_repo_src_is_clean(self, tmp_path):
        """The acceptance criterion: `repro lint src/` exits 0."""
        assert _lint(tmp_path, str(REPO_SRC)) == 0

    def test_repo_default_paths_are_clean(self, tmp_path):
        """src + tests + scripts — the CLI's default scope — all pass
        all eight rules (deliberate-violation fixtures excluded by
        the built-in default)."""
        repo = REPO_SRC.parent
        assert _lint(tmp_path, str(REPO_SRC), str(repo / "tests"),
                     str(repo / "scripts")) == 0
