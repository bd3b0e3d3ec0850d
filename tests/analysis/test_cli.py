"""`repro lint` end to end: exit codes, formats, call graph."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src"

BAD = str(FIXTURES / "span_hygiene_bad.py")
CLEAN = str(FIXTURES / "span_hygiene_clean.py")


def _lint(*argv):
    return main(["lint", *argv])


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys):
        assert _lint(CLEAN) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert _lint(BAD) == 1
        output = capsys.readouterr().out
        assert "span-hygiene" in output
        assert "4 findings" in output

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert _lint(str(tmp_path / "nope")) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, capsys):
        assert _lint(CLEAN, "--rules", "made-up") == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err
        # The usage error lists every valid rule, project ones too.
        assert "units" in err and "unit-flow" in err

    def test_retired_kernel_parity_rule_is_usage_error(self, capsys):
        assert _lint(CLEAN, "--rules", "kernel-parity") == 2
        err = capsys.readouterr().err
        assert "unknown rule(s): kernel-parity" in err
        assert "worker-safety-transitive" in err

    def test_empty_rule_selection_is_usage_error(self, capsys):
        # ``--rules ,`` must not silently lint nothing and exit 0.
        assert _lint(CLEAN, "--rules", ",") == 2
        assert "no rules selected" in capsys.readouterr().err

    def test_unparseable_file_exits_one(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        assert _lint(str(broken)) == 1
        assert "syntax" in capsys.readouterr().out

    def test_baseline_flags_are_usage_errors(self):
        """Inline ``# repro: noqa[rule]`` is the only suppression."""
        for flags in (["--write-baseline"], ["--prune-baseline"],
                      ["--baseline", "lint-baseline.json"]):
            with pytest.raises(SystemExit) as exc:
                _lint(CLEAN, *flags)
            assert exc.value.code == 2


class TestRuleSelection:
    def test_rules_flag_restricts_the_scan(self):
        # The only violation in this fixture is a determinism one, so
        # a span-hygiene-only scan comes back clean.
        bad = str(FIXTURES / "determinism_bad.py")
        assert _lint(bad, "--rules", "span-hygiene") == 0

    def test_exclude_skips_matching_paths(self):
        assert _lint(str(FIXTURES),
                     "--exclude", "_bad", "--exclude", "noqa") == 0


class TestOutputs:
    def test_json_format_is_parseable(self, capsys):
        assert _lint(BAD, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts_by_rule"] == {"span-hygiene": 4}
        assert payload["findings"][0]["rule"] == "span-hygiene"

    def test_report_writes_the_json_artifact(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert _lint(BAD, "--report", str(report)) == 1
        payload = json.loads(report.read_text())
        assert payload["files_scanned"] == 1
        assert payload["counts_by_rule"] == {"span-hygiene": 4}

    def test_stats_footer_reports_throughput(self, capsys):
        assert _lint(CLEAN, "--stats") == 0
        output = capsys.readouterr().out
        assert "lint.throughput" in output
        assert "files/s" in output


class TestGraphOutput:
    def test_json_graph_artifact(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        assert _lint(CLEAN, "--graph", str(out)) == 0
        assert "call graph written" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["nodes"] and payload["edges"]
        # The always-indexed src/repro context is in the graph.
        assert any(node["name"].startswith("repro.")
                   for node in payload["nodes"])

    def test_dot_graph_artifact(self, tmp_path):
        out = tmp_path / "graph.dot"
        assert _lint(CLEAN, "--graph", str(out)) == 0
        dot = out.read_text()
        assert dot.startswith("digraph repro_calls {")
        assert "->" in dot


class TestMergedTree:
    def test_repo_src_is_clean(self):
        """The acceptance criterion: `repro lint src/` exits 0."""
        assert _lint(str(REPO_SRC)) == 0

    def test_repo_default_paths_are_clean(self, monkeypatch):
        """A bare `repro lint` from the repo root scans what CI scans
        (src tests benchmarks scripts examples), and all of it passes
        every rule (deliberate-violation fixtures excluded by the
        built-in default)."""
        monkeypatch.chdir(REPO_SRC.parent)
        assert _lint() == 0
