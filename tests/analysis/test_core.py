"""The visitor core: noqa, syntax findings, file collection."""

import pytest

from repro.analysis import (
    Finding,
    SYNTAX_RULE,
    check_source,
    collect_files,
    make_checkers,
)

#: One determinism violation per line — handy for suppression tests.
CLOCK_LINE = "import time\nnow = time.time()\n"


def _determinism():
    return make_checkers(["determinism"])


class TestFinding:
    def test_format_is_gcc_style(self):
        finding = Finding("a.py", 3, 5, "units", "msg",
                          severity="warning")
        assert finding.format() == "a.py:3:5: warning: units: msg"


class TestNoqa:
    def test_bare_noqa_suppresses_everything(self):
        source = "import time\nnow = time.time()  # repro: noqa\n"
        assert check_source(source, "x.py", _determinism()) == []

    def test_named_rule_suppresses_only_that_rule(self):
        source = ("import time\n"
                  "now = time.time()  # repro: noqa[determinism]\n")
        assert check_source(source, "x.py", _determinism()) == []

    def test_other_rule_name_does_not_suppress(self):
        source = ("import time\n"
                  "now = time.time()  # repro: noqa[units]\n")
        findings = check_source(source, "x.py", _determinism())
        assert [finding.rule for finding in findings] == ["determinism"]

    def test_unsuppressed_line_still_fires(self):
        findings = check_source(CLOCK_LINE, "x.py", _determinism())
        assert len(findings) == 1
        assert findings[0].line == 2


class TestSyntaxErrors:
    def test_unparseable_file_is_one_syntax_finding(self):
        findings = check_source("def broken(:\n", "x.py",
                                make_checkers())
        assert [finding.rule for finding in findings] == [SYNTAX_RULE]

    def test_syntax_finding_cannot_be_suppressed(self):
        findings = check_source("def broken(:  # repro: noqa\n",
                                "x.py", make_checkers())
        assert [finding.rule for finding in findings] == [SYNTAX_RULE]


class TestMakeCheckers:
    def test_default_is_all_five_rules(self):
        rules = {checker.rule for checker in make_checkers()}
        assert rules == {"units", "determinism", "worker-safety",
                         "cache-purity", "span-hygiene"}

    def test_unknown_rule_is_a_usage_error(self):
        with pytest.raises(ValueError, match="unknown rule"):
            make_checkers(["units", "made-up"])

    def test_empty_selection_is_a_usage_error(self):
        with pytest.raises(ValueError, match="no rules selected"):
            make_checkers([])

    def test_project_rules_validate_but_make_no_file_checker(self):
        assert make_checkers(["unit-flow"]) == []


class TestCollectFiles:
    def test_walks_directories_and_skips_junk(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.py").write_text("y = 2\n")
        pycache = sub / "__pycache__"
        pycache.mkdir()
        (pycache / "b.cpython-311.py").write_text("z = 3\n")
        hidden = tmp_path / ".hidden"
        hidden.mkdir()
        (hidden / "c.py").write_text("w = 4\n")

        names = [path.name for path in collect_files([tmp_path])]
        assert names == ["a.py", "b.py"]

    def test_exclude_fragments(self, tmp_path):
        (tmp_path / "keep.py").write_text("x = 1\n")
        skip = tmp_path / "fixtures"
        skip.mkdir()
        (skip / "drop.py").write_text("y = 2\n")
        names = [path.name
                 for path in collect_files([tmp_path],
                                           exclude=("fixtures",))]
        assert names == ["keep.py"]

    def test_overlapping_arguments_deduplicate(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        assert collect_files([tmp_path, target]) \
            == collect_files([tmp_path])

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_files([tmp_path / "nope"])

    def test_directly_named_file_overrides_exclusion(self, tmp_path):
        # A fragment filter applies to directory walks; asking for a
        # file by name always scans it (how fixture tests stay
        # runnable under the CLI's default fixtures exclusion).
        target = tmp_path / "fixtures" / "direct.py"
        target.parent.mkdir()
        target.write_text("x = 1\n")
        assert collect_files([target], exclude=("fixtures",)) \
            == [target]
        assert collect_files([tmp_path], exclude=("fixtures",)) == []


class TestEdgeCases:
    def test_crlf_sources_lint_and_suppress_normally(self):
        source = ("import time\r\n"
                  "a = time.time()\r\n"
                  "b = time.time()  # repro: noqa[determinism]\r\n")
        findings = check_source(source, "x.py", _determinism())
        assert [finding.line for finding in findings] == [2]

    def test_noqa_on_a_decorated_def_suppresses_at_the_def_line(self):
        # The finding anchors at the ``def`` line, not the decorator:
        # the noqa comment belongs there too.
        source = ("import functools\n"
                  "@functools.lru_cache\n"
                  "def delay(load: float) -> float:"
                  "  # repro: noqa[units]\n"
                  "    return load\n"
                  "@functools.lru_cache\n"
                  "def slew(load: float) -> float:\n"
                  "    return load\n")
        findings = check_source(source, "src/repro/models/x.py",
                                make_checkers(["units"]))
        assert [finding.line for finding in findings] == [6]
        assert "slew" in findings[0].message

    def test_noqa_suppresses_at_the_first_line_of_a_multiline_call(
            self):
        source = ("import time\n"
                  "value = max(  # repro: noqa[determinism]\n"
                  "    time.time(),\n"
                  "    0.0,\n"
                  ")\n")
        # ``time.time()`` is reported at its own line (3), so a noqa
        # there suppresses ...
        suppressed = source.replace(
            "max(  # repro: noqa[determinism]", "max(").replace(
            "time.time(),", "time.time(),  # repro: noqa[determinism]")
        assert check_source(suppressed, "x.py", _determinism()) == []
        # ... while one on the expression's opening line does not.
        findings = check_source(source, "x.py", _determinism())
        assert [finding.line for finding in findings] == [3]
