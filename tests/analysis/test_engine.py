"""The incremental, parallel lint engine: caching and rule selection."""

import time

import pytest

from repro.analysis import scan_paths, split_rules
from repro.analysis.checkers import UnitsChecker
from repro.runtime.metrics import METRICS

#: A parse-heavy but clean module body, repeated to make cold walks
#: measurably slower than warm cache reads.
_BLOCK = ("def fn_{i}(x_ps, y_ps):\n"
          "    total_ps = x_ps + y_ps\n"
          "    scaled_ps = total_ps * 0.5\n"
          "    if scaled_ps <= 0:\n"
          "        return 0.0\n"
          "    return scaled_ps\n\n")

#: File-level-only selection: no src/repro context files get indexed,
#: so cache counters map 1:1 onto the files under test.
FILE_RULES = ["units", "determinism"]


def _make_tree(root, files=24, blocks=40):
    root.mkdir(exist_ok=True)
    for number in range(files):
        body = "".join(_BLOCK.format(i=i) for i in range(blocks))
        (root / f"mod_{number}.py").write_text(body,
                                               encoding="utf-8")
    return root


def _scan(tree, cache, rules=FILE_RULES):
    METRICS.reset()
    started = time.perf_counter()
    scan = scan_paths([tree], rules=rules, cache_dir=cache)
    elapsed = time.perf_counter() - started
    return scan, elapsed


class TestIncremental:
    def test_warm_run_hits_the_cache_for_every_file(self, tmp_path):
        tree = _make_tree(tmp_path / "tree")
        cache = tmp_path / "cache"
        cold, cold_s = _scan(tree, cache)
        assert METRICS.counters.get("lint.cache.miss") == 24
        assert "lint.cache.hit" not in METRICS.counters
        warm, warm_s = _scan(tree, cache)
        assert METRICS.counters.get("lint.cache.hit") == 24
        assert "lint.cache.miss" not in METRICS.counters
        # No file re-parsed: the walk histogram saw zero observations.
        assert METRICS.histogram("lint.walk_seconds") is None
        assert warm.findings == cold.findings
        assert warm.files_scanned == cold.files_scanned == 24
        # The acceptance bar: warm incremental lint is at least 5x
        # faster than the cold run it replays.  The warm side is
        # best-of-three — one replay hitting a scheduler hiccup must
        # not fail the gate, which measures the replay path, not the
        # machine's worst moment.
        for _ in range(2):
            if warm_s * 5 <= cold_s:
                break
            _, retry_s = _scan(tree, cache)
            warm_s = min(warm_s, retry_s)
        assert warm_s * 5 <= cold_s, (
            f"warm {warm_s:.3f}s vs cold {cold_s:.3f}s")

    def test_touching_one_file_reparses_only_that_file(self, tmp_path):
        tree = _make_tree(tmp_path / "tree")
        cache = tmp_path / "cache"
        _scan(tree, cache)
        target = tree / "mod_3.py"
        target.write_text(target.read_text() + "EXTRA_PS = 1\n",
                          encoding="utf-8")
        _scan(tree, cache)
        assert METRICS.counters.get("lint.cache.hit") == 23
        assert METRICS.counters.get("lint.cache.miss") == 1

    def test_renaming_a_file_invalidates_its_entry(self, tmp_path):
        # The display path is part of the cache key — findings and
        # index entries carry it, so a rename must not replay them
        # under the old name.
        tree = _make_tree(tmp_path / "tree", files=4)
        cache = tmp_path / "cache"
        _scan(tree, cache)
        (tree / "mod_0.py").rename(tree / "renamed.py")
        _scan(tree, cache)
        assert METRICS.counters.get("lint.cache.hit") == 3
        assert METRICS.counters.get("lint.cache.miss") == 1

    def test_rule_version_bump_invalidates(self, tmp_path,
                                           monkeypatch):
        tree = _make_tree(tmp_path / "tree", files=4)
        cache = tmp_path / "cache"
        _scan(tree, cache)
        monkeypatch.setattr(UnitsChecker, "version",
                            UnitsChecker.version + 1)
        _scan(tree, cache)
        assert METRICS.counters.get("lint.cache.miss") == 4
        assert "lint.cache.hit" not in METRICS.counters

    def test_findings_replay_identically_from_cache(self, tmp_path):
        bad = tmp_path / "tree"
        bad.mkdir()
        (bad / "clocky.py").write_text(
            "import time\nnow = time.time()\n", encoding="utf-8")
        cache = tmp_path / "cache"
        cold, _ = _scan(bad, cache)
        warm, _ = _scan(bad, cache)
        assert METRICS.counters.get("lint.cache.hit") == 1
        assert [f.to_json() for f in warm.findings] \
            == [f.to_json() for f in cold.findings]
        assert warm.findings[0].rule == "determinism"

    def test_parallel_scan_matches_serial(self, tmp_path,
                                          monkeypatch):
        tree = _make_tree(tmp_path / "tree", files=8)
        serial, _ = _scan(tree, tmp_path / "cache-serial")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel, _ = _scan(tree, tmp_path / "cache-parallel")
        assert parallel.findings == serial.findings
        assert parallel.files_scanned == serial.files_scanned


class TestSplitRules:
    def test_none_selects_every_rule(self):
        file_rules, project_rules = split_rules(None)
        assert set(file_rules) == {"units", "determinism",
                                   "worker-safety", "cache-purity",
                                   "span-hygiene"}
        assert set(project_rules) == {"worker-safety-transitive",
                                      "unit-flow"}

    def test_mixed_selection_splits_by_kind(self):
        file_rules, project_rules = split_rules(
            ["units", "unit-flow"])
        assert file_rules == ["units"]
        assert project_rules == ["unit-flow"]

    def test_empty_selection_is_a_usage_error(self):
        with pytest.raises(ValueError, match="no rules selected"):
            split_rules([])
        with pytest.raises(ValueError, match="no rules selected"):
            split_rules(["", ""])

    def test_unknown_rule_lists_the_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            split_rules(["made-up"])
        message = str(excinfo.value)
        assert "unknown rule(s): made-up" in message
        for rule in ("units", "unit-flow",
                     "worker-safety-transitive"):
            assert rule in message


class TestProjectScope:
    def test_project_findings_stay_inside_the_scanned_set(
            self, tmp_path):
        # Scanning a tree with a unit-flow violation reports it; the
        # always-indexed src/repro context files contribute call-graph
        # context but no findings of their own.
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "flow.py").write_text(
            "def settle(delay_ns):\n"
            "    return delay_ns * 2.0\n"
            "def go(clock_ps):\n"
            "    return settle(clock_ps)\n", encoding="utf-8")
        scan = scan_paths([tree], rules=["unit-flow"],
                          cache_dir=tmp_path / "cache")
        assert [finding.rule for finding in scan.findings] \
            == ["unit-flow"]
        assert scan.files_scanned == 1
        assert all(finding.path.endswith("flow.py")
                   for finding in scan.findings)

    def test_graph_covers_context_beyond_the_scanned_files(
            self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "solo.py").write_text("x = 1\n", encoding="utf-8")
        scan = scan_paths([tree], rules=None,
                          cache_dir=tmp_path / "cache")
        graph = scan.graph()
        assert scan.files_scanned == 1
        # src/repro symbols are present for resolution even though
        # only solo.py was scanned.
        assert any(name.startswith("repro.")
                   for name in graph.project.symbols)
