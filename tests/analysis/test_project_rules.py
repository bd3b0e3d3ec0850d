"""The interprocedural rules, against seeded-drift fixtures."""

from pathlib import Path

from repro.analysis.graph import CallGraph, ProjectIndex
from repro.analysis.index import index_source
from repro.analysis.checkers import (
    UnitFlowChecker,
    WorkerSafetyTransitiveChecker,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _index_fixture(name, module=None):
    path = FIXTURES / name
    return index_source(path.read_text(encoding="utf-8"),
                        f"tests/analysis/fixtures/{name}",
                        module=module)


def _run(checker, *indexes):
    project = ProjectIndex(indexes)
    return checker.run(project, CallGraph(project))


class TestWorkerSafetyTransitive:
    def test_clock_two_calls_deep_fires_with_the_chain(self):
        index = _index_fixture("transitive_unsafe.py")
        findings = _run(WorkerSafetyTransitiveChecker(), index)
        assert len(findings) == 1
        (finding,) = findings
        assert "submitted to parallel_map" in finding.message
        assert "via work -> _helper -> _stamp" in finding.message
        assert "wall-clock" in finding.message
        # Anchored at the dispatch site, where the fix decision lives.
        assert finding.line == 26

    def test_clean_closure_is_silent(self):
        source = ("from repro.runtime.parallel import parallel_map\n"
                  "def work(item):\n"
                  "    return item * 2.0\n"
                  "def run(items):\n"
                  "    return parallel_map(work, items)\n")
        index = index_source(source, "src/repro/pkg/cleanpool.py")
        assert _run(WorkerSafetyTransitiveChecker(), index) == []

    def test_cache_scoped_function_with_env_read_fires(self):
        source = ("import os\n"
                  "def lookup(cache, key):\n"
                  "    tag = os.getenv('TAG')\n"
                  "    return cache.get([key, tag])\n")
        index = index_source(source, "src/repro/pkg/cachedenv.py")
        findings = _run(WorkerSafetyTransitiveChecker(), index)
        assert len(findings) == 1
        assert "computes DiskCache keys" in findings[0].message
        assert "env-read" in findings[0].message

    def test_runtime_modules_are_the_trust_boundary(self):
        # The closure reaches into repro.runtime, whose own clock use
        # is sanctioned — no finding.
        runtime = ("import time\n"
                   "def stamp():\n"
                   "    return time.time()\n",
                   "src/repro/runtime/stamps.py")
        caller = ("from repro.runtime.stamps import stamp\n"
                  "from repro.runtime.parallel import parallel_map\n"
                  "def work(item):\n"
                  "    return stamp() + item\n"
                  "def run(items):\n"
                  "    return parallel_map(work, items)\n",
                  "src/repro/pkg/trusting.py")
        indexes = [index_source(*entry) for entry in (runtime, caller)]
        assert _run(WorkerSafetyTransitiveChecker(), *indexes) == []

    def test_noqa_at_the_dispatch_site_suppresses(self):
        index = _index_fixture("transitive_unsafe.py")
        index.noqa = {26: ["worker-safety-transitive"]}
        assert _run(WorkerSafetyTransitiveChecker(), index) == []


class TestUnitFlow:
    def test_seeded_fixture_fires_scale_and_dimension_findings(self):
        index = _index_fixture("unit_flow_bad.py",
                               module="repro.pkg.unitflow")
        findings = _run(UnitFlowChecker(), index)
        assert len(findings) == 2
        scale = [finding for finding in findings
                 if "'clock_ps'" in finding.message]
        dimension = [finding for finding in findings
                     if "'cap_ff'" in finding.message]
        assert len(scale) == 1 and len(dimension) == 1
        assert "'ps' into 'ns'" in scale[0].message
        assert "capacitance into resistance" in dimension[0].message
        assert all(finding.severity == "warning"
                   for finding in findings)

    def test_equivalent_suffixes_do_not_fire(self):
        # ``_ohm`` into ``_ohms``: same dimension, same SI factor.
        source = ("def drain(r_ohms):\n"
                  "    return r_ohms * 0.1\n"
                  "def go(load_ohm):\n"
                  "    return drain(load_ohm)\n")
        index = index_source(source, "src/repro/pkg/okunits.py")
        assert _run(UnitFlowChecker(), index) == []

    def test_unsuffixed_names_do_not_fire(self):
        source = ("def settle(delay_ns):\n"
                  "    return delay_ns * 2.0\n"
                  "def go(value):\n"
                  "    return settle(value)\n")
        index = index_source(source, "src/repro/pkg/nosuffix.py")
        assert _run(UnitFlowChecker(), index) == []

    def test_method_calls_map_past_self(self):
        source = ("class Line:\n"
                  "    def settle(self, delay_ns):\n"
                  "        return delay_ns * 2.0\n"
                  "    def go(self, clock_ps):\n"
                  "        return self.settle(clock_ps)\n")
        index = index_source(source, "src/repro/pkg/methodflow.py")
        findings = _run(UnitFlowChecker(), index)
        assert len(findings) == 1
        assert "'clock_ps' into parameter 'delay_ns'" \
            in findings[0].message
