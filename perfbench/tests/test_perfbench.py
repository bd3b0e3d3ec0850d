"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q      (from the checkout root)

The exact-count test runs every workload twice, traced, at one pass
(``--seconds 0``) and requires identical outputs and identical
per-layer counts; those counts are the ones later changes may cite.
It takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from layers import EXACT_COUNTS, MetricsView  # noqa: E402

WORKLOADS = ("table2", "synth", "mc_tail", "serve")


def _run(workload, cwd=ROOT, seconds="0", trace="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(workload):
    completed = _run(workload)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    digest = next(line for line in lines if "outputs sha256" in line)
    return json.loads(lines[-1]), digest.split()[-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_outputs_repeat_exactly(workload):
    (first, first_digest), (second, second_digest) = \
        _result(workload), _result(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
    assert first_digest == second_digest
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] \
            == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = _run("table2", cwd=tmp_path, seconds="1", trace="0")
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_scraped_metrics_match_the_registry():
    from repro.runtime.metrics import MetricsRegistry
    registry = MetricsRegistry()
    registry.count("cache.hit", 3)
    registry.count("serve.requests", 1000)
    registry.add_time("link.design", 0.25)
    for value in (1e-6, 2.5e-3, 2.5e-3, 0.04, 7.0):
        registry.observe("serve.latency_seconds", value)
    local = MetricsView.from_registry(registry)
    scraped = MetricsView.from_openmetrics(registry.to_openmetrics())
    assert scraped.counters == local.counters
    assert scraped.timers == local.timers
    assert scraped.histograms == local.histograms
    assert scraped.quantile("serve.latency_seconds", 0.5) \
        == local.quantile("serve.latency_seconds", 0.5)
