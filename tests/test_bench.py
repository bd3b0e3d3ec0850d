"""The ``repro bench yield`` gate: the importance-sampling saving.

``repro bench yield`` exits 1 unless importance sampling resolves the
3-sigma tail from at least :data:`MIN_IMPORTANCE_SAVING` times fewer
golden runs than plain Monte Carlo.  These tests pin the verdict logic
on small inputs; the full-size run is the committed
``BENCH_yield.json`` report.
"""

import json

import pytest

from repro.bench_yield import (
    BENCH_ESTIMATORS,
    MIN_IMPORTANCE_SAVING,
    YIELD_SCHEMA,
    YieldBenchEntry,
    run_yield_bench,
)


def _entry(golden_evals=64, plain_equivalent_evals=6400.0):
    return YieldBenchEntry(
        estimator="importance", draws=64, golden_evals=golden_evals,
        model_evals=4096, wall_s=1.0, mean_ps=111.0, se_ps=0.5,
        ess=60.0, tail_probability=1e-3, tail_se=2e-4,
        tail_ci_width=8e-4,
        plain_equivalent_evals=plain_equivalent_evals)


class TestYieldBenchEntry:
    def test_saving_is_plain_draws_per_golden_draw(self):
        assert _entry(64, 6400.0).saving == 100.0

    def test_saving_is_zero_without_golden_draws(self):
        assert _entry(golden_evals=0).saving == 0.0

    def test_payload_carries_the_saving(self):
        payload = _entry(64, 640.0).to_payload()
        assert payload["saving"] == 10.0
        assert payload["golden_evals"] == 64
        json.dumps(payload)


@pytest.fixture(scope="module")
def tiny_yield_run(tmp_path_factory):
    """The yield bench at four golden draws per estimator — far too
    few to resolve a 3-sigma tail, which is what the gate must see."""
    output = tmp_path_factory.mktemp("bench") / "BENCH_yield.json"
    status, report = run_yield_bench(samples=4, output=str(output))
    return status, report, output


class TestYieldBench:
    def test_report_on_disk_is_the_returned_report(self, tiny_yield_run):
        _, report, output = tiny_yield_run
        on_disk = json.loads(output.read_text(encoding="utf-8"))
        expected = {key: value for key, value in report.items()
                    if key != "formatted"}
        assert on_disk == expected
        assert on_disk["schema"] == YIELD_SCHEMA
        assert {"python", "platform", "numpy"} <= set(on_disk["env"])

    def test_every_estimator_is_reported_in_order(self, tiny_yield_run):
        _, report, _ = tiny_yield_run
        assert [entry["estimator"] for entry in report["results"]] == \
            list(BENCH_ESTIMATORS)
        for entry in report["results"]:
            assert entry["golden_evals"] >= 4
        # One summary line, then one line per estimator.
        assert len(report["formatted"]) == 1 + len(BENCH_ESTIMATORS)

    def test_status_is_the_importance_saving_gate(self, tiny_yield_run):
        status, report, _ = tiny_yield_run
        importance = next(entry for entry in report["results"]
                          if entry["estimator"] == "importance")
        assert importance["saving"] < MIN_IMPORTANCE_SAVING
        assert status == 1
