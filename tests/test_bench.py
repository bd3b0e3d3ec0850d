"""The two ``repro bench`` suites' gates: the yield saving and the LUT floor.

``repro bench yield`` exits 1 unless importance sampling resolves the
3-sigma tail from at least :data:`MIN_IMPORTANCE_SAVING` times fewer
golden runs than plain Monte Carlo; ``repro bench lut`` exits 1 unless
the LUT-served link sweep clears :data:`SPEEDUP_FLOOR` *and* every LUT
design meets its bound.  These tests pin the verdict logic on small
inputs; the full-size runs are the committed ``BENCH_*.json`` reports.
"""

import json
from collections import namedtuple

import pytest

from repro.bench_lut import (
    SPEEDUP_FLOOR,
    TIMING_REPEATS,
    LutBenchResult,
    run_link_sweep_bench,
)
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


class TestLutBenchResult:
    @staticmethod
    def _result(lut_wall_s, gate_ok=True):
        return LutBenchResult(op="link_sweep", n=8,
                              closed_wall_s=SPEEDUP_FLOOR,
                              lut_wall_s=lut_wall_s, max_rel_diff=0.0,
                              gate_ok=gate_ok)

    def test_speedup_at_the_floor_passes(self):
        result = self._result(lut_wall_s=1.0)
        assert result.speedup == SPEEDUP_FLOOR
        assert result.passed

    def test_speedup_under_the_floor_fails(self):
        result = self._result(lut_wall_s=1.01)
        assert result.speedup < SPEEDUP_FLOOR
        assert not result.passed
        assert result.format().endswith("[FAIL]")

    def test_wrong_designs_fail_at_any_speed(self):
        result = self._result(lut_wall_s=1e-3, gate_ok=False)
        assert result.speedup > 100 * SPEEDUP_FLOOR
        assert not result.passed
        assert result.to_payload()["passed"] is False


_Design = namedtuple("_Design", "delay power")


class TestLinkSweepGate:
    def test_coarse_grid_tier_passes_on_a_real_sweep(self, suite90,
                                                      lut90):
        result = run_link_sweep_bench(suite90.proposed, lut90,
                                      suite90.tech.clock_period(),
                                      lengths_mm=(1.0, 3.0, 5.0))
        assert result.n == 3
        assert result.gate_ok

    @staticmethod
    def _sweep(monkeypatch, closed_design, lut_design, max_delay=1.0,
               calls=None):
        closed, lut = object(), object()

        def fake_search(model, length, bound):
            if calls is not None:
                calls.append("closed" if model is closed else "lut")
            return closed_design if model is closed else lut_design

        monkeypatch.setattr(
            "repro.buffering.optimizer.minimize_power_under_delay",
            fake_search)
        return run_link_sweep_bench(closed, lut, max_delay,
                                    lengths_mm=(1.0, 2.0))

    def test_each_side_is_timed_over_alternating_repeats(self,
                                                         monkeypatch):
        calls = []
        self._sweep(monkeypatch, _Design(0.9, 1.0), _Design(0.9, 1.0),
                    calls=calls)
        assert TIMING_REPEATS >= 3
        assert calls == ["closed", "closed", "lut", "lut"] * TIMING_REPEATS

    def test_lut_design_over_the_bound_fails(self, monkeypatch):
        result = self._sweep(monkeypatch, _Design(0.9, 1.0),
                             _Design(1.1, 0.8))
        assert not result.gate_ok

    def test_lut_infeasible_where_closed_form_is_not_fails(
            self, monkeypatch):
        result = self._sweep(monkeypatch, _Design(0.9, 1.0), None)
        assert not result.gate_ok

    def test_both_infeasible_is_agreement(self, monkeypatch):
        result = self._sweep(monkeypatch, None, None)
        assert result.gate_ok
        assert result.max_rel_diff == 0.0

    def test_drift_is_recorded_over_delay_and_power(self, monkeypatch):
        result = self._sweep(monkeypatch, _Design(0.8, 2.0),
                             _Design(0.8, 2.5))
        assert result.gate_ok
        assert result.max_rel_diff == pytest.approx(0.25)
