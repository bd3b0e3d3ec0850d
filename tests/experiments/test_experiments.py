"""Experiment drivers (reduced configurations for test speed)."""

from types import SimpleNamespace

import pytest

from repro.experiments import ModelSuite
from repro.experiments import fig1, leakage_area, runtime, staggering, \
    table1, table2, table3
from repro.tech import DesignStyle
from repro.units import mm, ps


class TestSuite:
    def test_for_node_builds_all_models(self):
        suite = ModelSuite.for_node("65nm")
        assert suite.tech.name == "65nm"
        assert set(suite.models()) == {"bakoglu", "pamunuwa",
                                       "proposed"}

    def test_shielded_style(self):
        suite = ModelSuite.for_node("90nm", style=DesignStyle.SHIELDED)
        assert suite.config.delay_miller == 1.0


class TestTable1:
    def test_loads_all_six_nodes(self):
        result = table1.run()
        assert len(result.calibrations) == 6
        text = result.format()
        for node in ("90nm", "65nm", "45nm", "32nm", "22nm", "16nm"):
            assert node in text

    def test_fit_quality_summary(self):
        result = table1.run(nodes=("90nm",))
        quality = result.fit_quality_summary()["90nm"]
        assert quality["intrinsic_rise"] > 0.9
        assert quality["drive_rise"] > 0.95
        assert quality["leakage"] > 0.99
        assert quality["area"] > 0.99


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1.run(
            node="90nm",
            sizes=(8.0, 32.0),
            slews=(ps(40), ps(160), ps(320)),
            load_factors=(2.0, 6.0),
        )

    def test_quadratic_in_slew(self, result):
        assert result.quadratic_r2 > 0.9

    def test_nearly_size_independent(self, result):
        # "Practically independent of repeater size": the spread across
        # a 4x size range stays small relative to the value.
        assert result.size_spread < 0.25

    def test_intrinsic_grows_with_slew(self, result):
        for size in result.sizes:
            values = [result.intrinsic[size][slew]
                      for slew in result.slews]
            assert values[0] < values[-1]

    def test_format(self, result):
        text = result.format()
        assert "quadratic" in text
        assert "90nm" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(nodes=("90nm",), lengths=(mm(1), mm(5)),
                          styles=(DesignStyle.SWSS,))

    def test_proposed_within_paper_bound(self, result):
        assert result.max_abs_error("proposed") < 0.15

    def test_baselines_much_worse(self, result):
        assert result.max_abs_error("bakoglu") > \
            2 * result.max_abs_error("proposed")

    def test_model_is_much_faster_than_golden(self, result):
        assert all(row.runtime_ratio > 10 for row in result.rows)

    def test_model_runtime_is_a_mean_of_warm_calls(self, monkeypatch):
        suite = ModelSuite.for_node("90nm")
        monkeypatch.setattr(
            table2, "optimize_buffering", lambda *args, **kwargs:
            SimpleNamespace(num_repeaters=2, repeater_size=24.0))
        monkeypatch.setattr(
            table2, "evaluate_buffered_line", lambda line, slew:
            SimpleNamespace(total_delay=ps(100), runtime_seconds=1e-3))
        model_class = type(suite.proposed)
        evaluate = model_class.evaluate
        calls = []

        def counted(model, *args, **kwargs):
            calls.append(model)
            return evaluate(model, *args, **kwargs)

        monkeypatch.setattr(model_class, "evaluate", counted)
        row = table2._evaluate_one(suite, DesignStyle.SWSS, mm(1))
        # One call gives the error; the timed ones follow it.
        assert calls == [suite.proposed] * (1 + table2.RUNTIME_TRIALS)
        assert row.model_runtime > 0

    def test_format(self, result):
        text = result.format()
        assert "Prop %" in text
        assert "90nm" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run_quick("90nm")

    def test_dynamic_power_ratio_significant(self, result):
        # The original model underestimates dynamic power strongly
        # (the paper reports up to ~3x).
        assert result.max_dynamic_ratio() > 1.5

    def test_reports_have_all_flows(self, result):
        case = result.cases[0]
        assert case.original_self.num_routers > 0
        assert case.proposed_self.num_routers > 0

    def test_format(self, result):
        text = result.format()
        assert "DVOPD" in text
        assert "original/accurate" in text


class TestStaggering:
    def test_reproduces_tradeoff(self):
        result = staggering.run(nodes=("90nm",), lengths=(mm(5),))
        assert 0.05 < result.mean_saving() < 0.40
        assert result.mean_penalty() <= 0.025 + 1e-6
        assert "paper" in result.format()


class TestRuntime:
    def test_model_much_faster(self):
        result = runtime.run(node="90nm", length=mm(3), trials=10,
                             golden_trials=1)
        assert result.speedup > 2.1  # the paper's bound, easily beaten
        assert "faster" in result.format()


class TestLeakageArea:
    @pytest.fixture(scope="class")
    def result(self):
        return leakage_area.run("90nm", sizes=(4.0, 8.0, 16.0))

    def test_within_paper_bounds(self, result):
        assert result.max_leakage_error() < 0.11
        assert result.max_area_error() < 0.08

    def test_format(self, result):
        assert "paper" in result.format()
