"""Cross-module integration checks.

These tests tie independent implementations against each other: the
closed-form models against the transient simulator, the AWE engine
against both, and the full characterize -> calibrate -> predict loop
against fresh measurements it never saw.
"""

import pytest

from repro.characterization.cells import RepeaterCell, RepeaterKind
from repro.characterization.harness import _measure_point
from repro.signoff import (
    RCTree,
    evaluate_buffered_line,
    extract_buffered_line,
    rc_tree_moments,
    two_pole_delay,
)
from repro.units import fF, mm, ps


class TestModelVsFreshMeasurement:
    """The calibrated repeater model must predict grid points it was
    never fitted on."""

    @pytest.mark.parametrize("size,slew_ps,load_ff", [
        (12.0, 80.0, 60.0),
        (24.0, 200.0, 150.0),
        (48.0, 350.0, 400.0),
    ])
    def test_offgrid_delay_prediction(self, suite90, size, slew_ps,
                                      load_ff):
        cell = RepeaterCell(suite90.tech, RepeaterKind.INVERTER, size)
        measured, _ = _measure_point(cell, ps(slew_ps), fF(load_ff),
                                     rising_output=True)
        repeater = suite90.proposed.repeater_model()
        predicted = repeater.delay(size, ps(slew_ps), fF(load_ff),
                                   rising_output=True)
        assert predicted == pytest.approx(measured, rel=0.25)

    def test_offgrid_slew_prediction(self, suite90):
        cell = RepeaterCell(suite90.tech, RepeaterKind.INVERTER, 24.0)
        _, measured = _measure_point(cell, ps(150), fF(200),
                                     rising_output=False)
        repeater = suite90.proposed.repeater_model()
        predicted = repeater.output_slew(24.0, ps(150), fF(200),
                                         rising_output=False)
        assert predicted == pytest.approx(measured, rel=0.4)


class TestAweVsGoldenWire:
    def test_wire_dominated_stage_matches_awe(self, suite90):
        """For a weak driver on a long wire, the two-pole AWE delay of
        the RC network matches the nonlinear simulation reasonably."""
        config = suite90.config
        length = mm(4)
        r = config.resistance_per_meter() * length
        c = (config.ground_capacitance_per_meter()
             + 1.9 * config.coupling_capacitance_per_meter()) * length

        from repro.signoff.golden import simulate_stage
        size = 64.0
        load = fF(10)
        timing = simulate_stage(suite90.tech, size, r, c, load,
                                ps(20), rising_input=True)

        repeater = suite90.proposed.repeater_model()
        driver_resistance = repeater.drive_resistance(size, ps(20),
                                                      True)
        segments = 8
        caps = [c / segments] * (segments - 1) + [c / (2 * segments)]
        tree = RCTree.chain([r / segments] * segments, caps)
        tree.add_cap(segments, load)
        m1, m2 = rc_tree_moments(tree,
                                 driver_resistance=driver_resistance)
        awe_delay = two_pole_delay(float(m1[segments]),
                                   float(m2[segments]))
        # The AWE path has no intrinsic gate delay, so compare at a
        # loose tolerance; agreement within ~35% on a wire-dominated
        # stage confirms the two engines describe the same physics.
        assert awe_delay == pytest.approx(timing.delay, rel=0.35)


class TestEndToEndAccuracyAllNodes:
    @pytest.mark.parametrize("node", ["90nm", "65nm", "45nm"])
    def test_proposed_tracks_golden_across_nodes(self, node):
        from repro.experiments.suite import ModelSuite
        suite = ModelSuite.for_node(node)
        length = mm(3)
        line = extract_buffered_line(suite.tech, suite.config, length,
                                     4, 24.0)
        golden = evaluate_buffered_line(line, ps(300))
        estimate = suite.proposed.evaluate(length, 4, 24.0, ps(300))
        error = abs(estimate.delay - golden.total_delay) \
            / golden.total_delay
        assert error < 0.18, f"{node}: {error:.1%}"


class TestScalingTrends:
    def test_same_line_slower_in_older_nodes_is_not_assumed(self):
        """Wire delay per mm *worsens* with scaling (thinner wires),
        one of the motivating trends of the paper's introduction."""
        from repro.experiments.suite import ModelSuite
        delays = []
        for node in ("90nm", "45nm", "22nm"):
            suite = ModelSuite.for_node(node)
            estimate = suite.proposed.evaluate(mm(2), 2, 24.0, ps(100))
            delays.append(estimate.delay)
        assert delays[0] < delays[-1]
