"""The engine's stacked Newton solve and its singular-lane path.

Every comparison is exact: the stacked solve promises each lane the
bits of ``numpy.linalg.solve`` on that lane alone, and a singular lane
fails alone, with the same ``ConvergenceError`` text, under a
warnings-as-errors filter too.
"""

import warnings

import numpy as np
import pytest

from repro.spice import Circuit, dc_operating_point, ramp, simulate_transient
from repro.spice import transient
from repro.spice.transient import ConvergenceError, simulate_lanes
from repro.units import fF, ps

SINGULAR = "singular Newton system: Singular matrix"


def engine_solve(system, rhs):
    """The engine's solution and singular lanes (``_solve`` returns the
    solution first and the singular lanes last), under the error state
    that the engine holds around every Newton loop."""
    with np.errstate(all="ignore"):
        result = transient._solve(system, rhs)
    return result[0], result[-1]


def _stack(rng, lanes, m):
    """``lanes`` well-conditioned ``m x m`` systems and right-hand
    sides: random entries plus a dominant diagonal."""
    system = rng.normal(size=(lanes, m, m)) + 4.0 * m * np.eye(m)
    return system, rng.normal(size=(lanes, m))


class TestStackedSolve:
    @pytest.mark.parametrize("lanes", range(1, 9))
    def test_equals_per_lane_solves(self, lanes):
        rng = np.random.default_rng(lanes)
        for m in range(1, 13):
            for _ in range(4):
                system, rhs = _stack(rng, lanes, m)
                delta, singular = engine_solve(system, rhs)
                assert singular == {}
                assert delta.shape == (lanes, m)
                for k in range(lanes):
                    alone = np.linalg.solve(system[k], rhs[k])
                    assert delta[k].tobytes() == alone.tobytes(), (m, k)

    def test_a_zero_lane_fails_alone(self):
        system, rhs = _stack(np.random.default_rng(7), 3, 6)
        system[1] = 0.0
        delta, singular = engine_solve(system, rhs)
        assert list(singular) == [1]
        assert isinstance(singular[1], ConvergenceError)
        assert str(singular[1]) == SINGULAR
        for k in (0, 2):
            alone = np.linalg.solve(system[k], rhs[k])
            assert delta[k].tobytes() == alone.tobytes(), k

    def test_a_nan_lane_keeps_its_nans(self):
        system, rhs = _stack(np.random.default_rng(8), 3, 4)
        system[2] = np.nan
        delta, singular = engine_solve(system, rhs)
        assert singular == {}
        assert np.isnan(delta[2]).all()
        for k in (0, 1):
            alone = np.linalg.solve(system[k], rhs[k])
            assert delta[k].tobytes() == alone.tobytes(), k


def _rc(resistance):
    """in -> R -> a, a -C- ground, the input ramping after t = 0."""
    circuit = Circuit("rc")
    circuit.add_voltage_source("in", ramp(0.0, 1.0, ps(10), ps(50)))
    circuit.add_resistor("in", "a", resistance)
    circuit.add_capacitor("a", "0", fF(20))
    return circuit


class TestSingularCircuits:
    """With ``GMIN`` at 0.0 a node reached only through an open
    resistor or capacitors makes the DC system singular."""

    def test_singular_lane_fails_alone(self, monkeypatch):
        monkeypatch.setattr(transient, "GMIN", 0.0)
        circuits = [_rc(1000.0), _rc(float("inf")), _rc(3000.0)]
        stop = ps(400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lanes = simulate_lanes(circuits, [stop] * 3)
        assert isinstance(lanes[1], ConvergenceError)
        assert str(lanes[1]) == SINGULAR
        for k in (0, 2):
            alone = simulate_transient(circuits[k], stop)
            assert lanes[k].times.tobytes() == alone.times.tobytes()
            assert list(lanes[k].voltages) == list(alone.voltages)
            for node, trace in alone.voltages.items():
                assert lanes[k].voltages[node].tobytes() == \
                    trace.tobytes(), (k, node)

    def test_dc_operating_point_raises_convergence_error(self,
                                                         monkeypatch):
        monkeypatch.setattr(transient, "GMIN", 0.0)
        circuit = Circuit("floating")
        circuit.add_supply("vdd", 1.0)
        circuit.add_capacitor("vdd", "x", fF(5))
        circuit.add_capacitor("x", "0", fF(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=SINGULAR):
                dc_operating_point(circuit)
