"""Cross-cutting property-based invariants.

These tests pin down behaviours that hold across whole families of
inputs — the physics and algorithmic contracts everything else builds
on — rather than individual examples.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.models.wire import effective_load_capacitance, wire_delay
from repro.spice import Circuit, simulate_transient, step
from repro.units import fF, mm, ps


# ---------------------------------------------------------------------------
# Linear-circuit physics
# ---------------------------------------------------------------------------

class TestLinearSuperposition:
    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.2, max_value=1.5),
           st.floats(min_value=0.2, max_value=1.5))
    def test_rc_response_scales_linearly(self, v1, v2):
        """For a linear RC network the response to a*step is a times
        the response to the step — the simulator must not introduce
        spurious nonlinearity."""
        def response(amplitude):
            circuit = Circuit()
            circuit.add_voltage_source("in", step(amplitude,
                                                  at=ps(10)))
            circuit.add_resistor("in", "out", 1000.0)
            circuit.add_capacitor("out", "0", fF(50))
            result = simulate_transient(circuit, ps(400),
                                        time_step=ps(0.5))
            return result.waveform("out").value_at(ps(200))

        r1 = response(v1)
        r2 = response(v2)
        assert r1 / v1 == pytest.approx(r2 / v2, rel=1e-3)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=100.0, max_value=5000.0),
           st.floats(min_value=10e-15, max_value=200e-15))
    def test_rc_settles_to_source_value(self, resistance, capacitance):
        circuit = Circuit()
        circuit.add_voltage_source("in", step(1.0, at=0.1e-12))
        circuit.add_resistor("in", "out", resistance)
        circuit.add_capacitor("out", "0", capacitance)
        tau = resistance * capacitance
        result = simulate_transient(circuit, 12 * tau,
                                    time_step=tau / 100)
        assert result.final_voltage("out") == pytest.approx(1.0,
                                                            abs=1e-3)

    def test_passive_network_never_overshoots(self):
        """RC-only networks are monotone under a step: no node may
        exceed the source voltage (a numerical-stability property of
        the backward-Euler integrator)."""
        circuit = Circuit()
        circuit.add_voltage_source("in", step(1.0, at=ps(5)))
        circuit.add_rc_ladder("in", "out", 5000.0, fF(300),
                              segments=15)
        result = simulate_transient(circuit, ps(2000))
        for name, trace in result.voltages.items():
            assert np.max(trace) <= 1.0 + 1e-6, name
            assert np.min(trace) >= -1e-6, name


# ---------------------------------------------------------------------------
# Model monotonicity families
# ---------------------------------------------------------------------------

class TestModelMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=10e-3),
           st.floats(min_value=1e-3, max_value=10e-3))
    def test_proposed_delay_monotone_in_length(self, suite90, l1, l2):
        assume(abs(l1 - l2) > 1e-4)
        short, long_ = sorted((l1, l2))
        d_short = suite90.proposed.evaluate(short, 4, 24.0,
                                            ps(100)).delay
        d_long = suite90.proposed.evaluate(long_, 4, 24.0,
                                           ps(100)).delay
        assert d_long > d_short

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=10e-15, max_value=500e-15),
           st.floats(min_value=4.0, max_value=64.0))
    def test_repeater_delay_monotone_in_load(self, suite90, load, size):
        repeater = suite90.proposed.repeater_model()
        d1 = repeater.delay(size, ps(100), load)
        d2 = repeater.delay(size, ps(100), load * 1.5)
        assert d2 > d1

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2.0))
    def test_wire_delay_monotone_in_miller(self, swss90, miller):
        base = wire_delay(swss90, mm(2), fF(20), miller_factor=miller)
        more = wire_delay(swss90, mm(2), fF(20),
                          miller_factor=miller + 0.2)
        assert more > base

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.5e-3, max_value=5e-3),
           st.floats(min_value=5e-15, max_value=100e-15))
    def test_effective_load_additive_in_receiver_cap(self, swss90,
                                                     length, cap):
        base = effective_load_capacitance(swss90, length, 0.0)
        loaded = effective_load_capacitance(swss90, length, cap)
        assert loaded == pytest.approx(base + cap, rel=1e-9)


# ---------------------------------------------------------------------------
# Algorithmic determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_synthesis_is_deterministic(self, suite90):
        from repro.noc.synthesis import synthesize
        from repro.noc.testcases import dual_vopd
        spec_a = dual_vopd(suite90.tech)
        spec_b = dual_vopd(suite90.tech)
        topo_a = synthesize(spec_a, suite90.proposed, suite90.tech)
        topo_b = synthesize(spec_b, suite90.proposed, suite90.tech)
        links_a = sorted((a, b, round(d["length"], 12))
                         for a, b, d in topo_a.links())
        links_b = sorted((a, b, round(d["length"], 12))
                         for a, b, d in topo_b.links())
        assert links_a == links_b
        assert topo_a.hop_statistics() == topo_b.hop_statistics()

    def test_optimizer_is_deterministic(self, suite90):
        from repro.buffering import optimize_buffering
        a = optimize_buffering(suite90.proposed, mm(7),
                               delay_weight=0.5)
        b = optimize_buffering(suite90.proposed, mm(7),
                               delay_weight=0.5)
        assert a.num_repeaters == b.num_repeaters
        assert a.repeater_size == pytest.approx(b.repeater_size)

    def test_characterization_is_deterministic(self, tech90,
                                               small_grid):
        from repro.characterization import RepeaterKind, \
            characterize_cell
        first = characterize_cell(tech90, RepeaterKind.INVERTER, 8.0,
                                  small_grid)
        second = characterize_cell(tech90, RepeaterKind.INVERTER, 8.0,
                                   small_grid)
        assert first.rise.delay.values == second.rise.delay.values


# ---------------------------------------------------------------------------
# Estimator invariants
# ---------------------------------------------------------------------------

class TestEstimatorInvariants:
    """Structural laws of the variance-reduction estimators that hold
    for *every* seed, checked over hypothesis-drawn seeds."""

    @pytest.fixture(scope="class")
    def est_line(self, suite90):
        from repro.signoff.extraction import extract_buffered_line
        model = suite90.proposed
        return extract_buffered_line(model.tech, model.config, mm(2),
                                     2, 24.0)

    @staticmethod
    def _run(line, model, seed, estimator, **kwargs):
        from repro.signoff.variation import monte_carlo_line_delay
        return monte_carlo_line_delay(
            line, ps(100), samples=kwargs.pop("samples", 64),
            seed=seed, workers=1, engine="model", model=model,
            estimator=estimator, **kwargs)

    @pytest.fixture(scope="class")
    def mild_threshold(self, suite90, est_line):
        """A 1-sigma tail threshold (seconds): mild enough that the
        importance weights stay light-tailed and their sample mean is
        a trustworthy estimate of E[w] = 1."""
        plain = self._run(est_line, suite90.proposed, 2010, "plain",
                          samples=256)
        return plain.mean + float(np.std(plain.samples, ddof=1))

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16))
    def test_likelihood_weights_positive_mean_one(self, suite90,
                                                  est_line,
                                                  mild_threshold,
                                                  seed):
        """LR weights are strictly positive and average to 1 under
        the nominal measure (E[w] = 1 exactly; the sample mean must
        sit within 8 estimated standard errors — loose enough never
        to fire on a correct implementation)."""
        result = self._run(est_line, suite90.proposed, seed,
                           "importance", samples=256,
                           prepass_samples=512,
                           critical_delay=mild_threshold)
        weights = np.asarray(result.weights)
        assert np.all(weights > 0.0)
        # 8 *estimated* standard errors, not 5: the weights are
        # right-skewed even at a mild shift, and a draw that misses
        # the rare large weights shrinks the mean and the spread
        # estimate together, so nominal z coverage under-covers (a
        # hypothesis-found seed sat at 5.01 estimated SEs).  A wrong
        # likelihood ratio misses by far more than 8.
        spread = float(np.std(weights, ddof=1))
        margin = 8.0 * spread / np.sqrt(len(weights))
        assert abs(float(np.mean(weights)) - 1.0) <= margin

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16))
    def test_control_variate_beta_zero_is_plain(self, suite90,
                                                est_line, seed):
        """With beta pinned to 0 the control-variate correction
        vanishes and the estimate is bit-for-bit the plain mean."""
        plain = self._run(est_line, suite90.proposed, seed, "plain")
        control = self._run(est_line, suite90.proposed, seed,
                            "control-variate", beta=0.0)
        assert control.samples == plain.samples
        assert control.mean == plain.mean

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16))
    def test_qmc_single_lane_degenerates_to_kernel(self, suite90,
                                                   est_line, seed):
        """One Sobol lane has no between-lane error estimate, so it
        must fall back to the plain estimator bit-for-bit."""
        plain = self._run(est_line, suite90.proposed, seed, "plain")
        qmc = self._run(est_line, suite90.proposed, seed, "qmc",
                        lanes=1)
        assert qmc.samples == plain.samples
        assert qmc.mean == plain.mean
        assert qmc.nominal_delay == plain.nominal_delay

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16))
    def test_effective_sample_size_never_exceeds_draws(self, suite90,
                                                       est_line,
                                                       seed):
        """Kong's ESS = (sum w)^2 / sum w^2 is at most N by
        Cauchy-Schwarz, for every seed and shift."""
        result = self._run(est_line, suite90.proposed, seed,
                           "importance", samples=32,
                           prepass_samples=256)
        assert 0.0 < result.ess <= len(result.samples) + 1e-9


# ---------------------------------------------------------------------------
# Failure injection
# ---------------------------------------------------------------------------

class TestFailureInjection:
    def test_newton_reports_nonconvergence(self, tech90):
        """A pathological circuit (two cross-coupled inverters with no
        defined state, i.e. a bistable latch driven by nothing) either
        converges to a valid rail state or raises ConvergenceError —
        it must not return garbage silently."""
        from repro.spice.transient import ConvergenceError
        wn, wp = tech90.inverter_widths(8.0)
        circuit = Circuit()
        circuit.add_supply("vdd", tech90.vdd)
        circuit.add_inverter("a", "b", "vdd", tech90.nmos, tech90.pmos,
                             wn, wp, tech90.vdd)
        circuit.add_inverter("b", "a", "vdd", tech90.nmos, tech90.pmos,
                             wn, wp, tech90.vdd)
        try:
            result = simulate_transient(circuit, ps(100))
        except ConvergenceError:
            return
        va = result.final_voltage("a")
        vb = result.final_voltage("b")
        # Any DC solution of the latch satisfies both inverter curves;
        # node voltages must at least be physical.
        assert -0.1 <= va <= tech90.vdd + 0.1
        assert -0.1 <= vb <= tech90.vdd + 0.1

    def test_floating_node_does_not_crash(self):
        """GMIN keeps purely capacitive nodes solvable."""
        circuit = Circuit()
        circuit.add_voltage_source("in", step(1.0, at=ps(5)))
        circuit.add_capacitor("in", "float", fF(10))
        circuit.add_capacitor("float", "0", fF(10))
        result = simulate_transient(circuit, ps(100))
        # Capacitive divider: the floating node follows half the step.
        assert result.final_voltage("float") == pytest.approx(0.5,
                                                              abs=0.05)

    def test_zero_capacitance_nodes_are_fine(self):
        circuit = Circuit()
        circuit.add_voltage_source("in", step(1.0, at=ps(5)))
        circuit.add_resistor("in", "mid", 100.0)
        circuit.add_resistor("mid", "0", 100.0)
        result = simulate_transient(circuit, ps(50))
        assert result.final_voltage("mid") == pytest.approx(0.5,
                                                            rel=1e-3)
