"""The lane engine against the dense per-device Newton loop it replaced.

The reference below is the transient engine as it stood before stamp
plans and lanes: every Newton iteration rebuilds a dense device
Jacobian from zeros, evaluates each MOSFET from its parameters, and
solves one circuit at a time.  Every comparison here is exact: the
lane engine promises the same bits, not a close answer.
"""

import dataclasses
import math
from typing import Dict, List

import numpy as np
import pytest

from repro.runtime import TaskError
from repro.signoff import golden, variation
from repro.signoff.crosstalk import (
    AggressorActivity,
    build_coupled_stage_circuit,
)
from repro.signoff.estimators import engines
from repro.signoff.extraction import extract_buffered_line
from repro.signoff.fullline import build_full_line_circuit
from repro.spice import Circuit, dc_operating_point, simulate_transient
from repro.spice import transient
from repro.spice.elements import GROUND, constant
from repro.spice.mosfet import (
    SMOOTHING_MEMO_SIZE,
    MosfetOperatingPoint,
    subthreshold_smoothing,
)
from repro.spice.transient import (
    ConvergenceError,
    SettleRule,
    TransientResult,
    _Assembly,
    simulate_lanes,
)
from repro.units import fF, mm, ns, ps

# -- the reference engine ------------------------------------------------


def _softplus(x, s):
    ratio = x / s
    if ratio > 40.0:
        return x
    if ratio < -40.0:
        return s * math.exp(ratio)
    return s * math.log1p(math.exp(ratio))


def _sigmoid(x, s):
    ratio = x / s
    if ratio > 40.0:
        return 1.0
    if ratio < -40.0:
        return math.exp(ratio)
    return 1.0 / (1.0 + math.exp(-ratio))


def _reference_forward(mosfet, vgs, vds):
    p = mosfet.parameters
    w = mosfet.width
    s = subthreshold_smoothing(p, mosfet.reference_vdd)
    v_eff = _softplus(vgs - p.vth, s)
    dv_eff = _sigmoid(vgs - p.vth, s)
    if v_eff <= 0.0:
        return 0.0, 0.0, 0.0
    i_sat = p.k_sat * w * v_eff**p.alpha
    di_sat_dvgs = p.alpha * p.k_sat * w * v_eff**(p.alpha - 1.0) * dv_eff
    v_dsat = p.k_lin * v_eff**(p.alpha / 2.0)
    dv_dsat_dvgs = (p.k_lin * (p.alpha / 2.0)
                    * v_eff**(p.alpha / 2.0 - 1.0) * dv_eff)
    lam = p.channel_length_modulation
    if vds >= v_dsat:
        clm = 1.0 + lam * (vds - v_dsat)
        ids = i_sat * clm
        gds = i_sat * lam
        gm = di_sat_dvgs * clm - i_sat * lam * dv_dsat_dvgs
    else:
        x = vds / v_dsat
        shape = (2.0 - x) * x
        ids = i_sat * shape
        gds = i_sat * (2.0 - 2.0 * x) / v_dsat
        dx_dvgs = -vds * dv_dsat_dvgs / (v_dsat * v_dsat)
        dshape_dvgs = (2.0 - 2.0 * x) * dx_dvgs
        gm = di_sat_dvgs * shape + i_sat * dshape_dvgs
    return ids, gm, gds


def _reference_point(mosfet, v_gs, v_ds):
    sign = mosfet.parameters.polarity
    vgs = sign * v_gs
    vds = sign * v_ds
    if vds >= 0:
        ids, gm, gds = _reference_forward(mosfet, vgs, vds)
    else:
        ids_s, gm_s, gds_s = _reference_forward(mosfet, vgs - vds, -vds)
        ids = -ids_s
        gm = -gm_s
        gds = gm_s + gds_s
    return MosfetOperatingPoint(ids=sign * ids, gm=gm, gds=gds)


def _device_contributions(circuit, v_all):
    n = v_all.size
    i_dev = np.zeros(n)
    jacobian = np.zeros((n, n))

    def volt(node):
        return 0.0 if node == GROUND else v_all[node]

    for mosfet in circuit.mosfets:
        d, g, s = mosfet.drain, mosfet.gate, mosfet.source
        point = _reference_point(mosfet, volt(g) - volt(s),
                                 volt(d) - volt(s))
        if d != GROUND:
            i_dev[d] += point.ids
        if s != GROUND:
            i_dev[s] -= point.ids
        entries = ((d, point.gds), (g, point.gm),
                   (s, -(point.gm + point.gds)))
        for column, derivative in entries:
            if column == GROUND:
                continue
            if d != GROUND:
                jacobian[d, column] += derivative
            if s != GROUND:
                jacobian[s, column] -= derivative
    return i_dev, jacobian


def _newton_solve(assembly, v_guess, linear_matrix, rhs_constant, tol,
                  max_iterations):
    unknown = assembly.unknown_indices
    v_all = v_guess.copy()
    if unknown.size == 0:
        return v_all
    for _ in range(max_iterations):
        i_dev, j_dev = _device_contributions(assembly.circuit, v_all)
        residual = (linear_matrix @ v_all + i_dev - rhs_constant)[unknown]
        system = (linear_matrix + j_dev)[np.ix_(unknown, unknown)]
        try:
            delta = np.linalg.solve(system, -residual)
        except np.linalg.LinAlgError as error:
            raise ConvergenceError(f"singular Newton system: {error}")
        worst = np.max(np.abs(delta))
        if worst > transient.MAX_NEWTON_STEP:
            delta *= transient.MAX_NEWTON_STEP / worst
        v_all[unknown] += delta
        if worst < tol:
            return v_all
    raise ConvergenceError(
        f"Newton failed to converge within {max_iterations} iterations "
        f"(last update {worst:.3e} V)")


def _source_currents(circuit, t):
    currents = np.zeros(circuit.node_count)
    for source in circuit.current_sources:
        if source.node != GROUND:
            currents[source.node] += source.current(t)
    return currents


def _driven(assembly, t):
    return np.array([w(t) for w in assembly.driven_waveforms])


def reference_transient(circuit, stop_time, time_step=None, record=None,
                        newton_tol=1e-6, max_newton_iterations=60):
    if time_step is None:
        time_step = stop_time / 1500.0
    assembly = _Assembly(circuit)
    recorded = (list(record) if record is not None
                else circuit.node_names())
    recorded_indices = [circuit.node(name) for name in recorded]
    steps = int(np.ceil(stop_time / time_step))
    times = np.linspace(0.0, steps * time_step, steps + 1)

    v_all = np.zeros(assembly.n)
    v_all[assembly.driven_indices] = _driven(assembly, 0.0)
    v_all = _newton_solve(assembly, v_all, assembly.G,
                          _source_currents(circuit, 0.0), newton_tol,
                          max_iterations=200)
    traces = np.empty((len(recorded_indices), steps + 1))
    traces[:, 0] = [0.0 if i == GROUND else v_all[i]
                    for i in recorded_indices]
    c_over_dt = assembly.C / time_step
    linear_matrix = assembly.G + c_over_dt
    for step_index in range(1, steps + 1):
        t = times[step_index]
        v_next = v_all.copy()
        v_next[assembly.driven_indices] = _driven(assembly, t)
        rhs = _source_currents(circuit, t) + c_over_dt @ v_all
        v_all = _newton_solve(assembly, v_next, linear_matrix, rhs,
                              newton_tol, max_newton_iterations)
        traces[:, step_index] = [0.0 if i == GROUND else v_all[i]
                                 for i in recorded_indices]
    return TransientResult(times=times, voltages={
        name: traces[row] for row, name in enumerate(recorded)})


def reference_dc(circuit, newton_tol=1e-9, max_iterations=400):
    assembly = _Assembly(circuit)
    v_all = np.zeros(assembly.n)
    v_all[assembly.driven_indices] = _driven(assembly, 0.0)
    v_all = _newton_solve(assembly, v_all, assembly.G,
                          _source_currents(circuit, 0.0), newton_tol,
                          max_iterations)
    return {name: float(v_all[circuit.node(name)])
            for name in circuit.node_names()}


# -- helpers ---------------------------------------------------------------


def _bits(array):
    array = np.asarray(array, dtype=float)
    return array.shape, array.tobytes()


def assert_same_result(new: TransientResult, old: TransientResult):
    assert _bits(new.times) == _bits(old.times)
    assert list(new.voltages) == list(old.voltages)
    for node in old.voltages:
        assert _bits(new.voltages[node]) == _bits(old.voltages[node]), node


def _settling_stage(tech, rising=True, row=(1.0, 1.0, 1.0, 1.0),
                    slew=ps(100)):
    """(circuit, stop time, settle rule) of a golden stage."""
    return golden._build_stage_circuit(
        variation._perturbed_technology(tech, row), 24.0, 200.0,
        150e-15, 20e-15, slew, rising)


def _stage(tech, rising=True, row=(1.0, 1.0, 1.0, 1.0), slew=ps(100)):
    circuit, stop_time, _ = _settling_stage(tech, rising, row, slew)
    return circuit, stop_time


#: Stage arguments after the technology (size, wire ohms, wire farads,
#: load farads) of the slow-settling batch below.
SLOW_STAGE = (24.0, 2000.0, 300e-15, 20e-15)

#: The factor row of a pull-up 50x weaker than nominal: its rising
#: output outlasts the first stop-time window.
WEAK_PULL_UP = (1.0, 1.0, 0.02, 1.0)


@pytest.fixture
def count_iterations(monkeypatch):
    """Newton iterations per circuit (device evaluations per lane)."""
    counts: Dict[int, int] = {}
    original = _Assembly.device_terms

    def counted(self, voltages):
        counts[id(self.circuit)] = counts.get(id(self.circuit), 0) + 1
        return original(self, voltages)

    monkeypatch.setattr(_Assembly, "device_terms", counted)
    return counts


# -- one lane against the reference ---------------------------------------


class TestOneLaneMatchesReference:
    def test_mosfet_equations(self, tech90):
        wn, wp = tech90.inverter_widths(8.0)
        circuit = Circuit()
        n = circuit.add_mosfet("d", "g", "0", tech90.nmos, wn, tech90.vdd)
        p = circuit.add_mosfet("d", "g", "vdd", tech90.pmos, wp,
                               tech90.vdd)
        grid = np.linspace(-1.5, 1.5, 41)
        for device in (n, p):
            for v_gs in grid:
                for v_ds in grid:
                    assert device.evaluate(v_gs, v_ds) == \
                        _reference_point(device, v_gs, v_ds)

    @pytest.mark.parametrize("rising", [True, False])
    def test_golden_stage(self, tech90, rising):
        circuit, stop_time = _stage(tech90, rising)
        assert_same_result(
            simulate_transient(circuit, stop_time, record=["in", "out"]),
            reference_transient(circuit, stop_time,
                                record=["in", "out"]))

    def test_three_coupled_lines(self, suite90):
        length = mm(1.5)
        config = suite90.config
        circuit, stop_time, _ = build_coupled_stage_circuit(
            suite90.tech, 24.0, config.resistance_per_meter() * length,
            config.ground_capacitance_per_meter() * length,
            config.coupling_capacitance_per_meter() * length, fF(20),
            ps(100), True, AggressorActivity.OPPOSITE)
        assert_same_result(simulate_transient(circuit, stop_time),
                           reference_transient(circuit, stop_time))

    def test_full_line(self, tech90, swss90):
        line = extract_buffered_line(tech90, swss90, mm(2), 2, 24.0)
        circuit, stop_time, _ = build_full_line_circuit(line, ps(100))
        step = stop_time / 2000
        assert_same_result(
            simulate_transient(circuit, stop_time, time_step=step,
                               record=["in", "out"]),
            reference_transient(circuit, stop_time, time_step=step,
                                record=["in", "out"]))

    def test_current_source(self):
        circuit = Circuit()
        circuit.add_current_source("out", lambda t: 1e-6 if t > 0 else 0.0)
        circuit.add_capacitor("out", "0", 1e-15)
        circuit.add_resistor("out", "0", 1e9)
        assert_same_result(simulate_transient(circuit, 1e-9),
                           reference_transient(circuit, 1e-9))

    def test_dc_operating_point(self, tech90):
        wn, wp = tech90.inverter_widths(4.0)
        for level in (0.0, tech90.vdd):
            circuit = Circuit()
            circuit.add_supply("vdd", tech90.vdd)
            circuit.add_supply("in", level)
            circuit.add_inverter("in", "mid", "vdd", tech90.nmos,
                                 tech90.pmos, wn, wp, tech90.vdd)
            circuit.add_inverter("mid", "out", "vdd", tech90.nmos,
                                 tech90.pmos, wn, wp, tech90.vdd)
            assert dc_operating_point(circuit) == reference_dc(circuit)

    def test_recorded_ground_reads_zero(self, tech90):
        circuit, stop_time = _stage(tech90)
        record = ["out", "0", "in", "gnd"]
        result = simulate_transient(circuit, stop_time, record=record)
        assert_same_result(result, reference_transient(
            circuit, stop_time, record=record))
        assert not result.voltages["0"].any()
        assert not result.voltages["gnd"].any()
        # Ground is index -1: a naive gather would read the last node.
        assert result.voltages["out"].any()


# -- many lanes against one lane at a time ----------------------------------


def _perturbed_rows(count, seed=3):
    z = np.random.default_rng(seed).standard_normal((count, 4))
    return engines.factor_matrix(z, variation.VariationModel(), 1)[:, 0]


class TestLanesMatchSoloRuns:
    def test_eight_stages_with_their_own_step_counts(
            self, tech90, count_iterations):
        rows = _perturbed_rows(8)
        built = [_stage(tech90, row=row, slew=ps(80 + 10 * k))
                 for k, row in enumerate(rows)]
        circuits = [circuit for circuit, _ in built]
        stops = [stop for _, stop in built]
        steps = [stop / (1500 + k % 2) for k, stop in enumerate(stops)]
        solo = [simulate_transient(circuit, stop, time_step=step,
                                   record=["in", "out"])
                for circuit, stop, step in zip(circuits, stops, steps)]
        solo_iterations = [count_iterations[id(c)] for c in circuits]
        count_iterations.clear()
        lanes = simulate_lanes(circuits, stops, steps,
                               record=["in", "out"])
        for lane, alone in zip(lanes, solo):
            assert_same_result(lane, alone)
        assert {1500, 1501} <= {len(result.times) - 1
                                for result in lanes}
        assert len(set(solo_iterations)) > 1
        assert [count_iterations[id(c)] for c in circuits] \
            == solo_iterations

    def test_stage_batch_with_a_settle_retry(self, tech90, monkeypatch):
        rows = [list(row) for row in _perturbed_rows(7, seed=4)]
        rows.insert(2, list(WEAK_PULL_UP))
        techs = [variation._perturbed_technology(tech90, row)
                 for row in rows]
        slews = [ps(60 + 20 * k) for k in range(len(rows))]
        solo = [golden.simulate_stage(tech, *SLOW_STAGE, slew, False)
                for tech, slew in zip(techs, slews)]

        calls = []
        windows: List[List[int]] = []  # steps each lane ran, per window
        simulate, run = golden.simulate_lanes, transient._run

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return simulate(*args, **kwargs)

        def recorded(*args):
            results, unsettled = run(*args)
            windows.append([len(result.times) - 1 for result in results])
            return results, unsettled

        monkeypatch.setattr(golden, "simulate_lanes", counted)
        monkeypatch.setattr(transient, "_run", recorded)
        lanes = golden.simulate_stages(techs, *SLOW_STAGE, slews, False)
        assert lanes == solo
        # One engine call; the engine re-runs only the slow lane.  It
        # never enters the settle band in its first window, so it runs
        # that window whole; the others stop early.
        assert calls == [8]
        assert [len(steps) for steps in windows] == [8, 1]
        assert windows[0][2] == 1500
        assert max(windows[0][:2] + windows[0][3:]) < 1500
        assert lanes == [_full_window_stage(tech, *SLOW_STAGE, slew, False)
                         for tech, slew in zip(techs, slews)]

    def test_failed_lane_leaves_the_others_exact(self, tech90):
        good, stop = _stage(tech90)
        bad, _ = _stage(_high_supply(tech90))
        lanes = simulate_lanes([good, bad, good], [stop] * 3,
                               record=["out"])
        assert isinstance(lanes[1], ConvergenceError)
        assert "within 200 iterations" in str(lanes[1])
        alone = simulate_transient(good, stop, record=["out"])
        assert_same_result(lanes[0], alone)
        assert_same_result(lanes[2], alone)
        with pytest.raises(ConvergenceError):
            simulate_transient(bad, stop)

    def test_topology_mismatch_is_rejected(self, tech90):
        stage, stop = _stage(tech90)
        other = Circuit()
        other.add_supply("vdd", 1.0)
        other.add_resistor("vdd", "out", 10.0)
        with pytest.raises(ValueError, match="one topology"):
            simulate_lanes([stage, other], [stop, stop])


# -- the settle stop -------------------------------------------------------


def _settle_step(result, rule):
    """The first step of ``result`` at or after the rule's quiet time
    with its node inside the band, or None."""
    values = result.voltages[rule.node]
    for step in range(1, len(result.times)):
        if (result.times[step] >= rule.quiet_time
                and abs(values[step] - rule.target) <= rule.tolerance):
            return step
    return None


def _full_window_stage(tech, *args):
    """``golden.simulate_stage`` without the settle stop or the engine's
    retries: each attempt runs its whole window, and the caller checks
    its last sample and doubles the stop time, as many times as the
    engine would."""
    slew, rising = args[-2:]
    circuit, stop_time, settle = golden._build_stage_circuit(tech, *args)
    for _ in range(transient.MAX_SETTLE_RETRIES + 1):
        result = simulate_transient(circuit, stop_time,
                                    record=["in", "out"])
        if result.waveform(settle.node).settled(settle.target,
                                                settle.tolerance):
            return golden._stage_timing(result, tech.vdd, slew, rising)
        stop_time *= 2.0
    raise ConvergenceError("stage never settled")


def _outcome(function, *args):
    """``function(*args)``, or the type of what it raised and whether
    its text says the output never settled."""
    try:
        return function(*args)
    except Exception as error:
        return type(error), "never settled" in str(error)


def assert_prefix(cut: TransientResult, full: TransientResult):
    """``cut`` is ``full`` cut short, bit for bit."""
    count = len(cut.times)
    assert count < len(full.times)
    assert _bits(cut.times) == _bits(full.times[:count])
    assert list(cut.voltages) == list(full.voltages)
    for node in full.voltages:
        assert _bits(cut.voltages[node]) == \
            _bits(full.voltages[node][:count]), node


#: Stage corners of the settle sweep: (factor row, size, wire ohms,
#: wire farads, load farads, input slew, rising input).  The last two
#: pair a strong pull-down with a weak pull-up, which the stop-time
#: estimate (an n-channel Elmore delay) undershoots: a rising output
#: then settles on a retry, or never.
SETTLE_CORNERS = (
    ((0.02, 1.5, 0.02, 1.5), 1.0, 6e4, 1e-12, 1e-13, ns(1), True),
    ((0.02, 1.5, 0.02, 1.5), 1.0, 6e4, 1e-12, 1e-13, ns(1), False),
    ((2.0, 0.5, 2.0, 0.5), 128.0, 10.0, 1e-15, 1e-15, ps(5), True),
    ((2.0, 0.5, 2.0, 0.5), 128.0, 10.0, 1e-15, 1e-15, ps(5), False),
    ((2.0, 0.5, 0.02, 1.5), 1.0, 6e4, 1e-12, 1e-13, ns(1), False),
    ((2.0, 0.5, 0.02, 1.5), 128.0, 10.0, 1e-15, 1e-15, ps(5), False),
)


def _settle_sweep(count, seed):
    """The corners, then ``count`` stages drawn log-uniformly over
    sizes 1-128, wires up to 60 kOhm and 1 pF (RC up to 60 ns), loads
    1-100 fF and slews 5 ps-1 ns, with drive factors 0.02-2 and vth
    factors 0.5-1.5, alternating edges."""
    rng = np.random.default_rng(seed)
    cases = list(SETTLE_CORNERS)
    for k in range(count):
        row = (rng.uniform(0.02, 2.0), rng.uniform(0.5, 1.5),
               rng.uniform(0.02, 2.0), rng.uniform(0.5, 1.5))
        cases.append((row, float(np.exp(rng.uniform(0.0, math.log(128)))),
                      float(10 ** rng.uniform(1.0, math.log10(6e4))),
                      float(10 ** rng.uniform(-15.0, -12.0)),
                      float(10 ** rng.uniform(-15.0, -13.0)),
                      float(10 ** rng.uniform(math.log10(5e-12), -9.0)),
                      bool(k % 2)))
    return cases


class TestSettleStop:
    @pytest.mark.parametrize("rising", [True, False])
    def test_settled_lane_is_a_prefix_of_the_full_window(self, tech90,
                                                         rising):
        circuit, stop_time, settle = _settling_stage(tech90, rising)
        full = reference_transient(circuit, stop_time,
                                   record=["in", "out"])
        cut = simulate_transient(circuit, stop_time, record=["in", "out"],
                                 settle=settle)
        assert_prefix(cut, full)
        assert len(cut.times) - 1 == _settle_step(full, settle)

    def test_lanes_settling_at_different_steps_equal_solo_runs(
            self, tech90):
        built = [_settling_stage(tech90, rising=bool(k % 2), row=row,
                                 slew=ps(40 + 60 * k))
                 for k, row in enumerate(_perturbed_rows(8, seed=5))]
        circuits, stops, rules = zip(*built)
        lanes = simulate_lanes(circuits, stops, record=["in", "out"],
                               settle=rules)
        for lane, circuit, stop, rule in zip(lanes, circuits, stops, rules):
            assert_same_result(lane, simulate_transient(
                circuit, stop, record=["in", "out"], settle=rule))
            assert_prefix(lane, simulate_transient(circuit, stop,
                                                   record=["in", "out"]))
        assert len({len(lane.times) for lane in lanes}) == len(lanes)

    def test_stage_equals_measuring_the_full_window(self, tech90):
        outcomes = []
        for row, *args in _settle_sweep(20, seed=21):
            tech = variation._perturbed_technology(tech90, row)
            outcome = _outcome(golden.simulate_stage, tech, *args)
            assert outcome == _outcome(_full_window_stage, tech, *args)
            outcomes.append(outcome)
        assert (ConvergenceError, True) in outcomes

    def test_rules_are_checked(self, tech90):
        circuit, stop_time, settle = _settling_stage(tech90)
        with pytest.raises(ValueError, match="one settle rule"):
            simulate_lanes([circuit], [stop_time], settle=[])
        ground = SettleRule("0", 0.0, 0.1, 0.0)
        with pytest.raises(ValueError, match="other than ground"):
            simulate_transient(circuit, stop_time, settle=ground)


class TestSettleRetry:
    @pytest.mark.parametrize("steps", [None, 900, 2000])
    def test_retry_equals_a_run_at_twice_the_stop_time_and_step(
            self, tech90, steps):
        circuit, stop, rule = golden._build_stage_circuit(
            variation._perturbed_technology(tech90, WEAK_PULL_UP),
            *SLOW_STAGE, ps(100), False)
        step = None if steps is None else stop / steps
        first = simulate_transient(circuit, stop, step, record=["out"])
        assert not first.waveform("out").settled(rule.target,
                                                 rule.tolerance)
        retried = simulate_transient(circuit, stop, step,
                                     record=["in", "out"], settle=rule)
        twice = simulate_transient(
            circuit, 2.0 * stop,
            None if steps is None else 2.0 * stop / steps,
            record=["in", "out"], settle=rule)
        # The doubled window settles on its own, so ``twice`` is one
        # window, not a retry.
        assert len(twice.times) - 1 < (steps or 1500)
        assert_same_result(retried, twice)
        assert retried.times[1] == 2.0 * first.times[1]

    def test_a_lane_that_never_settles(self, tech90):
        circuit, stop, rule = _settling_stage(tech90)
        # Below ground: the output never enters this band.
        never = SettleRule("out", -tech90.vdd, rule.tolerance,
                           rule.quiet_time)
        with pytest.raises(ConvergenceError, match=(
                "circuit 'stage': node 'out' never settled within "
                f"{transient.MAX_SETTLE_RETRIES} retries")):
            simulate_transient(circuit, stop, settle=never)
        lanes = simulate_lanes([circuit] * 3, [stop] * 3,
                               record=["in", "out"],
                               settle=[rule, never, rule])
        assert isinstance(lanes[1], ConvergenceError)
        alone = simulate_transient(circuit, stop, record=["in", "out"],
                                   settle=rule)
        assert_same_result(lanes[0], alone)
        assert_same_result(lanes[2], alone)


def _high_supply(tech):
    """``tech`` at a 100 V supply: a DC start that needs ~330 damped
    Newton steps, beyond the 200 the transient allows it."""
    return dataclasses.replace(tech, vdd=100.0)


# -- Monte Carlo ------------------------------------------------------------


class TestMonteCarloLanes:
    def test_rows_as_lanes_equal_rows_alone(self, tech90, swss90):
        line = extract_buffered_line(tech90, swss90, mm(2), 2, 24.0)
        z = np.random.default_rng(9).standard_normal((5, 8))
        factors = engines.factor_matrix(z, variation.VariationModel(), 2)
        lanes = engines.evaluate_factors("golden", None, line, ps(100),
                                         factors, workers=1)
        alone = [variation._golden_line_delay(line, ps(100), row)
                 for row in factors]
        assert lanes.tolist() == alone

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_draw_names_its_row(self, tech90, swss90, monkeypatch,
                                       workers):
        line = extract_buffered_line(tech90, swss90, mm(2), 2, 24.0)
        factors = np.ones((5, 2, 4))
        factors[3, 0, 0] = 0.75  # the draw that will not converge
        perturb = variation._perturbed_technology

        def diverging(tech, row):
            if row[0] == 0.75:
                return _high_supply(tech)
            return perturb(tech, row)

        monkeypatch.setattr(variation, "_perturbed_technology", diverging)
        with pytest.raises(TaskError) as caught:
            engines.evaluate_factors("golden", None, line, ps(100),
                                     factors, workers=workers)
        assert caught.value.item_index == 3
        assert caught.value.label == "variation.golden_draw"
        assert "ConvergenceError" in caught.value.cause_summary

    def test_smoothing_memo_stays_bounded(self, tech90, swss90):
        line = extract_buffered_line(tech90, swss90, mm(5), 8, 24.0)
        subthreshold_smoothing.cache_clear()
        for seed in range(3):
            variation.monte_carlo_line_delay(line, ps(100), samples=8,
                                             seed=seed, workers=1)
        info = subthreshold_smoothing.cache_info()
        # 3 queries x 8 draws x 8 stages x 2 devices distinct keys.
        assert info.misses > SMOOTHING_MEMO_SIZE
        assert info.currsize <= SMOOTHING_MEMO_SIZE


def test_fully_driven_lanes(tech90):
    circuit = Circuit()
    circuit.add_supply("vdd", 1.0)
    circuit.add_voltage_source("in", constant(0.5))
    circuit.add_resistor("vdd", "in", 100.0)
    results = simulate_lanes([circuit, circuit], [ps(10), ps(20)])
    for result, stop_time in zip(results, (ps(10), ps(20))):
        assert_same_result(result, reference_transient(circuit, stop_time))
        assert result.final_voltage("in") == 0.5
