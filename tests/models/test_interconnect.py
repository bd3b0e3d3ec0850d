"""End-to-end buffered-interconnect model."""

import math
import pickle

import pytest

from repro.characterization import RepeaterKind
from repro.experiments.suite import ModelSuite
from repro.models.extensions import SlewAwareInterconnectModel
from repro.models.interconnect import (
    BufferedInterconnectModel,
    InterconnectEstimate,
)
from repro.models.wire import WireCoefficients
from repro.runtime import fingerprint
from repro.units import mm, ps


class TestEvaluate:
    def test_estimate_fields_consistent(self, suite90):
        estimate = suite90.proposed.evaluate(mm(5), 5, 16.0, ps(100))
        assert estimate.num_repeaters == 5
        assert len(estimate.stage_delays) == 5
        assert estimate.delay == pytest.approx(
            sum(estimate.stage_delays))
        assert estimate.total_power == pytest.approx(
            estimate.dynamic_power + estimate.leakage_power)
        assert estimate.total_area == pytest.approx(
            estimate.repeater_area + estimate.wire_area)

    def test_slew_settles_along_uniform_line(self, suite90):
        estimate = suite90.proposed.evaluate(mm(10), 10, 24.0, ps(300))
        # Interior stages converge: late stage delays become periodic.
        late = estimate.stage_delays[-4:-1]
        assert max(late) - min(late) < 0.1 * max(late)

    def test_first_stage_slowest_with_slow_input(self, suite90):
        estimate = suite90.proposed.evaluate(mm(10), 10, 24.0, ps(400))
        assert estimate.stage_delays[0] > estimate.stage_delays[2]

    def test_delay_decreases_with_repeater_count_on_long_line(
            self, suite90):
        sparse = suite90.proposed.evaluate(mm(10), 2, 24.0, ps(100))
        dense = suite90.proposed.evaluate(mm(10), 10, 24.0, ps(100))
        assert dense.delay < sparse.delay

    def test_power_grows_with_repeater_count(self, suite90):
        few = suite90.proposed.evaluate(mm(10), 2, 24.0, ps(100))
        many = suite90.proposed.evaluate(mm(10), 10, 24.0, ps(100))
        assert many.leakage_power > few.leakage_power
        assert many.dynamic_power > few.dynamic_power

    def test_bus_width_scales_power_and_area(self, suite90):
        single = suite90.proposed.evaluate(mm(5), 5, 16.0, ps(100),
                                           bus_width=1)
        bus = suite90.proposed.evaluate(mm(5), 5, 16.0, ps(100),
                                        bus_width=32)
        assert bus.dynamic_power == pytest.approx(
            32 * single.dynamic_power)
        assert bus.leakage_power == pytest.approx(
            32 * single.leakage_power)
        assert bus.repeater_area == pytest.approx(
            32 * single.repeater_area)
        assert bus.wire_area > single.wire_area
        # Delay is per-bit and unchanged.
        assert bus.delay == pytest.approx(single.delay)

    def test_receiver_cap_override(self, suite90):
        big_receiver = suite90.proposed.evaluate(
            mm(2), 2, 16.0, ps(100), receiver_cap=500e-15)
        small_receiver = suite90.proposed.evaluate(
            mm(2), 2, 16.0, ps(100), receiver_cap=5e-15)
        assert big_receiver.delay > small_receiver.delay

    def test_validation(self, suite90):
        with pytest.raises(ValueError):
            suite90.proposed.evaluate(0.0, 1, 8.0, ps(100))
        with pytest.raises(ValueError):
            suite90.proposed.evaluate(mm(1), 0, 8.0, ps(100))


class TestBufferKind:
    def test_buffer_line_keeps_polarity(self, tech90, swss90):
        """A buffer-based line is non-inverting: every stage sees the
        same transition direction, so (unlike an inverter chain) all
        interior stage delays converge to ONE value, not an
        alternating pair."""
        from repro.characterization import RepeaterKind
        from repro.models.calibration import load_calibration
        from repro.models.interconnect import BufferedInterconnectModel
        calibration = load_calibration(tech90, RepeaterKind.BUFFER)
        model = BufferedInterconnectModel(tech=tech90,
                                          calibration=calibration,
                                          config=swss90)
        estimate = model.evaluate(mm(8), 8, 24.0, ps(100))
        late = estimate.stage_delays[-4:]
        # Converged: consecutive stages equal (no rise/fall alternation).
        assert late[-1] == pytest.approx(late[-2], rel=1e-6)
        assert estimate.delay > 0

    def test_buffer_vs_inverter_models_differ(self, suite90, tech90,
                                              swss90):
        from repro.characterization import RepeaterKind
        from repro.models.calibration import load_calibration
        from repro.models.interconnect import BufferedInterconnectModel
        buffer_model = BufferedInterconnectModel(
            tech=tech90,
            calibration=load_calibration(tech90, RepeaterKind.BUFFER),
            config=swss90)
        inv = suite90.proposed.evaluate(mm(5), 5, 16.0, ps(100))
        buf = buffer_model.evaluate(mm(5), 5, 16.0, ps(100))
        # Buffers carry two stages of intrinsic delay per repeater.
        assert buf.delay > inv.delay


class TestStaggered:
    def test_staggered_faster_same_power(self, suite90):
        normal = suite90.proposed.evaluate(mm(5), 5, 16.0, ps(100))
        staggered_model = suite90.proposed.staggered()
        staggered = staggered_model.evaluate(mm(5), 5, 16.0, ps(100))
        assert staggered.delay < normal.delay
        assert staggered.dynamic_power == pytest.approx(
            normal.dynamic_power)
        assert staggered.leakage_power == pytest.approx(
            normal.leakage_power)


class TestAccuracyEnvelope:
    def test_tracks_golden_within_paper_bound(self, suite90):
        """The headline claim: proposed model within ~12% of sign-off."""
        from repro.signoff import (
            evaluate_buffered_line,
            extract_buffered_line,
        )
        length, count, size = mm(5), 6, 32.0
        line = extract_buffered_line(suite90.tech, suite90.config,
                                     length, count, size)
        golden = evaluate_buffered_line(line, ps(300))
        estimate = suite90.proposed.evaluate(length, count, size,
                                             ps(300))
        error = abs(estimate.delay - golden.total_delay) \
            / golden.total_delay
        assert error < 0.15


def _stage_by_stage(model, length, num_repeaters, repeater_size,
                    input_slew, receiver_cap=None):
    """Reference evaluation: every stage computed, none copied."""
    wire = WireCoefficients.from_config(model.config)
    segment = length / num_repeaters
    input_cap = model.repeater_model().input_capacitance(repeater_size)
    if receiver_cap is None:
        receiver_cap = input_cap
    wn, wp = model.tech.inverter_widths(repeater_size)
    delays = []
    slew = input_slew
    rising = True
    for stage in range(num_repeaters):
        next_cap = (input_cap if stage + 1 < num_repeaters
                    else receiver_cap)
        delay, slew = model.stage_delay(
            wire, wp if rising else wn, slew, segment, next_cap, rising)
        delays.append(delay)
        if model.calibration.kind.inverting:
            rising = not rising
    p_dynamic, p_leak, a_repeaters, a_wire = model.power_and_area(
        wire, length, num_repeaters, wn, wp, input_cap, 1)
    return InterconnectEstimate(
        delay=sum(delays), output_slew=slew, stage_delays=tuple(delays),
        dynamic_power=p_dynamic, leakage_power=p_leak,
        repeater_area=a_repeaters, wire_area=a_wire,
        num_repeaters=num_repeaters, repeater_size=repeater_size,
        length=length, bus_width=1)


class TestPeriodicStages:
    """``evaluate`` copies inner stages once their input slew repeats
    the one two stages back; every field must equal computing each
    stage.  Inverter chains alternate edges and buffer chains do not,
    so both kinds pin the cycle's phase and period."""

    @pytest.fixture(scope="class", params=[
        (node, kind) for node in ("90nm", "45nm", "16nm")
        for kind in (RepeaterKind.INVERTER, RepeaterKind.BUFFER)],
        ids=lambda case: f"{case[0]}-{case[1].value}")
    def model(self, request):
        node, kind = request.param
        return ModelSuite.for_node(node, kind=kind).proposed

    @pytest.mark.parametrize("num_repeaters",
                             [1, 2, 3, 4, 5, 13, 64, 120])
    def test_equals_stage_by_stage(self, model, num_repeaters):
        for length in (mm(1), mm(6), mm(15)):
            for size in (4.0, 48.0):
                for input_slew in (ps(20), ps(400)):
                    for receiver_cap in (None, 200e-15):
                        assert model.evaluate(
                            length, num_repeaters, size, input_slew,
                            receiver_cap=receiver_cap) == \
                            _stage_by_stage(model, length,
                                            num_repeaters, size,
                                            input_slew, receiver_cap)

    def test_long_line_computes_one_stage_load(self, model,
                                               monkeypatch):
        """The inner stages and the default receiver share one load;
        only the slew-dependent step runs per computed stage, and the
        copied stages still fill every stage delay."""
        loads, drives = [], []
        stage_load = BufferedInterconnectModel.stage_load
        drive_stage = BufferedInterconnectModel.drive_stage

        def counting_load(*args, **kwargs):
            loads.append(1)
            return stage_load(*args, **kwargs)

        def counting_drive(*args, **kwargs):
            drives.append(1)
            return drive_stage(*args, **kwargs)

        monkeypatch.setattr(BufferedInterconnectModel, "stage_load",
                            counting_load)
        monkeypatch.setattr(BufferedInterconnectModel, "drive_stage",
                            counting_drive)
        estimate = model.evaluate(mm(12), 120, 24.0, ps(100))
        assert len(estimate.stage_delays) == 120
        assert len(loads) == 1
        assert 0 < len(drives) < 60

    @pytest.mark.parametrize("num_repeaters", [1, 2, 3, 13, 120])
    def test_receiver_at_the_input_capacitance(self, model,
                                               num_repeaters):
        """An explicit ``receiver_cap`` gets its own stage load, also
        when it equals the input capacitance or lies one ulp above
        it."""
        for length in (mm(1), mm(15)):
            for size in (4.0, 48.0):
                input_cap = model.repeater_model().input_capacitance(
                    size)
                for receiver_cap in (input_cap,
                                     math.nextafter(input_cap,
                                                    math.inf)):
                    for input_slew in (ps(20), ps(400)):
                        assert model.evaluate(
                            length, num_repeaters, size, input_slew,
                            receiver_cap=receiver_cap) == \
                            _stage_by_stage(model, length,
                                            num_repeaters, size,
                                            input_slew, receiver_cap)

    @pytest.mark.parametrize("num_repeaters", [1, 2, 3, 13, 120])
    def test_slew_aware_equals_stage_by_stage(self, model,
                                              num_repeaters):
        """The slew-aware subclass overrides the per-stage step, and
        ``evaluate`` must still take it on every computed stage."""
        slew_aware = SlewAwareInterconnectModel(
            model.tech, model.calibration, model.config,
            model.activity_factor)
        for length in (mm(1), mm(15)):
            for size in (4.0, 48.0):
                for input_slew in (ps(20), ps(400)):
                    for receiver_cap in (None, 200e-15):
                        assert slew_aware.evaluate(
                            length, num_repeaters, size, input_slew,
                            receiver_cap=receiver_cap) == \
                            _stage_by_stage(slew_aware, length,
                                            num_repeaters, size,
                                            input_slew, receiver_cap)


#: ``runtime.fingerprint`` of each suite's technology and models, as
#: recorded while ``TechnologyParameters`` could not be hashed: making
#: it hashable must leave every disk-cache key where it was.
SUITE_FINGERPRINTS = {
    ("90nm", "tech"):
        "821c498943e30ad6378cd846b4e88e477884be351ca74632e2a200c4032b30c7",
    ("90nm", "bakoglu"):
        "f64c12e83eab7840a9c5030fffe53d08d736ff7e65fde25a786ddae094829c2c",
    ("90nm", "pamunuwa"):
        "cb66d728bccc8cb840ee00f793a1e2c2b1e94ffb8aff42bda5677345ad354472",
    ("90nm", "proposed"):
        "b3e7e92e0ffd031f4c607ea45479622f212367058893d4a59d1deed5e400c088",
    ("45nm", "tech"):
        "87632359003e98898f75b415f214316cfb05b6b98cb8798cbb3e40c584c73036",
    ("45nm", "bakoglu"):
        "ea6ff183ea6b6b73176fb0724f5a0c6ee1bbb87b8cd1eeea8f7aa04c35d3c827",
    ("45nm", "pamunuwa"):
        "a53837440d724b979788ab6d9115cb7acceef439127c8149bfc373662537e404",
    ("45nm", "proposed"):
        "7fb43f8b7ef0f03efe8f9c258e05cbb2874e05d68f4b7ed36dff8a4f6151f7c4",
}


@pytest.mark.parametrize("node", ["90nm", "45nm"])
def test_suite_models_hash_and_keep_their_keys(node):
    suite = ModelSuite.for_node(node)
    assert fingerprint(suite.tech) == SUITE_FINGERPRINTS[node, "tech"]
    for name, model in suite.models().items():
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        assert hash(clone) == hash(model)
        assert fingerprint(model) == SUITE_FINGERPRINTS[node, name]


class TestPerInstanceViews:
    """A model builds its wire view and repeater model once, outside
    its dataclass fields, so its key, equality, hash and pickle stay
    what its fields make them."""

    @staticmethod
    def _fresh(suite90):
        proposed = suite90.proposed
        return BufferedInterconnectModel(
            proposed.tech, proposed.calibration, proposed.config,
            proposed.activity_factor)

    def test_one_wire_view_across_evaluations(self, suite90,
                                              monkeypatch):
        calls = []
        from_config = WireCoefficients.from_config.__func__

        def counting(cls, config):
            calls.append(config)
            return from_config(cls, config)

        monkeypatch.setattr(WireCoefficients, "from_config",
                            classmethod(counting))
        model = self._fresh(suite90)
        for count in (1, 3, 8, 24):
            for size in (2.0, 20.0):
                model.evaluate(mm(6), count, size, ps(100))
        assert calls == [model.config]
        assert model.repeater_model() is model.repeater_model()

    def test_key_equality_hash_and_pickle_unchanged(self, suite90):
        model, untouched = self._fresh(suite90), self._fresh(suite90)
        key, digest = fingerprint(model), hash(model)
        before = model.evaluate(mm(4), 3, 16.0, ps(100))
        model.evaluate(mm(9), 12, 40.0, ps(300))
        assert fingerprint(model) == key == fingerprint(untouched)
        assert hash(model) == digest == hash(untouched)
        assert model == untouched
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        assert hash(clone) == digest
        assert fingerprint(clone) == key
        assert clone.evaluate(mm(4), 3, 16.0, ps(100)) == before
