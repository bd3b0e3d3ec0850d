"""Link design and feasibility."""

import pytest

from repro.characterization import RepeaterKind
from repro.experiments.suite import ModelSuite
from repro.models.interconnect import BufferedInterconnectModel
from repro.noc.link import (
    _LENGTH_QUANTUM,
    DEFAULT_UTILIZATION,
    LinkDesign,
    LinkDesigner,
    quantize_length,
)
from repro.runtime import METRICS
from repro.tech import DesignStyle
from repro.units import mm


@pytest.fixture(scope="module")
def designer(suite90):
    return LinkDesigner(suite90.proposed, suite90.tech, bus_width=128)


class TestCapacityAndFeasibility:
    def test_capacity(self, designer, suite90):
        expected = 128 * suite90.tech.clock_frequency * 0.75
        assert designer.capacity() == pytest.approx(expected)

    def test_max_length_cached(self, designer):
        first = designer.max_length()
        second = designer.max_length()
        assert first == second > mm(2)

    def test_feasibility(self, designer):
        assert designer.is_feasible(mm(2))
        assert not designer.is_feasible(designer.max_length() * 1.5)

    def test_utilization_validation(self, suite90):
        with pytest.raises(ValueError):
            LinkDesigner(suite90.proposed, suite90.tech, 128,
                         utilization=0.0)


class TestDesign:
    def test_design_meets_clock_period(self, designer, suite90):
        design = designer.design(mm(4))
        assert design is not None
        assert design.delay <= suite90.tech.clock_period() * (1 + 1e-6)

    def test_design_infeasible_length_returns_none(self, designer):
        too_long = designer.max_length() * 1.5
        assert designer.design(too_long) is None

    def test_design_cache_by_quantum(self, designer):
        a = designer.design(mm(2.0))
        b = designer.design(mm(2.0) + 1e-6)  # same 0.05 mm bucket
        assert a is b

    def test_length_validation(self, designer):
        with pytest.raises(ValueError):
            designer.design(0.0)

    def test_dynamic_power_scales_with_load(self, designer, suite90):
        design = designer.design(mm(3))
        vdd = suite90.tech.vdd
        f = suite90.tech.clock_frequency
        low = design.dynamic_power(1e9, vdd, f)
        high = design.dynamic_power(4e9, vdd, f)
        assert high == pytest.approx(4 * low)
        assert design.dynamic_power(0.0, vdd, f) == 0.0
        with pytest.raises(ValueError):
            design.dynamic_power(-1.0, vdd, f)

    def test_longer_links_cost_more(self, designer, suite90):
        short = designer.design(mm(1))
        long_ = designer.design(mm(5))
        vdd, f = suite90.tech.vdd, suite90.tech.clock_frequency
        assert long_.leakage_power > short.leakage_power
        assert long_.dynamic_power(1e9, vdd, f) > \
            short.dynamic_power(1e9, vdd, f)
        assert long_.total_area > short.total_area

    def test_bus_width_reflected_in_design(self, suite90):
        narrow = LinkDesigner(suite90.proposed, suite90.tech, 32)
        wide = LinkDesigner(suite90.proposed, suite90.tech, 128)
        d_narrow = narrow.design(mm(3))
        d_wide = wide.design(mm(3))
        assert d_wide.leakage_power == pytest.approx(
            4 * d_narrow.leakage_power, rel=0.01)


class TestQuantizationEdges:
    """Regression tests for the length-quantum boundary behaviour."""

    def test_boundary_and_epsilon_below_share_a_design(self, designer):
        on_boundary = 40 * _LENGTH_QUANTUM          # exactly 2.0 mm
        just_below = on_boundary - 1e-12
        assert designer.design(on_boundary) \
            == designer.design(just_below)

    def test_every_grid_point_matches_its_neighborhood(self, designer):
        for index in (21, 33, 47):
            boundary = index * _LENGTH_QUANTUM
            design = designer.design(boundary)
            assert design is not None
            assert designer.design(boundary - 1e-12) == design

    def test_design_consistent_with_max_feasible_length(self, designer):
        """``is_feasible`` and ``design`` must agree at the edge: the
        longest feasible length gets a design even though rounding to
        the quantum grid would push it past the feasibility bound."""
        edge = designer.max_length()
        assert designer.is_feasible(edge)
        design = designer.design(edge)
        assert design is not None
        # The designed (quantized) length never exceeds the bound.
        assert design.length <= edge + 1e-15

    def test_just_past_the_edge_is_rejected(self, designer):
        past = designer.max_length() * (1 + 1e-9)
        assert not designer.is_feasible(past)
        assert designer.design(past) is None


class TestBatchedScorerBoundaries:
    """`design_batch` feeds the kernel-backed scorer; the quantization
    edges must behave exactly as one-at-a-time `design` calls."""

    def test_edge_exactly_at_max_feasible_length(self, designer):
        edge = designer.max_length()
        batch = designer.design_batch([mm(1), edge])
        assert batch[0] is not None
        assert batch[1] is not None
        assert batch[1] == designer.design(edge)

    def test_past_edge_yields_none_in_batch(self, designer):
        past = designer.max_length() * (1 + 1e-9)
        batch = designer.design_batch([mm(2), past])
        assert batch[0] is not None
        assert batch[1] is None

    def test_zero_length_link_rejected(self, designer):
        with pytest.raises(ValueError):
            designer.design_batch([mm(1), 0.0])
        with pytest.raises(ValueError):
            designer.design_batch([-mm(1)])

    def test_batch_elements_are_the_memoized_designs(self, designer):
        lengths = [mm(1.5), mm(2.5)]
        batch = designer.design_batch(lengths)
        for length, design in zip(lengths, batch):
            assert designer.design(length) is design

    def test_empty_batch(self, designer):
        assert designer.design_batch([]) == []


class TestQuantizeLength:
    """The one key function both design entry points share."""

    def test_rounds_to_nearest_quantum(self):
        assert quantize_length(2.0e-3, 1.0) == 40
        assert quantize_length(2.024e-3, 1.0) == 40
        assert quantize_length(2.026e-3, 1.0) == 41

    def test_floors_at_one_quantum(self):
        assert quantize_length(1e-9, 1.0) == 1

    def test_falls_back_below_the_feasibility_edge(self):
        # Rounding 2.03 mm up to 41 quanta would cross a 2.04 mm
        # bound; the key falls back to the quantum at or below.
        assert quantize_length(2.03e-3, 2.04e-3) == 40


class TestMemoKeySpace:
    def test_memo_is_bounded_by_its_key_space(self, suite90):
        """Every half quantum up to twice the feasibility edge keys at
        most one memo entry per quantum below the edge."""
        designer = LinkDesigner(suite90.proposed, suite90.tech, 128,
                                use_disk_cache=False)
        edge = designer.max_length()
        steps = int(4 * edge / _LENGTH_QUANTUM)
        for step in range(1, steps + 1):
            designer.design(step * _LENGTH_QUANTUM / 2)
        assert 0 < len(designer._memo) <= edge / _LENGTH_QUANTUM

    def test_memoized_none_is_a_hit(self, suite90):
        designer = LinkDesigner(suite90.proposed, suite90.tech, 128,
                                use_disk_cache=False)
        designer._memo[quantize_length(mm(1.0),
                                       designer.max_length())] = None
        hits = METRICS.counters.get("link.memo_hit", 0)
        attempts = METRICS.counters.get("link.design_attempts", 0)
        assert designer.design(mm(1.0)) is None
        assert METRICS.counters["link.memo_hit"] == hits + 1
        assert METRICS.counters.get("link.design_attempts", 0) \
            == attempts


class TestBatchScalarParity:
    """`design_batch` must populate and consult the caches exactly as
    scalar `design` does: bit-equal results, identical counter
    attribution."""

    LENGTHS_MM = (1.0, 2.2, 3.7, 2.2, 2.2001)

    def _fresh(self, suite90):
        # No disk level: parity must hold from the memo and the
        # compute path alone (the disk level would mask divergence
        # between the two entry points).
        return LinkDesigner(suite90.proposed, suite90.tech, 128,
                            use_disk_cache=False)

    def test_bit_equal_results_and_identical_accounting(self,
                                                        suite90):
        lengths = [mm(value) for value in self.LENGTHS_MM]

        scalar_designer = self._fresh(suite90)
        before = dict(METRICS.counters)
        scalar = [scalar_designer.design(length)
                  for length in lengths]
        scalar_delta = {
            name: METRICS.counters.get(name, 0) - before.get(name, 0)
            for name in ("link.memo_hit", "link.design_attempts")}

        batch_designer = self._fresh(suite90)
        before = dict(METRICS.counters)
        batch = batch_designer.design_batch(lengths)
        batch_delta = {
            name: METRICS.counters.get(name, 0) - before.get(name, 0)
            for name in ("link.memo_hit", "link.design_attempts")}

        assert [design.to_payload() for design in scalar] \
            == [design.to_payload() for design in batch]
        # 2.2 repeats twice (same quantum: two memo hits) and 2.2001
        # lands on the same quantum as 2.2 — three distinct computes.
        assert scalar_delta == batch_delta
        assert scalar_delta["link.memo_hit"] == 2
        assert scalar_delta["link.design_attempts"] == 3

    def test_batch_then_scalar_shares_the_memo(self, suite90):
        designer = self._fresh(suite90)
        lengths = [mm(1.0), mm(2.0)]
        batch = designer.design_batch(lengths)
        before = METRICS.counters.get("link.design_attempts", 0)
        assert designer.design(mm(1.0)) is batch[0]
        assert designer.design(mm(2.0)) is batch[1]
        assert METRICS.counters.get("link.design_attempts", 0) \
            == before


class TestPersistentRoundTrip:
    def test_payload_round_trip_is_lossless(self, designer):
        design = designer.design(mm(3))
        clone = LinkDesign.from_payload(design.to_payload())
        assert clone == design

    def test_unfingerprintable_model_still_constructs(self, suite90):
        class Opaque:
            pass

        # No crash: the persistent level is skipped for models the
        # canonicalizer cannot render.
        LinkDesigner(Opaque(), suite90.tech, 64)


#: The disk-cache context of each node's proposed-model designer
#: (SWSS, inverter, 64-bit bus, default utilization).  It keys every
#: persistent link design, so a moved pin orphans that node's cached
#: designs: move one only with a change to what a design depends on.
CONTEXT_HASHES = {
    "90nm": "488cafdce49dd9b2ff2427204f002d23"
            "887fefe1b2f7cea783d1fb14f889af67",
    "65nm": "f5688abc8632946152f4c8075d60c1af"
            "196eb95f3fc314c2e81fcbe5576b2a0e",
    "45nm": "d8f30b417b04f68fa7ec80071053b666"
            "5cdfea54b7c5cbc4eee32eed13f063cd",
    "32nm": "14abb23e0fdac1be269b3a03c29a5ac1"
            "6af1ebe0a894cc23525ceaa56b74e731",
    "22nm": "d93304eedc7e32e6f18da7c3aa188582"
            "ed3d387e750fe68e78e5fd7223bf0341",
    "16nm": "d7cb6c652dbb277667615ccb92ef6f2a"
            "90cb1eaa47b4e173002088b4cc40a5d9",
}


class TestDiskCacheIdentity:
    """The context hash fingerprints the model itself with the
    technology and the bus geometry."""

    @pytest.mark.parametrize("node", sorted(CONTEXT_HASHES))
    def test_context_hash_is_pinned(self, node):
        suite = ModelSuite.for_node(node)
        designer = LinkDesigner(suite.proposed, suite.tech, 64)
        assert designer._context_hash == CONTEXT_HASHES[node]

    def test_equal_models_share_a_context(self, suite90):
        rebuilt = BufferedInterconnectModel(
            suite90.tech, suite90.calibration, suite90.config)
        assert rebuilt is not suite90.proposed
        assert LinkDesigner(rebuilt, suite90.tech, 64)._context_hash \
            == CONTEXT_HASHES["90nm"]

    @pytest.mark.parametrize("change", [
        "style", "kind", "activity", "bus_width", "utilization",
        "model_class"])
    def test_context_tracks_what_a_design_depends_on(self, suite90,
                                                     change):
        model, bus_width = suite90.proposed, 64
        utilization = DEFAULT_UTILIZATION
        if change == "style":
            model = ModelSuite.for_node(
                "90nm", style=DesignStyle.SHIELDED).proposed
        elif change == "kind":
            model = ModelSuite.for_node(
                "90nm", kind=RepeaterKind.BUFFER).proposed
        elif change == "activity":
            model = ModelSuite.for_node(
                "90nm", activity_factor=0.3).proposed
        elif change == "bus_width":
            bus_width = 128
        elif change == "utilization":
            utilization = 0.5
        else:
            model = suite90.bakoglu
        base = LinkDesigner(suite90.proposed, suite90.tech, 64,
                            utilization=DEFAULT_UTILIZATION)
        designer = LinkDesigner(model, suite90.tech, bus_width,
                                utilization=utilization)
        assert designer._context_hash is not None
        assert designer._context_hash != base._context_hash

    def test_no_context_without_the_disk_cache(self, suite90):
        designer = LinkDesigner(suite90.proposed, suite90.tech, 64,
                                use_disk_cache=False)
        assert designer._context_hash is None
