"""LUT-served model: API compatibility, serving rules, fallback."""

from __future__ import annotations

import dataclasses
import math

from repro.models.interconnect import InterconnectEstimate
from repro.runtime.metrics import METRICS


def _midpoint_query(spec):
    """A query at the geometric midpoint of an interior cell (exact
    count hit — counts always are)."""
    i = len(spec.sizes) // 2
    j = len(spec.lengths) // 2
    size = math.sqrt(spec.sizes[i] * spec.sizes[i + 1])
    length = math.sqrt(spec.lengths[j] * spec.lengths[j + 1])
    count = spec.counts[len(spec.counts) // 2]
    return length, count, size


class TestServing:
    def test_serves_interior_query(self, lut90):
        spec = lut90.artifact.spec
        length, count, size = _midpoint_query(spec)
        assert lut90.serves(length, count, size, spec.input_slew)

    def test_refuses_uncovered_queries(self, lut90):
        spec = lut90.artifact.spec
        length, count, size = _midpoint_query(spec)
        slew = spec.input_slew
        assert not lut90.serves(length, count, size, slew,
                                receiver_cap=1e-15)
        assert not lut90.serves(length, count, size, 2.0 * slew)
        assert not lut90.serves(length, count,
                                2.0 * spec.sizes[-1], slew)
        assert not lut90.serves(0.5 * spec.lengths[0], count, size,
                                slew)
        assert not lut90.serves(length, spec.counts[-1] + 1, size,
                                slew)

    def test_served_estimate_is_api_compatible(self, suite90, lut90):
        spec = lut90.artifact.spec
        length, count, size = _midpoint_query(spec)
        served = lut90.evaluate(length, count, size, spec.input_slew)
        exact = suite90.proposed.evaluate(length, count, size,
                                          spec.input_slew)
        assert isinstance(served, InterconnectEstimate)
        assert dataclasses.fields(served) == dataclasses.fields(exact)
        assert served.num_repeaters == exact.num_repeaters
        assert served.repeater_size == exact.repeater_size
        assert len(served.stage_delays) == count

    def test_served_timing_meets_contract(self, suite90, lut90):
        """Delay/slew error at served cell midpoints stays within the
        grid's validated interpolation-error contract."""
        model = suite90.proposed
        spec = lut90.artifact.spec
        contract = spec.max_rel_error
        checked = 0
        for i in range(0, len(spec.sizes) - 1, 2):
            for j in range(0, len(spec.lengths) - 1, 3):
                size = math.sqrt(spec.sizes[i] * spec.sizes[i + 1])
                length = math.sqrt(spec.lengths[j]
                                   * spec.lengths[j + 1])
                for count in spec.counts[::10]:
                    if not lut90.serves(length, count, size,
                                        spec.input_slew):
                        continue
                    served = lut90.evaluate(length, count, size,
                                            spec.input_slew)
                    exact = model.evaluate(length, count, size,
                                           spec.input_slew)
                    assert abs(served.delay - exact.delay) \
                        <= contract * exact.delay
                    assert abs(served.output_slew
                               - exact.output_slew) \
                        <= contract * exact.output_slew
                    checked += 1
        assert checked >= 5

    def test_power_and_area_are_exact(self, suite90, lut90):
        spec = lut90.artifact.spec
        length, count, size = _midpoint_query(spec)
        served = lut90.evaluate(length, count, size, spec.input_slew,
                                bus_width=16)
        exact = suite90.proposed.evaluate(length, count, size,
                                          spec.input_slew,
                                          bus_width=16)
        assert served.dynamic_power == exact.dynamic_power
        assert served.leakage_power == exact.leakage_power
        assert served.repeater_area == exact.repeater_area
        assert served.wire_area == exact.wire_area

    def test_lookup_counters(self, lut90):
        spec = lut90.artifact.spec
        length, count, size = _midpoint_query(spec)
        before = METRICS.counters.get("luts.lookups", 0)
        lut90.evaluate(length, count, size, spec.input_slew)
        assert METRICS.counters["luts.lookups"] == before + 1


class TestFallback:
    def test_out_of_grid_equals_closed_form(self, suite90, lut90):
        spec = lut90.artifact.spec
        length = 2.0 * spec.lengths[-1]
        before = METRICS.counters.get("luts.fallback", 0)
        served = lut90.evaluate(length, 8, 24.0, spec.input_slew)
        exact = suite90.proposed.evaluate(length, 8, 24.0,
                                          spec.input_slew)
        assert served == exact
        assert METRICS.counters["luts.fallback"] == before + 1

    def test_receiver_cap_query_equals_closed_form(self, suite90,
                                                   lut90):
        spec = lut90.artifact.spec
        length, count, size = _midpoint_query(spec)
        served = lut90.evaluate(length, count, size, spec.input_slew,
                                receiver_cap=2e-15)
        exact = suite90.proposed.evaluate(length, count, size,
                                          spec.input_slew,
                                          receiver_cap=2e-15)
        assert served == exact

    def test_uncharacterized_slew_equals_closed_form(self, suite90,
                                                     lut90):
        spec = lut90.artifact.spec
        length, count, size = _midpoint_query(spec)
        slew = 1.5 * spec.input_slew
        assert lut90.evaluate(length, count, size, slew) \
            == suite90.proposed.evaluate(length, count, size, slew)


class TestCacheKey:
    def test_cache_key_pins_artifact_hash(self, suite90, lut90):
        key = lut90.cache_key()
        assert key["artifact"] == lut90.artifact.content_hash
        assert key["base"] is suite90.proposed
