"""Batched LUT lane vs the scalar LUT model: bitwise on served lanes,
exact closed-form fallback everywhere else, and the search fast path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.buffering.optimizer import (
    DEFAULT_INPUT_SLEW,
    DEFAULT_MAX_SIZE,
    _count_candidates,
    minimize_power_under_delay,
    minimize_power_under_delay_scalar,
)
from repro.kernels.line import LUT, array_path, evaluate_line_batch
from repro.kernels.lut import evaluate_line_lut, interpolate_trilinear
from repro.luts.interp import trilinear
from repro.units import mm


def _lane_queries(spec, lanes=64):
    """Deterministic in-grid (length, count, size) lanes: coprime
    strides walk off-grid interior points across all three axes."""
    sizes = np.geomspace(spec.sizes[0] * 1.07, spec.sizes[-1] / 1.07,
                         lanes)
    lengths = np.geomspace(spec.lengths[0] * 1.13,
                           spec.lengths[-1] / 1.13, lanes)
    span = spec.counts[-1] - spec.counts[0] + 1
    counts = spec.counts[0] + (7 * np.arange(lanes)) % span
    return lengths, counts, sizes


class TestServesModel:
    def test_recognizes_lut_model(self, suite90, lut90):
        assert array_path(lut90) == LUT
        assert array_path(suite90.proposed) != LUT


class TestTrilinearParity:
    def test_batch_matches_scalar_bitwise(self, lut90):
        artifact = lut90.artifact
        size_axis, length_axis, count_axis = lut90.axes()
        table = artifact.interp_table("delay")
        lengths, counts, sizes = _lane_queries(artifact.spec)
        log_sizes = np.log(sizes)
        log_lengths = np.log(lengths)
        batch = interpolate_trilinear(
            table, size_axis, length_axis, count_axis,
            log_sizes, log_lengths, counts.astype(float))
        for lane in range(lengths.size):
            scalar = trilinear(
                table, size_axis, length_axis, count_axis,
                float(np.log(sizes[lane])),
                float(np.log(lengths[lane])), int(counts[lane]))
            assert batch[lane] == scalar


class TestLineEvaluateParity:
    def test_served_lanes_match_scalar_bitwise(self, lut90):
        spec = lut90.artifact.spec
        lengths, counts, sizes = _lane_queries(spec)
        batch = evaluate_line_lut(lut90, lengths, counts, sizes,
                                  spec.input_slew)
        checked = 0
        for lane in range(lengths.size):
            length = float(lengths[lane])
            count = int(counts[lane])
            size = float(sizes[lane])
            if not lut90.serves(length, count, size,
                                spec.input_slew):
                continue
            scalar = lut90.evaluate(length, count, size,
                                    spec.input_slew)
            for field in ("delay", "output_slew", "dynamic_power",
                          "leakage_power", "repeater_area",
                          "wire_area"):
                assert getattr(batch, field)[lane] == \
                    getattr(scalar, field), field
            checked += 1
        assert checked >= 20

    def test_unserved_lanes_fall_back_to_closed_form(self, suite90,
                                                     lut90):
        spec = lut90.artifact.spec
        lengths = np.array([mm(5.0), 2.0 * spec.lengths[-1]])
        counts = np.array([8, 8])
        sizes = np.array([24.0, 24.0])
        served = evaluate_line_lut(lut90, lengths, counts, sizes,
                                   spec.input_slew)
        exact = evaluate_line_batch(suite90.proposed, lengths,
                                    counts, sizes, spec.input_slew)
        assert served.delay[1] == exact.delay[1]
        assert served.output_slew[1] == exact.output_slew[1]

    def test_whole_batch_falls_back_on_receiver_cap(self, suite90,
                                                    lut90):
        spec = lut90.artifact.spec
        lengths = np.array([mm(3.0), mm(5.0)])
        counts = np.array([6, 10])
        sizes = np.array([12.0, 32.0])
        served = evaluate_line_lut(lut90, lengths, counts, sizes,
                                   spec.input_slew,
                                   receiver_cap=2e-15)
        exact = evaluate_line_batch(suite90.proposed, lengths,
                                    counts, sizes, spec.input_slew,
                                    receiver_cap=2e-15)
        assert np.array_equal(served.delay, exact.delay)
        assert np.array_equal(served.output_slew, exact.output_slew)

    def test_dispatch_through_evaluate_line_batch(self, lut90):
        spec = lut90.artifact.spec
        lengths = np.array([mm(2.0), mm(6.0)])
        counts = np.array([4, 12])
        sizes = np.array([8.0, 40.0])
        direct = evaluate_line_lut(lut90, lengths, counts, sizes,
                                   spec.input_slew)
        dispatched = evaluate_line_batch(lut90, lengths, counts,
                                         sizes, spec.input_slew)
        assert np.array_equal(direct.delay, dispatched.delay)
        assert np.array_equal(direct.output_slew,
                              dispatched.output_slew)


class TestSearchFastPath:
    def test_meets_delay_bound(self, suite90, lut90):
        tech = suite90.proposed.tech
        max_delay = 0.8 / tech.clock_frequency
        for length_mm in (1.0, 3.0, 6.0, 10.0):
            fast = minimize_power_under_delay(lut90, mm(length_mm),
                                              max_delay)
            assert fast is not None
            assert fast.delay <= max_delay

    def test_tracks_scalar_search_power(self, suite90, lut90):
        """The vectorized search over the LUT profile lands within a
        few percent of the scalar golden-section search over the same
        LUT model (flat power objective near the optimum — the exact
        (count, size) pick may differ)."""
        tech = suite90.proposed.tech
        max_delay = 0.8 / tech.clock_frequency
        length = mm(6.0)
        fast = minimize_power_under_delay(lut90, length, max_delay)
        scalar = minimize_power_under_delay_scalar(
            lut90, length, max_delay, DEFAULT_INPUT_SLEW,
            DEFAULT_MAX_SIZE, 1, _count_candidates(length))
        assert fast is not None and scalar is not None
        assert fast.power <= scalar.power * 1.10

    def test_infeasible_bound_returns_none(self, lut90):
        assert minimize_power_under_delay(lut90, mm(10.0),
                                          1e-12) is None
