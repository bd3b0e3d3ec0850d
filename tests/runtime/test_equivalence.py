"""Serial == parallel, cold == warm: the determinism contract.

Every parallelized workload must produce *identical* results for any
worker count (Monte-Carlo bit-equal via spawned seed sequences), and a
warm persistent cache must change nothing but the wall time.
"""

import pytest

from repro.experiments import scaling, table2
from repro.noc.link import LinkDesigner
from repro.noc.testcases import dual_vopd
from repro.noc.width_exploration import explore_widths
from repro.runtime import METRICS
from repro.signoff.extraction import extract_buffered_line
from repro.signoff.variation import monte_carlo_line_delay
from repro.tech import DesignStyle
from repro.units import mm, ps


class TestMonteCarloEquivalence:
    @pytest.fixture(scope="class")
    def line(self, tech90, swss90):
        return extract_buffered_line(tech90, swss90, mm(2), 2, 24.0)

    def test_parallel_reproduces_serial_stream(self, line):
        serial = monte_carlo_line_delay(line, ps(100), samples=6,
                                        seed=77, workers=1)
        parallel = monte_carlo_line_delay(line, ps(100), samples=6,
                                          seed=77, workers=4)
        assert parallel.samples == serial.samples
        assert parallel.nominal_delay == serial.nominal_delay

    def test_chunking_does_not_reorder_streams(self, line):
        """Any chunk/worker split walks the same per-sample streams."""
        serial = monte_carlo_line_delay(line, ps(100), samples=5,
                                        seed=13, workers=1)
        parallel = monte_carlo_line_delay(line, ps(100), samples=5,
                                          seed=13, workers=3)
        assert parallel.samples == serial.samples

    def test_different_seeds_still_differ(self, line):
        a = monte_carlo_line_delay(line, ps(100), samples=4, seed=1,
                                   workers=2)
        b = monte_carlo_line_delay(line, ps(100), samples=4, seed=2,
                                   workers=2)
        assert a.samples != b.samples


class TestWidthExplorationEquivalence:
    def test_parallel_reproduces_serial_points(self, suite90):
        spec = dual_vopd(suite90.tech)
        serial = explore_widths(spec, suite90.proposed, suite90.tech,
                                widths=(64, 128), workers=1)
        parallel = explore_widths(spec, suite90.proposed, suite90.tech,
                                  widths=(64, 128), workers=2)
        assert parallel == serial
        assert parallel.best().width == serial.best().width


class TestScalingEquivalence:
    def test_parallel_reproduces_serial_rows(self):
        serial = scaling.run(nodes=("90nm", "65nm"), workers=1)
        parallel = scaling.run(nodes=("90nm", "65nm"), workers=2)
        assert parallel == serial


class TestTable2Equivalence:
    def test_parallel_reproduces_serial_cells(self):
        kwargs = dict(nodes=("90nm",), lengths=(mm(1), mm(3)),
                      styles=(DesignStyle.SWSS,))
        serial = table2.run(workers=1, **kwargs)
        parallel = table2.run(workers=2, **kwargs)
        # Runtime fields are wall-clock measurements and legitimately
        # differ; every physical quantity must match exactly.
        for row_s, row_p in zip(serial.rows, parallel.rows):
            assert row_p.node == row_s.node
            assert row_p.style == row_s.style
            assert row_p.length == row_s.length
            assert row_p.num_repeaters == row_s.num_repeaters
            assert row_p.repeater_size == row_s.repeater_size
            assert row_p.golden_delay == row_s.golden_delay
            assert row_p.errors == row_s.errors


class TestWorkerStatsEquivalence:
    """--stats totals are worker-count independent: counters recorded
    inside pool workers merge back into the parent registry."""

    def _counters_for(self, workers, tech90, swss90, tmp_path,
                      monkeypatch):
        from repro import runtime
        monkeypatch.setenv("REPRO_CACHE_DIR",
                           str(tmp_path / f"cache-w{workers}"))
        runtime.reset_configuration()
        METRICS.reset()
        line = extract_buffered_line(tech90, swss90, mm(2), 2, 24.0)
        monte_carlo_line_delay(line, ps(100), samples=6, seed=77,
                               workers=workers)
        counters = dict(METRICS.counters)
        # The fallback marker only appears where fork pools are
        # unsupported; it is an environment fact, not a workload one.
        counters.pop("parallel.pool_unavailable", None)
        return counters

    def test_counters_match_across_worker_counts(
            self, tech90, swss90, tmp_path, monkeypatch):
        serial = self._counters_for(1, tech90, swss90, tmp_path,
                                    monkeypatch)
        parallel = self._counters_for(2, tech90, swss90, tmp_path,
                                      monkeypatch)
        # Nominal delay is stream 0 of the same task, so 6 draws
        # record 7 evaluations.
        assert serial.get("variation.samples") == 7
        assert parallel == serial


class TestWarmCacheEquivalence:
    def test_second_designer_hits_disk_and_agrees(self, suite90):
        """A fresh designer (fresh process, conceptually) warm-starts
        from disk: hit rate > 0 and bit-identical designs."""
        lengths = (mm(1), mm(2), mm(3))
        cold = LinkDesigner(suite90.proposed, suite90.tech, 64)
        cold_designs = [cold.design(length) for length in lengths]
        cold_max = cold.max_length()

        METRICS.reset()
        warm = LinkDesigner(suite90.proposed, suite90.tech, 64)
        warm_designs = [warm.design(length) for length in lengths]
        assert warm.max_length() == cold_max
        assert warm_designs == cold_designs
        assert METRICS.counters.get("cache.hit", 0) > 0
        hit_rate = METRICS.cache_hit_rate()
        assert hit_rate is not None and hit_rate > 0
