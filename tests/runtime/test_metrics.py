"""The metrics registry and footer formatting."""

import math
import re

import pytest

from repro.runtime import Histogram, MetricsRegistry


class TestCacheHitRate:
    def test_zero_lookups_is_none(self):
        registry = MetricsRegistry()
        assert registry.cache_hit_rate() is None

    def test_hits_only(self):
        registry = MetricsRegistry()
        registry.count("cache.hit", 4)
        assert registry.cache_hit_rate() == 1.0

    def test_misses_only(self):
        registry = MetricsRegistry()
        registry.count("cache.miss", 3)
        assert registry.cache_hit_rate() == 0.0

    def test_mixed(self):
        registry = MetricsRegistry()
        registry.count("cache.hit")
        registry.count("cache.miss", 3)
        assert registry.cache_hit_rate() == 0.25


class TestMerge:
    def test_payload_round_trip(self):
        source = MetricsRegistry()
        source.count("tasks", 5)
        source.add_time("phase", 1.5)
        target = MetricsRegistry()
        target.count("tasks", 2)
        target.merge_payload(source.to_payload())
        assert target.counters["tasks"] == 7
        assert target.timers["phase"] == 1.5

    def test_merge_registry(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.add_time("t", 1.0)
        b.add_time("t", 0.5)
        a.merge(b)
        assert a.timers["t"] == 1.5


class TestFooter:
    def test_long_names_stay_aligned(self):
        registry = MetricsRegistry()
        registry.count("short", 1)
        registry.count("a.very.long.metric.name.beyond.24", 2)
        registry.add_time("timer", 0.5)
        footer = registry.format_footer()
        # Every row is "  <name padded to W> <value>": the name field
        # must be one shared width, so each value starts at the same
        # character offset.
        lines = footer.splitlines()[1:]
        width = max(len("a.very.long.metric.name.beyond.24"), 24)
        for line in lines:
            name = line[2:2 + width]
            rest = line[2 + width:]
            assert rest.startswith(" ")
            assert name.strip()  # name fits inside its column

    def test_short_names_keep_default_width(self):
        registry = MetricsRegistry()
        registry.count("short", 1)
        footer = registry.format_footer()
        assert f"  {'short':<24} " in footer

    def test_throughput_printed_with_tasks_and_timer(self):
        registry = MetricsRegistry()
        registry.count("parallel.tasks", 10)
        registry.add_time("parallel.pool", 2.0)
        assert registry.task_throughput() == 5.0
        assert "parallel.throughput" in registry.format_footer()
        assert "5.0 tasks/s" in registry.format_footer()

    def test_throughput_absent_without_timer(self):
        registry = MetricsRegistry()
        registry.count("parallel.tasks", 10)
        assert registry.task_throughput() is None
        assert "parallel.throughput" not in registry.format_footer()

    def test_throughput_sums_serial_and_pool_time(self):
        registry = MetricsRegistry()
        registry.count("parallel.tasks", 6)
        registry.add_time("parallel.pool", 1.0)
        registry.add_time("parallel.serial", 2.0)
        assert registry.task_throughput() == 2.0

    def test_extra_rows(self):
        registry = MetricsRegistry()
        footer = registry.format_footer(extra={"workers": 4})
        assert re.search(r"workers\s+4", footer)


class TestHistogram:
    def test_exact_count_sum_min_max(self):
        histogram = Histogram()
        for value in (0.5, 1.5, 2.5, 0.003):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(4.503)
        assert histogram.minimum == 0.003
        assert histogram.maximum == 2.5
        assert histogram.mean == pytest.approx(4.503 / 4)

    def test_quantile_bounds(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) is None
        histogram.observe(0.25)
        histogram.observe(4.0)
        assert histogram.quantile(0.0) == 0.25
        assert histogram.quantile(1.0) == 4.0
        # Interpolated quantiles never leave the observed range.
        for q in (0.1, 0.5, 0.9, 0.99):
            assert 0.25 <= histogram.quantile(q) <= 4.0

    def test_quantile_is_order_invariant(self):
        import numpy as np
        rng = np.random.default_rng(7)
        values = rng.uniform(1e-4, 10.0, size=500).tolist()
        forward = Histogram()
        shuffled = Histogram()
        for value in values:
            forward.observe(value)
        for value in np.random.default_rng(11).permutation(values):
            shuffled.observe(float(value))
        for q in (0.5, 0.95, 0.99):
            assert forward.quantile(q) == shuffled.quantile(q)

    def test_merge_equals_single_registry(self):
        """Split-then-merge must be bit-identical to one histogram —
        the property that makes worker-spliced quantiles exact."""
        values = [0.001 * (index + 1) ** 1.3 for index in range(200)]
        whole = Histogram()
        for value in values:
            whole.observe(value)
        left, right = Histogram(), Histogram()
        for index, value in enumerate(values):
            (left if index % 2 else right).observe(value)
        left.merge(right)
        assert left.counts == whole.counts
        assert left.count == whole.count
        # The sum accumulates in a different order (float rounding);
        # quantiles are pure functions of the bucket counts and the
        # exact min/max, so they are bit-identical, not just close.
        assert left.sum == pytest.approx(whole.sum)
        assert left.minimum == whole.minimum
        assert left.maximum == whole.maximum
        for q in (0.5, 0.95, 0.99):
            assert left.quantile(q) == whole.quantile(q)

    def test_payload_round_trip(self):
        histogram = Histogram()
        for value in (0.1, 0.2, 5.0):
            histogram.observe(value)
        restored = Histogram()
        restored.merge_payload(histogram.to_payload())
        assert restored.counts == histogram.counts
        assert restored.sum == histogram.sum
        assert restored.minimum == histogram.minimum
        assert restored.maximum == histogram.maximum

    def test_overflow_bucket(self):
        histogram = Histogram()
        histogram.observe(1e15)  # beyond the largest edge
        assert histogram.count == 1
        assert histogram.quantile(0.5) == 1e15


class TestRegistryHistograms:
    def test_observe_and_quantile(self):
        registry = MetricsRegistry()
        for value in (0.01, 0.02, 0.03):
            registry.observe("task.seconds", value)
        assert registry.histogram("task.seconds").count == 3
        assert 0.01 <= registry.quantile("task.seconds", 0.5) <= 0.03
        assert registry.quantile("missing", 0.5) is None

    def test_observe_keyed_builds_dotted_series(self):
        registry = MetricsRegistry()
        registry.observe_keyed("cache.lookup_seconds", "repro.link",
                               0.004)
        registry.observe_keyed("cache.lookup_seconds", "", 0.002)
        assert registry.histogram(
            "cache.lookup_seconds.repro.link").count == 1
        assert registry.histogram("cache.lookup_seconds").count == 1

    def test_observed_times_a_block(self):
        registry = MetricsRegistry()
        with registry.observed("phase.seconds"):
            pass
        histogram = registry.histogram("phase.seconds")
        assert histogram.count == 1
        assert histogram.minimum >= 0.0

    def test_reset_clears_histograms(self):
        registry = MetricsRegistry()
        registry.observe("x", 1.0)
        registry.reset()
        assert registry.histogram("x") is None

    def test_payload_round_trip_with_histograms(self):
        source = MetricsRegistry()
        source.observe("h", 0.5)
        source.count("c", 2)
        target = MetricsRegistry()
        target.observe("h", 1.5)
        target.merge_payload(source.to_payload())
        assert target.histogram("h").count == 2
        assert target.counters["c"] == 2

    def test_merge_payload_without_histograms_block(self):
        """Payloads from pre-histogram workers still merge."""
        registry = MetricsRegistry()
        registry.merge_payload({"counters": {"c": 1}, "timers": {}})
        assert registry.counters["c"] == 1

    def test_footer_has_quantile_rows(self):
        registry = MetricsRegistry()
        for index in range(10):
            registry.observe("task.seconds", 0.01 * (index + 1))
        footer = registry.format_footer()
        row = next(line for line in footer.splitlines()
                   if "task.seconds" in line)
        assert "p50" in row and "p95" in row and "p99" in row
        assert "(10 obs)" in row

    def test_summaries_skip_empty(self):
        registry = MetricsRegistry()
        registry.observe("a", 1.0)
        summaries = registry.histogram_summaries()
        assert set(summaries) == {"a"}
        entry = summaries["a"]
        assert entry["count"] == 1
        assert math.isclose(entry["p50"], 1.0)


class TestKernelThroughput:
    def test_none_before_any_batch(self):
        registry = MetricsRegistry()
        assert registry.kernel_throughput() is None
        assert "kernels.throughput" not in registry.format_footer()

    def test_lanes_per_second(self):
        registry = MetricsRegistry()
        registry.count("kernels.batch_size", 1000)
        registry.add_time("kernels.batch", 2.0)
        assert registry.kernel_throughput() == 500.0
        footer = registry.format_footer()
        assert "kernels.throughput" in footer
        assert "500.0 lanes/s" in footer

    def test_absent_without_timer(self):
        registry = MetricsRegistry()
        registry.count("kernels.batch_size", 1000)
        assert registry.kernel_throughput() is None
        assert "kernels.throughput" not in registry.format_footer()
