"""Process-wide metrics: counters, timers and value histograms.

:class:`MetricsRegistry` is the aggregation point every layer records
into — cache traffic, parallel task counts, synthesis rejection
reasons, per-phase wall time, and (since the performance observatory)
full value *distributions* via :meth:`MetricsRegistry.observe`.  A
single process-wide :data:`METRICS` registry serves the whole process;
worker processes record into their own (reset per chunk) and
:func:`repro.runtime.parallel.parallel_map` merges the serialized
payloads back into the parent, so ``--stats`` totals are identical for
any worker count.

Histograms use a fixed log-linear bucket layout (nine buckets per
decade from 1e-9 to 9e3), so merging is a plain per-bucket addition:
the merged histogram — and therefore every quantile read from it — is
a pure function of the *multiset* of observed values, independent of
observation order, chunking or worker count.  That is the property the
worker-count-invariance tests pin down.

Recording is cheap enough to stay always-on (two dict operations, one
bisect for histograms); the CLI's ``--stats`` flag merely decides
whether the footer is printed.  :meth:`MetricsRegistry.to_openmetrics`
renders the whole registry in the OpenMetrics/Prometheus text
exposition format, so a future ``repro serve`` can expose the same
numbers unchanged.
"""

from __future__ import annotations

import re
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

#: Minimum label column width of the ``--stats`` footer.  Longer metric
#: names widen the column for the whole footer instead of breaking the
#: alignment.
_FOOTER_MIN_WIDTH = 24

#: Histogram bucket upper edges: ``m * 10**e`` for nine mantissas per
#: decade across 1e-9 .. 9e3 (seconds-flavoured, but unit-agnostic).
#: Fixed for every histogram so any two histograms merge bucket-wise.
HISTOGRAM_EDGES = tuple(m * 10.0 ** e
                        for e in range(-9, 4)
                        for m in range(1, 10))

#: Index of the overflow bucket (values above the last edge).
_OVERFLOW_BUCKET = len(HISTOGRAM_EDGES)


class Histogram:
    """A fixed-bucket log-linear histogram of non-negative values.

    Buckets are shared by construction (:data:`HISTOGRAM_EDGES`), so
    histograms merge by adding counts — the merge is associative,
    commutative and exact, which makes quantiles *deterministic*: they
    depend only on which values were observed, never on the order or
    on how observations were split across worker processes.

    Besides bucket counts the histogram tracks exact ``count``,
    ``sum``, ``min`` and ``max``, giving an exact mean without storing
    samples.  Values at or below the first edge (including any stray
    negatives) land in bucket 0; values above the last edge land in
    the overflow bucket and quantiles there interpolate up to the
    observed maximum.
    """

    __slots__ = ("counts", "count", "sum", "minimum", "maximum")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(HISTOGRAM_EDGES, value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    # -- statistics -------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile, interpolated within its bucket.

        ``None`` before any observation.  The result is a pure
        function of the bucket counts and the exact min/max, so it is
        identical for any merge order or worker count.
        """
        if self.count == 0 or self.minimum is None \
                or self.maximum is None:
            return None
        if q <= 0.0:
            return self.minimum
        if q >= 1.0:
            return self.maximum
        target = q * self.count
        cumulative = 0
        for index in sorted(self.counts):
            bucket = self.counts[index]
            cumulative += bucket
            if cumulative >= target:
                lower = (0.0 if index == 0
                         else HISTOGRAM_EDGES[index - 1])
                upper = (self.maximum if index >= _OVERFLOW_BUCKET
                         else HISTOGRAM_EDGES[index])
                fraction = (target - (cumulative - bucket)) / bucket
                value = lower + (upper - lower) * fraction
                return min(max(value, self.minimum), self.maximum)
        return self.maximum

    # -- cross-process aggregation ----------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """A picklable/JSON-safe snapshot (bucket keys as strings)."""
        return {
            "counts": {str(index): amount
                       for index, amount in self.counts.items()},
            "count": self.count,
            "sum": self.sum,
            "min": self.minimum,
            "max": self.maximum,
        }

    def merge_payload(self, payload: Mapping[str, Any]) -> None:
        for key, amount in payload.get("counts", {}).items():
            index = int(key)
            self.counts[index] = self.counts.get(index, 0) + amount
        self.count += payload.get("count", 0)
        self.sum += payload.get("sum", 0.0)
        other_min = payload.get("min")
        if other_min is not None and (self.minimum is None
                                      or other_min < self.minimum):
            self.minimum = other_min
        other_max = payload.get("max")
        if other_max is not None and (self.maximum is None
                                      or other_max > self.maximum):
            self.maximum = other_max

    def merge(self, other: "Histogram") -> None:
        self.merge_payload(other.to_payload())


class MetricsRegistry:
    """Named counters, wall-time accumulators and value histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording --------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    def observe(self, name: str, value: float) -> None:
        """Record one value into the named histogram.

        Metric names must be string literals (or registry constants)
        at the call site — ``repro lint``'s ``span-hygiene`` rule
        enforces it; a name built per call goes through
        :meth:`observe_keyed` instead.
        """
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def observe_keyed(self, base: str, key: Optional[str],
                      value: float) -> None:
        """Observe under a dynamically keyed name ``base[.key]``.

        The sanctioned door for per-population metric families (e.g.
        per-kind cache lookup times): the *base* stays a literal the
        lint rule can see, while ``key`` selects the family member.
        """
        self.observe(f"{base}.{key}" if key else base, value)

    @contextmanager
    def observed(self, name: str) -> Iterator[None]:
        """Time a block and :meth:`observe` its duration once."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()
        self.histograms.clear()

    # -- cross-process aggregation ----------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """A picklable/JSON-safe snapshot (what workers send back)."""
        return {"counters": dict(self.counters),
                "timers": dict(self.timers),
                "histograms": {name: histogram.to_payload()
                               for name, histogram
                               in self.histograms.items()}}

    def merge_payload(self, payload: Mapping[str, Any]) -> None:
        """Fold a :meth:`to_payload` snapshot into this registry.

        Payloads without a ``histograms`` block (pre-observatory
        producers) merge fine — the block is simply absent.
        """
        for name, amount in payload.get("counters", {}).items():
            self.count(name, amount)
        for name, seconds in payload.get("timers", {}).items():
            self.add_time(name, seconds)
        for name, snapshot in payload.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.merge_payload(snapshot)

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_payload(other.to_payload())

    # -- derived ----------------------------------------------------------

    def histogram(self, name: str) -> Optional[Histogram]:
        return self.histograms.get(name)

    def quantile(self, name: str, q: float) -> Optional[float]:
        """The ``q``-quantile of a named histogram, if it has data."""
        histogram = self.histograms.get(name)
        if histogram is None:
            return None
        return histogram.quantile(q)

    def histogram_summaries(self) -> Dict[str, Dict[str, Any]]:
        """Per-histogram ``{count, mean, p50, p95, p99}`` rollups.

        Sorted by name; empty when nothing was observed — manifests
        elide the block entirely in that case.
        """
        summaries: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            if histogram.count == 0:
                continue
            summaries[name] = {
                "count": histogram.count,
                "mean": histogram.mean,
                "p50": histogram.quantile(0.5),
                "p95": histogram.quantile(0.95),
                "p99": histogram.quantile(0.99),
            }
        return summaries

    def cache_hit_rate(self) -> Optional[float]:
        """Disk-cache hit fraction, or ``None`` before any lookup."""
        hits = self.counters.get("cache.hit", 0)
        misses = self.counters.get("cache.miss", 0)
        total = hits + misses
        if total == 0:
            return None
        return hits / total

    def fault_counters(self) -> Dict[str, int]:
        """The ``faults.*`` family: injections, crashes, recoveries.

        Sorted by name so manifests and reports render stably.  Empty
        for a clean run — the common case — which lets callers elide
        the whole block.
        """
        return {name: self.counters[name]
                for name in sorted(self.counters)
                if name.startswith("faults.")}

    def task_throughput(self) -> Optional[float]:
        """Parallel tasks per second of map wall time, if measurable.

        Defined when both the ``parallel.tasks`` counter and a matching
        ``parallel.pool`` / ``parallel.serial`` timer were recorded.
        """
        tasks = self.counters.get("parallel.tasks", 0)
        elapsed = (self.timers.get("parallel.pool", 0.0)
                   + self.timers.get("parallel.serial", 0.0))
        if tasks <= 0 or elapsed <= 0.0:
            return None
        return tasks / elapsed

    def lint_throughput(self) -> Optional[float]:
        """Files linted per second of scan wall time, if measurable.

        Defined when ``repro lint`` recorded both the ``lint.files``
        counter and the ``lint.scan`` timer.
        """
        files = self.counters.get("lint.files", 0)
        elapsed = self.timers.get("lint.scan", 0.0)
        if files <= 0 or elapsed <= 0.0:
            return None
        return files / elapsed

    def kernel_throughput(self) -> Optional[float]:
        """Kernel lanes evaluated per second of batch wall time.

        Defined when the vectorized kernels recorded both the
        ``kernels.batch_size`` counter (total lanes across batches)
        and the ``kernels.batch`` timer.
        """
        lanes = self.counters.get("kernels.batch_size", 0)
        elapsed = self.timers.get("kernels.batch", 0.0)
        if lanes <= 0 or elapsed <= 0.0:
            return None
        return lanes / elapsed

    def format_footer(self,
                      extra: Optional[Mapping[str, int]] = None) -> str:
        """The ``--stats`` footer: wall time, quantiles, counters.

        ``extra`` appends caller-supplied integer rows (the CLI adds
        the resolved worker count).  The label column widens to the
        longest name so long metric names stay aligned.  Histograms
        render one p50/p95/p99 row each.
        """
        extra = dict(extra or {})
        hit_rate = self.cache_hit_rate()
        throughput = self.task_throughput()
        lint_rate = self.lint_throughput()
        kernel_rate = self.kernel_throughput()
        names = (list(self.timers) + list(self.counters)
                 + list(self.histograms) + list(extra))
        if hit_rate is not None:
            names.append("cache hit rate")
        if throughput is not None:
            names.append("parallel.throughput")
        if lint_rate is not None:
            names.append("lint.throughput")
        if kernel_rate is not None:
            names.append("kernels.throughput")
        width = max([_FOOTER_MIN_WIDTH] + [len(name) for name in names])

        lines = ["-- runtime stats --"]
        for name in sorted(self.timers):
            lines.append(f"  {name:<{width}} {self.timers[name]:9.3f} s")
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            if histogram.count == 0:
                continue
            p50 = histogram.quantile(0.5)
            p95 = histogram.quantile(0.95)
            p99 = histogram.quantile(0.99)
            lines.append(
                f"  {name:<{width}} p50 {p50:.3e}  p95 {p95:.3e}  "
                f"p99 {p99:.3e}  ({histogram.count} obs)")
        if throughput is not None:
            lines.append(
                f"  {'parallel.throughput':<{width}} "
                f"{throughput:9.1f} tasks/s")
        if lint_rate is not None:
            lines.append(
                f"  {'lint.throughput':<{width}} "
                f"{lint_rate:9.1f} files/s")
        if kernel_rate is not None:
            lines.append(
                f"  {'kernels.throughput':<{width}} "
                f"{kernel_rate:9.1f} lanes/s")
        if hit_rate is not None:
            lines.append(
                f"  {'cache hit rate':<{width}} {hit_rate * 100:8.1f} % "
                f"({self.counters.get('cache.hit', 0)} hit / "
                f"{self.counters.get('cache.miss', 0)} miss)")
        for name in sorted(self.counters):
            if name in ("cache.hit", "cache.miss"):
                continue
            lines.append(f"  {name:<{width}} {self.counters[name]:9d}")
        for name, value in extra.items():
            lines.append(f"  {name:<{width}} {value:9d}")
        return "\n".join(lines)

    # -- OpenMetrics exposition -------------------------------------------

    def to_openmetrics(self) -> str:
        """The registry in OpenMetrics text exposition format.

        Counters become ``repro_<name>_total``, timers become
        ``repro_<name>_seconds_total``, histograms become full
        ``_bucket``/``_sum``/``_count`` series with cumulative ``le``
        buckets (only populated edges are emitted; ``le="+Inf"``
        always is).  Ends with the mandatory ``# EOF`` terminator.
        """
        lines: List[str] = []
        for name in sorted(self.counters):
            metric = _openmetrics_name(name)
            lines.append(f"# HELP {metric} "
                         f"{_escape_help('counter ' + name)}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric}_total "
                         f"{_format_value(self.counters[name])}")
        for name in sorted(self.timers):
            metric = _openmetrics_name(name) + "_seconds"
            lines.append(
                f"# HELP {metric} "
                f"{_escape_help('accumulated wall time of ' + name)}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric}_total "
                         f"{_format_value(self.timers[name])}")
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            metric = _openmetrics_name(name)
            lines.append(f"# HELP {metric} "
                         f"{_escape_help('distribution of ' + name)}")
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for index in sorted(histogram.counts):
                if index >= _OVERFLOW_BUCKET:
                    continue
                cumulative += histogram.counts[index]
                edge = _format_value(HISTOGRAM_EDGES[index])
                lines.append(f'{metric}_bucket{{le="{edge}"}} '
                             f'{cumulative}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} '
                         f'{histogram.count}')
            lines.append(f"{metric}_sum "
                         f"{_format_value(histogram.sum)}")
            lines.append(f"{metric}_count {histogram.count}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def _openmetrics_name(name: str) -> str:
    """A dotted metric name as a legal OpenMetrics metric name."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _escape_help(text: str) -> str:
    """HELP-line escaping per the exposition format (\\ and newline)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: Any) -> str:
    """Sample values rendered shortest-round-trip (ints stay ints)."""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


#: The process-wide registry.
METRICS = MetricsRegistry()
