"""Search-based buffering optimization.

The optimizer works against *any* model exposing the
``evaluate(length, num_repeaters, repeater_size, input_slew, ...)``
interface (the proposed model and both baselines), which is exactly how
the paper swaps models inside COSI-OCC.

Two search primitives, mirroring Section III-D:

* for a fixed repeater count, the objective is unimodal in the repeater
  size, so a **binary search on the size derivative** (implemented as a
  golden-section search, the robust equivalent) finds the best size;
* an **exhaustive sweep over repeater counts** around the delay-optimal
  count picks the best combination.

The objective is the weighted product ``delay^w * power^(1-w)`` —
scale-free, so no normalization constants are needed; ``w = 1`` recovers
delay-optimal buffering and smaller ``w`` trades delay for power.

Each search has a scalar implementation here (``*_scalar``, one
``model.evaluate`` per probe, for any model) and a lockstep form in
:mod:`repro.kernels.search`, which runs every repeater count as a lane
of one batched search and returns the same solution.  The public entry
points validate their inputs, then pick:

* :func:`optimize_buffering` takes the lockstep form for models an
  array path serves (:func:`repro.kernels.array_path`), the scalar one
  otherwise;
* :func:`minimize_power_under_delay` takes the scalar search for every
  model: one length's few repeater counts are too few lanes for the
  lockstep search to pay off;
* :func:`max_feasible_length` probes with the scalar search and skips
  the probes whose verdict it can infer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.models.interconnect import InterconnectEstimate
from repro.units import ps

#: Default input slew assumed at the head of an optimized link.
DEFAULT_INPUT_SLEW = ps(100)

#: Practical repeater size cap — delay-optimal sizes beyond this are
#: "never used in practice" (Section III-D).
DEFAULT_MAX_SIZE = 128.0

#: Golden-section ratio.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Shortest line (meters) :func:`max_feasible_length` probes first.
_SHORTEST_LINK = 0.1e-3

#: Most regula-falsi probes :func:`max_feasible_length` spends
#: bracketing the feasibility edge before it bisects.
_BRACKET_PROBES = 12

#: Bracket width (meters) at which the regula-falsi probes stop.
_BRACKET_WIDTH = 1e-9


@dataclass(frozen=True)
class BufferingSolution:
    """Result of a buffering optimization."""

    num_repeaters: int
    repeater_size: float
    estimate: InterconnectEstimate
    objective: float

    @property
    def delay(self) -> float:
        return self.estimate.delay

    @property
    def power(self) -> float:
        return self.estimate.total_power


def _weighted_objective(estimate: InterconnectEstimate,
                        delay_weight: float) -> float:
    """``delay^w * power^(1-w)`` (scale-free weighted product)."""
    if delay_weight >= 1.0:
        return estimate.delay
    if delay_weight <= 0.0:
        return estimate.total_power
    return (estimate.delay**delay_weight
            * estimate.total_power**(1.0 - delay_weight))


def _best_size_for_count(model, length: float, count: int,
                         input_slew: float, delay_weight: float,
                         max_size: float, bus_width: int
                         ) -> BufferingSolution:
    """Golden-section search over the repeater size for a fixed count."""
    def objective_at(size: float) -> "tuple[float, InterconnectEstimate]":
        estimate = model.evaluate(length, count, size, input_slew,
                                  bus_width=bus_width)
        return _weighted_objective(estimate, delay_weight), estimate

    low, high = 1.0, max_size
    x1 = high - _GOLDEN * (high - low)
    x2 = low + _GOLDEN * (high - low)
    f1, e1 = objective_at(x1)
    f2, e2 = objective_at(x2)
    for _ in range(40):
        if high - low < 0.25:
            break
        if f1 <= f2:
            high, x2, f2, e2 = x2, x1, f1, e1
            x1 = high - _GOLDEN * (high - low)
            f1, e1 = objective_at(x1)
        else:
            low, x1, f1, e1 = x1, x2, f2, e2
            x2 = low + _GOLDEN * (high - low)
            f2, e2 = objective_at(x2)
    if f1 <= f2:
        return BufferingSolution(count, x1, e1, f1)
    return BufferingSolution(count, x2, e2, f2)


def _check_finite(name: str, value: float) -> None:
    """Reject a NaN or infinite argument with a ``ValueError`` naming
    it, before it reaches a search's integer or interval arithmetic."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


def _search_counts(counts: Sequence[int], max_size: float
                   ) -> "list[int]":
    """The candidate counts as a list, after the checks every search
    needs whichever implementation runs it."""
    counts = list(counts)
    if not counts:
        raise ValueError("counts must name at least one repeater count")
    if not max_size >= 1.0:
        raise ValueError("max_size must be at least 1 (the minimum "
                         "repeater)")
    _check_finite("max_size", max_size)
    return counts


def optimize_buffering_scalar(
    model,
    length: float,
    counts: Sequence[int],
    delay_weight: float,
    input_slew: float,
    max_size: float,
    bus_width: int,
) -> BufferingSolution:
    """Scalar reference search of :func:`optimize_buffering`: one
    golden-section search per count, first strict minimum wins."""
    best: Optional[BufferingSolution] = None
    for count in counts:
        candidate = _best_size_for_count(
            model, length, count, input_slew, delay_weight, max_size,
            bus_width)
        if best is None or candidate.objective < best.objective:
            best = candidate
    return best


def optimize_buffering(
    model,
    length: float,
    delay_weight: float = 0.5,
    input_slew: float = DEFAULT_INPUT_SLEW,
    max_repeaters: Optional[int] = None,
    max_size: float = DEFAULT_MAX_SIZE,
    bus_width: int = 1,
    counts: Optional[Sequence[int]] = None,
) -> BufferingSolution:
    """Best (count, size) for the weighted delay-power objective.

    ``counts`` overrides the repeater-count candidates; by default every
    count from 1 to ``max_repeaters`` (a heuristic cap derived from the
    line length) is tried.  ``max_size`` (at least 1) caps the
    repeater size.
    """
    if not 0.0 <= delay_weight <= 1.0:
        raise ValueError("delay_weight must lie in [0, 1]")
    if not length > 0:
        raise ValueError("length must be positive")
    _check_finite("length", length)
    _check_finite("input_slew", input_slew)

    if counts is None:
        if max_repeaters is None:
            # Generous cap: about four repeaters per millimeter.
            max_repeaters = max(2, int(length / 0.25e-3))
        counts = range(1, max_repeaters + 1)
    counts = _search_counts(counts, max_size)

    from repro.kernels import array_path
    if array_path(model):
        from repro.kernels.search import optimize_buffering_batch
        search = optimize_buffering_batch
    else:
        search = optimize_buffering_scalar
    return search(model, length, counts, delay_weight, input_slew,
                  max_size, bus_width)


def _cheapest_size_for_count(model, length: float, count: int,
                             max_delay: float, input_slew: float,
                             max_size: float, bus_width: int,
                             bound: Optional[float]
                             ) -> Optional[BufferingSolution]:
    """Cheapest design at ``count`` that meets ``max_delay``.

    ``None`` when no size meets ``max_delay``, and also when the
    design could not cost less than ``bound`` watts (``None``: no
    bound); :func:`minimize_power_under_delay_scalar` states the
    premise that makes the second answer exact.
    """
    low_est = model.evaluate(length, count, 1.0, input_slew,
                             bus_width=bus_width)
    if bound is not None and not low_est.total_power < bound:
        return None
    # Fastest configuration at this count: delay-weighted search.
    fastest = _best_size_for_count(
        model, length, count, input_slew, 1.0, max_size, bus_width)
    if fastest.delay > max_delay:
        return None
    if low_est.delay <= max_delay:
        return BufferingSolution(count, 1.0, low_est, low_est.total_power)
    # Shrink the size until ``max_delay`` is just met, minimizing
    # power: binary search for the smallest size still meeting it.
    # The estimate at ``high`` is always one already made: the fastest
    # design's, then the last feasible midpoint's.  A midpoint that
    # misses ``max_delay`` leaves only larger sizes, which cost no less.
    low, high = 1.0, fastest.repeater_size
    high_est = fastest.estimate
    for _ in range(40):
        if high - low < 0.25:
            break
        mid = 0.5 * (low + high)
        estimate = model.evaluate(length, count, mid, input_slew,
                                  bus_width=bus_width)
        if estimate.delay <= max_delay:
            high, high_est = mid, estimate
        elif bound is not None and not estimate.total_power < bound:
            return None
        else:
            low = mid
    return BufferingSolution(count, high, high_est, high_est.total_power)


def minimize_power_under_delay_scalar(
    model,
    length: float,
    max_delay: float,
    input_slew: float,
    max_size: float,
    bus_width: int,
    counts: Sequence[int],
) -> Optional[BufferingSolution]:
    """Scalar reference search of :func:`minimize_power_under_delay`.

    Per count, a delay-weighted golden-section search finds the
    fastest size; if it meets ``max_delay``, a bisection finds the
    smallest size that still does.  The first strictly cheapest
    count's design wins.

    The search rests on one premise: at a fixed count, total power
    never falls as the repeater size grows.  The bisection needs it
    to call the smallest feasible size the cheapest, and two cuts use
    it to drop a count that cannot beat the best design so far.  A
    count whose size-1 power is not below the best's is dropped
    before its golden-section search.  A count whose bisection
    reaches a midpoint that misses the bound, at a power not below
    the best's, is dropped there: its answer could only be a larger
    size.  Neither cut moves the answer while the premise holds;
    ``tests/buffering/test_min_power_pruning.py`` checks the premise
    on every shipped model and holds the answers ``==`` to the
    search without the cuts.
    """
    best: Optional[BufferingSolution] = None
    for count in counts:
        candidate = _cheapest_size_for_count(
            model, length, count, max_delay, input_slew, max_size,
            bus_width, None if best is None else best.power)
        if candidate is not None and (best is None
                                      or candidate.power < best.power):
            best = candidate
    return best


def minimize_power_under_delay(
    model,
    length: float,
    max_delay: float,
    input_slew: float = DEFAULT_INPUT_SLEW,
    max_size: float = DEFAULT_MAX_SIZE,
    bus_width: int = 1,
    counts: Optional[Sequence[int]] = None,
) -> Optional[BufferingSolution]:
    """Cheapest buffering whose delay meets ``max_delay``.

    Returns ``None`` when no configuration meets the bound (the link is
    infeasible at this length and clock) — which is exactly the
    feasibility check the NoC synthesizer performs per candidate link.
    ``counts`` defaults to a sparse candidate set sized to the length.
    """
    if not max_delay > 0:
        raise ValueError("max_delay must be positive")
    if not length > 0:
        raise ValueError("length must be positive")
    _check_finite("length", length)
    _check_finite("input_slew", input_slew)
    if counts is None:
        counts = _count_candidates(length)
    counts = _search_counts(counts, max_size)
    return minimize_power_under_delay_scalar(
        model, length, max_delay, input_slew, max_size, bus_width,
        counts)


def max_feasible_length(
    model,
    max_delay: float,
    input_slew: float = DEFAULT_INPUT_SLEW,
    upper_bound: float = 30e-3,
    max_size: float = DEFAULT_MAX_SIZE,
) -> float:
    """Longest line (meters) whose optimally buffered delay meets
    ``max_delay``.

    Used by the NoC synthesizer to prune candidate links; the paper
    observes that the optimistic original model admits "excessively
    long wires" that are not actually implementable.

    A bisection over the length: 30 halvings between the 0.1 mm first
    probe and ``upper_bound``.  Each probe runs the scalar search
    whatever the model: one length's repeater counts are too few lanes
    for the lockstep search to pay off, and both searches return the
    same delay.  ``max_delay`` must be positive and ``upper_bound``
    finite and above the 0.1 mm first probe.

    Most midpoints are not probed.  Illinois regula falsi on the
    fastest delay minus ``max_delay`` first brackets the edge between
    a feasible length ``a`` and an infeasible one ``b``.  A midpoint
    at or below ``a`` whose repeater-count candidate list
    (:func:`_count_candidates`) is ``a``'s counts as feasible, and
    one at or above ``b`` whose list is ``b``'s as infeasible.  A new
    count enters the list every 0.25 mm and can make a longer line
    feasible again, so every other midpoint is probed, and each probe
    inside ``(a, b)`` tightens the bracket.

    The inferred verdicts assume that within one list the fastest
    delay never falls as the length grows; then the bisection
    returns, bit for bit, what probing every midpoint returns.  Each
    count's delay grows with the length, but the size search stops
    at a 0.25 size width, so the found delay can step down.  The
    premise is checked by comparison with probing every midpoint, not
    proven.
    """
    if not max_delay > 0:
        raise ValueError("max_delay must be positive")
    if not upper_bound > _SHORTEST_LINK:
        raise ValueError(
            f"upper_bound must exceed {_SHORTEST_LINK} m, the shortest "
            f"length probed")
    _check_finite("upper_bound", upper_bound)
    _check_finite("input_slew", input_slew)

    def fastest_delay(length: float) -> float:
        counts = _search_counts(_count_candidates(length), max_size)
        solution = optimize_buffering_scalar(
            model, length, counts, 1.0, input_slew, max_size, 1)
        return solution.delay

    low = _SHORTEST_LINK
    delay_low = fastest_delay(low)
    if not delay_low <= max_delay:
        return 0.0
    high = upper_bound
    delay_high = fastest_delay(high)
    if delay_high <= max_delay:
        return high

    # The bracket: a feasible length ``a`` and an infeasible ``b``
    # (infinite while no infeasible probe has a delay that is not
    # NaN), with the slacks ``delay - max_delay`` regula falsi
    # interpolates.
    a, slack_a = low, delay_low - max_delay
    b, slack_b = high, delay_high - max_delay
    if math.isnan(delay_high):
        b = math.inf
    side = 0
    for _ in range(_BRACKET_PROBES):
        if not math.isfinite(slack_b) or b - a < _BRACKET_WIDTH:
            break
        x = b - slack_b * (b - a) / (slack_b - slack_a)
        if not a < x < b:
            break
        delay = fastest_delay(x)
        if delay <= max_delay:
            a, slack_a = x, delay - max_delay
            if side > 0:
                slack_b *= 0.5
            side = 1
        elif not math.isnan(delay):
            b, slack_b = x, delay - max_delay
            if side < 0:
                slack_a *= 0.5
            side = -1
        else:
            break

    a_counts = _count_candidates(a)
    b_counts = _count_candidates(b) if b < math.inf else None
    for _ in range(30):
        mid = 0.5 * (low + high)
        counts = _count_candidates(mid)
        if mid <= a and counts == a_counts:
            feasible = True
        elif mid >= b and counts == b_counts:
            feasible = False
        else:
            delay = fastest_delay(mid)
            feasible = delay <= max_delay
            if a < mid < b:
                if feasible:
                    a, a_counts = mid, counts
                elif not math.isnan(delay):
                    b, b_counts = mid, counts
        if feasible:
            low = mid
        else:
            high = mid
    return low


def _count_candidates(length: float) -> Sequence[int]:
    """Sparse repeater-count candidates for fast feasibility checks."""
    dense = max(2, int(length / 0.25e-3))
    candidates = sorted({1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, dense})
    return [count for count in candidates if count <= dense]
