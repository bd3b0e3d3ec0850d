"""Link design: buffered-bus cost and feasibility under a given model.

A NoC link is a ``data_width``-bit buffered bus that must traverse its
length within one clock period (links are registered at routers).  The
:class:`LinkDesigner` answers, for whatever interconnect model it is
given:

* is a link of length L feasible at this clock?
* what is the cheapest buffering that meets the period?
* what are its power (at the actual traffic load), area and delay?

Because the designer is model-agnostic, swapping the proposed model for
the Bakoglu baseline reproduces the original-vs-proposed COSI-OCC
comparison of Table III — including the original model's optimistic
maximum link length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.buffering.optimizer import (
    BufferingSolution,
    max_feasible_length,
    minimize_power_under_delay,
)
from repro.models.interconnect import InterconnectEstimate
from repro.runtime import DiskCache, METRICS, fingerprint, span
from repro.tech.parameters import TechnologyParameters
from repro.units import ps

#: Fraction of raw link bandwidth usable for payload traffic.
DEFAULT_UTILIZATION = 0.75

#: Input slew assumed at link entry (driven by a router output stage).
LINK_INPUT_SLEW = ps(100)

#: Length quantum for the link-design cache, meters.  Candidate edges
#: whose lengths round to the same quantum share one buffering design.
_LENGTH_QUANTUM = 0.05e-3


def quantize_length(length: float, max_length: float) -> int:
    """The memo/disk key (quantum index) for a requested length.

    Both ``length`` and ``max_length`` are in meters.  Rounding to the
    nearest quantum is the cache-friendly default; when that rounding
    would push a feasible request past the feasibility edge, the key
    falls back to the quantum at or below the request so the link is
    not spuriously reported undesignable.  ``design()`` and
    ``design_batch()`` share this one function, which is what makes
    their memo and disk-cache keys identical by construction.
    """
    key = max(1, round(length / _LENGTH_QUANTUM))
    if key * _LENGTH_QUANTUM > max_length:
        key = max(1, int(length / _LENGTH_QUANTUM))
    return key


#: Sentinel distinguishing a memo miss from a memoized ``None``
#: (infeasible length).
_MISS = object()


@dataclass(frozen=True)
class LinkDesign:
    """A designed link: buffering choice plus cost breakdown (per bus)."""

    length: float
    bus_width: int
    solution: BufferingSolution
    leakage_power: float          # W, whole bus
    switched_capacitance: float   # F, whole bus, per transition
    repeater_area: float          # m^2, whole bus
    wire_area: float              # m^2

    @property
    def delay(self) -> float:
        """End-to-end link delay, in seconds."""
        return self.solution.delay

    def dynamic_power(self, bandwidth: float, vdd: float,
                      clock_frequency: float) -> float:
        """Dynamic power (W) at an actual traffic load.

        ``bandwidth`` is the payload bits/s carried; the activity factor
        of each wire is ``bandwidth / (bus_width * f)`` under random
        data, and the energy per transition is ``C vdd^2``.
        """
        if bandwidth < 0:
            raise ValueError("bandwidth must be non-negative")
        activity = bandwidth / (self.bus_width * clock_frequency)
        return activity * self.switched_capacitance * vdd * vdd \
            * clock_frequency

    @property
    def total_area(self) -> float:
        """Repeater plus wire area, in square meters."""
        return self.repeater_area + self.wire_area

    # -- persistent-cache serialization -----------------------------------

    def to_payload(self) -> Dict:
        """JSON-serializable rendering for the persistent cache."""
        estimate = self.solution.estimate
        return {
            "length": self.length,
            "bus_width": self.bus_width,
            "solution": {
                "num_repeaters": self.solution.num_repeaters,
                "repeater_size": self.solution.repeater_size,
                "objective": self.solution.objective,
                "estimate": {
                    "delay": estimate.delay,
                    "output_slew": estimate.output_slew,
                    "stage_delays": list(estimate.stage_delays),
                    "dynamic_power": estimate.dynamic_power,
                    "leakage_power": estimate.leakage_power,
                    "repeater_area": estimate.repeater_area,
                    "wire_area": estimate.wire_area,
                    "num_repeaters": estimate.num_repeaters,
                    "repeater_size": estimate.repeater_size,
                    "length": estimate.length,
                    "bus_width": estimate.bus_width,
                },
            },
            "leakage_power": self.leakage_power,
            "switched_capacitance": self.switched_capacitance,
            "repeater_area": self.repeater_area,
            "wire_area": self.wire_area,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "LinkDesign":
        entry = payload["solution"]
        estimate_entry = dict(entry["estimate"])
        estimate_entry["stage_delays"] = tuple(
            estimate_entry["stage_delays"])
        estimate = InterconnectEstimate(**estimate_entry)
        solution = BufferingSolution(
            num_repeaters=entry["num_repeaters"],
            repeater_size=entry["repeater_size"],
            estimate=estimate,
            objective=entry["objective"],
        )
        return cls(
            length=payload["length"],
            bus_width=payload["bus_width"],
            solution=solution,
            leakage_power=payload["leakage_power"],
            switched_capacitance=payload["switched_capacitance"],
            repeater_area=payload["repeater_area"],
            wire_area=payload["wire_area"],
        )


def design_link(model, tech: TechnologyParameters, bus_width: int,
                length: float) -> Optional[LinkDesign]:
    """The stateless link-design core: one length, no caches.

    Finds the cheapest buffering of a ``length``-meter link (or
    ``None`` when timing cannot close) for a (model, technology,
    bus-width) context, exactly as :meth:`LinkDesigner.design` would —
    the designer's memo and disk-cache levels both bottom out here.
    Being a module-level pure function of its arguments, any process
    (a pool worker, a ``repro serve`` shard) can evaluate any query
    and the answers are interchangeable.
    """
    with span("link.design", length_mm=length * 1e3,
              bus_width=bus_width, node=tech.name) as sp, \
            METRICS.timer("link.design"):
        METRICS.count("link.design_attempts")
        solution = minimize_power_under_delay(
            model, length, tech.clock_period(),
            input_slew=LINK_INPUT_SLEW)
        sp.annotate(feasible=solution is not None)
        if solution is not None:
            sp.annotate(num_repeaters=solution.num_repeaters,
                        repeater_size=solution.repeater_size)
    if solution is None:
        return None
    estimate = model.evaluate(
        length, solution.num_repeaters, solution.repeater_size,
        LINK_INPUT_SLEW, bus_width=bus_width)
    # Recover the switched capacitance from the estimate's dynamic
    # power: p = af * C * vdd^2 * f  =>  C = p / (af vdd^2 f).
    activity = getattr(model, "activity_factor", 0.15)
    switched = estimate.dynamic_power / (
        activity * tech.vdd**2 * tech.clock_frequency)
    return LinkDesign(
        length=length,
        bus_width=bus_width,
        solution=solution,
        leakage_power=estimate.leakage_power,
        switched_capacitance=switched,
        repeater_area=estimate.repeater_area,
        wire_area=estimate.wire_area,
    )


class LinkDesigner:
    """Designs and caches links for one (model, clock) context.

    Two cache levels: a per-instance memo keyed on the length quantum,
    and (when the runtime cache is enabled) the persistent
    :class:`repro.runtime.DiskCache`, so repeated CLI invocations, pool
    workers and serve shards warm-start each other's link designs.
    The computation itself lives in the stateless :func:`design_link`
    core.

    The memo is a plain dict bounded by its key space: :meth:`design`
    answers ``None`` for any length past :meth:`max_length` before it
    computes a key, and :func:`quantize_length` never keys a feasible
    length past that edge, so the memo holds at most
    ``max(1, max_length() / _LENGTH_QUANTUM)`` entries (600 at the
    feasibility bisection's 30 mm upper bound), however long a server
    runs.
    """

    def __init__(self, model, tech: TechnologyParameters,
                 bus_width: int,
                 utilization: float = DEFAULT_UTILIZATION,
                 use_disk_cache: bool = True):
        if not 0.0 < utilization <= 1.0:
            raise ValueError("utilization must lie in (0, 1]")
        self.model = model
        self.tech = tech
        self.bus_width = bus_width
        self.utilization = utilization
        self._memo: Dict[int, Optional[LinkDesign]] = {}
        self._max_length: Optional[float] = None
        self._disk: Optional[DiskCache] = None
        self._context_hash: Optional[str] = None
        if use_disk_cache:
            try:
                # One hash covers everything a design depends on: the
                # full technology, the model (class plus every fitted
                # coefficient), clocking and the bus geometry.
                self._context_hash = fingerprint({
                    "model": model,
                    "tech": tech,
                    "bus_width": bus_width,
                    "utilization": utilization,
                })
                self._disk = DiskCache("links")
            except TypeError:
                # Models that are not canonicalizable (ad-hoc fakes)
                # simply skip the persistent level.
                self._context_hash = None

    # -- capacity ---------------------------------------------------------

    def capacity(self) -> float:
        """Usable payload bandwidth of one link, bits/s."""
        return (self.bus_width * self.tech.clock_frequency
                * self.utilization)

    # -- feasibility -----------------------------------------------------

    def max_length(self) -> float:
        """Longest feasible link at one clock period, meters (cached)."""
        if self._max_length is None:
            payload = self._disk_get({"kind": "max_length"})
            if payload is not None:
                self._max_length = float(payload["max_length"])
            else:
                self._max_length = max_feasible_length(
                    self.model, self.tech.clock_period(),
                    input_slew=LINK_INPUT_SLEW)
                self._disk_put({"kind": "max_length"},
                               {"max_length": self._max_length})
        return self._max_length

    def is_feasible(self, length: float) -> bool:
        """Whether a link of ``length`` meters closes timing."""
        return length <= self.max_length()

    # -- design -----------------------------------------------------------

    def design(self, length: float) -> Optional[LinkDesign]:
        """Cheapest feasible link of ``length`` meters, or ``None``.

        Designs are cached on a length quantum since synthesis evaluates
        many candidate edges of nearly identical lengths.  Feasibility
        is decided on the *requested* length, consistently with
        :meth:`is_feasible`: when rounding to the quantum grid would
        push a feasible length past the feasibility edge, the design
        falls back to the quantum at or below the request instead of
        spuriously reporting the link undesignable.
        """
        if length <= 0:
            raise ValueError("length must be positive")
        if not self.is_feasible(length):
            return None
        key = quantize_length(length, self.max_length())
        memoized = self._memo.get(key, _MISS)
        if memoized is not _MISS:
            METRICS.count("link.memo_hit")
            return memoized
        design = self._memo[key] = self._design_cached_on_disk(key)
        return design

    def design_batch(self, lengths: "list[float]"
                     ) -> "list[Optional[LinkDesign]]":
        """Designs for many lengths, warming every cache level.

        Each length is its own :meth:`design` call, in order, under one
        ``link.design_batch`` span; no search runs across lengths.
        Synthesis designs its distinct candidate lengths here once and
        hands each candidate its design; the memo and the disk cache
        this fills serve later :meth:`design` calls.
        """
        with span("link.design_batch", n=len(lengths),
                  bus_width=self.bus_width):
            return [self.design(length) for length in lengths]

    def _disk_get(self, key_tail: Dict) -> Optional[Dict]:
        if self._disk is None or self._context_hash is None:
            return None
        return self._disk.get({"context": self._context_hash,
                               **key_tail}, kind=key_tail["kind"])

    def _disk_put(self, key_tail: Dict, payload: Dict) -> None:
        if self._disk is None or self._context_hash is None:
            return
        self._disk.put({"context": self._context_hash, **key_tail},
                       payload, kind=key_tail["kind"])

    def _design_cached_on_disk(self, key: int) -> Optional[LinkDesign]:
        key_tail = {"kind": "design", "quantum_index": key,
                    "quantum": _LENGTH_QUANTUM}
        payload = self._disk_get(key_tail)
        if payload is not None:
            if not payload.get("feasible", False):
                return None
            return LinkDesign.from_payload(payload["design"])
        design = self._design_uncached(key * _LENGTH_QUANTUM)
        if design is None:
            self._disk_put(key_tail, {"feasible": False})
        else:
            self._disk_put(key_tail, {"feasible": True,
                                      "design": design.to_payload()})
        return design

    def _design_uncached(self, length: float) -> Optional[LinkDesign]:
        if not self.is_feasible(length):
            return None
        return design_link(self.model, self.tech, self.bus_width,
                           length)

