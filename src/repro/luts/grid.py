"""Grid specification for the characterization LUT tier.

A :class:`GridSpec` pins down everything that shapes a table: the
three axes (repeater size, wire length in meters, repeater count), the
input slew the tables were characterized at (seconds), and the
interpolation-error contract the builder must validate against the
closed form.

The count axis is always a contiguous integer range, so every count a
search probes inside the range is an *exact* grid hit — only size and
length are genuinely interpolated.  Size and length axes are strictly
increasing floats with at least two points each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.units import mm, ps

#: Relative interpolation error the default grid must stay under,
#: validated at build time against the closed form at cell midpoints.
#: The builder *guarantees* the contract by accuracy-gating the
#: validity mask (cells whose midpoint misses it are never served);
#: the contract therefore trades coverage, not honesty — tighter
#: contracts push more of the grid back onto the closed form.
DEFAULT_ERROR_CONTRACT = 2e-2

#: Looser contract for the coarse (CI smoke) grid.
COARSE_ERROR_CONTRACT = 1e-1


def _geometric(low: float, high: float, points: int) -> Tuple[float, ...]:
    """A strictly increasing geometric axis from low to high."""
    ratio = (high / low) ** (1.0 / (points - 1))
    values = [low * ratio ** index for index in range(points - 1)]
    values.append(high)
    return tuple(values)


def _two_band(low: float, knee: float, high: float,
              low_points: int, high_points: int) -> Tuple[float, ...]:
    """Two geometric bands sharing the knee point: a dense band from
    ``low`` to ``knee`` (where the characterized surfaces curve
    hardest — minimum-size repeaters) and a regular band above."""
    return (_geometric(low, knee, low_points)
            + _geometric(knee, high, high_points)[1:])


@dataclass(frozen=True)
class GridSpec:
    """Axes + characterization conditions of one LUT artifact.

    ``sizes`` are dimensionless drive multiples, ``lengths`` meters,
    ``counts`` a contiguous integer range, ``input_slew`` seconds.
    ``max_rel_error`` is the interpolation-error contract the builder
    validates (and refuses to ship past).
    """

    sizes: Tuple[float, ...]
    lengths: Tuple[float, ...]
    counts: Tuple[int, ...]
    input_slew: float
    max_rel_error: float = DEFAULT_ERROR_CONTRACT

    def __post_init__(self) -> None:
        for name, axis in (("sizes", self.sizes),
                           ("lengths", self.lengths)):
            if len(axis) < 2:
                raise ValueError(f"{name} axis needs >= 2 points")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"{name} axis must be strictly "
                                 "increasing")
            if axis[0] <= 0:
                raise ValueError(f"{name} axis must be positive")
        if not self.counts:
            raise ValueError("counts axis must not be empty")
        if self.counts[0] < 1:
            raise ValueError("counts must start at >= 1")
        expected = tuple(range(self.counts[0], self.counts[-1] + 1))
        if tuple(self.counts) != expected:
            raise ValueError("counts axis must be a contiguous "
                             "integer range")
        if self.input_slew <= 0:
            raise ValueError("input_slew must be positive (seconds)")
        if not 0 < self.max_rel_error < 1:
            raise ValueError("max_rel_error must lie in (0, 1)")

    @property
    def shape(self) -> Tuple[int, int, int]:
        """(sizes, lengths, counts) table shape."""
        return (len(self.sizes), len(self.lengths), len(self.counts))

    @property
    def points(self) -> int:
        """Number of grid points per table."""
        return int(math.prod(self.shape))

    def covers(self, size: float, length: float, count: int) -> bool:
        """True when the query lies inside the gridded region (no
        extrapolation; count must be an exact grid member)."""
        return (self.sizes[0] <= size <= self.sizes[-1]
                and self.lengths[0] <= length <= self.lengths[-1]
                and self.counts[0] <= count <= self.counts[-1])

    def to_payload(self) -> dict:
        """JSON-safe form (lengths/slew stay in SI units)."""
        return {
            "sizes": list(self.sizes),
            "lengths": list(self.lengths),
            "counts": [int(c) for c in self.counts],
            "input_slew": self.input_slew,
            "max_rel_error": self.max_rel_error,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "GridSpec":
        return cls(
            sizes=tuple(float(v) for v in payload["sizes"]),
            lengths=tuple(float(v) for v in payload["lengths"]),
            counts=tuple(int(v) for v in payload["counts"]),
            input_slew=float(payload["input_slew"]),
            max_rel_error=float(payload["max_rel_error"]),
        )


#: The production grid: geometric size axis up to the optimizer's
#: practical cap, lengths spanning the NoC link range, counts covering
#: every candidate the buffering search enumerates below 14 mm.
DEFAULT_GRID = GridSpec(
    sizes=_two_band(1.0, 2.2, 128.0, 10, 16),
    lengths=_geometric(mm(0.1), mm(14.0), 24),
    counts=tuple(range(1, 65)),
    input_slew=ps(100),
    max_rel_error=DEFAULT_ERROR_CONTRACT,
)

#: Coarse grid for CI smoke and unit tests: same coverage, far fewer
#: points, looser contract.
COARSE_GRID = GridSpec(
    sizes=_geometric(1.0, 128.0, 8),
    lengths=_geometric(mm(0.1), mm(14.0), 10),
    counts=tuple(range(1, 33)),
    input_slew=ps(100),
    max_rel_error=COARSE_ERROR_CONTRACT,
)
