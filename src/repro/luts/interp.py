"""Scalar trilinear interpolation over a characterization grid.

This is the scalar form of the batched lane in
:mod:`repro.kernels.lut` — same bracketing, same lerp form, same
reduction order (count axis first, then length, then size), so a
scalar lookup and a one-lane batched lookup agree bit-for-bit, which
``tests/kernels/test_lut.py`` pins.

Queries are *clamped* to the grid: callers that must not serve
clamped answers (the LUT model's closed-form fallback) check
:meth:`repro.luts.grid.GridSpec.covers` first.  Tables are the
artifact's serving-form arrays
(:meth:`repro.luts.artifact.LUTArtifact.interp_table`), indexed
``table[size_index, length_index, count_index]``; each corner is read
with ``ndarray.item``, which returns a plain Python float, so the
arithmetic below never touches numpy scalars and no per-artifact copy
of the tables is needed.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence, Tuple

import numpy as np


def bracket(axis: Sequence[float], value: float) -> Tuple[int, float]:
    """(lower index, fraction) of ``value`` on a sorted axis.

    The fraction is clamped to [0, 1], so out-of-range queries pin to
    the nearest edge instead of extrapolating.
    """
    hi = len(axis) - 2
    idx = min(max(bisect_right(axis, value) - 1, 0), hi)
    span = axis[idx + 1] - axis[idx]
    frac = (value - axis[idx]) / span
    return idx, min(max(frac, 0.0), 1.0)


def _lerp(low: float, high: float, frac: float) -> float:
    """Linear interpolation ``low + (high - low) * frac``."""
    return low + (high - low) * frac


def trilinear(
    table: np.ndarray,
    size_axis: Sequence[float],
    length_axis: Sequence[float],
    count_axis: Sequence[float],
    size: float,
    length: float,
    count: float,
) -> float:
    """Trilinear lookup of one ``(size, length, count)`` query.

    Reduces the count axis first, then length, then size — the exact
    order the batched kernel (and its pre-reduced search profile)
    uses, which is what keeps scalar and batched lookups bitwise
    identical.
    """
    i, fs = bracket(size_axis, size)
    j, fl = bracket(length_axis, length)
    k, fc = bracket(count_axis, count)
    i1 = i + 1
    j1 = j + 1
    k1 = k + 1
    item = table.item
    c00 = _lerp(item(i, j, k), item(i, j, k1), fc)
    c01 = _lerp(item(i, j1, k), item(i, j1, k1), fc)
    c10 = _lerp(item(i1, j, k), item(i1, j, k1), fc)
    c11 = _lerp(item(i1, j1, k), item(i1, j1, k1), fc)
    c0 = _lerp(c00, c01, fl)
    c1 = _lerp(c10, c11, fl)
    return _lerp(c0, c1, fs)
