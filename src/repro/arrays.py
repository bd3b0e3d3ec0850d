"""Helpers for functions that take either a float or a NumPy array.

The model equations in :mod:`repro.models` have one body for two kinds
of caller: scalar calls with Python floats, which must stay cheap and
keep returning floats, and the batched lanes in :mod:`repro.kernels`,
which pass arrays.  Arithmetic needs no help, because ``+ - * /``
broadcast either way.  Validation and clamping do, and live here.
"""

from __future__ import annotations

import math


def any_true(flags) -> bool:
    """``np.any(flags)`` that skips NumPy for a plain ``bool``.

    ``flags`` is a comparison result: a ``bool`` for float inputs, an
    array for array inputs.  ``np.any`` on a bool costs microseconds,
    more than a whole scalar model equation.
    """
    if flags is True or flags is False:
        return flags
    return bool(flags.any())


def clip(values, low: float, high: float = math.inf):
    """Clamp ``values`` elementwise into ``[low, high]``.

    Floats (including NumPy scalars) go through ``min``/``max`` and
    keep their type; arrays go through ``ndarray.clip``.
    """
    if isinstance(values, float):
        return min(max(values, low), high)
    return values.clip(low, high)
