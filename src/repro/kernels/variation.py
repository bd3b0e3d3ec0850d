"""Batched Monte-Carlo line delay over a perturbation-factor matrix.

:func:`line_delay_batch` evaluates one fixed line geometry under many
within-die variation draws at once: the caller draws every
perturbation factor with its own ``SeedSequence`` streams (preserving
the bit-identical sample-vector contract) and hands the whole factor
matrix here, where each Monte-Carlo sample becomes one lane of
:func:`repro.signoff.variation._closed_form_line_delay`.  This is the
Monte-Carlo ``"model"`` engine.

Kernels draw no random numbers — ``repro lint`` enforces it.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.line import array_path
from repro.runtime.metrics import METRICS
from repro.runtime.trace import span


def line_delay_batch(
    model,
    length: float,
    num_repeaters: int,
    repeater_size: float,
    receiver_cap: float,
    input_slew: float,
    factors: np.ndarray,
) -> np.ndarray:
    """Line delay (s) per Monte-Carlo sample, one kernel call.

    ``factors`` has shape ``(samples, num_repeaters, 4)`` with columns
    ``(n_drive, n_vth, p_drive, p_vth)`` — the multiplicative
    perturbations of each stage, in the scalar sampler's draw order.
    A row of ones is the nominal line.
    """
    from repro.signoff.variation import _closed_form_line_delay

    if not array_path(model):
        raise TypeError(
            "line_delay_batch runs the plain BufferedInterconnectModel "
            f"stage; got {type(model).__name__}")
    factors = np.asarray(factors, dtype=float)
    if factors.ndim != 3 or factors.shape[1:] != (num_repeaters, 4):
        raise ValueError(
            f"factors must have shape (samples, {num_repeaters}, 4), "
            f"got {factors.shape}")
    lanes = factors.shape[0]
    METRICS.count("kernels.batches")
    METRICS.count("kernels.batch_size", lanes)
    with span("kernels.variation_batch", lanes=lanes,
              stages=num_repeaters), METRICS.timer("kernels.batch"):
        return _closed_form_line_delay(
            model, length, num_repeaters, repeater_size, receiver_cap,
            input_slew, factors)
