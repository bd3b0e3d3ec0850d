"""The LUT-served interconnect model (drop-in for the closed form).

:class:`LUTInterconnectModel` wraps a calibrated
:class:`repro.models.interconnect.BufferedInterconnectModel` plus one
built artifact and answers the same ``evaluate`` API: delay and output
slew interpolate trilinearly from the tables — in log-value space over
log size/length coordinates (see ``repro.luts.artifact.LOG_TABLES``),
which turns the closed form's power-law behavior into near-linear
segments — while power and area use the exact closed forms (they are
O(1) — tabulating them would only add error).  Anything the tables do not cover — an explicit receiver cap,
a different input slew, a query outside the gridded region — falls
back to the wrapped closed form, counted under ``luts.fallback``, so
the LUT tier can never produce an answer the closed form would not.

The wrapper refuses to bind an artifact whose calibration hash or
model class does not match the base model: a recalibrated node must
rebuild its tables (``repro luts check`` tracks the drift), never
serve stale ones.

Monte-Carlo draws on a LUT-served model run on its closed-form base
(:func:`repro.kernels.variation.line_delay_batch`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.luts.artifact import LUTArtifact
from repro.luts.interp import trilinear
from repro.models.interconnect import InterconnectEstimate
from repro.models.wire import WireCoefficients
from repro.runtime.cache import fingerprint
from repro.runtime.metrics import METRICS


class LUTInterconnectModel:
    """LUT-served stand-in for ``BufferedInterconnectModel``.

    API-compatible with the closed form wherever the artifact's grid
    covers the query; everywhere else it *is* the closed form (the
    wrapped base model answers, and ``luts.fallback`` counts it).
    The max interpolation error of served answers is the artifact's
    validated contract (``artifact.spec.max_rel_error``, measured at
    build time as ``artifact.measured_rel_error``).
    """

    def __init__(self, base, artifact: LUTArtifact) -> None:
        if artifact.model_class != type(base).__name__:
            raise ValueError(
                f"artifact characterizes {artifact.model_class}, got "
                f"a {type(base).__name__}")
        calibration_hash = fingerprint(base)
        if artifact.calibration_hash != calibration_hash:
            raise ValueError(
                "artifact calibration hash "
                f"{artifact.calibration_hash} does not match the "
                f"model ({calibration_hash}); the node was "
                "recalibrated — rebuild the tables (repro luts "
                "build) or run the drift check (repro luts check)")
        self.base = base
        self.artifact = artifact
        spec = artifact.spec
        # Interpolation coordinates: log size, log length, linear
        # count (matching repro.luts.artifact.LOG_TABLES — counts are
        # always exact grid hits).  Scalar queries log through
        # float(np.log(...)) so scalar and batched lanes stay bitwise
        # identical (np.log agrees elementwise with its vectorized
        # form; math.exp does not agree with np.exp, so the scalar
        # path never uses math.*).
        log_sizes = np.log(np.asarray(spec.sizes, dtype=float))
        log_lengths = np.log(np.asarray(spec.lengths, dtype=float))
        self._count_axis = tuple(float(c) for c in spec.counts)
        self._axis_arrays = (
            log_sizes,
            log_lengths,
            np.asarray(self._count_axis, dtype=float),
        )
        self._log_size_axis = tuple(log_sizes.tolist())
        self._log_length_axis = tuple(log_lengths.tolist())

    # -- closed-form delegation -----------------------------------------

    @property
    def tech(self):
        return self.base.tech

    @property
    def calibration(self):
        return self.base.calibration

    @property
    def config(self):
        return self.base.config

    @property
    def activity_factor(self) -> float:
        return self.base.activity_factor

    def repeater_model(self):
        return self.base.repeater_model()

    def stage_delay(self, wire, wr, input_slew, segment_length,
                    next_cap, rising_output):
        return self.base.stage_delay(wire, wr, input_slew,
                                     segment_length, next_cap,
                                     rising_output)

    def power_and_area(self, wire, length, num_repeaters, wn, wp,
                       input_cap, bus_width):
        return self.base.power_and_area(wire, length, num_repeaters,
                                        wn, wp, input_cap, bus_width)

    def staggered(self):
        """Staggered insertion changes the wire configuration, which
        the tables do not cover — return the closed form."""
        return self.base.staggered()

    # -- identity --------------------------------------------------------

    def cache_key(self) -> Dict[str, object]:
        """What disk-cache keys should fingerprint for this model:
        the base model *plus* the artifact content hash, so a rebuilt
        grid (or retuned contract) invalidates cached designs."""
        return {
            "kind": "lut-model",
            "base": self.base,
            "artifact": self.artifact.content_hash,
        }

    def axes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log size, log length, count) interpolation-coordinate
        axis arrays for the batched lane — pair them with the
        artifact's ``interp_table`` serving forms and log-transformed
        size/length queries."""
        return self._axis_arrays

    # -- evaluation ------------------------------------------------------

    def serves(self, length: float, num_repeaters: int,
               repeater_size: float, input_slew: float,
               receiver_cap: Optional[float] = None) -> bool:
        """True when the tables cover this query (no fallback): the
        characterized input slew and receiver, a query inside the
        gridded region, and every corner of the enclosing cell marked
        valid (the interpolated validity mask of such a cell is
        exactly 1.0)."""
        spec = self.artifact.spec
        if receiver_cap is not None \
                or input_slew != spec.input_slew \
                or not spec.covers(repeater_size, length,
                                   num_repeaters):
            return False
        return trilinear(self.artifact.scalar_interp_table("valid"),
                         self._log_size_axis, self._log_length_axis,
                         self._count_axis,
                         float(np.log(repeater_size)),
                         float(np.log(length)),
                         num_repeaters) == 1.0

    def evaluate(
        self,
        length: float,
        num_repeaters: int,
        repeater_size: float,
        input_slew: float,
        bus_width: int = 1,
        receiver_cap: Optional[float] = None,
    ) -> InterconnectEstimate:
        """LUT-served :meth:`BufferedInterconnectModel.evaluate`.

        Served answers carry the artifact's interpolation-error
        contract on delay and output slew; powers and areas are
        exact.  Uncovered queries delegate to the closed form.
        """
        if not self.serves(length, num_repeaters, repeater_size,
                           input_slew, receiver_cap):
            METRICS.count("luts.fallback")
            return self.base.evaluate(
                length, num_repeaters, repeater_size, input_slew,
                bus_width=bus_width, receiver_cap=receiver_cap)
        METRICS.count("luts.lookups")
        with METRICS.observed("lut.lookup_seconds"):
            return self._lookup_estimate(length, num_repeaters,
                                         repeater_size, input_slew,
                                         bus_width)

    def _lookup_estimate(self, length: float, num_repeaters: int,
                         repeater_size: float, input_slew: float,
                         bus_width: int = 1) -> InterconnectEstimate:
        """The served path: tables for timing, the closed form's own
        power and area for the rest (as
        :func:`repro.kernels.lut.evaluate_line_lut` serves a lane)."""
        artifact = self.artifact
        log_size = float(np.log(repeater_size))
        log_length = float(np.log(length))
        delay = float(np.exp(trilinear(
            artifact.scalar_interp_table("delay"),
            self._log_size_axis, self._log_length_axis,
            self._count_axis, log_size, log_length, num_repeaters)))
        slew = float(np.exp(trilinear(
            artifact.scalar_interp_table("output_slew"),
            self._log_size_axis, self._log_length_axis,
            self._count_axis, log_size, log_length, num_repeaters)))
        wn, wp = self.tech.inverter_widths(repeater_size)
        input_cap = self.repeater_model().input_capacitance(
            repeater_size)
        p_dynamic, p_leak, a_repeaters, a_wire = self.power_and_area(
            WireCoefficients.from_config(self.config), length,
            num_repeaters, wn, wp, input_cap, bus_width)
        return InterconnectEstimate(
            delay=delay,
            output_slew=slew,
            stage_delays=self._stage_breakdown(delay, num_repeaters),
            dynamic_power=p_dynamic,
            leakage_power=p_leak,
            repeater_area=a_repeaters,
            wire_area=a_wire,
            num_repeaters=num_repeaters,
            repeater_size=repeater_size,
            length=length,
            bus_width=bus_width,
        )

    @staticmethod
    def _stage_breakdown(delay: float, num_repeaters: int
                         ) -> Tuple[float, ...]:
        """Tables store line totals, not per-stage terms; serve the
        uniform split (stage delays of a long uniform chain are equal
        to within slew-convergence effects)."""
        return (delay / num_repeaters,) * num_repeaters


def serve(base, artifact: Optional[LUTArtifact]):
    """LUT-served view of ``base`` — or ``base`` itself when no
    artifact is available (the load helpers already counted the
    ``faults.lut_fallback``)."""
    if artifact is None:
        return base
    return LUTInterconnectModel(base, artifact)
