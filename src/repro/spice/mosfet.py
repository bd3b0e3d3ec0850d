"""Alpha-power-law MOSFET model with a smooth subthreshold transition.

The alpha-power law (Sakurai–Newton) captures velocity saturation — the
dominant short-channel effect for delay — which is why digital-delay
literature, including the gate models the paper builds on, uses it for
hand analysis.  Two practical refinements make it usable inside a Newton
solver and for leakage characterization:

* The gate overdrive goes through a softplus interpolation
  ``v_eff = s * ln(1 + exp((v_gs - vth) / s))`` so the current is smooth
  (C-infinity) through the threshold and decays exponentially below it —
  the same interpolation idea as the EKV model.  The smoothing parameter
  ``s`` is solved per device flavour such that the off-current at
  ``v_gs = 0, v_ds = vdd`` equals the technology's specified subthreshold
  leakage, making DC leakage characterization consistent by construction.
* Channel-length modulation adds a finite output conductance in
  saturation, and the linear region is the standard smooth quadratic.

Terminal convention: :meth:`Mosfet.evaluate` takes physical terminal
voltages and returns the physical drain current (negative for a
conducting pMOS in the nMOS sign convention) plus analytic derivatives
for the Newton companion model.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.tech.parameters import DeviceParameters


@dataclass(frozen=True)
class MosfetOperatingPoint:
    """Drain current and small-signal derivatives at one bias point.

    ``ids`` is the drain-to-source current (A); ``gm = d ids / d vgs``
    and ``gds = d ids / d vds`` are what the Newton solver stamps.
    """

    ids: float
    gm: float
    gds: float


#: Bound on the memo of solved smoothing parameters.  Every perturbed
#: Monte-Carlo device is a distinct key, so the memo must not grow
#: with the number of draws a long-lived process has answered.
SMOOTHING_MEMO_SIZE = 256

#: Search interval for the smoothing parameter, in volts.
_SMOOTHING_RANGE = (0.005, 0.5)

#: ``scipy.optimize.brentq``'s default relative tolerance and
#: iteration cap, which :func:`_brentq` keeps.
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _softplus(x: float, s: float) -> float:
    """Numerically safe ``s * ln(1 + exp(x / s))``."""
    ratio = x / s
    if ratio > 40.0:
        return x
    if ratio < -40.0:
        return s * math.exp(ratio)
    return s * math.log1p(math.exp(ratio))


def _brentq(f: Callable[[float], float], xa: float, xb: float,
            xtol: float) -> float:
    """A root of ``f`` bracketed by ``[xa, xb]``, by Brent's method.

    A transcription of the loop in scipy's ``brentq.c``: the same
    floating-point operations in the same order, so it returns the
    bits ``scipy.optimize.brentq(f, xa, xb, xtol=xtol)`` returns.  As
    there, an endpoint where ``f`` is exactly 0 is the root, and a
    bracket whose ends share a sign or a NaN value of ``f`` raises
    ``ValueError``, running out of iterations ``RuntimeError``.  It
    spares every process the ~0.5 s import of ``scipy.optimize`` for
    one short solve per device flavour.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return float(fx)

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        # Non-zero and not NaN, so ``< 0`` is the sign bit brentq.c
        # compares.
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(
        f"failed to converge after {_BRENT_MAXITER} iterations, "
        f"value is {xcur}")


@functools.lru_cache(maxsize=SMOOTHING_MEMO_SIZE)
def subthreshold_smoothing(parameters: DeviceParameters,
                           reference_vdd: float) -> float:
    """Smoothing parameter ``s`` (volts) matching the specified leakage.

    Solves ``k_sat * v_eff(0)**alpha = i_leak`` where
    ``v_eff(0) = softplus(-vth, s)`` is the effective overdrive of an
    off device.  The solution is memoized per (flavour, vdd), keeping
    the :data:`SMOOTHING_MEMO_SIZE` most recent.
    """
    target = parameters.i_leak / parameters.k_sat

    def objective(s: float) -> float:
        v_eff = _softplus(-parameters.vth, s)
        v_dsat = parameters.k_lin * v_eff**(parameters.alpha / 2.0)
        clm = 1.0 + parameters.channel_length_modulation * max(
            reference_vdd - v_dsat, 0.0)
        return v_eff**parameters.alpha * clm - target

    low, high = _SMOOTHING_RANGE
    if objective(high) < 0:
        solution = high  # leakage spec higher than the model can reach
    elif objective(low) > 0:
        solution = low   # leakage spec lower than the model can reach
    else:
        solution = _brentq(objective, low, high, xtol=1e-6)
    return solution


def _channel_equations(p: DeviceParameters, w: float, s: float
                       ) -> Callable[[float, float],
                                     Tuple[float, float, float]]:
    """``(ids, gm, gds)`` of a device of flavour ``p``, width ``w``
    (meters) and smoothing ``s`` (volts) as a function of physical
    terminal voltages (see :meth:`Mosfet.channel`).

    Every constant below is the same product an evaluation from
    scratch computes first, so hoisting them changes no bit.
    """
    sign = p.polarity
    vth = p.vth
    alpha = p.alpha
    lam = p.channel_length_modulation
    k_lin = p.k_lin
    i_sat_scale = p.k_sat * w
    di_sat_scale = p.alpha * p.k_sat * w
    alpha_less_one = p.alpha - 1.0
    half_alpha = p.alpha / 2.0
    dv_dsat_scale = p.k_lin * (p.alpha / 2.0)
    half_alpha_less_one = p.alpha / 2.0 - 1.0

    def forward(vgs: float, vds: float) -> Tuple[float, float, float]:
        """Current and derivatives in the nMOS frame with vds >= 0."""
        # v_eff is _softplus(vgs - vth, s) and dv_eff its derivative.
        overdrive = vgs - vth
        ratio = overdrive / s
        if ratio > 40.0:
            v_eff = overdrive
            dv_eff = 1.0
        elif ratio < -40.0:
            v_eff = s * math.exp(ratio)
            dv_eff = math.exp(ratio)
        else:
            v_eff = s * math.log1p(math.exp(ratio))
            dv_eff = 1.0 / (1.0 + math.exp(-ratio))
        if v_eff <= 0.0:
            return 0.0, 0.0, 0.0

        i_sat = i_sat_scale * v_eff**alpha
        di_sat_dvgs = di_sat_scale * v_eff**alpha_less_one * dv_eff
        v_dsat = k_lin * v_eff**half_alpha
        dv_dsat_dvgs = (dv_dsat_scale * v_eff**half_alpha_less_one
                        * dv_eff)

        if vds >= v_dsat:
            clm = 1.0 + lam * (vds - v_dsat)
            ids = i_sat * clm
            gds = i_sat * lam
            gm = di_sat_dvgs * clm - i_sat * lam * dv_dsat_dvgs
        else:
            x = vds / v_dsat
            shape = (2.0 - x) * x
            ids = i_sat * shape
            gds = i_sat * (2.0 - 2.0 * x) / v_dsat
            dx_dvgs = -vds * dv_dsat_dvgs / (v_dsat * v_dsat)
            dshape_dvgs = (2.0 - 2.0 * x) * dx_dvgs
            gm = di_sat_dvgs * shape + i_sat * dshape_dvgs
        return ids, gm, gds

    def currents(v_gs: float, v_ds: float) -> Tuple[float, float, float]:
        vgs = sign * v_gs
        vds = sign * v_ds
        if vds >= 0:
            ids, gm, gds = forward(vgs, vds)
        else:
            # Channel conduction is symmetric: swap drain and source.
            # In the swapped frame vgs' = vgd = vgs - vds, vds' = -vds.
            ids_s, gm_s, gds_s = forward(vgs - vds, -vds)
            ids = -ids_s
            gm = -gm_s
            gds = gm_s + gds_s
        return sign * ids, gm, gds

    return currents


@dataclass(frozen=True)
class Mosfet:
    """A MOSFET instance: node connections, flavour, and width (meters)."""

    drain: int
    gate: int
    source: int
    parameters: DeviceParameters
    width: float
    reference_vdd: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")

    # -- capacitances ----------------------------------------------------

    @property
    def gate_capacitance(self) -> float:
        """Total gate capacitance in farads."""
        return self.parameters.c_gate * self.width

    @property
    def drain_capacitance(self) -> float:
        """Drain diffusion capacitance in farads."""
        return self.parameters.c_drain * self.width

    # -- current ----------------------------------------------------------

    def channel(self) -> Callable[[float, float],
                                  Tuple[float, float, float]]:
        """The device's ``(ids, gm, gds)`` as a function of physical
        terminal voltages ``(v_gs, v_ds)`` in volts.

        Resolves the smoothing parameter and folds the width into the
        flavour's constants once, so each call does only the
        bias-dependent arithmetic.  The Newton solver builds this once
        per device and circuit."""
        return _channel_equations(
            self.parameters, self.width,
            subthreshold_smoothing(self.parameters, self.reference_vdd))

    def evaluate(self, v_gs: float, v_ds: float) -> MosfetOperatingPoint:
        """Drain current and derivatives at physical terminal voltages."""
        ids, gm, gds = self.channel()(v_gs, v_ds)
        return MosfetOperatingPoint(ids=ids, gm=gm, gds=gds)

    def leakage_current(self, vdd: float) -> float:
        """Off-state current magnitude (A) including gate tunneling.

        Evaluated at ``v_gs = 0`` with the full supply across the channel
        — the bias of the non-conducting device in a static CMOS gate.
        """
        point = self.evaluate(0.0, self.parameters.polarity * vdd)
        return abs(point.ids) + self.parameters.i_gate_leak * self.width
