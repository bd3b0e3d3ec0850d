"""Typed containers for technology parameters.

All values are stored in SI units (meters, ohms, farads, volts, amperes,
watts, hertz).  The built-in parameter sets live in
:mod:`repro.tech.nodes`; this module only defines the data model and the
derived quantities that follow directly from it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.arrays import any_true


@dataclass(frozen=True)
class DeviceParameters:
    """Compact-model parameters for one MOSFET flavour (nMOS or pMOS).

    The transient simulator uses the Sakurai–Newton alpha-power law, so the
    parameters here are the alpha-power coefficients plus the linear
    capacitances that dominate digital switching behaviour.

    Attributes
    ----------
    polarity:
        ``+1`` for nMOS, ``-1`` for pMOS.
    vth:
        Threshold voltage magnitude in volts (always positive).
    alpha:
        Velocity-saturation index of the alpha-power law (1 = fully
        velocity saturated, 2 = long-channel square law).
    k_sat:
        Saturation transconductance in A/m of device width: the drain
        saturation current of a device of width ``w`` at gate overdrive
        ``v_ov`` is ``k_sat * w * v_ov**alpha``.
    k_lin:
        Ratio ``v_dsat / v_ov**(alpha/2)`` in V^(1-alpha/2); sets where the
        linear region ends.
    channel_length_modulation:
        Lambda of the ``(1 + lambda * v_ds)`` saturation-current correction,
        in 1/V.
    c_gate:
        Gate capacitance per meter of width, in F/m.
    c_drain:
        Drain (diffusion) capacitance per meter of width, in F/m.
    i_leak:
        Subthreshold (off-state) leakage current per meter of width at
        ``v_gs = 0`` and ``v_ds = vdd``, in A/m.
    i_gate_leak:
        Gate-tunneling leakage current per meter of width, in A/m.
    subthreshold_slope:
        Subthreshold swing factor ``n`` of ``exp(v_gs / (n * v_T))``
        (dimensionless, typically 1.2–1.6).
    """

    polarity: int
    vth: float
    alpha: float
    k_sat: float
    k_lin: float
    channel_length_modulation: float
    c_gate: float
    c_drain: float
    i_leak: float
    i_gate_leak: float
    subthreshold_slope: float = 1.4

    def __post_init__(self) -> None:
        if self.polarity not in (+1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity}")
        if self.vth <= 0:
            raise ValueError("vth is a magnitude and must be positive")
        if not 1.0 <= self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in [1, 2], got {self.alpha}")
        for name in ("k_sat", "k_lin", "c_gate", "c_drain"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def is_nmos(self) -> bool:
        """True when this flavour is an nMOS device."""
        return self.polarity == +1

    def saturation_current(self, width: float, v_overdrive: float) -> float:
        """Drain saturation current in A for a device of ``width`` meters."""
        if v_overdrive <= 0:
            return 0.0
        return self.k_sat * width * v_overdrive**self.alpha

    def leakage_power(self, width: float, vdd: float) -> float:
        """Static power in W burned by an off device of ``width`` meters."""
        return (self.i_leak + self.i_gate_leak) * width * vdd


@dataclass(frozen=True)
class WireLayerGeometry:
    """Geometry of one interconnect layer (global or intermediate).

    Attributes (all meters unless noted):

    name:
        Layer name, e.g. ``"global"``.
    width:
        Minimum drawn wire width.
    spacing:
        Minimum spacing between adjacent wires.
    thickness:
        Metal thickness.
    ild_thickness:
        Inter-layer dielectric thickness (vertical distance to the
        neighbouring conducting planes).
    dielectric_constant:
        Relative permittivity of the surrounding dielectric
        (dimensionless).
    barrier_thickness:
        Thickness of the (high-resistivity) diffusion-barrier liner on
        each sidewall and the bottom of the trench.
    """

    name: str
    width: float
    spacing: float
    thickness: float
    ild_thickness: float
    dielectric_constant: float
    barrier_thickness: float

    def __post_init__(self) -> None:
        for attr in ("width", "spacing", "thickness", "ild_thickness",
                     "dielectric_constant"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.barrier_thickness < 0:
            raise ValueError("barrier_thickness must be non-negative")
        if 2 * self.barrier_thickness >= self.width:
            raise ValueError("barrier consumes the whole wire width")

    @property
    def pitch(self) -> float:
        """Wire pitch (width + spacing), in meters."""
        return self.width + self.spacing

    @property
    def aspect_ratio(self) -> float:
        """Thickness / width (dimensionless)."""
        return self.thickness / self.width

    def scaled(self, width_multiple: float = 1.0,
               spacing_multiple: float = 1.0) -> "WireLayerGeometry":
        """Return a copy with width/spacing scaled by dimensionless
        multiples (for design styles)."""
        return dataclasses.replace(
            self,
            width=self.width * width_multiple,
            spacing=self.spacing * spacing_multiple,
        )


@dataclass(frozen=True)
class TechnologyParameters:
    """Everything the models need to know about one technology node.

    This is the in-memory equivalent of the Liberty + LEF + ITF + ITRS
    inputs enumerated in Section III-E of the paper.

    Attributes
    ----------
    name:
        Human-readable node name, e.g. ``"90nm"``.
    feature_size:
        Nominal feature size (half-pitch) in meters.
    vdd:
        Nominal supply voltage in volts.
    nmos / pmos:
        Device parameters for the two flavours.
    pn_ratio:
        Width ratio ``w_p / w_n`` used for all repeaters (kept constant
        across sizes, per Section III-E).
    wire_layers:
        Mapping from layer name to its geometry; must contain at least a
        ``"global"`` layer.
    row_height:
        Standard-cell row height in meters (for the predictive area model).
    contact_pitch:
        Contacted poly pitch in meters (for the predictive area model).
    clock_frequency:
        Nominal system clock in Hz, used by the NoC experiments.
    min_nmos_width:
        nMOS width of a unit-size (X1) inverter, in meters.
    calibrated:
        True when the wire parameters come from calibrated/industry data.
        The "original COSI-OCC" model of Table III draws its inputs from
        uncalibrated predictive data; :meth:`uncalibrated_variant`
        produces that optimistic view.
    """

    name: str
    feature_size: float
    vdd: float
    nmos: DeviceParameters
    pmos: DeviceParameters
    pn_ratio: float
    # A dict cannot be hashed: ``==`` still compares the layers, and the
    # hash of this (and of every frozen model holding it) uses the rest.
    wire_layers: Dict[str, WireLayerGeometry] = field(
        default_factory=dict, hash=False)
    row_height: float = 0.0
    contact_pitch: float = 0.0
    clock_frequency: float = 1e9
    min_nmos_width: float = 0.0
    calibrated: bool = True

    def __post_init__(self) -> None:
        if "global" not in self.wire_layers:
            raise ValueError("technology must define a 'global' wire layer")
        if self.vdd <= 0:
            raise ValueError("vdd must be positive")
        if self.pn_ratio <= 0:
            raise ValueError("pn_ratio must be positive")
        if self.min_nmos_width <= 0:
            raise ValueError("min_nmos_width must be positive")
        if not self.nmos.is_nmos or self.pmos.is_nmos:
            raise ValueError("nmos/pmos flavours are swapped")

    # -- convenience ---------------------------------------------------

    @property
    def global_layer(self) -> WireLayerGeometry:
        """The global wiring layer used for long interconnects."""
        return self.wire_layers["global"]

    def inverter_widths(self, size: float) -> "tuple[float, float]":
        """(nMOS width, pMOS width) in meters of an inverter of drive
        strength ``size`` (size 1 = minimum inverter); ``size`` may be
        a float or an array."""
        if any_true(size <= 0):
            raise ValueError("size must be positive")
        wn = self.min_nmos_width * size
        return wn, wn * self.pn_ratio

    def drive_resistance(self, nmos_width: float) -> float:
        """Switching resistance in ohms of an nMOS ``nmos_width`` meters
        wide: ``vdd`` over its saturation current, with the gate
        overdrive floored at ``0.2 * vdd``.  The transient testbenches
        size their stop times with it."""
        overdrive = max(self.vdd - self.nmos.vth, 0.2 * self.vdd)
        return self.vdd / self.nmos.saturation_current(nmos_width,
                                                        overdrive)

    def clock_period(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.clock_frequency

    def uncalibrated_variant(
        self,
        resistance_optimism: float = 1.0,
        capacitance_optimism: float = 0.7,
    ) -> "TechnologyParameters":
        """An optimistic, PTM-style *uncalibrated* view of this node.

        Table III's "original" COSI-OCC model obtains its technology inputs
        from predictive files that are not calibrated against industry
        libraries; the net effect reported by the paper is optimistic wire
        parasitics.  We model that by shrinking the capacitances (the
        original model also ignores coupling entirely — that part is
        handled in the Bakoglu baseline itself, not here).
        """
        layers = {
            name: dataclasses.replace(
                layer,
                dielectric_constant=(layer.dielectric_constant
                                     * capacitance_optimism),
                barrier_thickness=0.0,
                thickness=layer.thickness * resistance_optimism,
            )
            for name, layer in self.wire_layers.items()
        }
        return dataclasses.replace(
            self, wire_layers=layers, calibrated=False,
            name=f"{self.name}-uncalibrated")


def validate_monotonic_scaling(
    nodes: "list[TechnologyParameters]",
    attribute: str,
    decreasing: bool = True,
) -> Optional[str]:
    """Check that ``attribute`` scales monotonically across ``nodes``.

    Returns ``None`` when the ordering holds, otherwise a human-readable
    description of the first violation.  Used by the node-table self-tests.
    """
    values = [getattr(node, attribute) for node in nodes]
    pairs = zip(values, values[1:])
    for index, (previous, current) in enumerate(pairs):
        ordered = current <= previous if decreasing else current >= previous
        if not ordered:
            direction = "decrease" if decreasing else "increase"
            return (f"{attribute} fails to {direction} from "
                    f"{nodes[index].name} ({previous}) to "
                    f"{nodes[index + 1].name} ({current})")
    return None
