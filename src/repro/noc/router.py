"""Router cost model.

A wormhole router's power and area scale with its port count and flit
width; its latency is a fixed pipeline depth.  The constants below are
representative of published router implementations (a 5-port, 128-bit
router at 90 nm costs a few tenths of a square millimeter and about a
picojoule per bit per traversal) and scale across technology nodes with
feature size and supply voltage, which is all the Table III comparison
needs — both models see the *same* router costs, so only the
interconnect-model differences show up in the deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tech.parameters import TechnologyParameters
from repro.units import nm

#: Reference node for the scaling rules below.
_REFERENCE_FEATURE = nm(90)
_REFERENCE_VDD = 1.0


@dataclass(frozen=True)
class RouterParameters:
    """Router cost model bound to one technology node.

    Attributes
    ----------
    energy_per_bit:
        Switching energy per bit per router traversal, joules.
    leakage_per_port:
        Static power per instantiated port, watts.
    area_per_port:
        Silicon area per port, m^2 (already includes the crossbar and
        buffer share of one port at the configured flit width).
    pipeline_cycles:
        Router pipeline depth in clock cycles.
    max_ports:
        Maximum router degree the synthesis may create.
    """

    energy_per_bit: float
    leakage_per_port: float
    area_per_port: float
    pipeline_cycles: int = 3
    max_ports: int = 8

    def __post_init__(self) -> None:
        if self.energy_per_bit < 0 or self.leakage_per_port < 0:
            raise ValueError("router power parameters must be non-negative")
        if self.area_per_port <= 0:
            raise ValueError("area_per_port must be positive")
        if self.pipeline_cycles < 1:
            raise ValueError("pipeline_cycles must be at least 1")
        if self.max_ports < 2:
            raise ValueError("a router needs at least 2 ports")

    # -- scaling -----------------------------------------------------------

    @classmethod
    def for_technology(cls, tech: TechnologyParameters,
                       flit_width: int = 128) -> "RouterParameters":
        """Representative router costs for a node and flit width.

        Reference values (90 nm, 128-bit): 1.0 pJ/bit, 0.4 mW/port
        leakage, 0.06 mm^2/port.  Energy scales with ``vdd^2`` and
        feature size; leakage grows as feature size shrinks (mirroring
        the device-leakage trend); area scales with feature size squared.
        All scale linearly with flit width.
        """
        feature_ratio = tech.feature_size / _REFERENCE_FEATURE
        vdd_ratio = tech.vdd / _REFERENCE_VDD
        width_ratio = flit_width / 128.0
        # Leakage per unit width grows as devices shrink; total port
        # leakage stays roughly flat-to-growing across nodes.
        leakage_growth = (tech.nmos.i_leak
                          / 0.1)  # 0.1 A/m = the 90 nm reference
        return cls(
            energy_per_bit=(1.0e-12 * feature_ratio * vdd_ratio**2),
            leakage_per_port=(0.4e-3 * width_ratio
                              * leakage_growth * feature_ratio),
            area_per_port=(0.06e-6 * feature_ratio**2 * width_ratio),
            pipeline_cycles=3,
            max_ports=8,
        )

    # -- cost queries -----------------------------------------------------

    def traversal_energy(self, bits: float) -> float:
        """Energy (J) to move ``bits`` bits through the router once."""
        return self.energy_per_bit * bits

    def dynamic_power(self, bandwidth: float) -> float:
        """Dynamic power (W) of ``bandwidth`` bits/s through the router."""
        return self.energy_per_bit * bandwidth

    def leakage_power(self, ports: int) -> float:
        """Static power (W) of a router with ``ports`` ports."""
        return self.leakage_per_port * ports

    def area(self, ports: int) -> float:
        """Area (m^2) of a router with ``ports`` ports."""
        return self.area_per_port * ports

    def latency(self, clock_period: float) -> float:
        """Traversal latency in seconds."""
        return self.pipeline_cycles * clock_period
