"""DC operating-point analysis.

Solves the circuit with capacitors open (steady state), which is what
leakage characterization needs: with the input pinned at a rail, the
only currents flowing are the off-device leakage paths.
"""

from __future__ import annotations

from typing import Dict

from repro.spice.elements import GROUND
from repro.spice.netlist import Circuit
from repro.spice.transient import (
    _Assembly,
    _check_newton_budget,
    _operating_points,
)


def dc_operating_point(circuit: Circuit, newton_tol: float = 1e-9,
                       max_iterations: int = 400) -> Dict[str, float]:
    """Node voltages (volts) of the DC solution, keyed by node name.

    ``newton_tol`` (volts) must be positive and ``max_iterations`` at
    least 1; raises :class:`~repro.spice.transient.ConvergenceError`
    when Newton iteration fails.
    """
    _check_newton_budget(newton_tol, max_iterations)
    v_all, failures = _operating_points([_Assembly(circuit)], newton_tol,
                                        max_iterations)
    if failures:
        raise failures[0]
    return {name: float(v_all[0, circuit.node(name)])
            for name in circuit.node_names()}


def supply_current(circuit: Circuit, supply_node: str,
                   newton_tol: float = 1e-9) -> float:
    """DC current (amperes) drawn from a supply-rail voltage source.

    Computed as the sum of element currents leaving the supply node at
    the DC solution: resistor currents plus MOSFET channel currents of
    devices whose source or drain sits on the rail.
    """
    solution = dc_operating_point(circuit, newton_tol=newton_tol)

    def volt(index: int) -> float:
        if index == GROUND:
            return 0.0
        return solution[circuit.node_name(index)]

    supply_index = circuit.node(supply_node)
    if supply_index == GROUND:
        raise ValueError("supply node cannot be ground")

    total = 0.0
    for resistor in circuit.resistors:
        if resistor.node_a == supply_index:
            total += (volt(resistor.node_a)
                      - volt(resistor.node_b)) * resistor.conductance
        elif resistor.node_b == supply_index:
            total += (volt(resistor.node_b)
                      - volt(resistor.node_a)) * resistor.conductance
    for mosfet in circuit.mosfets:
        point = mosfet.evaluate(
            volt(mosfet.gate) - volt(mosfet.source),
            volt(mosfet.drain) - volt(mosfet.source))
        # ids flows drain -> source; current leaves the supply when the
        # supply sits on the drain side (positive ids) or enters when on
        # the source side.
        if mosfet.drain == supply_index:
            total += point.ids
        elif mosfet.source == supply_index:
            total -= point.ids
    return total
