"""Characterization sweeps over (size x input slew x load) grids.

The output of this module is the "required data set" of Section III-E:
delay and output-slew tables per repeater, input capacitances, leakage
power and cell area — either consumed directly by the calibration
pipeline or exported as a mini-Liberty library first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.characterization.cells import RepeaterCell, RepeaterKind
from repro.characterization.tables import NLDMTable
from repro.spice.dc import supply_current
from repro.spice.transient import simulate_transient
from repro.spice.waveform import measure_delay, measure_slew
from repro.tech.liberty import LibertyGroup, new_library
from repro.tech.parameters import TechnologyParameters
from repro.units import fF, ps, to_fF, to_ps, to_um

#: Transient resolution for characterization runs.  900 points keeps
#: measurement noise well below the regression residuals while staying
#: fast enough for full-grid sweeps.
CHARACTERIZATION_STEPS = 900


@dataclass(frozen=True)
class CharacterizationGrid:
    """Sweep definition for one library characterization.

    ``load_factors`` are multiples of each cell's input capacitance, so
    every size is characterized over a comparable fanout range (this is
    how industry characterization picks per-cell load axes).
    """

    sizes: Tuple[float, ...] = (4.0, 8.0, 16.0, 32.0, 64.0)
    input_slews: Tuple[float, ...] = (
        ps(20), ps(60), ps(120), ps(240), ps(400))
    load_factors: Tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0)

    def __post_init__(self) -> None:
        if not self.sizes or not self.input_slews or not self.load_factors:
            raise ValueError("grid axes must be non-empty")

    def loads_for(self, cell: RepeaterCell) -> Tuple[float, ...]:
        """Absolute load capacitances (F) for one cell."""
        c_in = cell.input_capacitance()
        return tuple(factor * c_in for factor in self.load_factors)


@dataclass(frozen=True)
class TransitionTables:
    """Delay + output slew tables for one transition direction."""

    delay: NLDMTable
    output_slew: NLDMTable


@dataclass(frozen=True)
class CellCharacterization:
    """Everything measured for one repeater cell.

    ``leakage_output_high`` is the static power with the output high
    (the nMOS stack leaking); ``leakage_output_low`` with the output
    low (pMOS leaking).  ``leakage_power`` is their average — the
    ``p_s`` of Section III-C.
    """

    cell: RepeaterCell
    rise: TransitionTables     # rising *output* transition
    fall: TransitionTables     # falling *output* transition
    input_capacitance: float
    leakage_power: float
    leakage_output_high: float
    leakage_output_low: float
    area: float

    def tables(self, rising_output: bool) -> TransitionTables:
        return self.rise if rising_output else self.fall


@dataclass
class LibraryCharacterization:
    """A characterized repeater library for one technology node."""

    tech: TechnologyParameters
    kind: RepeaterKind
    grid: CharacterizationGrid
    cells: Dict[float, CellCharacterization] = field(default_factory=dict)

    def sizes(self) -> Tuple[float, ...]:
        return tuple(sorted(self.cells))

    def cell(self, size: float) -> CellCharacterization:
        try:
            return self.cells[size]
        except KeyError:
            known = ", ".join(f"{s:g}" for s in self.sizes())
            raise KeyError(f"size {size:g} not characterized; have {known}")


def _measure_point(cell: RepeaterCell, input_slew: float, load_cap: float,
                   rising_output: bool) -> Tuple[float, float]:
    """(delay, output slew) at one grid point.

    ``rising_output`` selects the *output* transition direction; the
    required input direction follows from the cell polarity.  The
    simulation stops where the output settles.
    """
    rising_input = (rising_output if not cell.kind.inverting
                    else not rising_output)
    circuit, stop_time, settle = cell.build_test_circuit(
        input_slew, load_cap, rising_input)
    result = simulate_transient(
        circuit, stop_time, time_step=stop_time / CHARACTERIZATION_STEPS,
        record=["in", "out"], settle=settle)
    vdd = cell.tech.vdd
    out_wave = result.waveform("out")
    return (measure_delay(result.waveform("in"), out_wave, 0.0, vdd),
            measure_slew(out_wave, 0.0, vdd))


def _measure_leakage(cell: RepeaterCell) -> Tuple[float, float]:
    """(output-high, output-low) static power in watts, via DC analysis.

    With the input low the output sits high and the off nMOS stack
    leaks; with the input high the off pMOS leaks.  Gate-tunneling
    leakage — not part of the channel DC solution — is added from the
    device data, split between the states the same way library
    characterization attributes measured gate current.
    """
    vdd = cell.tech.vdd
    state_power = []
    for input_high in (False, True):
        circuit = cell.build_leakage_circuit(input_high)
        current = supply_current(circuit, "vdd")
        state_power.append(abs(current) * vdd)

    gate_n = 0.0
    gate_p = 0.0
    for wn, wp in cell._stage_width_list():
        gate_n += cell.tech.nmos.i_gate_leak * wn * vdd
        gate_p += cell.tech.pmos.i_gate_leak * wp * vdd
    output_high = state_power[0] + gate_n
    output_low = state_power[1] + gate_p
    return output_high, output_low


def characterize_cell(
    tech: TechnologyParameters,
    kind: RepeaterKind,
    size: float,
    grid: CharacterizationGrid,
) -> CellCharacterization:
    """Fully characterize one repeater cell over the grid."""
    cell = RepeaterCell(tech=tech, kind=kind, size=size)
    loads = grid.loads_for(cell)

    tables: Dict[bool, TransitionTables] = {}
    for rising_output in (True, False):
        delay_rows = []
        slew_rows = []
        for input_slew in grid.input_slews:
            delay_row = []
            slew_row = []
            for load_cap in loads:
                delay, output_slew = _measure_point(
                    cell, input_slew, load_cap, rising_output)
                delay_row.append(delay)
                slew_row.append(output_slew)
            delay_rows.append(delay_row)
            slew_rows.append(slew_row)
        tables[rising_output] = TransitionTables(
            delay=NLDMTable.from_arrays(grid.input_slews, loads,
                                        delay_rows),
            output_slew=NLDMTable.from_arrays(grid.input_slews, loads,
                                              slew_rows),
        )

    leak_high, leak_low = _measure_leakage(cell)
    return CellCharacterization(
        cell=cell,
        rise=tables[True],
        fall=tables[False],
        input_capacitance=cell.input_capacitance(),
        leakage_power=0.5 * (leak_high + leak_low),
        leakage_output_high=leak_high,
        leakage_output_low=leak_low,
        area=cell.layout_area(),
    )


def characterize_library(
    tech: TechnologyParameters,
    kind: RepeaterKind = RepeaterKind.INVERTER,
    grid: Optional[CharacterizationGrid] = None,
) -> LibraryCharacterization:
    """Characterize a full repeater library for one technology node."""
    if grid is None:
        grid = CharacterizationGrid()
    library = LibraryCharacterization(tech=tech, kind=kind, grid=grid)
    for size in grid.sizes:
        library.cells[size] = characterize_cell(tech, kind, size, grid)
    return library


# ---------------------------------------------------------------------------
# Liberty export
# ---------------------------------------------------------------------------

def library_to_liberty(library: LibraryCharacterization) -> LibertyGroup:
    """Export a characterized library as a mini-Liberty document.

    Units follow the header written by
    :func:`repro.tech.liberty.new_library`: time in ps, capacitance in
    fF, leakage in nW, area in um^2.
    """
    tech = library.tech
    root = new_library(f"repeaters_{tech.name}", voltage=tech.vdd)
    prefix = "INVD" if library.kind is RepeaterKind.INVERTER else "BUFD"

    for size in library.sizes():
        data = library.cell(size)
        cell_group = root.add_group("cell", f"{prefix}{size:g}")
        cell_group.attributes["area"] = data.area / 1e-12  # um^2
        cell_group.attributes["cell_leakage_power"] = (
            data.leakage_power / 1e-9)  # nW
        cell_group.attributes["drive_strength"] = size
        # State-dependent leakage, Liberty-style "when" groups: with the
        # input low the output is high and the nMOS stack leaks.
        for condition, value in (("!A", data.leakage_output_high),
                                 ("A", data.leakage_output_low)):
            leak_group = cell_group.add_group("leakage_power", "")
            leak_group.attributes["when"] = condition
            leak_group.attributes["value"] = value / 1e-9  # nW

        pin_in = cell_group.add_group("pin", "A")
        pin_in.attributes["direction"] = "input"
        pin_in.attributes["capacitance"] = to_fF(data.input_capacitance)

        pin_out = cell_group.add_group("pin", "Z")
        pin_out.attributes["direction"] = "output"
        timing = pin_out.add_group("timing", "")
        timing.attributes["related_pin"] = "A"
        for label, transition in (("rise", data.rise), ("fall", data.fall)):
            for table_kind, table in (
                    (f"cell_{label}", transition.delay),
                    (f"{label}_transition", transition.output_slew)):
                group = timing.add_group(table_kind, "delay_template")
                group.set_table(
                    [to_ps(x) for x in table.index_1],
                    [to_fF(x) for x in table.index_2],
                    [[to_ps(v) for v in row] for row in table.values],
                )
    return root


def liberty_to_tables(
    root: LibertyGroup, cell_name: str
) -> Dict[str, NLDMTable]:
    """Read the four NLDM tables of one cell back from Liberty.

    Returns a mapping with keys ``cell_rise``, ``cell_fall``,
    ``rise_transition`` and ``fall_transition``; values converted back
    to SI units.
    """
    cell_group = root.require("cell", cell_name)
    timing = cell_group.require("pin", "Z").require("timing")
    tables: Dict[str, NLDMTable] = {}
    for kind in ("cell_rise", "cell_fall",
                 "rise_transition", "fall_transition"):
        group = timing.require(kind)
        index_1, index_2, values = group.get_table()
        tables[kind] = NLDMTable.from_arrays(
            [ps(x) for x in index_1],
            [fF(x) for x in index_2],
            [[ps(v) for v in row] for row in values],
        )
    return tables


def liberty_to_library(
    root: LibertyGroup,
    tech: TechnologyParameters,
    kind: RepeaterKind = RepeaterKind.INVERTER,
) -> LibraryCharacterization:
    """Rebuild a characterized library from a mini-Liberty document.

    This is the paper's primary data path (Section III-E: coefficients
    "can be computed from the Liberty library files"): everything
    calibration needs — delay/slew tables, input capacitances,
    state-dependent leakage, areas — is read back from the Liberty
    text, so :func:`~repro.models.calibration.calibrate_from_library`
    works on libraries that never touched this process's simulator.
    """
    prefix = "INVD" if kind is RepeaterKind.INVERTER else "BUFD"
    cells: Dict[float, CellCharacterization] = {}
    grid: Optional[CharacterizationGrid] = None

    for cell_group in root.find_all("cell"):
        if not cell_group.name.startswith(prefix):
            continue
        size = float(cell_group.attributes["drive_strength"])
        cell = RepeaterCell(tech=tech, kind=kind, size=size)
        pin_in = cell_group.require("pin", "A")
        input_cap = fF(float(pin_in.attributes["capacitance"]))
        area = float(cell_group.attributes["area"]) * 1e-12

        leak_high = leak_low = None
        for leak_group in cell_group.find_all("leakage_power"):
            value = float(leak_group.attributes["value"]) * 1e-9
            if leak_group.attributes["when"] == "!A":
                leak_high = value
            else:
                leak_low = value
        if leak_high is None or leak_low is None:
            average = float(
                cell_group.attributes["cell_leakage_power"]) * 1e-9
            leak_high = leak_low = average

        timing = cell_group.require("pin", "Z").require("timing")
        tables = {}
        for table_kind in ("cell_rise", "cell_fall",
                           "rise_transition", "fall_transition"):
            group = timing.require(table_kind)
            index_1, index_2, values = group.get_table()
            tables[table_kind] = NLDMTable.from_arrays(
                [ps(x) for x in index_1],
                [fF(x) for x in index_2],
                [[ps(v) for v in row] for row in values])

        cells[size] = CellCharacterization(
            cell=cell,
            rise=TransitionTables(delay=tables["cell_rise"],
                                  output_slew=tables["rise_transition"]),
            fall=TransitionTables(delay=tables["cell_fall"],
                                  output_slew=tables["fall_transition"]),
            input_capacitance=input_cap,
            leakage_power=0.5 * (leak_high + leak_low),
            leakage_output_high=leak_high,
            leakage_output_low=leak_low,
            area=area,
        )
        if grid is None:
            slews = tuple(tables["cell_rise"].index_1)
            loads = tuple(tables["cell_rise"].index_2)
            factors = tuple(load / input_cap for load in loads)
            grid = CharacterizationGrid(sizes=(size,),
                                        input_slews=slews,
                                        load_factors=factors)

    if not cells or grid is None:
        raise ValueError(
            f"Liberty document contains no {prefix}* cells")
    grid = CharacterizationGrid(sizes=tuple(sorted(cells)),
                                input_slews=grid.input_slews,
                                load_factors=grid.load_factors)
    return LibraryCharacterization(tech=tech, kind=kind, grid=grid,
                                   cells=cells)


def describe_library(library: LibraryCharacterization) -> str:
    """Human-readable summary used by examples and debugging."""
    tech = library.tech
    lines = [f"{library.kind.value} library @ {tech.name} "
             f"(vdd={tech.vdd} V)"]
    for size in library.sizes():
        data = library.cell(size)
        lines.append(
            f"  x{size:<5g} cin={to_fF(data.input_capacitance):6.2f} fF  "
            f"leak={data.leakage_power * 1e9:8.1f} nW  "
            f"area={data.area / 1e-12:7.2f} um^2  "
            f"(w_cell={to_um(data.area / tech.row_height):.2f} um)")
    return "\n".join(lines)
