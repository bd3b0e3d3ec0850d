"""Liberty-driven calibration: the paper's primary data path.

Characterize -> export Liberty text -> reparse -> calibrate, and check
the coefficients match a direct calibration on the in-memory data.
"""

import pytest

from repro.characterization import (
    RepeaterKind,
    characterize_library,
    liberty_to_library,
    library_to_liberty,
)
from repro.models.calibration import calibrate_from_library
from repro.tech import liberty

TABLES = {
    "cell_rise": lambda cell: cell.rise.delay,
    "cell_fall": lambda cell: cell.fall.delay,
    "rise_transition": lambda cell: cell.rise.output_slew,
    "fall_transition": lambda cell: cell.fall.output_slew,
}


@pytest.fixture(scope="module")
def library(tech90, small_grid):
    return characterize_library(tech90, RepeaterKind.INVERTER,
                                small_grid)


@pytest.fixture(scope="module")
def reparsed(library, tech90):
    text = liberty.dumps(library_to_liberty(library))
    return liberty_to_library(liberty.loads(text), tech90)


class TestRoundtrip:
    def test_sizes_preserved(self, library, reparsed):
        assert reparsed.sizes() == library.sizes()

    def test_input_caps_preserved(self, library, reparsed):
        for size in library.sizes():
            assert reparsed.cell(size).input_capacitance == \
                pytest.approx(library.cell(size).input_capacitance,
                              rel=1e-4)

    def test_state_leakage_preserved(self, library, reparsed):
        for size in library.sizes():
            original = library.cell(size)
            restored = reparsed.cell(size)
            assert restored.leakage_output_high == pytest.approx(
                original.leakage_output_high, rel=1e-4)
            assert restored.leakage_output_low == pytest.approx(
                original.leakage_output_low, rel=1e-4)

    def test_delay_tables_preserved(self, library, reparsed):
        for size in library.sizes():
            original = library.cell(size).rise.delay
            restored = reparsed.cell(size).rise.delay
            for got_row, exp_row in zip(restored.values,
                                        original.values):
                for got, expected in zip(got_row, exp_row):
                    assert got == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_every_table_preserved(self, library, reparsed, kind):
        for size in library.sizes():
            original = TABLES[kind](library.cell(size))
            restored = TABLES[kind](reparsed.cell(size))
            for axis in ("index_1", "index_2"):
                assert getattr(restored, axis) == pytest.approx(
                    getattr(original, axis), rel=1e-4)
            assert len(restored.values) == len(original.values)
            for got_row, exp_row in zip(restored.values,
                                        original.values):
                assert got_row == pytest.approx(exp_row, rel=1e-4)

    def test_areas_preserved(self, library, reparsed):
        for size in library.sizes():
            assert reparsed.cell(size).area == pytest.approx(
                library.cell(size).area, rel=1e-4)

    def test_grid_recovered(self, small_grid, reparsed):
        assert reparsed.grid.sizes == tuple(sorted(small_grid.sizes))
        assert reparsed.grid.input_slews == pytest.approx(
            small_grid.input_slews, rel=1e-4)
        assert reparsed.grid.load_factors == pytest.approx(
            small_grid.load_factors, rel=1e-4)

    def test_header_names_node_and_supply(self, library, tech90):
        root = library_to_liberty(library)
        assert root.name == "repeaters_90nm"
        assert root.attributes["nom_voltage"] == pytest.approx(tech90.vdd)

    def test_missing_state_leakage_falls_back_to_the_average(
            self, library, tech90):
        root = library_to_liberty(library)
        for cell in root.find_all("cell"):
            cell.groups = [group for group in cell.groups
                           if group.kind != "leakage_power"]
        restored = liberty_to_library(
            liberty.loads(liberty.dumps(root)), tech90)
        for size in library.sizes():
            average = library.cell(size).leakage_power
            cell = restored.cell(size)
            assert cell.leakage_output_high == pytest.approx(
                average, rel=1e-4)
            assert cell.leakage_output_low == cell.leakage_output_high
            assert cell.leakage_power == pytest.approx(average, rel=1e-4)

    def test_foreign_cells_are_ignored(self, library, reparsed, tech90):
        root = library_to_liberty(library)
        flop = root.add_group("cell", "DFFD1")
        flop.attributes["area"] = 5.0
        restored = liberty_to_library(
            liberty.loads(liberty.dumps(root)), tech90)
        assert restored.sizes() == reparsed.sizes()


class TestCalibrationEquivalence:
    def test_coefficients_match_direct_calibration(self, library,
                                                   reparsed):
        direct = calibrate_from_library(library)
        via_liberty = calibrate_from_library(reparsed)
        assert via_liberty.rise.intrinsic == pytest.approx(
            direct.rise.intrinsic, rel=1e-3)
        assert via_liberty.rise.drive == pytest.approx(
            direct.rise.drive, rel=1e-3)
        assert via_liberty.fall.slew == pytest.approx(
            direct.fall.slew, rel=1e-3)
        # The leakage intercept is essentially zero, so compare the
        # slope relatively and the intercept on the scale of a typical
        # cell's leakage (slope x 1 um of width).
        scale = abs(direct.leakage_n[1]) * 1e-6
        assert via_liberty.leakage_n[1] == pytest.approx(
            direct.leakage_n[1], rel=1e-3)
        assert via_liberty.leakage_n[0] == pytest.approx(
            direct.leakage_n[0], abs=1e-3 * scale)
        assert via_liberty.area == pytest.approx(direct.area, rel=1e-3)


class TestErrors:
    def test_empty_library_rejected(self, tech90):
        root = liberty.new_library("empty")
        with pytest.raises(ValueError, match="no INVD"):
            liberty_to_library(root, tech90)

    def test_buffer_prefix_filtering(self, library, tech90):
        text = liberty.dumps(library_to_liberty(library))
        with pytest.raises(ValueError, match="no BUFD"):
            liberty_to_library(liberty.loads(text), tech90,
                               RepeaterKind.BUFFER)
