"""Mini-Liberty parser/serializer."""

import pytest
from hypothesis import given, strategies as st

from repro.tech import liberty
from repro.tech.liberty import LibertyGroup, LibertyParseError


def test_new_library_has_units():
    root = liberty.new_library("test", voltage=1.1)
    assert root.kind == "library"
    assert root.name == "test"
    assert root.attributes["nom_voltage"] == 1.1
    assert "capacitive_load_unit" in root.complex_attributes


def test_roundtrip_simple_attributes():
    root = liberty.new_library("lib")
    cell = root.add_group("cell", "INVD4")
    cell.attributes["area"] = 7.056
    cell.attributes["cell_leakage_power"] = 725.7
    cell.attributes["comment"] = "a quoted string!"
    cell.attributes["flag"] = True

    parsed = liberty.loads(liberty.dumps(root))
    cell_back = parsed.require("cell", "INVD4")
    assert cell_back.attributes["area"] == pytest.approx(7.056)
    assert cell_back.attributes["comment"] == "a quoted string!"
    assert cell_back.attributes["flag"] is True


def test_roundtrip_nldm_table():
    root = liberty.new_library("lib")
    timing = root.add_group("cell", "X").add_group("timing", "")
    table = timing.add_group("cell_rise", "template")
    index_1 = [20.0, 60.0, 120.0]
    index_2 = [10.0, 40.0]
    values = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    table.set_table(index_1, index_2, values)

    parsed = liberty.loads(liberty.dumps(root))
    table_back = (parsed.require("cell", "X").require("timing")
                  .require("cell_rise"))
    i1, i2, vals = table_back.get_table()
    assert i1 == index_1
    assert i2 == index_2
    assert vals == values


def test_find_and_find_all():
    root = liberty.new_library("lib")
    root.add_group("cell", "A")
    root.add_group("cell", "B")
    assert root.find("cell", "B").name == "B"
    assert root.find("cell", "C") is None
    assert [g.name for g in root.find_all("cell")] == ["A", "B"]


def test_require_raises_on_missing():
    root = liberty.new_library("lib")
    with pytest.raises(KeyError, match="cell"):
        root.require("cell", "missing")


def test_comments_are_stripped():
    text = """
    library (demo) {
        /* a block comment
           spanning lines */
        nom_voltage : 1.0; // trailing comment
    }
    """
    parsed = liberty.loads(text)
    assert parsed.attributes["nom_voltage"] == 1.0


def test_parse_errors():
    with pytest.raises(LibertyParseError):
        liberty.loads("")
    with pytest.raises(LibertyParseError):
        liberty.loads("library (x) {")     # unterminated
    with pytest.raises(LibertyParseError):
        liberty.loads("library (x) { } extra (y) { }")  # trailing


def test_integer_and_float_coercion():
    parsed = liberty.loads(
        "library (x) { ports : 5; ratio : 2.5; name : abc; }")
    assert parsed.attributes["ports"] == 5
    assert isinstance(parsed.attributes["ports"], int)
    assert parsed.attributes["ratio"] == 2.5
    assert parsed.attributes["name"] == "abc"


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=6),
       st.integers(min_value=2, max_value=5))
def test_table_roundtrip_property(row_values, n_rows):
    index_2 = [float(i) for i in range(len(row_values))]
    index_1 = [float(i) for i in range(n_rows)]
    values = [[v + i for v in row_values] for i in range(n_rows)]
    group = LibertyGroup(kind="cell_rise", args=("t",))
    group.set_table(index_1, index_2, values)
    i1, i2, vals = group.get_table()
    for got, expected in zip(i1, index_1):
        assert got == pytest.approx(expected, rel=1e-5, abs=1e-9)
    for got_row, expected_row in zip(vals, values):
        for got, expected in zip(got_row, expected_row):
            assert got == pytest.approx(expected, rel=1e-5, abs=1e-4)


@pytest.mark.parametrize("text, message", [
    ("/* only a comment */", "empty Liberty input"),
    ("library x { }", "expected '\\('"),
    ("library (x) ;", "expected '{'"),
    ("library (x", "unexpected end of input"),
    ("library (x) { area 5; }", "unexpected token '5' after 'area'"),
    ('library (x) { index_1 ("1, 2") }', "expected '{' or ';'"),
    ("library (x) { area : 5", "unexpected end of input"),
], ids=["comment-only", "no-open-paren", "no-open-brace",
        "unclosed-args", "missing-colon", "unterminated-complex",
        "unterminated-attribute"])
def test_malformed_text_is_rejected(text, message):
    with pytest.raises(LibertyParseError, match=message):
        liberty.loads(text)


@pytest.mark.parametrize("value", [
    True, False, 0, 42, -7, 2.5, 1.5e-12, "INVD4", "!A", "two words",
], ids=lambda value: f"{type(value).__name__}-{value}")
def test_attribute_value_roundtrips(value):
    root = liberty.new_library("lib")
    root.add_group("cell", "X").attributes["value"] = value
    parsed = liberty.loads(liberty.dumps(root))
    back = parsed.require("cell", "X").attributes["value"]
    assert back == value
    assert type(back) is type(value)


def test_group_without_arguments_roundtrips():
    root = liberty.new_library("lib")
    timing = root.add_group("cell", "X").add_group("timing")
    timing.attributes["related_pin"] = "A"
    assert timing.name == ""

    back = liberty.loads(liberty.dumps(root)).require("cell", "X")
    assert back.require("timing").args == ()
    assert back.require("timing").attributes["related_pin"] == "A"


def test_subgroup_order_survives_a_roundtrip():
    root = liberty.new_library("lib")
    for name in ("INVD8", "INVD2", "INVD32", "INVD4"):
        root.add_group("cell", name)
    back = liberty.loads(liberty.dumps(root))
    assert [g.name for g in back.find_all("cell")] == [
        "INVD8", "INVD2", "INVD32", "INVD4"]


def test_require_without_a_name_reports_the_kind():
    root = liberty.new_library("lib")
    with pytest.raises(KeyError, match=r"library\(lib\) has no pin"):
        root.require("pin")
