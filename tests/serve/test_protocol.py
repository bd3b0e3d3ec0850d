"""Query parsing and the wire schema."""

import json

import pytest

from repro.serve.protocol import (
    ContextSpec,
    QueryError,
    error_response,
    ok_response,
    parse_query,
)


class TestParseDesign:
    def test_minimal_design_query(self):
        query = parse_query({"op": "design", "length_mm": 2.0})
        assert query.op == "design"
        assert query.lengths_mm == (2.0,)
        assert query.context == ContextSpec()

    def test_context_fields_flow_through(self):
        query = parse_query({"op": "design", "length_mm": 1.0,
                             "node": "65nm", "bus_width": 128,
                             "utilization": 0.5})
        assert query.context == ContextSpec(node="65nm",
                                            bus_width=128,
                                            utilization=0.5)

    def test_missing_length_rejected(self):
        with pytest.raises(QueryError, match="length_mm"):
            parse_query({"op": "design"})

    def test_non_positive_length_rejected(self):
        with pytest.raises(QueryError):
            parse_query({"op": "design", "length_mm": 0.0})
        with pytest.raises(QueryError):
            parse_query({"op": "design", "length_mm": -1.0})

    def test_boolean_is_not_a_number(self):
        with pytest.raises(QueryError):
            parse_query({"op": "design", "length_mm": True})

    def test_non_finite_length_rejected(self):
        """``json`` decodes ``Infinity``, ``NaN`` and ``1e400`` to
        non-finite floats; an integer past a double's range does not
        convert at all."""
        for document in ('{"op": "design", "length_mm": Infinity}',
                         '{"op": "design", "length_mm": NaN}',
                         '{"op": "design", "length_mm": 1e400}',
                         '{"op": "design", "length_mm": 1' + "0" * 400
                         + "}"):
            with pytest.raises(QueryError, match="length_mm"):
                parse_query(json.loads(document))


class TestParseBatch:
    def test_batch_query(self):
        query = parse_query({"op": "design_batch",
                             "lengths_mm": [1.0, 2, 3.5]})
        assert query.lengths_mm == (1.0, 2.0, 3.5)

    def test_empty_batch_rejected(self):
        with pytest.raises(QueryError):
            parse_query({"op": "design_batch", "lengths_mm": []})

    def test_non_list_rejected(self):
        with pytest.raises(QueryError):
            parse_query({"op": "design_batch", "lengths_mm": 2.0})

    def test_bad_entry_rejected(self):
        with pytest.raises(QueryError):
            parse_query({"op": "design_batch",
                         "lengths_mm": [1.0, "two"]})

    @pytest.mark.parametrize("entry", [float("inf"), float("nan"),
                                       10**400])
    def test_non_finite_entry_rejected(self, entry):
        with pytest.raises(QueryError, match="lengths_mm"):
            parse_query({"op": "design_batch",
                         "lengths_mm": [1.0, entry]})


class TestParseMc:
    def test_defaults_mirror_the_cli(self):
        query = parse_query({"op": "mc"})
        assert query.lengths_mm == (2.0,)
        assert query.repeaters == 2
        assert query.size == 24.0
        assert query.slew_ps == 100.0
        assert query.samples == 64
        assert query.seed == 2010
        assert query.engine == "model"
        assert query.estimator == "plain"
        assert query.critical_ps is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(QueryError, match="engine"):
            parse_query({"op": "mc", "engine": "spice"})

    def test_kernel_is_another_name_for_model(self):
        assert parse_query({"op": "mc", "engine": "kernel"}) \
            == parse_query({"op": "mc", "engine": "model"})

    def test_unknown_estimator_rejected(self):
        with pytest.raises(QueryError, match="estimator"):
            parse_query({"op": "mc", "estimator": "magic"})

    @pytest.mark.parametrize("name", ["length_mm", "size", "slew_ps",
                                      "critical_ps"])
    def test_infinite_number_rejected(self, name):
        with pytest.raises(QueryError, match=name):
            parse_query(json.loads(f'{{"op": "mc", "{name}": Infinity}}'))

    def test_sample_floor(self):
        with pytest.raises(QueryError, match="samples"):
            parse_query({"op": "mc", "samples": 1})


class TestParseErrors:
    def test_non_object_rejected(self):
        with pytest.raises(QueryError):
            parse_query([1, 2, 3])

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError, match="op"):
            parse_query({"op": "teleport"})

    def test_bad_utilization_rejected(self):
        with pytest.raises(QueryError):
            parse_query({"op": "max_feasible_length",
                         "utilization": 1.5})
        with pytest.raises(QueryError):
            parse_query({"op": "max_feasible_length",
                         "utilization": 0.0})

    def test_bad_bus_width_rejected(self):
        with pytest.raises(QueryError):
            parse_query({"op": "design", "length_mm": 1.0,
                         "bus_width": 0})


class TestContextSpec:
    def test_hashable_for_shard_routing(self):
        assert hash(ContextSpec()) == hash(ContextSpec())
        assert ContextSpec() != ContextSpec(node="65nm")


class TestResponses:
    def test_shapes(self):
        assert ok_response({"x": 1}) == {"ok": True,
                                         "result": {"x": 1}}
        assert error_response("nope") == {"ok": False,
                                          "error": "nope"}
