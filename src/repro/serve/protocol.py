"""The ``repro serve`` wire schema: queries in, payloads out.

A query is one JSON object.  Common fields:

* ``op`` — ``"design"``, ``"design_batch"``, ``"max_feasible_length"``
  or ``"mc"``;
* ``node`` — technology node name (default ``"90nm"``);
* ``bus_width`` — link bus width in bits (default 32);
* ``utilization`` — usable payload fraction in (0, 1] (default 0.75).

Those three identify the *context* (model + technology + bus
geometry) the query runs in; queries sharing a context share one warm
:class:`repro.noc.link.LinkDesigner` in whichever shard serves them.
Op-specific fields:

* ``design`` — ``length_mm`` (link length, millimeters);
* ``design_batch`` — ``lengths_mm`` (list of lengths, millimeters);
* ``max_feasible_length`` — nothing further;
* ``mc`` — ``length_mm``, ``repeaters``, ``size``, ``slew_ps``,
  ``samples``, ``seed``, ``engine``, ``estimator``, optional
  ``critical_ps``; defaults mirror the ``repro mc`` CLI.

Responses are ``{"ok": true, "result": ...}`` or ``{"ok": false,
"error": "..."}``.  All floats ride through ``json`` with Python's
shortest-round-trip ``repr``, so a served number parses back to the
*bit-identical* double the in-process call returns — the property the
bit-equality asserts in ``tests/serve/test_serve.py`` check end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

#: Ops the service understands.
OPS = ("design", "design_batch", "max_feasible_length", "mc")

#: Engines/estimators ``mc`` queries may request (mirrors ``repro mc``;
#: ``"kernel"`` is accepted as another name for ``"model"``).
MC_ENGINES = ("golden", "model")
MC_ESTIMATORS = ("plain", "importance", "importance-sn", "qmc",
                 "control-variate")


class QueryError(ValueError):
    """A malformed query document (client error, HTTP 400)."""


@dataclass(frozen=True)
class ContextSpec:
    """What identifies a warm serving context.

    One context is one (technology node, bus width, utilization)
    triple — the constructor arguments of the
    :class:`repro.noc.link.LinkDesigner` that serves it.  The spec is
    hashable (shard routing) and canonicalizable (cache keys).
    """

    node: str = "90nm"
    bus_width: int = 32
    utilization: float = 0.75


@dataclass(frozen=True)
class Query:
    """One parsed, validated query.

    ``lengths_mm`` holds the single length for ``design`` (one entry)
    and the full list for ``design_batch``; millimeters throughout.
    The ``mc`` fields mirror the ``repro mc`` CLI (``slew_ps`` and
    ``critical_ps`` in picoseconds, ``size`` a multiple of the minimum
    repeater width).
    """

    op: str
    context: ContextSpec
    lengths_mm: Tuple[float, ...] = ()
    repeaters: int = 2
    size: float = 24.0
    slew_ps: float = 100.0
    samples: int = 64
    seed: int = 2010
    engine: str = "model"
    estimator: str = "plain"
    critical_ps: Optional[float] = None
    extra: Mapping[str, Any] = field(default_factory=dict)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise QueryError(message)


def _finite(value: Any, what: str) -> float:
    """``value`` as a finite float.  ``json`` decodes ``Infinity``,
    ``NaN`` and ``1e400`` to non-finite floats, and an integer too
    large for a double does not convert at all; all are client
    errors."""
    _require(isinstance(value, (int, float))
             and not isinstance(value, bool),
             f"{what} must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    _require(math.isfinite(value), f"{what} must be finite")
    return value


def _number(obj: Mapping[str, Any], name: str, default=None,
            minimum: Optional[float] = None) -> Optional[float]:
    value = obj.get(name, default)
    if value is None:
        return None
    value = _finite(value, repr(name))
    if minimum is not None:
        _require(value > minimum, f"{name!r} must be > {minimum:g}")
    return value


def _integer(obj: Mapping[str, Any], name: str, default: int,
             minimum: int) -> int:
    value = obj.get(name, default)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name!r} must be an integer")
    _require(value >= minimum, f"{name!r} must be >= {minimum}")
    return value


def parse_context(obj: Mapping[str, Any]) -> ContextSpec:
    """The :class:`ContextSpec` named by a query document."""
    node = obj.get("node", "90nm")
    _require(isinstance(node, str) and bool(node),
             "'node' must be a non-empty string")
    bus_width = _integer(obj, "bus_width", 32, 1)
    utilization = _number(obj, "utilization", 0.75, minimum=0.0)
    _require(utilization <= 1.0, "'utilization' must lie in (0, 1]")
    return ContextSpec(node=node, bus_width=bus_width,
                       utilization=utilization)


def parse_query(obj: Any) -> Query:
    """Validate one decoded JSON document into a :class:`Query`.

    Raises :class:`QueryError` (a client error, never a server fault)
    on anything malformed: unknown op, missing or mistyped fields,
    out-of-range values.
    """
    _require(isinstance(obj, dict), "query must be a JSON object")
    op = obj.get("op")
    _require(op in OPS,
             f"'op' must be one of {', '.join(OPS)}; got {op!r}")
    context = parse_context(obj)

    if op == "design":
        length = _number(obj, "length_mm", minimum=0.0)
        _require(length is not None, "'design' needs 'length_mm'")
        return Query(op=op, context=context, lengths_mm=(length,))

    if op == "design_batch":
        lengths = obj.get("lengths_mm")
        _require(isinstance(lengths, list) and len(lengths) > 0,
                 "'design_batch' needs a non-empty 'lengths_mm' list")
        parsed = []
        for entry in lengths:
            length = _finite(entry, "'lengths_mm' entries")
            _require(length > 0.0,
                     "'lengths_mm' entries must be positive numbers")
            parsed.append(length)
        return Query(op=op, context=context,
                     lengths_mm=tuple(parsed))

    if op == "max_feasible_length":
        return Query(op=op, context=context)

    # op == "mc"
    length = _number(obj, "length_mm", 2.0, minimum=0.0)
    engine = obj.get("engine", "model")
    if engine == "kernel":
        engine = "model"
    _require(engine in MC_ENGINES,
             f"'engine' must be one of {', '.join(MC_ENGINES)}")
    estimator = obj.get("estimator", "plain")
    _require(estimator in MC_ESTIMATORS,
             f"'estimator' must be one of {', '.join(MC_ESTIMATORS)}")
    return Query(
        op=op, context=context, lengths_mm=(length,),
        repeaters=_integer(obj, "repeaters", 2, 1),
        size=_number(obj, "size", 24.0, minimum=0.0),
        slew_ps=_number(obj, "slew_ps", 100.0, minimum=0.0),
        samples=_integer(obj, "samples", 64, 2),
        seed=_integer(obj, "seed", 2010, 0),
        engine=engine, estimator=estimator,
        critical_ps=_number(obj, "critical_ps", None, minimum=0.0),
    )


def design_payload(design) -> Optional[Dict[str, Any]]:
    """A :class:`repro.noc.link.LinkDesign` as a response fragment."""
    if design is None:
        return None
    return design.to_payload()


def ok_response(result: Any) -> Dict[str, Any]:
    return {"ok": True, "result": result}


def error_response(message: str) -> Dict[str, Any]:
    return {"ok": False, "error": message}
