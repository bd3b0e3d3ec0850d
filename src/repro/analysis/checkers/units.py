"""``units``: the SI-units discipline, mechanically enforced.

Two complementary checks, both anchored in the
:data:`repro.units.UNIT_SUFFIXES` registry (one source of truth for
the linter and the runtime):

* **Mixed-suffix arithmetic** — adding, subtracting or comparing two
  identifiers whose unit suffixes disagree (``length_um + gap_m``,
  ``cap_ff - cap_f``) is flagged everywhere.  Multiplication and
  division are exempt: dimensions legitimately combine there
  (``ohms * farads`` is seconds).

* **Bare-float public APIs** — in the unit-sensitive packages
  (``models/``, ``tech/``, ``signoff/``, ``noc/``), a public function
  that takes or returns plain ``float``\\ s must say what unit they are
  in: either every such name carries a registry suffix
  (``length_mm``), or the docstring mentions a unit (``"meters"``,
  ``"ps"``) or declares the value dimensionless (``"fraction"``,
  ``"ratio"``).  This is exactly the "no function ever has to guess
  what unit a bare float is in" contract of :mod:`repro.units`.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from repro.analysis.core import Checker, FileContext
from repro.units import (
    DIMENSIONLESS_WORDS,
    SI_BASE_UNITS,
    UNIT_SUFFIXES,
    UnitSuffix,
    unit_suffix_of,
)

#: Packages in which the bare-float public-API check applies.
API_PACKAGES: Tuple[str, ...] = ("models", "tech", "signoff", "noc")


def _docstring_unit_words() -> List[str]:
    """Every docstring spelling that satisfies the units discipline."""
    words = set(DIMENSIONLESS_WORDS)
    words.update(SI_BASE_UNITS.values())
    for entry in UNIT_SUFFIXES.values():
        words.update(word.lower() for word in entry.words)
    # Compound spellings common in EDA docstrings.
    words.update({"f/m", "ohm/m", "ohm-meters", "ohm*um", "um^2",
                  "m^2", "bits/s", "j/k", "1/s", "per second",
                  "per meter"})
    return sorted(words)


_UNIT_WORDS_PATTERN = re.compile(
    "|".join(r"(?<![\w/])" + re.escape(word) + r"(?![\w/])"
             for word in _docstring_unit_words()),
    re.IGNORECASE)


def _mentions_unit(docstring: Optional[str]) -> bool:
    if not docstring:
        return False
    return _UNIT_WORDS_PATTERN.search(docstring) is not None


def _identifier_of(node: ast.AST) -> Optional[str]:
    """The terminal identifier of a name or attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _suffix_of(node: ast.AST) -> Optional[UnitSuffix]:
    identifier = _identifier_of(node)
    if identifier is None:
        return None
    return unit_suffix_of(identifier)


def _is_float_annotation(annotation: Optional[ast.AST]) -> bool:
    return (isinstance(annotation, ast.Name)
            and annotation.id == "float")


class UnitsChecker(Checker):
    """Suffix-mixing arithmetic plus bare-float public APIs."""

    rule = "units"
    severity = "warning"
    description = ("unit-suffix discipline: no mixed-suffix "
                   "arithmetic, no undocumented bare-float public "
                   "APIs in unit-sensitive packages")

    def begin_file(self, context: FileContext) -> None:
        super().begin_file(context)
        parts = context.path.replace("\\", "/").split("/")
        self._api_scope = any(part in API_PACKAGES for part in parts)
        self._class_depth = 0
        self._func_depth = 0

    # -- mixed-suffix arithmetic ---------------------------------------------

    def _check_pair(self, node: ast.AST, left: ast.AST,
                    right: ast.AST, verb: str) -> None:
        left_suffix = _suffix_of(left)
        right_suffix = _suffix_of(right)
        if left_suffix is None or right_suffix is None:
            return
        if left_suffix.suffix == right_suffix.suffix:
            return
        if (left_suffix.dimension == right_suffix.dimension
                and left_suffix.si_factor == right_suffix.si_factor):
            return
        left_name = _identifier_of(left)
        right_name = _identifier_of(right)
        if left_suffix.dimension != right_suffix.dimension:
            detail = (f"{left_suffix.dimension} with "
                      f"{right_suffix.dimension}")
        else:
            detail = (f"'{left_suffix.suffix}' with "
                      f"'{right_suffix.suffix}' "
                      f"({left_suffix.si_factor:g} vs "
                      f"{right_suffix.si_factor:g} in SI)")
        self.report(node, f"{verb} mixes unit suffixes: "
                          f"'{left_name}' {verb}s '{right_name}' — "
                          f"{detail}; convert to one unit first")

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            verb = "addition" if isinstance(node.op, ast.Add) \
                else "subtraction"
            self._check_pair(node, node.left, node.right, verb)

    def visit_Compare(self, node: ast.Compare) -> None:
        if len(node.comparators) == 1 and isinstance(
                node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                              ast.Eq, ast.NotEq)):
            self._check_pair(node, node.left, node.comparators[0],
                             "comparison")

    # -- bare-float public APIs ----------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth += 1

    def leave_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self._func_depth += 1

    def visit_AsyncFunctionDef(self,
                               node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self._func_depth += 1

    def leave_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_depth -= 1

    def leave_AsyncFunctionDef(self,
                               node: ast.AsyncFunctionDef) -> None:
        self._func_depth -= 1

    def _check_function(self, node) -> None:
        if not self._api_scope or node.name.startswith("_"):
            return
        # Function-local helpers are not public API surface.
        if self._func_depth > 0:
            return
        bare: List[str] = []
        args = list(node.args.posonlyargs) + list(node.args.args) \
            + list(node.args.kwonlyargs)
        for arg in args:
            if arg.arg in ("self", "cls"):
                continue
            if _is_float_annotation(arg.annotation) \
                    and unit_suffix_of(arg.arg) is None:
                bare.append(f"parameter '{arg.arg}'")
        if _is_float_annotation(node.returns) \
                and unit_suffix_of(node.name) is None:
            bare.append("return value")
        if not bare:
            return
        if _mentions_unit(ast.get_docstring(node)):
            return
        owner = "method" if self._class_depth else "function"
        self.report(node, f"public {owner} '{node.name}' has bare "
                          f"float {', '.join(bare)} with no unit "
                          f"suffix and no unit (or 'dimensionless'/"
                          f"'fraction') word in its docstring")
