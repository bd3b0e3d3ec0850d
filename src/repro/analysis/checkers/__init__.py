"""The concrete ``repro lint`` rules.

Adding a file-level checker is three steps (see
``docs/static-analysis.md``): subclass
:class:`repro.analysis.core.Checker` in a new module here, give it a
unique ``rule`` name, and append the class to :data:`ALL_CHECKERS`.
Interprocedural rules subclass
:class:`repro.analysis.project.ProjectChecker` instead and register in
:data:`PROJECT_CHECKERS` — they run once over the whole-program index
after the per-file walks.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.analysis.core import Checker
from repro.analysis.project import ProjectChecker
from repro.analysis.checkers.cache_purity import CachePurityChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.span_hygiene import SpanHygieneChecker
from repro.analysis.checkers.unit_flow import UnitFlowChecker
from repro.analysis.checkers.units import UnitsChecker
from repro.analysis.checkers.worker_safety import WorkerSafetyChecker
from repro.analysis.checkers.worker_safety_transitive import (
    WorkerSafetyTransitiveChecker,
)

#: Every registered file-level rule, in reporting order.
ALL_CHECKERS: List[Type[Checker]] = [
    UnitsChecker,
    DeterminismChecker,
    WorkerSafetyChecker,
    CachePurityChecker,
    SpanHygieneChecker,
]

#: Every registered whole-program rule, in reporting order.
PROJECT_CHECKERS: List[Type[ProjectChecker]] = [
    WorkerSafetyTransitiveChecker,
    UnitFlowChecker,
]

#: rule name → file-level checker class.
CHECKERS_BY_RULE: Dict[str, Type[Checker]] = {
    checker.rule: checker for checker in ALL_CHECKERS
}

#: rule name → whole-program checker class.
PROJECT_CHECKERS_BY_RULE: Dict[str, Type[ProjectChecker]] = {
    checker.rule: checker for checker in PROJECT_CHECKERS
}

__all__ = [
    "ALL_CHECKERS",
    "CHECKERS_BY_RULE",
    "PROJECT_CHECKERS",
    "PROJECT_CHECKERS_BY_RULE",
    "CachePurityChecker",
    "DeterminismChecker",
    "SpanHygieneChecker",
    "UnitFlowChecker",
    "UnitsChecker",
    "WorkerSafetyChecker",
    "WorkerSafetyTransitiveChecker",
]
