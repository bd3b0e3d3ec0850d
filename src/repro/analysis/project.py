"""Base class of the whole-program (interprocedural) lint rules.

File-level rules subclass :class:`repro.analysis.core.Checker` and see
one AST at a time.  Project-level rules subclass
:class:`ProjectChecker` instead: after every file has been indexed
(:mod:`repro.analysis.index`) and the call graph resolved
(:mod:`repro.analysis.graph`), each project checker's :meth:`check`
runs once over the aggregate.  Findings honour the same ``# repro:
noqa`` suppression as file rules: the per-file noqa maps travel with
the indexes.

Rules carry a ``version``; the incremental lint cache folds the
versions of every enabled rule into its keys, so bumping a version
invalidates exactly the cached results the new semantics could change.
"""

from __future__ import annotations

from typing import List, Optional

from .core import Finding
from .graph import CallGraph, ProjectIndex


class ProjectChecker:
    """One interprocedural rule.

    Subclasses set :attr:`rule`, :attr:`severity`, :attr:`description`
    and implement :meth:`check`; :meth:`report` accumulates findings
    with noqa suppression applied at the reported line.
    """

    rule: str = ""
    severity: str = "error"
    description: str = ""
    #: bump when the rule's semantics change (cache invalidation).
    version: int = 1

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self._project: Optional[ProjectIndex] = None  # set by run()

    def report(self, path: str, line: int, col: int,
               message: str) -> None:
        index = self._project.files.get(path) if self._project else None
        if index is not None:
            rules = index.noqa.get(line)
            if rules is not None and ("*" in rules
                                      or self.rule in rules):
                return
        self.findings.append(Finding(
            path=path, line=line, col=col, rule=self.rule,
            message=message, severity=self.severity))

    def run(self, project: ProjectIndex,
            graph: CallGraph) -> List[Finding]:
        self.findings = []
        self._project = project
        self.check(project, graph)
        return sorted(self.findings, key=Finding.sort_key)

    def check(self, project: ProjectIndex,
              graph: CallGraph) -> None:
        raise NotImplementedError
