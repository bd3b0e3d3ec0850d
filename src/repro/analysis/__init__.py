"""Project-specific AST static analysis (the ``repro lint`` engine).

Generic linters cannot see this repository's correctness conventions —
the SI-units discipline of :mod:`repro.units`, the any-worker-count
determinism contract of :mod:`repro.runtime.parallel`, the purity
requirements of :class:`repro.runtime.DiskCache` keys, pool-safe
callables, and span lifecycle.  This package can: five small checkers
share one AST walk per file (:mod:`repro.analysis.core`), suppression
is inline (``# repro: noqa[rule]``) and is the only way to silence a
finding.

Entry point: :func:`run_lint` does everything the ``repro lint``
subcommand needs; :func:`scan_paths` is the lower-level scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.checkers import (
    ALL_CHECKERS,
    CHECKERS_BY_RULE,
    PROJECT_CHECKERS,
    PROJECT_CHECKERS_BY_RULE,
)
from repro.analysis.core import (
    Checker,
    FileContext,
    Finding,
    SYNTAX_RULE,
    check_file,
    check_source,
    collect_files,
    display_path,
)
from repro.analysis.engine import Scan, scan_paths, split_rules
from repro.analysis.project import ProjectChecker

__all__ = [
    "ALL_CHECKERS",
    "CHECKERS_BY_RULE",
    "Checker",
    "FileContext",
    "Finding",
    "LintResult",
    "PROJECT_CHECKERS",
    "PROJECT_CHECKERS_BY_RULE",
    "ProjectChecker",
    "SYNTAX_RULE",
    "Scan",
    "check_file",
    "check_source",
    "collect_files",
    "display_path",
    "run_lint",
    "scan_paths",
    "split_rules",
]


@dataclass
class LintResult:
    """Everything one ``repro lint`` run produced."""

    findings: List[Finding]
    files_scanned: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def format_text(self) -> str:
        lines = [finding.format() for finding in self.findings]
        total = len(self.findings)
        summary = (f"{self.files_scanned} files scanned, "
                   f"{total} finding{'s' if total != 1 else ''}")
        if self.findings:
            per_rule = ", ".join(
                f"{rule}: {count}"
                for rule, count in sorted(self.by_rule().items()))
            summary += f" — {per_rule}"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> Dict:
        return {
            "files_scanned": self.files_scanned,
            "findings": [finding.to_json()
                         for finding in self.findings],
            "counts_by_rule": self.by_rule(),
        }


def make_checkers(rules: Optional[Sequence[str]] = None
                  ) -> List[Checker]:
    """Fresh *file-level* checker instances, optionally restricted to
    ``rules`` (which may also name project rules — they validate but
    produce no file checker here).

    Unknown rule names and an empty selection raise
    :class:`ValueError` (usage errors).
    """
    file_rules, _ = split_rules(rules)
    return [CHECKERS_BY_RULE[rule]() for rule in file_rules]


def run_lint(paths: Sequence[Path],
             rules: Optional[Sequence[str]] = None,
             exclude: Sequence[str] = (),
             graph_path: Optional[Path] = None) -> LintResult:
    """Scan, and serialize the call graph if asked.

    ``graph_path`` writes the resolved project call graph: JSON for a
    ``.json`` suffix, Graphviz DOT otherwise.
    """
    scan = scan_paths(paths, rules=rules, exclude=exclude)
    if graph_path is not None:
        graph = scan.graph()
        graph_path = Path(graph_path)
        if graph_path.suffix == ".json":
            import json
            graph_path.write_text(
                json.dumps(graph.to_json(), indent=2, sort_keys=True)
                + "\n", encoding="utf-8")
        else:
            graph_path.write_text(graph.to_dot(), encoding="utf-8")
    return LintResult(findings=scan.findings,
                      files_scanned=scan.files_scanned)
