"""The visitor-dispatch core of the ``repro lint`` static analyzers.

One AST walk per file serves every registered checker: the walker
visits each node once and dispatches to every checker that defines a
``visit_<NodeType>`` method (and, on the way back out, a
``leave_<NodeType>`` method, which is what scope-tracking checkers
hang their teardown on).  Checkers are tiny classes — a rule name, a
severity, and a handful of visit methods that call :meth:`Checker.report`.

Suppression: ``# repro: noqa`` on a flagged line suppresses every rule
on that line; ``# repro: noqa[units,determinism]`` suppresses only the
named rules.

Nothing here imports the checkers; :mod:`repro.analysis.checkers`
registers the concrete rules and :func:`repro.analysis.run_lint` ties
the pieces together.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Rule name of the pseudo-finding emitted for unparseable files.
SYNTAX_RULE = "syntax"

#: ``# repro: noqa`` / ``# repro: noqa[rule-a,rule-b]``
_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\- ]+)\])?")

#: noqa marker meaning "every rule".
_ALL_RULES: FrozenSet[str] = frozenset({"*"})


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.severity}: {self.rule}: {self.message}")

    def to_json(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class FileContext:
    """Everything the checkers may need to know about one file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.noqa: Dict[int, FrozenSet[str]] = _parse_noqa(source)

    def is_suppressed(self, line: int, rule: str) -> bool:
        rules = self.noqa.get(line)
        if rules is None:
            return False
        return rules is _ALL_RULES or "*" in rules or rule in rules


def _parse_noqa(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number → the rules suppressed on that line."""
    suppressions: Dict[int, FrozenSet[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_PATTERN.search(text)
        if match is None:
            continue
        names = match.group(1)
        if names is None:
            suppressions[number] = _ALL_RULES
        else:
            suppressions[number] = frozenset(
                name.strip() for name in names.split(",")
                if name.strip())
    return suppressions


class Checker:
    """Base class of one lint rule.

    Subclasses set :attr:`rule`, :attr:`severity` and
    :attr:`description`, then define any number of
    ``visit_<NodeType>`` / ``leave_<NodeType>`` methods.  The walker
    calls :meth:`begin_file` before the walk and :meth:`end_file`
    after it; findings accumulate via :meth:`report`.
    """

    rule: str = ""
    severity: str = "error"
    description: str = ""
    #: bump when the rule's semantics change — folded into the
    #: incremental lint cache key, so stale per-file results are
    #: invalidated exactly when the rule could produce new ones.
    version: int = 1

    def __init__(self) -> None:
        self._enter: Dict[type, Callable[[ast.AST], None]] = {}
        self._leave: Dict[type, Callable[[ast.AST], None]] = {}
        for name in dir(self):
            if name.startswith("visit_"):
                node_type = getattr(ast, name[len("visit_"):], None)
                if node_type is not None:
                    self._enter[node_type] = getattr(self, name)
            elif name.startswith("leave_"):
                node_type = getattr(ast, name[len("leave_"):], None)
                if node_type is not None:
                    self._leave[node_type] = getattr(self, name)
        self.context: Optional[FileContext] = None
        self.findings: List[Finding] = []

    # -- lifecycle ----------------------------------------------------------

    def begin_file(self, context: FileContext) -> None:
        """Per-file setup; subclasses overriding must call super()."""
        self.context = context
        self.findings = []

    def end_file(self) -> None:
        """Per-file teardown hook."""

    # -- reporting ----------------------------------------------------------

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding at ``node`` (noqa is applied by the runner)."""
        assert self.context is not None
        self.findings.append(Finding(
            path=self.context.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            rule=self.rule,
            message=message,
            severity=self.severity,
        ))

    # -- dispatch (called by the walker) -------------------------------------

    def dispatch_enter(self, node: ast.AST) -> None:
        method = self._enter.get(type(node))
        if method is not None:
            method(node)

    def dispatch_leave(self, node: ast.AST) -> None:
        method = self._leave.get(type(node))
        if method is not None:
            method(node)


def _walk(node: ast.AST, checkers: Sequence[Checker]) -> None:
    for checker in checkers:
        checker.dispatch_enter(node)
    for child in ast.iter_child_nodes(node):
        _walk(child, checkers)
    for checker in checkers:
        checker.dispatch_leave(node)


def check_source(source: str, path: str,
                 checkers: Sequence[Checker]) -> List[Finding]:
    """Run ``checkers`` over one in-memory source file.

    Returns the findings that survive ``# repro: noqa`` suppression,
    sorted by location.  A file that does not parse yields a single
    :data:`SYNTAX_RULE` finding (which cannot be suppressed — fix it).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 0,
                        col=(exc.offset or 0), rule=SYNTAX_RULE,
                        message=f"file does not parse: {exc.msg}")]
    context = FileContext(path, source, tree)
    for checker in checkers:
        checker.begin_file(context)
    _walk(tree, checkers)
    findings: List[Finding] = []
    for checker in checkers:
        checker.end_file()
        for finding in checker.findings:
            if not context.is_suppressed(finding.line, finding.rule):
                findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


def check_file(path: Path,
               checkers: Sequence[Checker],
               display_path: Optional[str] = None) -> List[Finding]:
    """Run ``checkers`` over one file on disk."""
    source = path.read_text(encoding="utf-8")
    return check_source(source, display_path or str(path), checkers)


def collect_files(paths: Iterable[Path],
                  exclude: Sequence[str] = ()) -> List[Path]:
    """Expand files and directories into the ``.py`` files to scan.

    Directories are walked recursively; ``__pycache__``, hidden
    directories, and any walked file whose posix path contains one of
    the ``exclude`` fragments are skipped.  A path that names a file
    directly is always scanned — asking for it by name overrides every
    exclusion.  A named path that does not exist raises
    :class:`FileNotFoundError` (a usage error — the CLI maps it to
    exit code 2).
    """
    collected: List[Path] = []
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        if path.is_file():
            collected.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            posix = candidate.as_posix()
            if "__pycache__" in candidate.parts:
                continue
            if any(part.startswith(".") and part not in (".", "..")
                   for part in candidate.parts):
                continue
            if any(fragment in posix for fragment in exclude):
                continue
            collected.append(candidate)
    # De-duplicate while preserving order (overlapping arguments).
    seen = set()
    unique: List[Path] = []
    for path in collected:
        key = path.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def display_path(path: Path) -> str:
    """Stable, repo-relative rendering when possible (what findings
    and reports print)."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()
