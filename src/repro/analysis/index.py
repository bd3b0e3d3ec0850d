"""Per-file symbol extraction for the whole-program analysis pass.

One :class:`FileIndex` summarizes everything the interprocedural rules
need to know about a file *without* holding onto its AST: the
functions it defines (with parameter names and nondeterminism
taints), the imports it binds, and every call site with its argument
identifiers.  The summary is plain JSON-serializable data, which is
what makes the incremental lint cache possible — a warm run
deserializes indexes instead of re-parsing sources.

Index entries are *module-qualified*: ``repro/models/wire.py`` indexes
as module ``repro.models.wire`` and its ``wire_delay`` as
``repro.models.wire.wire_delay``.  Files outside an importable root
(scripts, tests) get a dotted name derived from their path, so every
indexed file has a stable, unique module name.

:mod:`repro.analysis.graph` aggregates ``FileIndex`` objects into the
project-wide symbol table and call graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Bump when the index payload layout (or what gets extracted into it)
#: changes; cached per-file indexes are invalidated by the bump.
INDEX_SCHEMA = 2

#: np.random attributes that are part of the sanctioned seeded API
#: (mirrors the determinism checker's list).
_SANCTIONED_NP_RANDOM = frozenset({
    "SeedSequence", "default_rng", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
})

#: Constructor names whose module-level bindings count as mutable
#: globals (mirrors the cache-purity checker).
_MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
    "deque",
})


def module_name_for(path: str) -> str:
    """A stable dotted module name for ``path``.

    Paths under a ``src/`` root import as real modules
    (``src/repro/units.py`` → ``repro.units``); everything else maps
    its path components to a dotted name (``tests/analysis/test_core.py``
    → ``tests.analysis.test_core``), unique per file either way.
    """
    posix = path.replace("\\", "/")
    if posix.endswith(".py"):
        posix = posix[:-3]
    parts = [part for part in posix.split("/") if part not in (".", "")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:] or parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class Taint:
    """One nondeterministic access inside a function body."""

    kind: str       # "wall-clock" | "global-rng" | "env-read"
    #                 | "global-write"
    detail: str
    line: int

    def to_payload(self) -> Dict[str, Any]:
        return {"kind": self.kind, "detail": self.detail,
                "line": self.line}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Taint":
        return cls(kind=payload["kind"], detail=payload["detail"],
                   line=int(payload["line"]))


@dataclass(frozen=True)
class CallArg:
    """One argument at a call site, reduced to its terminal identifier.

    ``position`` is the zero-based positional slot (``None`` for
    keywords); ``keyword`` the keyword name (``None`` positionally);
    ``name`` the terminal identifier of the argument expression
    (``None`` when the argument is not a name/attribute chain).
    """

    position: Optional[int]
    keyword: Optional[str]
    name: Optional[str]

    def to_payload(self) -> List[Any]:
        return [self.position, self.keyword, self.name]

    @classmethod
    def from_payload(cls, payload: List[Any]) -> "CallArg":
        return cls(position=payload[0], keyword=payload[1],
                   name=payload[2])


@dataclass(frozen=True)
class CallSite:
    """One call expression, as written (resolution happens later)."""

    caller: str     # in-module qualname of the enclosing function
    #                 ("" at module level)
    callee: str     # dotted source text ("np.maximum",
    #                 "parallel_map", "self.design")
    line: int
    col: int
    args: Tuple[CallArg, ...]

    def to_payload(self) -> Dict[str, Any]:
        return {"caller": self.caller, "callee": self.callee,
                "line": self.line, "col": self.col,
                "args": [arg.to_payload() for arg in self.args]}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CallSite":
        return cls(caller=payload["caller"], callee=payload["callee"],
                   line=int(payload["line"]), col=int(payload["col"]),
                   args=tuple(CallArg.from_payload(arg)
                              for arg in payload["args"]))


@dataclass
class FunctionInfo:
    """Everything extracted from one function definition."""

    qualname: str                   # in-module ("Class.method")
    line: int
    params: Tuple[str, ...]         # declared order, incl. self/cls
    is_method: bool
    taints: Tuple[Taint, ...] = ()
    cache_scoped: bool = False

    def to_payload(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "params": list(self.params),
            "is_method": self.is_method,
            "taints": [taint.to_payload() for taint in self.taints],
            "cache_scoped": self.cache_scoped,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FunctionInfo":
        return cls(
            qualname=payload["qualname"],
            line=int(payload["line"]),
            params=tuple(payload["params"]),
            is_method=bool(payload["is_method"]),
            taints=tuple(Taint.from_payload(entry)
                         for entry in payload["taints"]),
            cache_scoped=bool(payload["cache_scoped"]),
        )


@dataclass
class FileIndex:
    """The whole-program-relevant summary of one source file."""

    path: str
    module: str
    #: local alias → module-qualified target ("np" → "numpy",
    #: "_variation" → "repro.signoff.variation",
    #: "span" → "repro.runtime.trace.span").
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    calls: List[CallSite] = field(default_factory=list)
    #: line → rules suppressed there (the file's ``# repro: noqa``
    #: map, kept so project-level findings honour suppression without
    #: re-reading sources).
    noqa: Dict[int, List[str]] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": INDEX_SCHEMA,
            "path": self.path,
            "module": self.module,
            "imports": dict(self.imports),
            "functions": {name: info.to_payload()
                          for name, info in self.functions.items()},
            "calls": [site.to_payload() for site in self.calls],
            "noqa": {str(line): rules
                     for line, rules in self.noqa.items()},
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FileIndex":
        return cls(
            path=payload["path"],
            module=payload["module"],
            imports=dict(payload["imports"]),
            functions={
                name: FunctionInfo.from_payload(entry)
                for name, entry in payload["functions"].items()},
            calls=[CallSite.from_payload(entry)
                   for entry in payload["calls"]],
            noqa={int(line): list(rules)
                  for line, rules in payload["noqa"].items()},
        )


def _dotted(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as dotted text, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def _terminal(node: ast.AST) -> Optional[str]:
    """The terminal identifier of a name/attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Indexer(ast.NodeVisitor):
    """One recursive walk building a :class:`FileIndex`."""

    def __init__(self, index: FileIndex):
        self.index = index
        #: stack of (qualname, FunctionInfo|None) — classes push
        #: (name, None) so methods qualify but taints do not attribute.
        self._stack: List[Tuple[str, Optional[FunctionInfo]]] = []
        self._mutable_globals: set = set()

    # -- helpers ----------------------------------------------------------

    def _qualname(self, name: str) -> str:
        parts = [entry[0] for entry in self._stack] + [name]
        return ".".join(parts)

    def _current_function(self) -> Optional[FunctionInfo]:
        for _, info in reversed(self._stack):
            if info is not None:
                return info
        return None

    def _caller(self) -> str:
        info = self._current_function()
        return info.qualname if info is not None else ""

    def _resolved(self, node: ast.AST) -> Optional[str]:
        """Dotted text with the leading alias import-resolved."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.index.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def _taint(self, kind: str, detail: str, line: int) -> None:
        info = self._current_function()
        if info is not None:
            info.taints = info.taints + (Taint(kind, detail, line),)

    # -- module prescan ---------------------------------------------------

    def prescan_module(self, tree: ast.Module) -> None:
        """Module-level mutable bindings (for global-write taints)."""
        for stmt in tree.body:
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            mutable = isinstance(value, (ast.Dict, ast.List, ast.Set,
                                         ast.DictComp, ast.ListComp,
                                         ast.SetComp)) \
                or (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in _MUTABLE_CONSTRUCTORS)
            if mutable:
                for target in targets:
                    if isinstance(target, ast.Name):
                        self._mutable_globals.add(target.id)

    # -- imports ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else \
                alias.name.split(".")[0]
            self.index.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return      # relative imports: not used in this repo
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.index.imports[local] = f"{node.module}.{alias.name}"

    # -- definitions ------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append((node.name, None))
        for child in node.body:
            self.visit(child)
        self._stack.pop()

    def _visit_function(self, node) -> None:
        is_method = bool(self._stack) and self._stack[-1][1] is None
        args = node.args
        params = tuple(arg.arg for arg in
                       list(args.posonlyargs) + list(args.args)
                       + list(args.kwonlyargs))
        info = FunctionInfo(
            qualname=self._qualname(node.name),
            line=node.lineno,
            params=params,
            is_method=is_method,
        )
        self.index.functions[info.qualname] = info
        self._stack.append((node.name, info))
        for child in node.body:
            self.visit(child)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self,
                               node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name) \
                and target.id in self._mutable_globals:
            self._taint("global-write",
                        f"augmented assignment to module global "
                        f"'{target.id}'", node.lineno)
        self.generic_visit(node)

    # -- taints -----------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        names = ", ".join(node.names)
        self._taint("global-write",
                    f"rebinds module global(s) {names}", node.lineno)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "environ" \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            self._taint("env-read", "reads os.environ", node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolved(node.func)
        if resolved is not None:
            self._record_call_taints(node, resolved)
        self._record_call_site(node)
        self._record_cache_scope(node)
        self._record_global_mutation(node)
        self.generic_visit(node)

    def _record_call_taints(self, node: ast.Call,
                            resolved: str) -> None:
        if resolved in ("time.time", "time.time_ns"):
            self._taint("wall-clock", f"calls {resolved}()",
                        node.lineno)
        elif resolved in ("datetime.datetime.now",
                          "datetime.datetime.utcnow",
                          "datetime.datetime.today",
                          "datetime.date.today"):
            self._taint("wall-clock", f"calls {resolved}()",
                        node.lineno)
        elif resolved == "os.getenv":
            self._taint("env-read", "calls os.getenv()", node.lineno)
        elif resolved.startswith("random."):
            self._taint("global-rng", f"calls {resolved}()",
                        node.lineno)
        elif resolved.startswith("numpy.random."):
            attr = resolved.rsplit(".", 1)[1]
            if attr not in _SANCTIONED_NP_RANDOM:
                self._taint("global-rng",
                            f"calls numpy.random.{attr}()",
                            node.lineno)

    def _record_call_site(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        args: List[CallArg] = []
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                return  # *args defeat positional mapping — skip site
            args.append(CallArg(position=position, keyword=None,
                                name=_terminal(arg)))
        for keyword in node.keywords:
            if keyword.arg is None:
                return  # **kwargs likewise
            args.append(CallArg(position=None, keyword=keyword.arg,
                                name=_terminal(keyword.value)))
        self.index.calls.append(CallSite(
            caller=self._caller(), callee=dotted, line=node.lineno,
            col=node.col_offset + 1, args=tuple(args)))

    def _record_cache_scope(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in ("get", "put")):
            return
        receiver = _terminal(func.value)
        if receiver is None:
            return
        lowered = receiver.lower()
        if "cache" in lowered or "disk" in lowered:
            info = self._current_function()
            if info is not None:
                info.cache_scoped = True

    def _record_global_mutation(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in self._mutable_globals):
            return
        self._taint("global-write",
                    f"mutates module global '{func.value.id}' via "
                    f".{func.attr}()", node.lineno)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in self._mutable_globals:
            self._taint("global-write",
                        f"writes module global "
                        f"'{node.value.id}[...]'", node.lineno)
        self.generic_visit(node)


def index_source(source: str, path: str,
                 module: Optional[str] = None,
                 noqa: Optional[Dict[int, List[str]]] = None
                 ) -> FileIndex:
    """Build the :class:`FileIndex` of one in-memory source file.

    ``module`` defaults to :func:`module_name_for`; a file that does
    not parse yields an empty index (its syntax finding is the
    per-file layer's job).
    """
    index = FileIndex(path=path,
                      module=module or module_name_for(path),
                      noqa=dict(noqa or {}))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return index
    indexer = _Indexer(index)
    indexer.prescan_module(tree)
    for stmt in tree.body:
        indexer.visit(stmt)
    return index
