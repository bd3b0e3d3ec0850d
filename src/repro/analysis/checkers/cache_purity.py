"""``cache-purity``: cached payloads must be functions of their key.

A :class:`repro.runtime.DiskCache` entry outlives the process that
wrote it.  If the function that computes a payload also reads state
that is *not* hashed into the key — ``os.environ``, a module-level
mutable — then two runs with different environments share one cache
slot and the second silently gets the first's answer.  This checker
marks a function "cache-scoped" when it calls ``.get``/``.put`` on
something that provably resolves to a ``DiskCache`` (a module-level or
local ``DiskCache(...)`` binding, or a ``self.<attr>`` that is
assigned ``DiskCache(...)`` anywhere in the file) and then flags,
inside that function:

* ``os.environ`` / ``os.getenv`` reads, and
* reads of module-level **mutable** globals (dict/list/set literals
  or constructor calls) — constants are fine, they cannot drift.

The analysis is function-local by design: it will not follow a helper
called from a cache-scoped function.  Keep key construction and
payload computation together, or ``# repro: noqa[cache-purity]`` with
a comment saying why the read is key-irrelevant.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.core import Checker, FileContext

_MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
    "deque",
})


def _is_diskcache_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "DiskCache"
    if isinstance(func, ast.Attribute):
        return func.attr == "DiskCache"
    return False


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


class _Frame:
    """Pending evidence for one function being analyzed."""

    __slots__ = ("cache_scoped", "local_caches", "pending")

    def __init__(self) -> None:
        self.cache_scoped = False
        self.local_caches: Set[str] = set()
        self.pending: List[tuple] = []  # (node, message)


class CachePurityChecker(Checker):
    """Environment and mutable-global reads in DiskCache functions."""

    rule = "cache-purity"
    severity = "error"
    description = ("DiskCache-keyed functions must not read "
                   "os.environ or mutable module globals that are "
                   "not part of the key")

    def begin_file(self, context: FileContext) -> None:
        super().begin_file(context)
        self._frames: List[_Frame] = []
        self._module_caches: Set[str] = set()
        self._attr_caches: Set[str] = set()
        self._mutable_globals: Set[str] = set()
        self._prescan(context.tree)

    def _prescan(self, tree: ast.Module) -> None:
        """Module-level bindings the per-function walk relies on."""
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if _is_diskcache_call(stmt.value):
                        self._module_caches.add(target.id)
                    elif _is_mutable_literal(stmt.value):
                        self._mutable_globals.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.value is not None:
                if _is_diskcache_call(stmt.value):
                    self._module_caches.add(stmt.target.id)
                elif _is_mutable_literal(stmt.value):
                    self._mutable_globals.add(stmt.target.id)
        # self.<attr> = DiskCache(...) anywhere in the file.
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) \
                    and _is_diskcache_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        self._attr_caches.add(target.attr)

    # -- function frames ---------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._frames.append(_Frame())

    def visit_AsyncFunctionDef(self,
                               node: ast.AsyncFunctionDef) -> None:
        self._frames.append(_Frame())

    def _pop_frame(self) -> None:
        frame = self._frames.pop()
        if frame.cache_scoped:
            for pending_node, message in frame.pending:
                self.report(pending_node, message)
            # A nested def inherits its parent's cache scope evidence
            # upward: the enclosing function effectively touches the
            # cache too only if it has its own calls, so no bubbling.

    def leave_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._pop_frame()

    def leave_AsyncFunctionDef(self,
                               node: ast.AsyncFunctionDef) -> None:
        self._pop_frame()

    # -- evidence ------------------------------------------------------------------

    def _is_cache_receiver(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            if node.id in self._module_caches:
                return True
            return any(node.id in frame.local_caches
                       for frame in self._frames)
        if isinstance(node, ast.Attribute):
            return node.attr in self._attr_caches
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._frames and _is_diskcache_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._frames[-1].local_caches.add(target.id)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._frames:
            return
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in ("get", "put") \
                and self._is_cache_receiver(func.value):
            self._frames[-1].cache_scoped = True
        # os.getenv(...)
        if isinstance(func, ast.Attribute) \
                and func.attr == "getenv" \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "os":
            self._frames[-1].pending.append(
                (node, "os.getenv() read inside a DiskCache-keyed "
                       "function; the environment is not part of the "
                       "cache key — hash it in, or hoist the read"))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self._frames:
            return
        if node.attr == "environ" \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            self._frames[-1].pending.append(
                (node, "os.environ read inside a DiskCache-keyed "
                       "function; the environment is not part of the "
                       "cache key — hash it in, or hoist the read"))

    def visit_Name(self, node: ast.Name) -> None:
        if not self._frames or not isinstance(node.ctx, ast.Load):
            return
        if node.id in self._mutable_globals:
            self._frames[-1].pending.append(
                (node, f"mutable module global '{node.id}' read "
                       f"inside a DiskCache-keyed function but not "
                       f"hashed into the key; pass it in as an "
                       f"argument or fold it into the key"))
