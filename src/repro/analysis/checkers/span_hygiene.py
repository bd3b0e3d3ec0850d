"""``span-hygiene``: spans only exist inside a ``with``.

:func:`repro.runtime.trace.span` returns a context manager; the span
begins at ``__enter__`` and its end event is emitted at ``__exit__``.
A bare call —

    span("phase")          # nothing happens, silently

— never enters the span, so the trace is missing the region *and* the
tracer's active-span stack never sees it; an assigned-but-unentered
span (``sp = span(...)``) is the same bug one step later.  The
sanctioned positions are as a ``with`` item (possibly inside one
combined ``with a, b:``), handed to ``ExitStack.enter_context``, or
directly ``return``-ed (a delegating factory — the caller enters it,
as :func:`repro.runtime.trace.span` itself does).

The rule also guards the histogram-metric namespace: the first
argument of ``METRICS.observe(...)`` / ``METRICS.observed(...)`` must
be a string literal or an ``UPPER_CASE`` constant.  A dynamically
built metric name (``METRICS.observe(f"cache.{kind}", ...)``) makes
the exported series set unbounded and non-enumerable; the sanctioned
door for per-key series is ``METRICS.observe_keyed(base, key, value)``
which keeps the base name static and greppable.
"""

from __future__ import annotations

import ast
from typing import Set

from repro.analysis.core import Checker, FileContext

#: Module-ish receivers whose ``.span`` attribute is the tracer API.
_SPAN_RECEIVERS = frozenset({"trace", "rt", "runtime", "tracer"})

#: Registry receivers whose ``observe``/``observed`` methods take a
#: metric name as their first argument.
_METRIC_RECEIVERS = frozenset({"metrics", "registry", "stats"})

#: The registry methods whose first argument names a metric series.
_OBSERVE_ATTRS = frozenset({"observe", "observed"})


class SpanHygieneChecker(Checker):
    """Flags ``span(...)`` calls not used as context managers."""

    rule = "span-hygiene"
    severity = "error"
    description = ("trace.span(...) must be entered as a context "
                   "manager (with-statement or enter_context)")

    def begin_file(self, context: FileContext) -> None:
        super().begin_file(context)
        #: ids of span-call nodes that appear in a sanctioned slot.
        self._sanctioned: Set[int] = set()
        #: whether `span` was imported from the repro runtime, so a
        #: bare-name `span(...)` in this file is the tracer's.
        self._span_imported = False

    def _is_span_call(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "span" and self._span_imported
        if isinstance(func, ast.Attribute) and func.attr == "span":
            value = func.value
            if isinstance(value, ast.Name):
                return value.id.lower() in _SPAN_RECEIVERS \
                    or value.id == "TRACER"
            if isinstance(value, ast.Attribute):
                return value.attr in ("trace", "runtime") \
                    or value.attr == "TRACER"
        return False

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and (node.module == "repro.runtime"
                            or node.module.startswith("repro.runtime.")):
            for alias in node.names:
                if alias.name == "span" and alias.asname is None:
                    self._span_imported = True

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if isinstance(item.context_expr, ast.Call):
                self._sanctioned.add(id(item.context_expr))

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        for item in node.items:
            if isinstance(item.context_expr, ast.Call):
                self._sanctioned.add(id(item.context_expr))

    def visit_Return(self, node: ast.Return) -> None:
        # `return span(...)` delegates entry to the caller.
        if isinstance(node.value, ast.Call):
            self._sanctioned.add(id(node.value))

    def _is_observe_call(self, node: ast.Call) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute) \
                or func.attr not in _OBSERVE_ATTRS:
            return False
        value = func.value
        if isinstance(value, ast.Name):
            return value.id == "METRICS" \
                or value.id.lower() in _METRIC_RECEIVERS
        if isinstance(value, ast.Attribute):
            return value.attr == "METRICS"
        return False

    @staticmethod
    def _metric_name_ok(arg: ast.expr) -> bool:
        """Whether a metric-name argument is statically enumerable."""
        if isinstance(arg, ast.Constant):
            return isinstance(arg.value, str)
        if isinstance(arg, ast.Name):
            return arg.id == arg.id.upper()
        if isinstance(arg, ast.Attribute):
            return arg.attr == arg.attr.upper()
        return False

    def visit_Call(self, node: ast.Call) -> None:
        # ExitStack.enter_context(span(...)) is sanctioned too.
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr == "enter_context":
            for arg in node.args:
                if isinstance(arg, ast.Call):
                    self._sanctioned.add(id(arg))
        if self._is_observe_call(node) and node.args \
                and not self._metric_name_ok(node.args[0]):
            self.report(node, "metric name passed to observe()/"
                              "observed() must be a string literal "
                              "or UPPER_CASE constant so the "
                              "exported series stay enumerable; "
                              "dynamic names go through "
                              "observe_keyed(base, key, value)")
        if not self._is_span_call(node):
            return
        if id(node) in self._sanctioned:
            return
        self.report(node, "span(...) called without entering it; a "
                          "span only begins inside 'with span(...)' "
                          "(or ExitStack.enter_context)")
