"""`worker-safety-transitive` — the *closure* of pool/cache work must
be deterministic.

The per-file ``worker-safety`` rule inspects only the callable handed
to :func:`repro.runtime.parallel.parallel_map` directly, and
``cache-purity`` only the function computing a
:class:`~repro.runtime.cache.DiskCache` key.  Both contracts are
actually transitive: a helper three calls deep that reads
``os.environ``, consults the wall clock, draws from a process-global
RNG or mutates a module global breaks bit-identical recovery and cache
correctness just as surely.  This rule walks the resolved call graph
from every entry point — each callable submitted to ``parallel_map``
and each function that reads or writes a ``DiskCache`` — and flags any
reachable nondeterminism taint, naming the call chain that reaches it.

Trusted infrastructure under ``repro.runtime`` is the traversal
boundary: the runtime is allowed to consult the environment and the
clock (that is its job — worker resolution, trace timestamps, cache
directories), and its own invariants are covered by the runtime test
suite, so edges are not expanded into it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.graph import CallGraph, ProjectIndex
from repro.analysis.project import ProjectChecker
from repro.analysis.checkers.determinism import CLOCK_ALLOWED_SUFFIXES

#: Modules whose interior is trusted and not traversed.
_RUNTIME_PREFIX = "repro.runtime"


def _is_runtime(module: str) -> bool:
    return module == _RUNTIME_PREFIX \
        or module.startswith(_RUNTIME_PREFIX + ".")


class WorkerSafetyTransitiveChecker(ProjectChecker):
    rule = "worker-safety-transitive"
    severity = "error"
    description = ("the call closure of parallel_map callables and "
                   "DiskCache-scoped functions must be free of "
                   "clocks, global RNG, env reads and mutable-global "
                   "writes")
    version = 1

    def check(self, project: ProjectIndex,
              graph: CallGraph) -> None:
        #: entry symbol → (anchor path, line, how it entered)
        entries: Dict[str, Tuple[str, int, str]] = {}
        self._collect_pool_entries(project, entries)
        self._collect_cache_entries(project, entries)
        if not entries:
            return
        stop = {module for module in project.modules
                if _is_runtime(module)}
        reached = graph.closure(entries, stop=stop)
        # Attribute each tainted reachable function to every entry
        # that reaches it, anchored at the entry's site.
        for name, chain in sorted(reached.items()):
            index = project.file_of(name)
            info = project.function(name)
            if index is None or info is None:
                continue
            if _is_runtime(index.module):
                continue    # runtime facts are the runtime's business
            for taint in info.taints:
                if taint.kind == "wall-clock" and index.path.endswith(
                        CLOCK_ALLOWED_SUFFIXES):
                    continue
                entry = chain[0]
                path, line, how = entries[entry]
                via = " -> ".join(part.rsplit(".", 2)[-1]
                                  for part in chain)
                self.report(
                    path, line, 1,
                    f"'{entry.rsplit('.', 1)[-1]}' {how} but its "
                    f"closure {taint.detail} "
                    f"({index.path}:{taint.line}, via {via}) — "
                    f"{taint.kind} breaks deterministic replay")

    # -- entry discovery --------------------------------------------------

    def _collect_pool_entries(
            self, project: ProjectIndex,
            entries: Dict[str, Tuple[str, int, str]]) -> None:
        """Functions passed (by name) as ``fn`` to parallel_map."""
        for index in project.files.values():
            for site in index.calls:
                if site.callee.rsplit(".", 1)[-1] != "parallel_map":
                    continue
                fn_name = None
                for arg in site.args:
                    if arg.position == 0 or arg.keyword == "fn":
                        fn_name = arg.name
                        break
                if fn_name is None:
                    continue
                resolved = project.resolve(index, fn_name)
                if resolved is not None and resolved not in entries:
                    entries[resolved] = (
                        index.path, site.line,
                        "is submitted to parallel_map")

    def _collect_cache_entries(
            self, project: ProjectIndex,
            entries: Dict[str, Tuple[str, int, str]]) -> None:
        """Functions that read/write a DiskCache themselves."""
        for name, (index, info) in project.symbols.items():
            if not info.cache_scoped or _is_runtime(index.module):
                continue
            entries.setdefault(
                name,
                (index.path, info.line, "computes DiskCache keys"))
