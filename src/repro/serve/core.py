"""The stateless evaluate core every serve worker runs.

A worker process serves queries through exactly two pieces of state,
both reconstructible from the query itself:

* a per-process **warm context** — the :class:`ModelSuite` and
  :class:`repro.noc.link.LinkDesigner` for one
  :class:`~repro.serve.protocol.ContextSpec`, memoized in
  :data:`_CONTEXTS` so repeated queries skip model construction (the
  :data:`MAX_CONTEXTS` most recently used); and
* the **shared memo** — the persistent ``DiskCache("links")`` the
  designer consults before computing, which any process (shard,
  worker, CLI run) can read and write interchangeably.

Because of that, *any* worker can serve *any* query and the answer is
bit-identical to the direct in-process call: :func:`execute_query` is
the single evaluation path both sides run.

:func:`run_job` is the worker-side entry (picklable, module-level):
it resets the worker's metrics registry, fires any armed
fault-injection specs addressed to this job's ordinal, evaluates the
job's queries one by one through :func:`execute_query` and ships the
results back with the worker's metrics payload.  :func:`run_job_inline` is the
parent-side twin used for in-process compute and crash recovery; it
never fires injected faults, which is what makes crash-then-recover
terminate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.noc.link import LinkDesigner
from repro.runtime import METRICS, faults, span
from repro.serve.protocol import ContextSpec, Query, design_payload
from repro.units import mm, ps


@dataclass
class ServeContext:
    """One warm serving context (model suite + link designer)."""

    suite: Any
    designer: LinkDesigner


#: Warm contexts one process keeps.  Clients choose the spec's bus
#: width and utilization freely, and a context with a full link memo
#: holds ~0.5-1 MB, so the least recently used one goes.  Rebuilding
#: it takes a few ms; the disk cache still holds its designs.
MAX_CONTEXTS = 16

#: Per-process warm contexts, keyed on their spec, least recently
#: used first.  Inline jobs run on executor threads, hence the lock.
_CONTEXTS: "OrderedDict[ContextSpec, ServeContext]" = OrderedDict()
_CONTEXTS_LOCK = threading.Lock()


def reset_contexts() -> None:
    """Drop every warm context (tests; workers keep theirs for life)."""
    with _CONTEXTS_LOCK:
        _CONTEXTS.clear()


def get_context(spec: ContextSpec) -> ServeContext:
    """The warm context for ``spec``, built on first use."""
    with _CONTEXTS_LOCK:
        context = _CONTEXTS.get(spec)
        if context is not None:
            _CONTEXTS.move_to_end(spec)
            return context
    from repro.experiments.suite import ModelSuite
    with span("serve.context_build", node=spec.node,
              bus_width=spec.bus_width):
        METRICS.count("serve.context_build")
        suite = ModelSuite.for_node(spec.node)
        designer = LinkDesigner(suite.proposed, suite.tech,
                                spec.bus_width,
                                utilization=spec.utilization)
    with _CONTEXTS_LOCK:
        # A context another thread built meanwhile stays the one.
        context = _CONTEXTS.setdefault(
            spec, ServeContext(suite=suite, designer=designer))
        _CONTEXTS.move_to_end(spec)
        if len(_CONTEXTS) > MAX_CONTEXTS:
            _CONTEXTS.popitem(last=False)
            METRICS.count("serve.context_evicted")
    return context


def _mc_result(query: Query, context: ServeContext) -> Dict[str, Any]:
    """Evaluate one ``mc`` tail-yield query (fixed seed, exact)."""
    from repro.signoff.extraction import extract_buffered_line
    from repro.signoff.variation import monte_carlo_line_delay

    model = context.suite.proposed
    line = extract_buffered_line(
        context.suite.tech, model.config, mm(query.lengths_mm[0]),
        query.repeaters, query.size)
    critical = (ps(query.critical_ps)
                if query.critical_ps is not None else None)
    result = monte_carlo_line_delay(
        line, ps(query.slew_ps), samples=query.samples,
        seed=query.seed, engine=query.engine, model=model,
        estimator=query.estimator, critical_delay=critical)
    tail = result.tail_probability(result.tail_threshold(critical))
    payload: Dict[str, Any] = {
        "mean": result.mean,
        "sigma": result.sigma,
        "nominal_delay": result.nominal_delay,
        "samples": [float(sample) for sample in result.samples],
        "tail": {
            "threshold": tail.threshold,
            "probability": tail.probability,
            "standard_error": tail.standard_error,
            "draws": tail.draws,
            "golden_evals": tail.golden_evals,
        },
    }
    if result.report is not None:
        report = result.report
        payload["report"] = {
            "estimator": report.estimator,
            "standard_error": report.standard_error,
            "ess": report.ess,
            "golden_evals": report.golden_evals,
            "model_evals": report.model_evals,
        }
    return payload


def execute_query(query: Query) -> Any:
    """Evaluate one query; the single path server and workers share."""
    context = get_context(query.context)
    METRICS.count(f"serve.op.{query.op}")
    if query.op == "design":
        design = context.designer.design(mm(query.lengths_mm[0]))
        return {"feasible": design is not None,
                "design": design_payload(design)}
    if query.op == "design_batch":
        designs = context.designer.design_batch(
            [mm(length) for length in query.lengths_mm])
        return {"designs": [design_payload(design)
                            for design in designs]}
    if query.op == "max_feasible_length":
        return {"max_length": context.designer.max_length()}
    return _mc_result(query, context)


#: (job ordinal, queries, armed worker fault specs)
JobPayload = Tuple[int, Tuple[Query, ...], Tuple[faults.FaultSpec, ...]]


def run_job(payload: JobPayload
            ) -> Tuple[List[Any], Dict[str, Any]]:
    """Worker-side job body: evaluate queries, return results+metrics.

    Mirrors ``parallel_map``'s chunk body: the worker registry is
    reset first (warm workers are reused across jobs and, under
    ``fork``, inherit the parent's totals), so the returned metrics
    payload is exactly this job's contribution; armed ``worker_crash``
    / ``slow_chunk`` faults fire when their site ordinal matches the
    job ordinal, and nested ``parallel_map`` calls collapse to the
    serial path.
    """
    from repro.runtime import parallel

    ordinal, queries, specs = payload
    parallel._IN_WORKER = True
    METRICS.reset()
    try:
        faults.fire_chunk_faults(specs, ordinal)
        with span("serve.job", queries=len(queries), job=ordinal):
            results = [execute_query(query) for query in queries]
    finally:
        parallel._IN_WORKER = False
    return results, METRICS.to_payload()


def run_job_inline(payload: JobPayload) -> List[Any]:
    """Parent-side job body: in-process compute and crash recovery.

    Records straight into the parent registry and never fires
    injected faults — re-running a job whose worker was crashed by an
    armed ``worker_crash`` spec must not crash the parent too.  The
    evaluation path is byte-for-byte the same :func:`execute_query`,
    so recovered responses are bit-identical to undisturbed ones.
    """
    ordinal, queries, _specs = payload
    with span("serve.job", queries=len(queries), job=ordinal,
              inline=True):
        return [execute_query(query) for query in queries]


def ping() -> int:
    """Prewarm probe: proves a worker is importable and answering."""
    import os
    return os.getpid()
