"""LUT-vs-closed-form benchmarks: the characterization tier's gate.

``repro bench lut`` builds a LUT artifact for the node, then times the
hot path the tier accelerates — the min-power link-design sweep —
once against the closed-form model (the production path without the
tier) and once against the LUT-served model, and writes
``BENCH_lut.json`` in the registry's ``op`` schema (``wall_s`` maps
``scalar`` to the closed form and ``kernel`` to the LUT).

The run gates on the tier's whole contract, not just speed:

* the speedup must clear :data:`SPEEDUP_FLOOR` (5x);
* the artifact's measured cell-midpoint interpolation error must be
  within its grid's contract (it is re-validated at build time, so a
  violation here means the builder itself regressed);
* every LUT-sweep design must meet the timing bound it was asked for.

Timing runs at ``workers=1`` so the recorded speedup is algorithmic,
not parallelism.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.units import mm

#: Bump when the BENCH_lut.json layout changes incompatibly.
BENCH_SCHEMA = 1

#: Minimum LUT-over-closed-form speedup on the benched path.
SPEEDUP_FLOOR = 5.0

#: Link-sweep lengths in millimeters (full / --quick).
SWEEP_LENGTHS_MM = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
QUICK_SWEEP_LENGTHS_MM = (1.0, 3.0, 5.0)


@dataclass(frozen=True)
class LutBenchResult:
    """One closed-form-vs-LUT timing comparison.

    ``scalar_wall_s`` times the closed-form path, ``kernel_wall_s``
    the LUT-served one (the registry's ``op`` schema names);
    ``max_rel_diff`` records how far the LUT answers drifted from the
    closed form (informational — the accuracy gate is the artifact's
    own interpolation-error contract, not this).
    """

    op: str
    n: int
    scalar_wall_s: float
    kernel_wall_s: float
    max_rel_diff: float
    gate_ok: bool
    scalar_wall_se: float = 0.0
    kernel_wall_se: float = 0.0
    reps: int = 1

    @property
    def speedup(self) -> float:
        """Closed-form wall time over LUT wall time (dimensionless)."""
        return self.scalar_wall_s / self.kernel_wall_s

    @property
    def passed(self) -> bool:
        """Speedup floor and the per-op correctness gate."""
        return self.gate_ok and self.speedup >= SPEEDUP_FLOOR

    def to_payload(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "n": self.n,
            "wall_s": {"scalar": self.scalar_wall_s,
                       "kernel": self.kernel_wall_s},
            "wall_se": {"scalar": self.scalar_wall_se,
                        "kernel": self.kernel_wall_se},
            "reps": self.reps,
            "speedup": self.speedup,
            "speedup_floor": SPEEDUP_FLOOR,
            "max_rel_diff": self.max_rel_diff,
            "gate_ok": self.gate_ok,
            "passed": self.passed,
        }

    def format(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        return (f"{self.op:<14} n={self.n:<6d} "
                f"closed {self.scalar_wall_s:8.3f} s   "
                f"lut {self.kernel_wall_s:8.3f} s   "
                f"{self.speedup:7.1f}x   "
                f"max rel diff {self.max_rel_diff:.2e} [{verdict}]")


def _max_rel_diff(reference: np.ndarray,
                  candidate: np.ndarray) -> float:
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    scale = np.maximum(np.abs(reference), 1e-300)
    return float(np.max(np.abs(candidate - reference) / scale))


def run_link_sweep_bench(model, lut, max_delay: float,
                         lengths_mm: Tuple[float, ...],
                         reps: int = 1) -> LutBenchResult:
    """Time the min-power design sweep, closed form vs LUT.

    Both sides run their production search (the closed form runs the
    scalar min-power search, the LUT its cell-crossing fast path).  The
    gate: every length feasible on the closed form must be feasible on
    the LUT *and* meet ``max_delay`` — the LUT may pick a slightly
    different size (interpolated surface), which ``max_rel_diff``
    records over delay and power of the designs.
    """
    from repro.buffering.optimizer import minimize_power_under_delay
    from repro.runtime.metrics import METRICS, Histogram

    closed_walls = Histogram()
    lut_walls = Histogram()
    closed = served = None
    for _ in range(max(1, reps)):
        started = time.perf_counter()
        closed = [minimize_power_under_delay(model, mm(length),
                                             max_delay)
                  for length in lengths_mm]
        elapsed = time.perf_counter() - started
        closed_walls.observe(elapsed)
        METRICS.observe("bench.lut_link_sweep.scalar_seconds", elapsed)

        started = time.perf_counter()
        served = [minimize_power_under_delay(lut, mm(length),
                                             max_delay)
                  for length in lengths_mm]
        elapsed = time.perf_counter() - started
        lut_walls.observe(elapsed)
        METRICS.observe("bench.lut_link_sweep.kernel_seconds", elapsed)

    gate_ok = True
    diff = 0.0
    for reference, candidate in zip(closed, served):
        if reference is None and candidate is None:
            continue
        if reference is None or candidate is None:
            gate_ok = False
            continue
        if candidate.delay > max_delay:
            gate_ok = False
        diff = max(diff, _max_rel_diff(reference.delay,
                                       candidate.delay))
        diff = max(diff, _max_rel_diff(reference.power,
                                       candidate.power))
    return LutBenchResult(op="link_sweep", n=len(lengths_mm),
                          scalar_wall_s=closed_walls.mean,
                          kernel_wall_s=lut_walls.mean,
                          max_rel_diff=diff,
                          gate_ok=gate_ok,
                          scalar_wall_se=closed_walls.standard_error(),
                          kernel_wall_se=lut_walls.standard_error(),
                          reps=closed_walls.count)


def run_lut_bench(node: str = "90nm", quick: bool = False,
                  output: str = "BENCH_lut.json",
                  reps: int = 1,
                  history: Optional[str] = None
                  ) -> "Tuple[int, Dict[str, Any]]":
    """Run the LUT benchmarks, write ``output``, return (status, report).

    Builds the artifact in-process (the coarse grid with ``--quick``,
    the default grid otherwise) so the report always measures the
    generator at head, then gates as described in the module
    docstring; status 1 on any gate failure.  Appends one ``"lut"``
    record to the registry history for ``repro bench diff``.
    """
    from repro import bench_registry
    from repro.experiments.suite import ModelSuite
    from repro.luts.build import build_artifact
    from repro.luts.grid import COARSE_GRID, DEFAULT_GRID
    from repro.luts.model import serve
    from repro.runtime.manifest import run_environment, utc_timestamp

    lengths = QUICK_SWEEP_LENGTHS_MM if quick else SWEEP_LENGTHS_MM
    spec = COARSE_GRID if quick else DEFAULT_GRID

    suite = ModelSuite.for_node(node)
    model = suite.proposed
    started = time.perf_counter()
    artifact = build_artifact(model, node, spec)
    build_seconds = time.perf_counter() - started
    lut = serve(model, artifact)
    contract_ok = artifact.measured_rel_error <= spec.max_rel_error

    results: List[LutBenchResult] = [
        run_link_sweep_bench(model, lut, suite.tech.clock_period(),
                             lengths_mm=lengths, reps=reps),
    ]
    report: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "generated_at": utc_timestamp(),
        "node": node,
        "quick": quick,
        "env": run_environment(),
        "artifact": {
            "content_hash": artifact.content_hash,
            "grid_points": spec.points,
            "build_seconds": build_seconds,
            "measured_rel_error": artifact.measured_rel_error,
            "error_contract": spec.max_rel_error,
            "contract_ok": contract_ok,
        },
        "results": [result.to_payload() for result in results],
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    record = bench_registry.build_record(
        "lut", node=node, quick=quick,
        config={"node": node, "quick": quick,
                "lengths_mm": list(lengths), "reps": reps,
                "grid_points": spec.points},
        samples=[bench_registry.BenchSample(
            name=f"{result.op}.{variant}",
            value=wall, se=se, n=result.n)
            for result in results
            for variant, wall, se in (
                ("scalar", result.scalar_wall_s,
                 result.scalar_wall_se),
                ("kernel", result.kernel_wall_s,
                 result.kernel_wall_se))],
        generated_at=report["generated_at"])
    history_path = bench_registry.append_record(record, history)
    formatted = [
        f"artifact {artifact.content_hash[:12]} "
        f"({spec.points} grid points, built in {build_seconds:.1f} s, "
        f"interp error {artifact.measured_rel_error:.2e} vs contract "
        f"{spec.max_rel_error:.2e} "
        f"[{'ok' if contract_ok else 'FAIL'}])",
    ]
    formatted.extend(result.format() for result in results)
    report["formatted"] = formatted
    report["history_path"] = str(history_path)
    status = 0 if contract_ok and all(result.passed
                                      for result in results) else 1
    return status, report
