"""LUT-vs-closed-form benchmark: the characterization tier's gate.

``repro bench lut`` builds a LUT artifact for the node, then times the
hot path the tier accelerates — the min-power link-design sweep —
once against the closed-form model (the production path without the
tier) and once against the LUT-served model, and writes
``BENCH_lut.json``.

The run gates on the tier's whole contract, not just speed:

* the speedup must clear :data:`SPEEDUP_FLOOR` (5x);
* the artifact's measured cell-midpoint interpolation error must be
  within its grid's contract (it is re-validated at build time, so a
  violation here means the builder itself regressed);
* every LUT-sweep design must meet the timing bound it was asked for.

Timing runs at ``workers=1`` so the recorded speedup is algorithmic,
not parallelism.  The two sides alternate for :data:`TIMING_REPEATS`
sweeps each and each keeps its fastest, so one busy moment on a shared
host does not decide the gate (a single LUT sweep takes milliseconds).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.units import mm

#: Bump when the BENCH_lut.json layout changes incompatibly.
BENCH_SCHEMA = 2

#: Minimum LUT-over-closed-form speedup on the benched path.
SPEEDUP_FLOOR = 5.0

#: Timed sweeps per side; the fastest of them is recorded (count).
TIMING_REPEATS = 5

#: Link-sweep lengths in millimeters (full / --quick).
SWEEP_LENGTHS_MM = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
QUICK_SWEEP_LENGTHS_MM = (1.0, 3.0, 5.0)


@dataclass(frozen=True)
class LutBenchResult:
    """One closed-form-vs-LUT timing comparison.

    ``max_rel_diff`` records how far the LUT answers drifted from the
    closed form (informational — the accuracy gate is the artifact's
    own interpolation-error contract, not this).
    """

    op: str
    n: int
    closed_wall_s: float
    lut_wall_s: float
    max_rel_diff: float
    gate_ok: bool

    @property
    def speedup(self) -> float:
        """Closed-form wall time over LUT wall time (dimensionless)."""
        return self.closed_wall_s / self.lut_wall_s

    @property
    def passed(self) -> bool:
        """Speedup floor and the per-op correctness gate."""
        return self.gate_ok and self.speedup >= SPEEDUP_FLOOR

    def to_payload(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "n": self.n,
            "wall_s": {"closed": self.closed_wall_s,
                       "lut": self.lut_wall_s},
            "speedup": self.speedup,
            "speedup_floor": SPEEDUP_FLOOR,
            "max_rel_diff": self.max_rel_diff,
            "gate_ok": self.gate_ok,
            "passed": self.passed,
        }

    def format(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        return (f"{self.op:<14} n={self.n:<6d} "
                f"closed {self.closed_wall_s:8.3f} s   "
                f"lut {self.lut_wall_s:8.3f} s   "
                f"{self.speedup:7.1f}x   "
                f"max rel diff {self.max_rel_diff:.2e} [{verdict}]")


def _max_rel_diff(reference: np.ndarray,
                  candidate: np.ndarray) -> float:
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    scale = np.maximum(np.abs(reference), 1e-300)
    return float(np.max(np.abs(candidate - reference) / scale))


def run_link_sweep_bench(model, lut, max_delay: float,
                         lengths_mm: Tuple[float, ...]
                         ) -> LutBenchResult:
    """Time the min-power design sweep, closed form vs LUT.

    Both sides run their production search (the closed form runs the
    scalar min-power search, the LUT its cell-crossing fast path).  The
    gate: every length feasible on the closed form must be feasible on
    the LUT *and* meet ``max_delay`` — the LUT may pick a slightly
    different size (interpolated surface), which ``max_rel_diff``
    records over delay and power of the designs.  Each side's wall
    time is its fastest of :data:`TIMING_REPEATS` sweeps.
    """
    from repro.buffering.optimizer import minimize_power_under_delay
    from repro.runtime.metrics import METRICS

    def sweep(served_model):
        started = time.perf_counter()
        designs = [minimize_power_under_delay(served_model, mm(length),
                                              max_delay)
                   for length in lengths_mm]
        return designs, time.perf_counter() - started

    closed_wall = lut_wall = float("inf")
    for _ in range(TIMING_REPEATS):
        closed, wall = sweep(model)
        closed_wall = min(closed_wall, wall)
        served, wall = sweep(lut)
        lut_wall = min(lut_wall, wall)
    METRICS.observe("bench.lut_link_sweep.closed_seconds", closed_wall)
    METRICS.observe("bench.lut_link_sweep.lut_seconds", lut_wall)

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
                          closed_wall_s=closed_wall,
                          lut_wall_s=lut_wall,
                          max_rel_diff=diff,
                          gate_ok=gate_ok)


def run_lut_bench(node: str = "90nm", quick: bool = False,
                  output: str = "BENCH_lut.json"
                  ) -> "Tuple[int, Dict[str, Any]]":
    """Run the LUT benchmarks, write ``output``, return (status, report).

    Builds the artifact in-process (the coarse grid with ``--quick``,
    the default grid otherwise) so the report always measures the
    generator at head, then gates as described in the module
    docstring; status 1 on any gate failure.
    """
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
                             lengths_mm=lengths),
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
    formatted = [
        f"artifact {artifact.content_hash[:12]} "
        f"({spec.points} grid points, built in {build_seconds:.1f} s, "
        f"interp error {artifact.measured_rel_error:.2e} vs contract "
        f"{spec.max_rel_error:.2e} "
        f"[{'ok' if contract_ok else 'FAIL'}])",
    ]
    formatted.extend(result.format() for result in results)
    report["formatted"] = formatted
    status = 0 if contract_ok and all(result.passed
                                      for result in results) else 1
    return status, report
