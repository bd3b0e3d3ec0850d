"""Scalar-vs-kernel benchmarks: the repo's tracked perf trajectory.

``repro bench`` times the min-power link-design sweep once on the
scalar reference search and once on the lockstep kernel search,
checks the results agree bit-for-bit (:data:`EQUIVALENCE_RTOL`), and
writes ``BENCH_kernels.json``:

.. code-block:: json

    {
      "schema": 1,
      "generated_at": "...",
      "node": "90nm",
      "quick": false,
      "env": {"python": "...", "platform": "...", "numpy": "..."},
      "results": [
        {"op": "link_sweep", "n": 8,
         "wall_s": {"scalar": 0.3, "kernel": 0.4},
         "speedup": 0.75, "max_rel_diff": 0.0, "equivalent": true}
      ]
    }

This file seeds the perf baseline later PRs are judged against; the
CI ``bench-smoke`` job runs the ``--quick`` variant and fails when
kernel/scalar equivalence drifts.

Timing uses ``time.perf_counter`` (a duration, not a wall clock) and
runs the scalar path at ``workers=1``, so the recorded speedup is the
single-process algorithmic win, not parallelism.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.units import mm

#: Bump when the BENCH_kernels.json layout changes incompatibly.
BENCH_SCHEMA = 1

#: Maximum allowed scalar-vs-kernel relative difference: the kernels
#: run the models' own functions, so both paths must agree exactly.
EQUIVALENCE_RTOL = 0.0

#: Link-sweep lengths in millimeters (full / --quick).
SWEEP_LENGTHS_MM = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
QUICK_SWEEP_LENGTHS_MM = (1.0, 3.0, 5.0)


@dataclass(frozen=True)
class BenchResult:
    """One scalar-vs-kernel timing comparison.

    With ``reps > 1`` the wall times are means over the repetitions
    and the ``*_wall_se`` fields carry the standard error of those
    means (from the per-rep timing histograms), which is what makes
    ``repro bench diff``'s noise gate meaningful.
    """

    op: str
    n: int
    scalar_wall_s: float
    kernel_wall_s: float
    max_rel_diff: float
    scalar_wall_se: float = 0.0
    kernel_wall_se: float = 0.0
    reps: int = 1

    @property
    def speedup(self) -> float:
        """Scalar wall time over kernel wall time (dimensionless)."""
        return self.scalar_wall_s / self.kernel_wall_s

    @property
    def equivalent(self) -> bool:
        """Whether the two paths agreed within the tolerance."""
        return self.max_rel_diff <= EQUIVALENCE_RTOL

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
            "max_rel_diff": self.max_rel_diff,
            "equivalent": self.equivalent,
        }

    def format(self) -> str:
        verdict = "ok" if self.equivalent else "DRIFT"
        return (f"{self.op:<14} n={self.n:<6d} "
                f"scalar {self.scalar_wall_s:8.3f} s   "
                f"kernel {self.kernel_wall_s:8.3f} s   "
                f"{self.speedup:7.1f}x   "
                f"max rel diff {self.max_rel_diff:.2e} [{verdict}]")


def _max_rel_diff(reference: np.ndarray, candidate: np.ndarray) -> float:
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    scale = np.maximum(np.abs(reference), 1e-300)
    return float(np.max(np.abs(candidate - reference) / scale))


def run_link_sweep_bench(node: str = "90nm",
                         lengths_mm: Tuple[float, ...] = SWEEP_LENGTHS_MM,
                         reps: int = 1) -> BenchResult:
    """Time the min-power link design sweep, scalar vs kernel search.

    Calls the scalar reference search and the lockstep search directly
    with the same arguments.  Both follow the same search trajectory by
    construction, so the chosen (count, size) and the resulting
    delay/power must agree exactly; the recorded difference covers
    delay and total power of every design.
    """
    from repro.buffering.optimizer import (
        DEFAULT_INPUT_SLEW,
        DEFAULT_MAX_SIZE,
        _count_candidates,
        minimize_power_under_delay_scalar,
    )
    from repro.experiments.suite import ModelSuite
    from repro.kernels import minimize_power_under_delay_batch
    from repro.runtime.metrics import METRICS, Histogram

    suite = ModelSuite.for_node(node)
    model = suite.proposed
    max_delay = suite.tech.clock_period()
    searches = [(model, mm(length), max_delay, DEFAULT_INPUT_SLEW,
                 DEFAULT_MAX_SIZE, 1, _count_candidates(mm(length)))
                for length in lengths_mm]

    scalar_walls = Histogram()
    kernel_walls = Histogram()
    scalar = kernel = None
    for _ in range(max(1, reps)):
        started = time.perf_counter()
        scalar = [minimize_power_under_delay_scalar(*args)
                  for args in searches]
        elapsed = time.perf_counter() - started
        scalar_walls.observe(elapsed)
        METRICS.observe("bench.link_sweep.scalar_seconds", elapsed)

        started = time.perf_counter()
        kernel = [minimize_power_under_delay_batch(*args)
                  for args in searches]
        elapsed = time.perf_counter() - started
        kernel_walls.observe(elapsed)
        METRICS.observe("bench.link_sweep.kernel_seconds", elapsed)

    diff = 0.0
    for reference, candidate in zip(scalar, kernel):
        if (reference is None) != (candidate is None):
            diff = max(diff, float("inf"))
            continue
        if reference is None:
            continue
        if (reference.num_repeaters != candidate.num_repeaters
                or reference.repeater_size != candidate.repeater_size):
            diff = max(diff, float("inf"))
            continue
        diff = max(diff, _max_rel_diff(reference.delay, candidate.delay))
        diff = max(diff, _max_rel_diff(reference.power, candidate.power))
    return BenchResult(op="link_sweep", n=len(lengths_mm),
                       scalar_wall_s=scalar_walls.mean,
                       kernel_wall_s=kernel_walls.mean,
                       max_rel_diff=diff,
                       scalar_wall_se=scalar_walls.standard_error(),
                       kernel_wall_se=kernel_walls.standard_error(),
                       reps=scalar_walls.count)


def run_bench(node: str = "90nm", quick: bool = False,
              output: str = "BENCH_kernels.json",
              reps: int = 1,
              history: Optional[str] = None
              ) -> "Tuple[int, Dict[str, Any]]":
    """Run the benchmark, write ``output``, return (status, report).

    Status is 0 when the comparison stayed within
    :data:`EQUIVALENCE_RTOL` and 1 on drift — the bench doubles as the
    CI equivalence gate.  Besides the snapshot ``output``, the run
    appends one record to the benchmark registry history (``history``
    overrides the default ``benchmarks/results/history.jsonl``) for
    ``repro bench diff`` to gate on.
    """
    from repro import bench_registry
    from repro.runtime.manifest import run_environment, utc_timestamp

    lengths = QUICK_SWEEP_LENGTHS_MM if quick else SWEEP_LENGTHS_MM

    results: List[BenchResult] = [
        run_link_sweep_bench(node, lengths_mm=lengths, reps=reps),
    ]
    report: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "generated_at": utc_timestamp(),
        "node": node,
        "quick": quick,
        "env": run_environment(),
        "results": [result.to_payload() for result in results],
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    record = bench_registry.build_record(
        "kernels", node=node, quick=quick,
        config={"node": node, "quick": quick,
                "lengths_mm": list(lengths), "reps": reps},
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
    # Human-readable lines for the CLI; not part of the JSON artifact.
    report["formatted"] = [result.format() for result in results]
    report["history_path"] = str(history_path)
    status = 0 if all(result.equivalent for result in results) else 1
    return status, report
