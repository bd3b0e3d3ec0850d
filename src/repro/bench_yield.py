"""Tail-yield estimator benchmark: golden evaluations vs CI width.

``repro bench yield`` runs every Monte-Carlo estimator against one
reference line on the *golden* engine, all targeting the same 3-sigma
tail-yield question — P(delay > mean + 3 sigma) — and writes
``BENCH_yield.json`` recording, per estimator, the golden evaluations
spent, the tail probability with its 95% CI, and the **plain-MC
equivalent**: how many plain binomial draws would be needed to match
the achieved CI width (``p * (1 - p) / se**2``).  The headline ratio

    ``saving = plain_equivalent_evals / golden_evals``

is the paper-motivating claim in one number: the importance-sampling
estimator resolves the same tail CI from >= 10x fewer golden
simulations, as the ISLE paper (Bayrakci/Demir/Tasiran) claims.  The
bench exits non-zero when importance sampling saves less than that
(:data:`MIN_IMPORTANCE_SAVING`) — the CI gate.

The threshold is calibrated from the plain run itself (its mean +
3 sigma), so every estimator answers the identical question; the plain
run at bench-sized N typically scores *zero* tail hits — which is the
point: the tail is exactly where plain MC stops working.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Bump when the BENCH_yield.json layout changes incompatibly.
YIELD_SCHEMA = 1

#: Golden Monte-Carlo draws per estimator (full / --quick).
DEFAULT_DRAWS = 256
QUICK_DRAWS = 64

#: Reference line: a short 90 nm global link (2 mm, 2 repeaters of
#: size 24) — small enough that golden draws stay affordable, long
#: enough that per-stage variation averages realistically.
REFERENCE_LENGTH_MM = 2.0
REFERENCE_REPEATERS = 2
REFERENCE_SIZE = 24.0
REFERENCE_SLEW_PS = 100.0

#: Estimators benchmarked, in report order.
BENCH_ESTIMATORS = ("plain", "importance", "importance-sn", "qmc",
                    "control-variate")

#: Cheap kernel draws spent by the model-backed estimators' pre-pass.
PREPASS_SAMPLES = 4096

#: The estimator saving (plain-equivalent / golden evals) the CI gate
#: requires of importance sampling: the documented "10x fewer golden
#: runs".
MIN_IMPORTANCE_SAVING = 10.0


@dataclass(frozen=True)
class YieldBenchEntry:
    """One estimator's tail-yield benchmark record."""

    estimator: str
    draws: int
    golden_evals: int
    model_evals: int
    wall_s: float
    mean_ps: float
    se_ps: float
    ess: float
    tail_probability: float
    tail_se: float
    tail_ci_width: float
    plain_equivalent_evals: float

    @property
    def saving(self) -> float:
        """Plain-MC draws replaced per golden draw spent
        (dimensionless ratio)."""
        if self.golden_evals <= 0:
            return 0.0
        return self.plain_equivalent_evals / self.golden_evals

    def to_payload(self) -> Dict[str, Any]:
        return {
            "estimator": self.estimator,
            "draws": self.draws,
            "golden_evals": self.golden_evals,
            "model_evals": self.model_evals,
            "wall_s": self.wall_s,
            "mean_ps": self.mean_ps,
            "se_ps": self.se_ps,
            "ess": self.ess,
            "tail_probability": self.tail_probability,
            "tail_se": self.tail_se,
            "tail_ci_width": self.tail_ci_width,
            "plain_equivalent_evals": self.plain_equivalent_evals,
            "saving": self.saving,
        }

    def format(self) -> str:
        return (f"{self.estimator:<16} golden={self.golden_evals:<5d} "
                f"P(tail)={self.tail_probability:9.2e} "
                f"+/-{self.tail_ci_width:8.2e} "
                f"plain-equiv={self.plain_equivalent_evals:10.0f} "
                f"saving={self.saving:7.1f}x "
                f"({self.wall_s:.1f} s)")


def _bench_entry(estimator: str, line, model, draws: int,
                 threshold_s: float, seed: int) -> YieldBenchEntry:
    from repro.signoff.variation import monte_carlo_line_delay
    from repro.units import ps

    started = time.perf_counter()
    result = monte_carlo_line_delay(
        line, ps(REFERENCE_SLEW_PS), samples=draws, seed=seed,
        workers=1, engine="golden", model=model, estimator=estimator,
        critical_delay=threshold_s, prepass_samples=PREPASS_SAMPLES)
    wall = time.perf_counter() - started
    tail = result.tail_probability(threshold_s)
    report = result.report
    return YieldBenchEntry(
        estimator=estimator,
        draws=len(result.samples),
        golden_evals=report.golden_evals,
        model_evals=report.model_evals,
        wall_s=wall,
        mean_ps=result.mean * 1e12,
        se_ps=report.standard_error * 1e12,
        ess=report.ess,
        tail_probability=tail.probability,
        tail_se=tail.standard_error,
        tail_ci_width=2.0 * tail.ci_half_width,
        plain_equivalent_evals=tail.plain_equivalent_evals,
    )


def run_yield_bench(node: str = "90nm", quick: bool = False,
                    samples: Optional[int] = None, seed: int = 2010,
                    output: str = "BENCH_yield.json"
                    ) -> "Tuple[int, Dict[str, Any]]":
    """Run the tail-yield bench, write ``output``, return
    ``(status, report)``.

    Status is 0 when the importance-sampling estimator achieves at
    least :data:`MIN_IMPORTANCE_SAVING` plain-equivalent draws per
    golden evaluation, 1 otherwise.
    """
    from repro.experiments.suite import ModelSuite
    from repro.runtime.manifest import run_environment, utc_timestamp
    from repro.signoff.extraction import extract_buffered_line
    from repro.signoff.variation import monte_carlo_line_delay
    from repro.units import mm, ps

    if samples is None:
        samples = QUICK_DRAWS if quick else DEFAULT_DRAWS
    suite = ModelSuite.for_node(node)
    model = suite.proposed
    line = extract_buffered_line(model.tech, model.config,
                                 mm(REFERENCE_LENGTH_MM),
                                 REFERENCE_REPEATERS, REFERENCE_SIZE)

    # Calibrate the 3-sigma threshold from the plain golden run, so
    # every estimator answers the same tail question.
    started = time.perf_counter()
    plain_result = monte_carlo_line_delay(
        line, ps(REFERENCE_SLEW_PS), samples=samples, seed=seed,
        workers=1, engine="golden", estimator="plain")
    plain_wall = time.perf_counter() - started
    threshold = plain_result.three_sigma_delay()
    plain_tail = plain_result.tail_probability(threshold)
    plain_report = plain_result.report
    entries: List[YieldBenchEntry] = [YieldBenchEntry(
        estimator="plain",
        draws=len(plain_result.samples),
        golden_evals=plain_report.golden_evals,
        model_evals=plain_report.model_evals,
        wall_s=plain_wall,
        mean_ps=plain_result.mean * 1e12,
        se_ps=plain_report.standard_error * 1e12,
        ess=plain_report.ess,
        tail_probability=plain_tail.probability,
        tail_se=plain_tail.standard_error,
        tail_ci_width=2.0 * plain_tail.ci_half_width,
        plain_equivalent_evals=plain_tail.plain_equivalent_evals,
    )]
    for estimator in BENCH_ESTIMATORS[1:]:
        entries.append(_bench_entry(estimator, line, model, samples,
                                    threshold, seed))

    report: Dict[str, Any] = {
        "schema": YIELD_SCHEMA,
        "generated_at": utc_timestamp(),
        "node": node,
        "quick": quick,
        "line": {
            "length_mm": REFERENCE_LENGTH_MM,
            "repeaters": REFERENCE_REPEATERS,
            "size": REFERENCE_SIZE,
            "input_slew_ps": REFERENCE_SLEW_PS,
        },
        "threshold_ps": threshold * 1e12,
        "seed": seed,
        "env": run_environment(),
        "results": [entry.to_payload() for entry in entries],
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    # Human-readable lines for the CLI; not part of the JSON artifact.
    report["formatted"] = [
        f"3-sigma tail threshold: {threshold * 1e12:.1f} ps "
        f"(plain mean {plain_result.mean * 1e12:.1f} ps)",
        *[entry.format() for entry in entries],
    ]
    importance = next(entry for entry in entries
                      if entry.estimator == "importance")
    status = 0 if importance.saving >= MIN_IMPORTANCE_SAVING else 1
    return status, report
