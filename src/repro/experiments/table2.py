"""Table II: delay-model accuracy against the golden sign-off flow.

The experiment: buffered interconnects of 1/3/5/10/15 mm, for three
technology nodes and two design styles, are laid out (uniform repeater
placement), extracted, and evaluated by the golden nonlinear-simulation
flow with a 300 ps input transition.  Each closed-form model then
predicts the same line's delay; the table reports the relative errors
of the Bakoglu model (B), the Pamunuwa model (P), and the proposed
model (Prop.), plus the golden delay (PT column) and the model/golden
runtime ratio (RT).

The buffering of each line is chosen once (with the proposed model's
weighted optimizer) and shared by every evaluation, mirroring the
paper's fixed physical testbench.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.buffering.optimizer import optimize_buffering
from repro.experiments.suite import ModelSuite
from repro.runtime import METRICS, parallel_map, span
from repro.signoff.extraction import extract_buffered_line
from repro.signoff.golden import evaluate_buffered_line
from repro.tech.design_styles import DesignStyle
from repro.units import mm, ps, to_mm, to_ps

DEFAULT_NODES = ("90nm", "65nm", "45nm")
DEFAULT_LENGTHS = (mm(1), mm(3), mm(5), mm(10), mm(15))
DEFAULT_STYLES = (DesignStyle.SWSS, DesignStyle.SHIELDED)

#: Input transition time at the head of the line (the paper uses 300 ps).
INPUT_SLEW = ps(300)

#: Delay-weight used to pick each line's practical buffering.
BUFFERING_WEIGHT = 0.5

#: Back-to-back evaluations of the proposed model, after the one that
#: gives its error, whose mean time is the RT column's model runtime
#: (a single cold call swings the ratio about 2x between runs).
RUNTIME_TRIALS = 10


@dataclass(frozen=True)
class Table2Row:
    """One line of Table II."""

    node: str
    style: DesignStyle
    length: float
    num_repeaters: int
    repeater_size: float
    golden_delay: float
    errors: Dict[str, float]      # model name -> relative error
    model_runtime: float          # s, proposed model evaluation
    golden_runtime: float         # s

    @property
    def runtime_ratio(self) -> float:
        """Golden runtime / model runtime (>= 1 means model faster)."""
        if self.model_runtime <= 0:
            return float("inf")
        return self.golden_runtime / self.model_runtime


@dataclass(frozen=True)
class Table2Result:
    rows: Tuple[Table2Row, ...]

    def format(self) -> str:
        lines = [
            "Table II — delay-model accuracy vs golden sign-off "
            f"(input slew {to_ps(INPUT_SLEW):.0f} ps)",
            f"{'node':<6} {'DS':<9} {'L mm':>5} {'n':>3} {'size':>6} "
            f"{'PT ps':>9} {'B %':>8} {'P %':>8} {'Prop %':>8} "
            f"{'RT':>9}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.node:<6} {row.style.value:<9} "
                f"{to_mm(row.length):5.0f} {row.num_repeaters:3d} "
                f"{row.repeater_size:6.1f} "
                f"{to_ps(row.golden_delay):9.1f} "
                f"{row.errors['bakoglu'] * 100:+8.1f} "
                f"{row.errors['pamunuwa'] * 100:+8.1f} "
                f"{row.errors['proposed'] * 100:+8.1f} "
                f"{row.runtime_ratio:9.0f}x")
        lines.append("")
        lines.append(self.summary())
        return "\n".join(lines)

    def error_range(self, model: str) -> Tuple[float, float]:
        errors = [row.errors[model] for row in self.rows]
        return min(errors), max(errors)

    def max_abs_error(self, model: str) -> float:
        return max(abs(row.errors[model]) for row in self.rows)

    def summary(self) -> str:
        parts = []
        for model in ("bakoglu", "pamunuwa", "proposed"):
            low, high = self.error_range(model)
            parts.append(f"{model}: {low * 100:+.1f}%..{high * 100:+.1f}%")
        ratios = [row.runtime_ratio for row in self.rows]
        parts.append(f"model speedup over golden: >= {min(ratios):.0f}x")
        return "; ".join(parts)


def _evaluate_one(suite: ModelSuite, style: DesignStyle,
                  length: float) -> Table2Row:
    # The paper's testbenches are *uniformly buffered* lines: even the
    # shortest has a driving repeater plus at least one inserted
    # repeater, so the optimizer search starts at two.
    buffering = optimize_buffering(
        suite.proposed, length, delay_weight=BUFFERING_WEIGHT,
        input_slew=INPUT_SLEW,
        counts=range(2, max(3, int(length / 0.25e-3))))
    count = buffering.num_repeaters
    size = buffering.repeater_size

    line = extract_buffered_line(suite.tech, suite.config, length,
                                 count, size)
    golden = evaluate_buffered_line(line, INPUT_SLEW)

    errors: Dict[str, float] = {}
    for name, model in suite.models().items():
        estimate = model.evaluate(length, count, size, INPUT_SLEW)
        errors[name] = (estimate.delay - golden.total_delay) \
            / golden.total_delay

    # The mean of warm evaluations, as R1 averages its trials.
    started = time.perf_counter()
    for _ in range(RUNTIME_TRIALS):
        suite.proposed.evaluate(length, count, size, INPUT_SLEW)
    model_runtime = (time.perf_counter() - started) / RUNTIME_TRIALS

    return Table2Row(
        node=suite.tech.name,
        style=style,
        length=length,
        num_repeaters=count,
        repeater_size=size,
        golden_delay=golden.total_delay,
        errors=errors,
        model_runtime=model_runtime,
        golden_runtime=golden.runtime_seconds,
    )


def _evaluate_task(task: "Tuple[str, str, float]") -> Table2Row:
    """One (node, style, length) cell (pool-safe: the suite is rebuilt
    from its node name, which is cheap thanks to the calibration
    caches, so workers receive only primitives)."""
    node, style_value, length = task
    style = DesignStyle(style_value)
    with span("table2.cell", node=node, style=style_value,
              length_mm=to_mm(length)):
        METRICS.count("table2.cells")
        suite = ModelSuite.for_node(node, style=style)
        return _evaluate_one(suite, style, length)


def run(
    nodes: Sequence[str] = DEFAULT_NODES,
    lengths: Sequence[float] = DEFAULT_LENGTHS,
    styles: Sequence[DesignStyle] = DEFAULT_STYLES,
    workers: Optional[int] = None,
) -> Table2Result:
    """Full Table II sweep (nodes x styles x lengths)."""
    tasks = [(node, style.value, length)
             for node in nodes
             for style in styles
             for length in lengths]
    with span("experiment.table2", cells=len(tasks)):
        rows: List[Table2Row] = parallel_map(_evaluate_task, tasks,
                                             workers=workers,
                                             label="table2.cell")
    return Table2Result(rows=tuple(rows))


def run_quick(node: str = "90nm") -> Table2Result:
    """Reduced sweep for tests: one node, one style, three lengths."""
    return run(nodes=(node,), lengths=(mm(1), mm(5), mm(10)),
               styles=(DesignStyle.SWSS,))
