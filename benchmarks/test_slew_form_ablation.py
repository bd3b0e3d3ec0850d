"""Designed ablation: the published output-slew form vs size-scaled.

The paper states the load slope of the output-slew model is
independent of repeater size.  On our characterization data that form
fits poorly (low R^2) while the size-scaled variant fits well; both,
however, keep the end-to-end delay model inside the paper's accuracy
band.  This ablation quantifies the difference.
"""

import pytest

from repro.experiments.suite import ModelSuite
from repro.models.calibration import OutputSlewForm
from repro.signoff import evaluate_buffered_line, extract_buffered_line
from repro.units import mm, ps


@pytest.fixture(scope="module")
def ablation():
    lengths = (mm(1), mm(5), mm(15))
    rows = []
    goldens = {}
    for form in (OutputSlewForm.PAPER, OutputSlewForm.SIZE_SCALED):
        suite = ModelSuite.for_node("90nm", slew_form=form)
        for length in lengths:
            count = max(2, round(length / mm(1)))
            size = 32.0
            key = length
            if key not in goldens:
                line = extract_buffered_line(
                    suite.tech, suite.config, length, count, size)
                goldens[key] = evaluate_buffered_line(
                    line, ps(300)).total_delay
            estimate = suite.proposed.evaluate(length, count, size,
                                               ps(300))
            error = (estimate.delay - goldens[key]) / goldens[key]
            rows.append((form, length, error,
                         suite.calibration.rise.slew_r2))
    return rows


def test_slew_form_ablation(benchmark, ablation, save_artifact):
    lines = [
        "Ablation — output-slew model form (90nm, size 32, 300 ps)",
        f"{'form':<13} {'L mm':>5} {'delay err %':>12} {'slew R2':>9}",
    ]
    for form, length, error, r2 in ablation:
        lines.append(f"{form.value:<13} {length * 1e3:5.0f} "
                     f"{error * 100:+12.1f} {r2:9.4f}")
    save_artifact("slew_form_ablation", "\n".join(lines))

    paper_rows = [r for r in ablation if r[0] is OutputSlewForm.PAPER]
    scaled_rows = [r for r in ablation
                   if r[0] is OutputSlewForm.SIZE_SCALED]
    # The size-scaled form fits the slew data far better...
    assert scaled_rows[0][3] > paper_rows[0][3] + 0.2
    # ...and both keep the delay model inside the paper's band.
    assert max(abs(r[2]) for r in ablation) < 0.15
    # The size-scaled variant is at least as accurate end-to-end.
    assert (max(abs(r[2]) for r in scaled_rows)
            <= max(abs(r[2]) for r in paper_rows) + 0.01)

    suite = ModelSuite.for_node("90nm",
                                slew_form=OutputSlewForm.SIZE_SCALED)
    benchmark(suite.proposed.evaluate, mm(5), 6, 32.0, ps(300))
