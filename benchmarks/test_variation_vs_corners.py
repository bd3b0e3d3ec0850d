"""Statistical (within-die) variation vs corner margins.

Corner analysis shifts every device together; within-die variation
perturbs each repeater independently and averages out along the chain.
This benchmark measures both bounds on the same line: the statistical
3-sigma delay sits well inside the slow-corner delay, quantifying how
much margin corner-only signoff wastes on long repeated wires.
"""

import pytest

from repro.buffering.optimizer import optimize_buffering
from repro.signoff.extraction import extract_buffered_line
from repro.signoff.golden import evaluate_buffered_line
from repro.signoff.variation import (
    VariationModel,
    monte_carlo_line_delay,
)
from repro.tech.corners import ProcessCorner, apply_corner
from repro.tech.design_styles import WireConfiguration
from repro.units import mm, ps, to_ps


@pytest.fixture(scope="module")
def study(suite90):
    length = mm(5)
    solution = optimize_buffering(suite90.proposed, length,
                                  delay_weight=0.5)
    count, size = solution.num_repeaters, solution.repeater_size
    line = extract_buffered_line(suite90.tech, suite90.config, length,
                                 count, size)
    nominal = evaluate_buffered_line(line, ps(100)).total_delay

    slow_tech = apply_corner(suite90.tech, ProcessCorner.SLOW)
    slow_config = WireConfiguration.for_style(slow_tech.global_layer,
                                              suite90.config.style)
    slow_line = extract_buffered_line(slow_tech, slow_config, length,
                                      count, size)
    slow = evaluate_buffered_line(slow_line, ps(100)).total_delay

    statistical = monte_carlo_line_delay(
        line, ps(100), samples=24, variation=VariationModel(),
        seed=2010)
    return nominal, slow, statistical


def test_variation_vs_corners(benchmark, study, save_artifact,
                              suite90):
    nominal, slow, statistical = study
    lines = [
        "Within-die variation vs corner margin (90nm, 5mm line)",
        f"  nominal delay          : {to_ps(nominal):7.1f} ps",
        f"  statistical            : {statistical.format()}",
        f"  3-sigma bound          : "
        f"{to_ps(statistical.three_sigma_delay()):7.1f} ps "
        f"({(statistical.three_sigma_delay() / nominal - 1) * 100:+.1f}%"
        f" vs nominal)",
        f"  slow-corner bound      : {to_ps(slow):7.1f} ps "
        f"({(slow / nominal - 1) * 100:+.1f}% vs nominal)",
        "",
        "Corner margin covers die-to-die shifts; within-die variation "
        "averages out over the repeater chain, so the statistical "
        "bound sits well inside the corner bound.",
    ]
    save_artifact("variation_vs_corners", "\n".join(lines))

    # Within-die averaging: the 3-sigma statistical bound is tighter
    # than the slow corner.
    assert statistical.three_sigma_delay() < slow
    assert statistical.sigma_over_mean < 0.05
    assert statistical.mean == pytest.approx(nominal, rel=0.1)

    rng_model = VariationModel()
    import numpy as np
    benchmark(rng_model.perturb_technology, suite90.tech,
              np.random.default_rng(1))
