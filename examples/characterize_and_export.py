#!/usr/bin/env python
"""Characterize a repeater library and export it as Liberty.

The paper's Section III-E flow end to end: sweep the circuit simulator
over a (size x slew x load) grid, fit the Table I coefficients by
regression, and write the Liberty timing library a real flow would
exchange.

Run:  python examples/characterize_and_export.py [node] [outdir]
(The default reduced grid keeps the run under a minute.)
"""

import sys
from pathlib import Path

from repro.characterization import (
    CharacterizationGrid,
    RepeaterKind,
    characterize_library,
    library_to_liberty,
)
from repro.characterization.harness import describe_library
from repro.models.calibration import (
    calibrate_from_library,
    describe_coefficients,
)
from repro.tech import get_technology, liberty
from repro.units import ps


def main() -> None:
    node = sys.argv[1] if len(sys.argv) > 1 else "90nm"
    outdir = Path(sys.argv[2] if len(sys.argv) > 2 else "build/export")
    outdir.mkdir(parents=True, exist_ok=True)
    tech = get_technology(node)

    # 1. Characterize a small inverter library (reduced grid).
    grid = CharacterizationGrid(
        sizes=(4.0, 8.0, 16.0, 32.0),
        input_slews=(ps(30), ps(100), ps(300)),
        load_factors=(2.0, 8.0, 24.0),
    )
    print(f"characterizing {len(grid.sizes)} cells at {node} ...")
    library = characterize_library(tech, RepeaterKind.INVERTER, grid)
    print(describe_library(library))

    # 2. Fit the predictive-model coefficients (Table I).
    calibration = calibrate_from_library(library)
    print("\n" + describe_coefficients(calibration))

    # 3. Export Liberty.
    liberty_path = outdir / f"repeaters_{node}.lib"
    liberty_path.write_text(liberty.dumps(library_to_liberty(library)))

    print(f"\nwrote {liberty_path}")


if __name__ == "__main__":
    main()
