#!/usr/bin/env python
"""Full NoC design-space exploration for one SoC.

Combines the system-level facilities into a single architect's session:

1. synthesize a custom topology,
2. compare it against the standard 2D mesh,
3. sweep the flit width for the cheapest feasible design point.

Run:  python examples/design_space_exploration.py [node]
"""

import sys

from repro.experiments.suite import ModelSuite
from repro.noc import (
    build_mesh,
    dual_vopd,
    evaluate_topology,
    explore_widths,
    synthesize,
)
from repro.noc.evaluation import NocReport


def main() -> None:
    node = sys.argv[1] if len(sys.argv) > 1 else "90nm"
    suite = ModelSuite.for_node(node)
    spec = dual_vopd(suite.tech)

    # 1. Custom constraint-driven topology.
    custom = synthesize(spec, suite.proposed, suite.tech)

    # 2. Mesh baseline.
    mesh = build_mesh(spec)
    custom_report = evaluate_topology(custom, suite.proposed,
                                      suite.tech, label="custom")
    mesh_report = evaluate_topology(mesh, suite.proposed, suite.tech,
                                    label="mesh")
    print("\n--- custom vs 2D mesh ---")
    print(NocReport.header())
    print(custom_report.row())
    print(mesh_report.row())
    ratio = mesh_report.total_power / custom_report.total_power
    print(f"mesh costs {ratio:.2f}x the synthesized topology's power")

    # 3. Flit-width sweep.
    print("\n--- flit-width exploration ---")
    exploration = explore_widths(spec, suite.proposed, suite.tech,
                                 widths=(32, 64, 128, 256))
    print(exploration.format())


if __name__ == "__main__":
    main()
