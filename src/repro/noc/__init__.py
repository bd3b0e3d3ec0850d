"""COSI-OCC-style constraint-driven NoC synthesis.

Section IV of the paper integrates the interconnect models into
COSI-OCC, a tool that synthesizes an on-chip network (routers + buffered
point-to-point links) for a SoC's communication specification, and shows
that model accuracy changes the synthesized architectures (Table III).
This package reimplements that synthesis flow:

* :mod:`repro.noc.spec` — cores, floorplan positions, flows.
* :mod:`repro.noc.router` — router power/area/latency cost model.
* :mod:`repro.noc.link` — link design/feasibility via any interconnect
  model.
* :mod:`repro.noc.topology` — the synthesized network graph.
* :mod:`repro.noc.synthesis` — greedy constraint-driven synthesis
  (minimum marginal power routing over a candidate graph).
* :mod:`repro.noc.evaluation` — power/area/hop reporting, including
  cross-evaluation of one model's topology under another model.
* :mod:`repro.noc.testcases` — the VPROC and dual-VOPD test cases.
"""

from repro.noc.spec import CommunicationSpec, Core, Flow
from repro.noc.router import RouterParameters
from repro.noc.link import LinkDesigner, LinkDesign
from repro.noc.topology import NocTopology
from repro.noc.synthesis import SynthesisConfig, synthesize
from repro.noc.evaluation import NocReport, evaluate_topology
from repro.noc.mesh import build_mesh
from repro.noc.testcases import dual_vopd, vproc
from repro.noc.width_exploration import explore_widths
from repro.noc.deadlock import analyze_deadlock

__all__ = [
    "CommunicationSpec",
    "Core",
    "Flow",
    "RouterParameters",
    "LinkDesigner",
    "LinkDesign",
    "NocTopology",
    "SynthesisConfig",
    "synthesize",
    "NocReport",
    "evaluate_topology",
    "build_mesh",
    "dual_vopd",
    "vproc",
    "explore_widths",
    "analyze_deadlock",
]
