"""Table III: interconnect-model impact on NoC synthesis.

For each test case (VPROC, DVOPD) and node (90/65/45 nm at their
respective clocks), the NoC is synthesized twice: with the *original*
model (Bakoglu + optimistic wire view — the model COSI-OCC originally
used) and with the *proposed* model.  Three evaluations are reported:

* ``original/self``     — the original architecture as the original
  model costs it (what the original flow believes);
* ``original/accurate`` — the same architecture re-costed by the
  proposed model (what it would really cost; infeasible links show up
  here);
* ``proposed/self``     — the architecture the proposed model
  synthesizes and its cost.

The paper's headline observations this reproduces: dynamic power up to
~3x higher than the original model estimates, different hop counts,
large area differences, and original-model topologies containing wires
too long to be implementable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.experiments.suite import ModelSuite
from repro.noc.evaluation import NocReport, evaluate_topology
from repro.noc.spec import CommunicationSpec
from repro.noc.synthesis import SynthesisConfig, synthesize
from repro.noc.testcases import dual_vopd, vproc
from repro.noc.topology import NocTopology
from repro.runtime import parallel_map, span

DEFAULT_NODES = ("90nm", "65nm", "45nm")

SpecFactory = Callable[..., CommunicationSpec]

DEFAULT_DESIGNS: "Tuple[Tuple[str, SpecFactory], ...]" = (
    ("VPROC", vproc),
    ("DVOPD", dual_vopd),
)


@dataclass(frozen=True)
class Table3Case:
    """One (design, node) cell of Table III."""

    design: str
    node: str
    original_self: NocReport
    original_accurate: NocReport
    proposed_self: NocReport

    @property
    def dynamic_power_ratio(self) -> float:
        """Accurate / original estimate of the original architecture."""
        if self.original_self.dynamic_power <= 0:
            return float("inf")
        return (self.original_accurate.dynamic_power
                / self.original_self.dynamic_power)


@dataclass(frozen=True)
class Table3Result:
    cases: Tuple[Table3Case, ...]

    def format(self) -> str:
        lines = ["Table III — model impact on NoC synthesis", ""]
        for case in self.cases:
            lines.append(f"=== {case.design} @ {case.node} ===")
            lines.append(NocReport.header())
            lines.append(case.original_self.row())
            lines.append(case.original_accurate.row())
            lines.append(case.proposed_self.row())
            lines.append(
                f"  dynamic power underestimated "
                f"{case.dynamic_power_ratio:.2f}x by the original model; "
                f"{case.original_accurate.infeasible_links} original "
                f"link(s) infeasible under the accurate model")
            lines.append("")
        return "\n".join(lines)

    def max_dynamic_ratio(self) -> float:
        return max(case.dynamic_power_ratio for case in self.cases)

    def total_infeasible_links(self) -> int:
        return sum(case.original_accurate.infeasible_links
                   for case in self.cases)


def _synthesis_task(task: "Tuple[SpecFactory, str, str, "
                    "Optional[SynthesisConfig]]") -> NocTopology:
    """Synthesize one (spec, model) combination (pool-safe: the spec
    factory is a module-level function and the model is named by its
    :class:`ModelSuite` attribute, so workers rebuild both)."""
    factory, node, model_name, config = task
    suite = ModelSuite.for_node(node)
    spec = factory(suite.tech)
    return synthesize(spec, getattr(suite, model_name), suite.tech,
                      config=config)


def run_case(design_name: str, spec_factory: SpecFactory, node: str,
             config: Optional[SynthesisConfig] = None,
             workers: Optional[int] = None) -> Table3Case:
    """Synthesize and evaluate one (design, node) cell.

    The two syntheses (original model, proposed model) are independent
    problems and run as separate tasks — ``repro synth --workers 2``
    overlaps them.
    """
    with span("table3.case", design=design_name, node=node):
        tasks = [(spec_factory, node, model_name, config)
                 for model_name in ("bakoglu", "proposed")]
        original_topology, proposed_topology = parallel_map(
            _synthesis_task, tasks, workers=workers, chunk=1,
            label="table3.synthesis")

        suite = ModelSuite.for_node(node)
        return Table3Case(
            design=design_name,
            node=node,
            original_self=evaluate_topology(
                original_topology, suite.bakoglu, suite.tech,
                label="original/self"),
            original_accurate=evaluate_topology(
                original_topology, suite.proposed, suite.tech,
                label="original/accurate"),
            proposed_self=evaluate_topology(
                proposed_topology, suite.proposed, suite.tech,
                label="proposed/self"),
        )


def _case_task(task: "Tuple[str, SpecFactory, str, "
               "Optional[SynthesisConfig]]") -> Table3Case:
    """One (design, node) cell (pool-safe: the spec factories are
    module-level functions, so they pickle by reference).  Inside a
    pool worker the nested per-case ``parallel_map`` runs serially."""
    design_name, factory, node, config = task
    return run_case(design_name, factory, node, config)


def run(
    nodes: Sequence[str] = DEFAULT_NODES,
    designs: Sequence[Tuple[str, SpecFactory]] = DEFAULT_DESIGNS,
    config: Optional[SynthesisConfig] = None,
    workers: Optional[int] = None,
) -> Table3Result:
    """Full Table III sweep (designs x nodes), one cell per task."""
    tasks = [(design_name, factory, node, config)
             for design_name, factory in designs
             for node in nodes]
    with span("experiment.table3", cells=len(tasks)):
        cases: List[Table3Case] = parallel_map(_case_task, tasks,
                                               workers=workers, chunk=1,
                                               label="table3.case")
    return Table3Result(cases=tuple(cases))


def run_quick(node: str = "90nm") -> Table3Result:
    """Reduced sweep for tests: DVOPD on one node."""
    return run(nodes=(node,), designs=(("DVOPD", dual_vopd),))
