"""No start-up path imports scipy or networkx.

``import scipy.optimize`` costs a cold process about half a second and
~40 MB resident before its first operation, and ``import networkx``
about 0.15 s and ~18 MB.  The program needs scipy only in the ``qmc``
estimator, which imports ``scipy.stats`` when it runs, and networkx
nowhere: the NoC graph and its cycle search are in-repo.  A cold
synthesis's first link design imports nothing its set-up has not, so
no import cost lands inside a timed operation.  Each probe runs in a
fresh interpreter, because this test process may have either package
loaded already.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Tuple

import pytest

import repro

#: One golden stage, then a 2-draw golden tail estimate, so the
#: smoothing solve of every device flavour runs.
GOLDEN = """
from repro.experiments.suite import ModelSuite
from repro.signoff.extraction import extract_buffered_line
from repro.signoff.golden import simulate_stage
from repro.signoff.variation import monte_carlo_line_delay
from repro.units import mm, ps
model = ModelSuite.for_node("90nm").proposed
simulate_stage(model.tech, 24.0, 100.0, 50e-15, 20e-15, ps(100), True)
line = extract_buffered_line(model.tech, model.config, mm(2), 2, 24.0)
monte_carlo_line_delay(line, ps(100), samples=2, seed=1, workers=1,
                       engine="golden", model=model,
                       estimator="{estimator}")
"""

#: Synthesis of a Table III design, then its deadlock check, so the
#: channel-dependency graph is built and searched.
DEADLOCK = """
from repro.experiments.suite import ModelSuite
from repro.noc.deadlock import analyze_deadlock
from repro.noc.synthesis import synthesize
from repro.noc.testcases import dual_vopd
suite = ModelSuite.for_node("90nm")
topology = synthesize(dual_vopd(suite.tech), suite.proposed, suite.tech)
assert analyze_deadlock(topology).deadlock_free
"""

#: The set-up imports of the benchmark's workloads, the CLI and the
#: server, the golden engine at work, and a synthesized NoC's
#: deadlock check.
ENTRY_POINTS = {
    "table2": "import repro.experiments.table2, repro.experiments.suite",
    "synth": "import repro.experiments.table3, repro.noc.testcases",
    "mc_tail": "import repro.signoff.variation, repro.signoff.extraction",
    "serve": "import repro.cli, repro.serve.server",
    "golden": GOLDEN.format(estimator="importance"),
    "deadlock": DEADLOCK,
}


#: The synthesis workload's set-up imports plus its model and link
#: designer, before any timed operation.
SYNTH_SETUP = """
import repro.experiments.table3, repro.noc.testcases
from repro.buffering.optimizer import minimize_power_under_delay
from repro.experiments.suite import ModelSuite
from repro.noc.link import LinkDesigner
from repro.units import mm
suite = ModelSuite.for_node("90nm")
designer = LinkDesigner(suite.proposed, suite.tech, 64)
"""

#: Cold first operations of a synthesis: a link design (on an empty
#: disk cache) and the min-power search it runs.
FIRST_OPS = {
    "link_design": "assert designer.design(mm(3)) is not None",
    "min_power_search": "assert minimize_power_under_delay("
                        "suite.proposed, mm(3), "
                        "suite.tech.clock_period()) is not None",
}


@functools.lru_cache(maxsize=None)
def _loaded_modules(code: str) -> Tuple[str, ...]:
    """The modules a fresh interpreter holds after ``code`` (one
    interpreter per distinct ``code``)."""
    probe = code + ("\nimport json, sys\n"
                    "print(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [entry for entry in [os.environ.get("PYTHONPATH")] if entry])
    with tempfile.TemporaryDirectory() as cache:
        env["REPRO_CACHE_DIR"] = cache
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True,
                              timeout=120)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def _package_modules(code: str, package: str) -> List[str]:
    """The modules of ``package`` loaded after ``code``."""
    return [name for name in _loaded_modules(code)
            if name.split(".")[0] == package]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_no_scipy(entry):
    assert _package_modules(ENTRY_POINTS[entry], "scipy") == []


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_no_networkx(entry):
    assert _package_modules(ENTRY_POINTS[entry], "networkx") == []


def test_qmc_estimator_is_the_path_that_loads_scipy():
    loaded = _package_modules(GOLDEN.format(estimator="qmc"), "scipy")
    assert "scipy.stats" in loaded


@pytest.mark.parametrize("op", sorted(FIRST_OPS))
def test_first_synthesis_op_imports_nothing(op):
    """The first timed operation of a cold synthesis loads no module
    that its set-up has not loaded already, so no import lands inside
    a timed operation."""
    before = set(_loaded_modules(SYNTH_SETUP))
    after = set(_loaded_modules(SYNTH_SETUP + FIRST_OPS[op] + "\n"))
    assert sorted(after - before) == []
