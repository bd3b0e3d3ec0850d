"""No start-up path imports scipy.

``import scipy.optimize`` costs a cold process about half a second and
~40 MB resident before its first operation.  The program needs scipy
only in the ``qmc`` estimator, which imports ``scipy.stats`` when it
runs.  Each probe runs in a fresh interpreter, because this test
process has scipy loaded already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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

#: The set-up imports of the benchmark's workloads, the CLI and the
#: server, and the golden engine at work.
ENTRY_POINTS = {
    "table2": "import repro.experiments.table2, repro.experiments.suite",
    "synth": "import repro.experiments.table3, repro.noc.testcases",
    "mc_tail": "import repro.signoff.variation, repro.signoff.extraction",
    "serve": "import repro.cli, repro.serve.server",
    "golden": GOLDEN.format(estimator="importance"),
}


def _scipy_modules(code: str, cache: Path) -> list:
    """The scipy modules a fresh interpreter holds after ``code``."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.split('.')[0] == 'scipy')))\n")
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
    env.pop("REPRO_FAULTS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [entry for entry in [os.environ.get("PYTHONPATH")] if entry])
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_no_scipy(entry, tmp_path):
    assert _scipy_modules(ENTRY_POINTS[entry], tmp_path) == []


def test_qmc_estimator_is_the_path_that_loads_scipy(tmp_path):
    loaded = _scipy_modules(GOLDEN.format(estimator="qmc"), tmp_path)
    assert "scipy.stats" in loaded
