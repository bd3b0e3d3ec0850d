"""Every example script runs to completion.

Nothing else imports ``examples/*.py``, and ``repro lint`` parses them
without resolving their imports, so an API change or a deletion could
break one without notice.  Each case runs one example with no
arguments in a fresh interpreter, from an empty working directory (one
example writes ``build/export/``) on an empty disk cache.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
EXAMPLES = SRC.parent / "examples"


@pytest.mark.parametrize("script", sorted(EXAMPLES.glob("*.py")),
                         ids=lambda script: script.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    # Tier-1 sets a relative ``PYTHONPATH=src``; the example runs
    # elsewhere, so every entry is made absolute.
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [os.path.abspath(entry) for entry in
                      os.environ.get("PYTHONPATH", "").split(os.pathsep)
                      if entry])
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
