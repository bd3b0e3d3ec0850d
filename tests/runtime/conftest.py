"""Runtime-test fixtures: every test gets a pristine runtime."""

from __future__ import annotations

import pytest

from repro import runtime
from repro.runtime import METRICS, TRACER, cache, faults


@pytest.fixture(autouse=True)
def _clean_runtime(tmp_path, monkeypatch):
    """Isolated cache directory, no overrides, zeroed stats/tracer,
    no armed faults, cache writes re-enabled."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    runtime.reset_configuration()
    METRICS.reset()
    TRACER.clear()
    faults.clear()
    cache.reset_degradation()
    yield
    runtime.reset_configuration()
    METRICS.reset()
    TRACER.clear()
    faults.clear()
    cache.reset_degradation()
