"""Shared fixtures.

Session-scoped fixtures cache the expensive artifacts (calibration,
characterized cells) so the suite stays fast: calibration loads from
the pre-fitted coefficient cache when present and is memoized in
process either way.
"""

from __future__ import annotations

import pytest

from repro.characterization import (
    CharacterizationGrid,
    RepeaterKind,
    characterize_cell,
)
from repro.experiments.suite import ModelSuite
from repro.tech import DesignStyle, WireConfiguration, get_technology
from repro.units import ps


@pytest.fixture(scope="session", autouse=True)
def _hermetic_disk_cache(tmp_path_factory):
    """Point the persistent runtime cache at a per-session directory.

    Tests must neither read stale entries from ``~/.cache/repro`` (a
    code change could otherwise be masked by a pre-change cached
    design) nor litter the user's real cache.
    """
    import os
    directory = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(directory)
    yield directory
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def tech90():
    """The 90 nm technology node."""
    return get_technology("90nm")


@pytest.fixture(scope="session")
def tech45():
    """The 45 nm technology node."""
    return get_technology("45nm")


@pytest.fixture(scope="session")
def swss90(tech90):
    """90 nm global layer, single-width single-spacing."""
    return WireConfiguration.for_style(tech90.global_layer,
                                       DesignStyle.SWSS)


@pytest.fixture(scope="session")
def suite90():
    """Full model suite (proposed + baselines) at 90 nm."""
    return ModelSuite.for_node("90nm")


@pytest.fixture(scope="session")
def calibration90(suite90):
    """Calibrated coefficients at 90 nm."""
    return suite90.calibration


@pytest.fixture(scope="session")
def small_grid():
    """A tiny characterization grid for fast sweeps in tests."""
    return CharacterizationGrid(
        sizes=(8.0, 32.0),
        input_slews=(ps(40), ps(160), ps(320)),
        load_factors=(2.0, 8.0, 24.0),
    )


@pytest.fixture(scope="session")
def cell_char90(tech90, small_grid):
    """One characterized inverter cell (x8) on the tiny grid."""
    return characterize_cell(tech90, RepeaterKind.INVERTER, 8.0,
                             small_grid)
