"""Run manifests: provenance records and the environment block."""

import json
import platform

import numpy

from repro.runtime.manifest import (
    build_manifest,
    environment_info,
    manifest_path_for,
    run_environment,
    utc_timestamp,
    write_manifest,
)
from repro.runtime.metrics import MetricsRegistry


class TestEnvironmentInfo:
    def test_numpy_version_recorded(self):
        info = environment_info()
        assert info["numpy"] == numpy.__version__

    def test_blas_block_shape_when_present(self):
        info = environment_info()
        if "blas" in info:
            assert set(info["blas"]) == {"name", "version"}
            assert info["blas"]["name"]

    def test_json_serializable(self):
        json.dumps(environment_info())

    def test_run_environment_adds_interpreter_and_platform(self):
        """The block both bench reports embed: everything
        :func:`environment_info` records, plus python and platform."""
        info = run_environment()
        assert info["python"] == platform.python_version()
        assert info["platform"] == platform.platform()
        assert {key: value for key, value in info.items()
                if key not in ("python", "platform")} == environment_info()
        json.dumps(info)


class TestBuildManifest:
    def _manifest(self, config=None):
        return build_manifest("bench", config or {"seed": 2010},
                              workers=1, cache_enabled=True,
                              wall_seconds=1.5,
                              started_at=utc_timestamp(),
                              registry=MetricsRegistry())

    def test_environment_block_included(self):
        manifest = self._manifest()
        assert manifest["environment"]["numpy"] == numpy.__version__

    def test_core_keys_only(self):
        """An empty registry and a config without a seed give exactly
        the core keys; building twice gives the same keys again."""
        core = {"schema", "command", "config", "config_hash",
                "package_version", "python_version", "platform",
                "workers", "cache_enabled", "environment",
                "started_at", "wall_seconds", "phases", "counters"}
        assert set(self._manifest({"node": "90nm"})) == core
        assert set(self._manifest({"node": "90nm"})) == core

    def test_seed_surfaced_from_config(self):
        assert self._manifest()["seed"] == 2010

    def test_config_hash_stable(self):
        a = self._manifest({"node": "90nm", "samples": 100})
        b = self._manifest({"samples": 100, "node": "90nm"})
        assert a["config_hash"] == b["config_hash"]

    def test_round_trip_through_disk(self, tmp_path):
        manifest = self._manifest()
        path = write_manifest(tmp_path / "manifest.json", manifest)
        assert json.loads(path.read_text()) == manifest

    def test_manifest_path_sits_next_to_trace(self, tmp_path):
        trace = tmp_path / "run" / "trace.jsonl"
        assert manifest_path_for(trace).parent == trace.parent
