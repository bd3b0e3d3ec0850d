"""Per-file symbol extraction: taints, calls, round-trip."""

from repro.analysis.index import (
    FileIndex,
    index_source,
    module_name_for,
)


def _index(source, path="src/repro/pkg/mod.py", **kwargs):
    return index_source(source, path, **kwargs)


def _fn(index, qualname):
    return index.functions[qualname]


class TestModuleNames:
    def test_src_root_is_stripped(self):
        assert module_name_for("src/repro/units.py") == "repro.units"

    def test_init_maps_to_the_package(self):
        assert module_name_for("src/repro/kernels/__init__.py") \
            == "repro.kernels"

    def test_paths_outside_src_keep_their_components(self):
        assert module_name_for("tests/analysis/test_core.py") \
            == "tests.analysis.test_core"


class TestTaints:
    def test_wall_clock(self):
        index = _index("import time\n"
                       "def f():\n"
                       "    return time.time()\n")
        taints = _fn(index, "f").taints
        assert [t.kind for t in taints] == ["wall-clock"]

    def test_env_read(self):
        index = _index("import os\n"
                       "def f():\n"
                       "    return os.environ.get('HOME')\n")
        assert [t.kind for t in _fn(index, "f").taints] == ["env-read"]

    def test_global_rng_but_not_the_seeded_api(self):
        index = _index("import numpy as np\n"
                       "def bad():\n"
                       "    return np.random.normal()\n"
                       "def good(seed):\n"
                       "    return np.random.default_rng(seed)\n")
        assert [t.kind for t in _fn(index, "bad").taints] \
            == ["global-rng"]
        assert _fn(index, "good").taints == ()

    def test_module_global_writes(self):
        index = _index("_CACHE = {}\n"
                       "def f(k, v):\n"
                       "    _CACHE[k] = v\n")
        taints = _fn(index, "f").taints
        assert [t.kind for t in taints] == ["global-write"]
        assert "_CACHE" in taints[0].detail

    def test_local_mutable_is_not_a_global_write(self):
        index = _index("def f(k, v):\n"
                       "    local = {}\n"
                       "    local[k] = v\n"
                       "    return local\n")
        assert _fn(index, "f").taints == ()


class TestCallsAndImports:
    def test_from_import_and_call_site(self):
        index = _index("from repro.runtime.parallel import parallel_map\n"
                       "def run(items):\n"
                       "    return parallel_map(work, items, chunk=4)\n")
        assert index.imports["parallel_map"] \
            == "repro.runtime.parallel.parallel_map"
        (site,) = index.calls
        assert site.caller == "run"
        assert site.callee == "parallel_map"
        assert [(a.position, a.keyword, a.name) for a in site.args] \
            == [(0, None, "work"), (1, None, "items"),
                (None, "chunk", None)]

    def test_cache_scoped_detection(self):
        index = _index("def f(cache, key):\n"
                       "    return cache.get(key)\n")
        assert _fn(index, "f").cache_scoped

    def test_syntax_error_yields_empty_index(self):
        index = _index("def broken(:\n")
        assert index.functions == {}
        assert index.calls == []


class TestPayloadRoundTrip:
    def test_round_trip_preserves_everything(self):
        index = _index("import time\n"
                       "_REG = {}\n"
                       "class C:\n"
                       "    def m(self, x_ps):\n"
                       "        _REG['k'] = time.time()\n"
                       "        return x_ps * 2.0\n",
                       noqa={3: ["units"]})
        clone = FileIndex.from_payload(index.to_payload())
        assert clone.module == index.module
        assert clone.imports == index.imports
        assert clone.noqa == {3: ["units"]}
        assert set(clone.functions) == {"C.m"}
        original, copy = index.functions["C.m"], clone.functions["C.m"]
        assert copy.taints == original.taints
        assert copy.params == original.params
        assert copy.is_method
