"""The versioned persistent disk cache."""

import dataclasses
import json
from dataclasses import dataclass

import pytest

from repro import runtime
from repro.runtime import DiskCache, METRICS, cache_dir, fingerprint


@dataclass(frozen=True)
class _Key:
    name: str
    value: float


class TestFingerprint:
    def test_stable(self):
        key = _Key("a", 1.5)
        assert fingerprint(key) == fingerprint(_Key("a", 1.5))

    def test_sensitive_to_every_field(self):
        base = _Key("a", 1.5)
        assert fingerprint(base) != fingerprint(_Key("b", 1.5))
        assert fingerprint(base) != fingerprint(_Key("a", 1.6))

    def test_technology_parameter_changes_key(self, tech90):
        tweaked = dataclasses.replace(tech90, vdd=tech90.vdd * 1.01)
        assert fingerprint(tech90) != fingerprint(tweaked)

    def test_dict_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) \
            == fingerprint({"b": 2, "a": 1})

    def test_rejects_unfingerprintable(self):
        with pytest.raises(TypeError):
            fingerprint(object())


class TestCacheDir:
    def test_env_override_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "here"))
        assert cache_dir() == tmp_path / "here"
        cache = DiskCache("ns")
        cache.put({"k": 1}, "payload")
        assert (tmp_path / "here" / "ns").is_dir()

    def test_nothing_created_before_first_put(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "lazy"))
        DiskCache("ns").get({"k": 1})
        assert not (tmp_path / "lazy").exists()


class TestRoundTrip:
    def test_cold_miss_then_warm_hit(self):
        cache = DiskCache("designs")
        key = {"tech": "90nm", "length": 5}
        assert cache.get(key) is None
        cache.put(key, {"delay": 1.25e-10, "sizes": [4, 8]})
        assert cache.get(key) == {"delay": 1.25e-10, "sizes": [4, 8]}

    def test_hits_and_misses_counted(self):
        cache = DiskCache("designs")
        cache.get({"k": 1})
        cache.put({"k": 1}, 42)
        cache.get({"k": 1})
        assert METRICS.counters["cache.miss"] == 1
        assert METRICS.counters["cache.hit"] == 1
        assert METRICS.cache_hit_rate() == 0.5

    def test_distinct_keys_do_not_collide(self):
        cache = DiskCache("designs")
        cache.put({"k": 1}, "one")
        cache.put({"k": 2}, "two")
        assert cache.get({"k": 1}) == "one"
        assert cache.get({"k": 2}) == "two"

    def test_namespaces_are_disjoint(self):
        DiskCache("a").put({"k": 1}, "from-a")
        assert DiskCache("b").get({"k": 1}) is None

    def test_namespace_validation(self):
        with pytest.raises(ValueError):
            DiskCache("")
        with pytest.raises(ValueError):
            DiskCache("a/b")


class TestRobustness:
    def test_corrupted_file_is_a_miss_and_rewritten(self):
        cache = DiskCache("ns")
        key = {"k": 1}
        cache.put(key, "good")
        cache.path_for(key).write_text("{ not json !")
        assert cache.get(key) is None
        cache.put(key, "rewritten")
        assert cache.get(key) == "rewritten"

    def test_truncated_envelope_is_a_miss(self):
        cache = DiskCache("ns")
        key = {"k": 1}
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_text(json.dumps({"version": 1}))
        assert cache.get(key) is None

    def test_version_mismatch_ignored_and_rewritten(self):
        old = DiskCache("ns", version=1)
        new = DiskCache("ns", version=2)
        key = {"k": 1}
        old.put(key, "v1-payload")
        assert new.get(key) is None
        new.put(key, "v2-payload")
        assert new.get(key) == "v2-payload"
        assert old.get(key) is None

    def test_key_collision_detected(self):
        """A hash collision (here: a forged file) must not serve the
        wrong payload."""
        cache = DiskCache("ns")
        forged = {"version": cache.version, "key": {"other": True},
                  "payload": "evil"}
        cache.path_for({"k": 1}).parent.mkdir(parents=True)
        cache.path_for({"k": 1}).write_text(json.dumps(forged))
        assert cache.get({"k": 1}) is None


class TestEnvironmentSalt:
    """Entries are salted with the numeric environment (numpy version)
    so a library upgrade that shifts ulps cannot serve stale floats."""

    def test_default_salt_carries_numpy_version(self):
        import numpy

        from repro.runtime.cache import environment_salt
        assert environment_salt()["numpy"] == numpy.__version__
        assert DiskCache("ns").salt == environment_salt()

    def test_salt_mismatch_is_a_miss(self):
        old = DiskCache("ns", salt={"numpy": "1.26.0"})
        new = DiskCache("ns", salt={"numpy": "2.1.0"})
        key = {"k": 1}
        old.put(key, "old-numpy-floats")
        assert new.get(key) is None
        new.put(key, "fresh")
        assert new.get(key) == "fresh"

    def test_same_salt_round_trips(self):
        a = DiskCache("ns", salt={"numpy": "2.1.0"})
        b = DiskCache("ns", salt={"numpy": "2.1.0"})
        a.put({"k": 2}, "shared")
        assert b.get({"k": 2}) == "shared"

    def test_pre_salt_envelope_is_a_miss(self):
        """Envelopes written before salting existed lack the field and
        must be treated as cold."""
        cache = DiskCache("ns")
        key = {"k": 3}
        cache.put(key, "value")
        envelope = json.loads(cache.path_for(key).read_text())
        del envelope["salt"]
        cache.path_for(key).write_text(json.dumps(envelope))
        assert cache.get(key) is None


class TestDisabling:
    def test_no_cache_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = DiskCache("ns")
        cache.put({"k": 1}, "payload")
        assert cache.get({"k": 1}) is None
        assert not cache.directory.exists()

    def test_configure_disable(self):
        runtime.configure(cache_enabled=False)
        cache = DiskCache("ns")
        cache.put({"k": 1}, "payload")
        assert not cache.directory.exists()
        runtime.configure(cache_enabled=True)
        cache.put({"k": 1}, "payload")
        assert cache.get({"k": 1}) == "payload"


def _hammer_cache(writer_id: int) -> int:
    """One concurrent writer process: interleaved puts/gets on a small
    shared slot space (executed in a pool worker)."""
    import os

    from repro.runtime import DiskCache

    cache = DiskCache("stress")
    for step in range(25):
        slot = step % 8
        cache.put({"slot": slot},
                  {"writer": writer_id, "step": step,
                   "blob": [writer_id] * 16})
        value = cache.get({"slot": slot})
        # Whatever writer's payload won the race, it must be a whole,
        # well-formed payload — never a torn or mixed write.
        if value is not None:
            assert set(value) == {"writer", "step", "blob"}
            assert value["blob"] == [value["writer"]] * 16
    return os.getpid()


class TestConcurrentWriterProcesses:
    """The write-rename path under concurrent writer *processes*.

    Before per-pid/per-token temp names, two processes writing the
    same key could race on one temp file; the loser's rename then
    published a torn or foreign payload.  Distinct processes must now
    never share a temp path, every published entry must be a whole
    envelope, and no temp litter may survive."""

    def test_parallel_writers_never_corrupt(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.runtime import DiskCache

        try:
            with ProcessPoolExecutor(max_workers=4) as pool:
                pids = list(pool.map(_hammer_cache, range(4)))
        except (OSError, NotImplementedError):
            pytest.skip("process pools unavailable here")
        assert len(set(pids)) > 1, "expected distinct writer processes"

        cache = DiskCache("stress")
        for slot in range(8):
            value = cache.get({"slot": slot})
            assert value is not None
            assert value["blob"] == [value["writer"]] * 16
        # No temp litter, no quarantined envelopes.
        leftovers = list(cache.directory.glob("*.tmp"))
        assert leftovers == []
        assert list(cache.directory.glob("*.quarantine")) == []

    def test_same_process_temp_names_are_unique(self):
        import os

        from repro.runtime.cache import _TMP_TOKENS

        first = next(_TMP_TOKENS)
        second = next(_TMP_TOKENS)
        assert second == first + 1
        # The naming scheme embeds both the pid and the token, so two
        # writers can only collide if the OS reuses a pid *and* the
        # new process has drawn exactly as many tokens — and even then
        # O_EXCL turns the collision into a counted failed write, not
        # a corrupt one.
        assert os.getpid() != 0
