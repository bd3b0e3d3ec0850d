"""Chaos tests: injected faults must never change a result.

The fault-injection harness (:mod:`repro.runtime.faults`) triggers
worker crashes, straggler chunks and cache corruption at deterministic
sites; these tests pin down the recovery contract — bit-identical
results, quarantined corruption, cache-less degradation — plus the
bugfixes that ride along (temp-file cleanup, env parsing, the worker
trace-capture leak).
"""

import errno
import json
import warnings

import pytest

from repro import runtime
from repro.runtime import (
    DiskCache,
    METRICS,
    TRACER,
    TaskError,
    cache as cache_module,
    faults,
    parallel_map,
)
from repro.runtime.faults import FaultSpec, parse_spec
from repro.runtime.parallel import _run_chunk
from repro.runtime.trace import SpanCollector


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value


def _pool_was_unavailable():
    return METRICS.counters.get("parallel.pool_unavailable", 0) > 0


# ---------------------------------------------------------------------------
# Spec parsing and the inject() API
# ---------------------------------------------------------------------------


class TestSpecParsing:
    def test_single_entry_with_site(self):
        assert parse_spec("worker_crash@chunk=1") \
            == (FaultSpec("worker_crash", at=1),)

    def test_defaults(self):
        (spec,) = parse_spec("worker_crash")
        assert spec.at == 0

    def test_multiple_entries(self):
        specs = parse_spec("worker_crash@chunk=1; "
                           "slow_chunk@chunk=0,delay=0.25; "
                           "cache_corrupt@put=2")
        assert [spec.kind for spec in specs] \
            == ["worker_crash", "slow_chunk", "cache_corrupt"]
        assert specs[1].delay == 0.25
        assert specs[2].at == 2

    def test_empty_spec_is_no_faults(self):
        assert parse_spec("") == ()
        assert parse_spec(" ; ") == ()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("cosmic_ray@chunk=1")

    def test_wrong_parameter_for_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("worker_crash@put=1")
        with pytest.raises(ValueError):
            parse_spec("worker_crash@delay=1")

    def test_non_integer_site_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("worker_crash@chunk=soon")

    def test_env_spec_becomes_active(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "slow_chunk@chunk=3")
        assert faults.active_specs() \
            == (FaultSpec("slow_chunk", at=3),)

    def test_negative_site_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("worker_crash", at=-1)

    def test_malformed_env_spec_is_loud_even_on_the_serial_path(
            self, monkeypatch):
        """A typo must never silently disable the chaos that was
        asked for — the spec parses on every dispatch."""
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash@banana=1")
        with pytest.raises(ValueError):
            parallel_map(_square, [1], workers=1)


class TestInject:
    def test_inject_is_scoped_to_the_block(self):
        assert faults.active_specs() == ()
        with faults.inject("worker_crash", at=2) as spec:
            assert spec in faults.active_specs()
        assert faults.active_specs() == ()

    def test_worker_faults_excludes_cache_kinds(self):
        with faults.inject("cache_corrupt", at=0), \
                faults.inject("slow_chunk", at=1):
            kinds = [spec.kind for spec in faults.worker_faults()]
        assert kinds == ["slow_chunk"]


# ---------------------------------------------------------------------------
# Mid-run worker death
# ---------------------------------------------------------------------------


class TestWorkerCrashRecovery:
    def test_recovery_is_bit_identical(self):
        items = list(range(20))
        serial = parallel_map(_square, items, workers=1)
        METRICS.reset()
        with faults.inject("worker_crash", at=1):
            recovered = parallel_map(_square, items, workers=4,
                                     chunk=3)
        if _pool_was_unavailable():
            pytest.skip("no process pools in this environment")
        assert recovered == serial
        assert METRICS.counters["faults.worker_crash"] == 1
        assert METRICS.counters["faults.recovered_chunks"] >= 1
        assert METRICS.counters["faults.recovered_tasks"] >= 3

    def test_crash_on_first_chunk_recovers_everything(self):
        items = list(range(8))
        with faults.inject("worker_crash", at=0):
            recovered = parallel_map(_square, items, workers=2,
                                     chunk=4)
        if _pool_was_unavailable():
            pytest.skip("no process pools in this environment")
        assert recovered == [value * value for value in items]

    def test_env_spec_drives_the_crash(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash@chunk=0")
        items = list(range(6))
        recovered = parallel_map(_square, items, workers=2, chunk=3)
        if _pool_was_unavailable():
            pytest.skip("no process pools in this environment")
        assert recovered == [value * value for value in items]
        assert METRICS.counters["faults.worker_crash"] == 1

    def test_serial_path_never_fires_worker_faults(self):
        # If the crash fired on the serial path it would kill this
        # very process — completing at all is the assertion.
        with faults.inject("worker_crash", at=0):
            assert parallel_map(_square, [1, 2, 3], workers=1) \
                == [1, 4, 9]

    def test_slow_chunk_changes_nothing_but_wall_time(self):
        items = list(range(6))
        serial = parallel_map(_square, items, workers=1)
        METRICS.reset()
        with faults.inject("slow_chunk", at=0, delay=0.01):
            delayed = parallel_map(_square, items, workers=2, chunk=3)
        if _pool_was_unavailable():
            pytest.skip("no process pools in this environment")
        assert delayed == serial
        # The worker counted the injection and the payload merged back.
        assert METRICS.counters["faults.injected.slow_chunk"] == 1


class TestTaskErrorContext:
    def test_serial_failure_names_item_and_path(self):
        with pytest.raises(TaskError) as info:
            parallel_map(_fail_on_three, [1, 2, 3, 4], workers=1,
                         label="sweep.draw")
        error = info.value
        assert error.label == "sweep.draw"
        assert error.item_index == 2
        assert error.chunk_index is None
        assert "serial path" in str(error)
        assert "ValueError: three is right out" in str(error)
        assert isinstance(error.__cause__, ValueError)

    def test_pool_failure_survives_pickling_with_context(self):
        with pytest.raises(TaskError) as info:
            parallel_map(_fail_on_three, [1, 2, 3, 4], workers=2,
                         chunk=2, label="sweep.draw")
        if _pool_was_unavailable():
            pytest.skip("no process pools in this environment")
        error = info.value
        assert error.item_index == 2
        assert error.chunk_index == 1
        assert "chunk 1" in str(error)
        assert "ValueError" in error.cause_summary

    def test_label_defaults_to_callable_name(self):
        with pytest.raises(TaskError) as info:
            parallel_map(_fail_on_three, [3], workers=1)
        assert "_fail_on_three" in info.value.label


# ---------------------------------------------------------------------------
# Cache corruption, quarantine and degradation
# ---------------------------------------------------------------------------


class TestCacheQuarantine:
    def test_garbage_bytes_are_quarantined_and_recomputed(self):
        cache = DiskCache("ns")
        key = {"k": 1}
        cache.put(key, "good")
        cache.path_for(key).write_bytes(b"\x00\xffnot json\x00")
        assert cache.get(key) is None
        quarantined = cache.path_for(key).with_suffix(".quarantine")
        assert quarantined.exists()
        assert not cache.path_for(key).exists()
        assert METRICS.counters["faults.cache_quarantined"] == 1
        assert METRICS.counters["faults.cache_quarantined.ns"] == 1
        cache.put(key, "recomputed")
        assert cache.get(key) == "recomputed"
        assert quarantined.exists()  # forensics survive the rewrite

    def test_non_envelope_document_is_quarantined(self):
        """A valid-JSON non-dict entry used to escape the miss
        handling as an AttributeError; now it quarantines."""
        cache = DiskCache("ns")
        key = {"k": 2}
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_text("[1, 2, 3]")
        assert cache.get(key) is None
        assert METRICS.counters["faults.cache_quarantined"] == 1

    def test_truncated_envelope_is_quarantined(self):
        cache = DiskCache("ns")
        key = {"k": 3}
        cache.put(key, "value")
        envelope = json.loads(cache.path_for(key).read_text())
        del envelope["payload"]
        cache.path_for(key).write_text(json.dumps(envelope))
        assert cache.get(key) is None
        assert METRICS.counters["faults.cache_quarantined"] == 1

    def test_schema_evolution_is_not_quarantined(self):
        """Version/salt mismatches are expected staleness, not
        corruption — no quarantine file, no faults counter."""
        old = DiskCache("ns", version=1)
        key = {"k": 4}
        old.put(key, "v1")
        assert DiskCache("ns", version=2).get(key) is None
        assert "faults.cache_quarantined" not in METRICS.counters
        assert old.path_for(key).exists()

    def test_injected_corruption_round_trip(self):
        cache = DiskCache("ns")
        key = {"k": 5}
        with faults.inject("cache_corrupt", at=0):
            cache.put(key, {"delay": 1.5e-10})
            assert METRICS.counters["faults.injected.cache_corrupt"] \
                == 1
            assert cache.get(key) is None  # quarantined, a miss
            cache.put(key, {"delay": 1.5e-10})  # put 1: untouched
            assert cache.get(key) == {"delay": 1.5e-10}
        assert METRICS.counters["faults.cache_quarantined"] == 1


class TestCacheDegradation:
    def _fill_disk(self, monkeypatch):
        def _no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(cache_module, "_create_exclusive",
                            _no_space)

    def test_disk_full_degrades_to_read_only_with_one_warning(
            self, monkeypatch):
        cache = DiskCache("ns")
        self._fill_disk(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache.put({"k": 1}, "payload")
            cache.put({"k": 2}, "payload")  # short-circuits silently
        assert cache_module.writes_disabled()
        assert [w for w in caught
                if issubclass(w.category, RuntimeWarning)] \
            and len(caught) == 1
        assert METRICS.counters["faults.cache_degraded"] == 1
        assert METRICS.counters["cache.write_failed"] == 1

    def test_degraded_run_completes_cache_less(self, monkeypatch):
        cache = DiskCache("ns")
        self._fill_disk(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cache.put({"k": 1}, "payload")
        # Reads still work (miss), computation results are unaffected.
        assert cache.get({"k": 1}) is None
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_transient_errors_do_not_degrade(self):
        """A per-entry failure (target occupied by a directory) counts
        a failed write but keeps the cache writable."""
        cache = DiskCache("ns")
        key = {"k": 1}
        cache.path_for(key).mkdir(parents=True)
        cache.put(key, "payload")
        assert not cache_module.writes_disabled()
        assert METRICS.counters["cache.write_failed"] == 1
        cache.put({"k": 2}, "other")
        assert cache.get({"k": 2}) == "other"


class TestTempFileCleanup:
    def test_failed_replace_leaves_no_tmp_litter(self):
        cache = DiskCache("ns")
        key = {"k": 1}
        cache.path_for(key).mkdir(parents=True)  # os.replace will fail
        cache.put(key, "payload")
        assert list(cache.directory.glob("*.tmp")) == []
        assert METRICS.counters["cache.write_failed"] == 1

    def test_unserializable_payload_stays_loud_but_clean(self):
        cache = DiskCache("ns")
        with pytest.raises(TypeError):
            cache.put({"k": 1}, object())
        assert list(cache.directory.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# Env parsing (REPRO_NO_CACHE and friends share one rule)
# ---------------------------------------------------------------------------


class TestEnvParsing:
    def test_no_cache_whitespace_zero_keeps_cache_enabled(
            self, monkeypatch):
        """The old rule treated "0 " (trailing space) as truthy and
        silently disabled the cache."""
        monkeypatch.setenv("REPRO_NO_CACHE", "0 ")
        assert runtime.cache_enabled()

    @pytest.mark.parametrize("value", ["1", " 1 ", "true", "YES", "on"])
    def test_no_cache_true_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_CACHE", value)
        assert not runtime.cache_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "No", "off", ""])
    def test_no_cache_false_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_CACHE", value)
        assert runtime.cache_enabled()

    def test_no_cache_garbage_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "maybe")
        with pytest.raises(ValueError):
            runtime.cache_enabled()

    def test_env_int_strips_and_validates(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", " 4 ")
        assert runtime.env_int("REPRO_WORKERS") == 4
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert runtime.env_int("REPRO_WORKERS") is None
        monkeypatch.delenv("REPRO_WORKERS")
        assert runtime.env_int("REPRO_WORKERS") is None
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            runtime.env_int("REPRO_WORKERS")

    def test_env_flag_default_applies_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert runtime.env_flag("REPRO_NO_CACHE", default=True)
        assert not runtime.env_flag("REPRO_NO_CACHE", default=False)


# ---------------------------------------------------------------------------
# Worker trace-capture leak
# ---------------------------------------------------------------------------


class TestWorkerCaptureLeak:
    """``_run_chunk`` runs in this process to stand in for a reused
    pool worker: a failing chunk must end its capture, or every later
    chunk on that worker records into a dead collector."""

    def _payload(self, fn, items, chunk_index, start):
        return (fn, items, True, chunk_index, start, "probe",
                faults.worker_faults())

    def test_failing_chunk_ends_capture(self):
        with pytest.raises(TaskError):
            _run_chunk(self._payload(_fail_on_three, [3], 0, 0))
        assert not TRACER.enabled  # capture mode did not leak

    def test_clean_chunk_after_failure_round_trips_spans(self):
        with pytest.raises(TaskError):
            _run_chunk(self._payload(_fail_on_three, [3], 0, 0))
        results, metrics_payload, events = _run_chunk(
            self._payload(_square, [2, 3], 1, 2))
        assert results == [4, 9]
        begins = [event for event in events if event["ph"] == "B"]
        ends = [event for event in events if event["ph"] == "E"]
        assert [event["name"] for event in begins] \
            == ["parallel.chunk"]
        assert len(ends) == 1
        # And the captured events splice cleanly into a parent tracer.
        collector = SpanCollector()
        TRACER.add_sink(collector)
        try:
            TRACER.splice_payload(events, parent_id=None)
        finally:
            TRACER.remove_sink(collector)
        assert len(collector.events) == 2

    def test_failing_chunk_still_returns_worker_guard(self):
        from repro.runtime import parallel
        with pytest.raises(TaskError):
            _run_chunk(self._payload(_fail_on_three, [3], 0, 0))
        assert parallel._IN_WORKER is False


# ---------------------------------------------------------------------------
# End-to-end: Monte-Carlo sweep survives a crash and a corrupt cache
# ---------------------------------------------------------------------------


class TestMonteCarloCrashEquivalence:
    @pytest.fixture()
    def line(self, tech90, swss90):
        from repro.signoff.extraction import extract_buffered_line
        from repro.units import mm
        return extract_buffered_line(tech90, swss90, mm(2), 2, 24.0)

    def test_crash_and_corruption_leave_results_bit_identical(
            self, line):
        from repro.signoff.variation import monte_carlo_line_delay
        from repro.units import ps
        clean = monte_carlo_line_delay(line, ps(100), samples=8,
                                       seed=77, workers=1)
        METRICS.reset()
        with faults.inject("worker_crash", at=0), \
                faults.inject("cache_corrupt", at=0):
            DiskCache("chaos").put({"probe": 1}, "doomed")
            assert DiskCache("chaos").get({"probe": 1}) is None
            survived = monte_carlo_line_delay(line, ps(100), samples=8,
                                              seed=77, workers=4)
        if _pool_was_unavailable():
            pytest.skip("no process pools in this environment")
        assert survived.samples == clean.samples
        assert survived.nominal_delay == clean.nominal_delay
        assert METRICS.counters["faults.worker_crash"] >= 1
        assert METRICS.counters["faults.cache_quarantined"] >= 1

    def test_importance_estimator_survives_crash_bit_identically(
            self, line, suite90):
        """The variance-reduction estimators inherit the recovery
        contract: an importance-sampled sweep whose pool dies mid-run
        re-runs the unfinished draws and lands on the very same
        samples, weights and corrected estimate."""
        from repro.signoff.variation import monte_carlo_line_delay
        from repro.units import ps
        kwargs = dict(samples=8, seed=77, engine="golden",
                      model=suite90.proposed, estimator="importance",
                      prepass_samples=64)
        clean = monte_carlo_line_delay(line, ps(100), workers=1,
                                       **kwargs)
        METRICS.reset()
        with faults.inject("worker_crash", at=0):
            survived = monte_carlo_line_delay(line, ps(100),
                                              workers=4, **kwargs)
        if _pool_was_unavailable():
            pytest.skip("no process pools in this environment")
        assert survived.samples == clean.samples
        assert survived.weights == clean.weights
        assert survived.mean == clean.mean
        assert survived.report.ess == clean.report.ess
        assert METRICS.counters["faults.worker_crash"] >= 1

    def test_recovery_lands_in_stats_and_manifest(self, line):
        from repro.runtime import build_manifest
        from repro.signoff.variation import monte_carlo_line_delay
        from repro.units import ps
        with faults.inject("worker_crash", at=0):
            monte_carlo_line_delay(line, ps(100), samples=6, seed=5,
                                   workers=3)
        if _pool_was_unavailable():
            pytest.skip("no process pools in this environment")
        footer = METRICS.format_footer()
        assert "faults.worker_crash" in footer
        manifest = build_manifest(
            "probe", {"seed": 5}, workers=3, cache_enabled=True,
            wall_seconds=0.0, started_at="2026-01-01T00:00:00+00:00")
        assert manifest["faults"]["faults.worker_crash"] >= 1
        assert manifest["faults"]["faults.recovered_tasks"] >= 1
