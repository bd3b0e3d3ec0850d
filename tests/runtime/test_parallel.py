"""The deterministic parallel executor."""

import numpy as np
import pytest

from repro import runtime
from repro.runtime import (
    METRICS,
    TaskError,
    parallel_map,
    parallel_map_lanes,
    resolve_workers,
    spawn_generators,
    spawn_seed_sequences,
)


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value


def _square_block(values):
    """Squares of a whole chunk; a 3 fails in place, as a lane would."""
    return [ValueError("three is right out") if value == 3
            else value * value for value in values]


class TestResolveWorkers:
    def test_default_is_serial(self):
        assert resolve_workers() == 1

    def test_explicit_wins(self):
        assert resolve_workers(5) == 5

    def test_explicit_must_be_positive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_configure_override(self):
        runtime.configure(workers=3)
        assert resolve_workers() == 3
        assert resolve_workers(2) == 2

    def test_configure_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            runtime.configure(workers=0)

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers() == 4

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_env_must_be_positive(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        runtime.configure(workers=2)
        assert resolve_workers() == 2


class TestParallelMap:
    def test_serial_matches_builtin_map(self):
        items = list(range(10))
        assert parallel_map(_square, items, workers=1) \
            == [_square(x) for x in items]

    def test_parallel_matches_serial_in_order(self):
        items = list(range(17))
        serial = parallel_map(_square, items, workers=1)
        assert parallel_map(_square, items, workers=4) == serial
        assert parallel_map(_square, items, workers=4, chunk=3) \
            == serial

    def test_empty_items(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_single_item_stays_serial(self):
        assert parallel_map(_square, [7], workers=4) == [49]

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1, 2], workers=2, chunk=0)

    def test_worker_exception_propagates_with_context(self):
        """A failing item aborts the workload as a TaskError that
        names the item, with the original exception summarized."""
        with pytest.raises(TaskError) as info:
            parallel_map(_fail_on_three, [1, 2, 3, 4], workers=2)
        assert info.value.item_index == 2
        assert "ValueError" in str(info.value)

    def test_env_serial_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        items = list(range(6))
        assert parallel_map(_square, items) \
            == [_square(x) for x in items]


class TestParallelMapLanes:
    def test_serial_is_one_call(self):
        calls = []

        def record(values):
            calls.append(list(values))
            return _square_block(values)

        assert parallel_map_lanes(record, [1, 2, 4], workers=1) \
            == [1, 4, 16]
        assert calls == [[1, 2, 4]]

    def test_pool_runs_contiguous_chunks_in_order(self):
        items = list(range(4, 21))
        assert parallel_map_lanes(_square_block, items, workers=3) \
            == [_square(x) for x in items]

    def test_tasks_count_items_not_chunks(self):
        METRICS.reset()
        parallel_map_lanes(_square_block, [1, 2, 4, 5], workers=2)
        assert METRICS.counters["parallel.tasks"] == 4

    def test_empty_items(self):
        assert parallel_map_lanes(_square_block, [], workers=2) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_item_is_named_by_its_own_index(self, workers):
        with pytest.raises(TaskError) as info:
            parallel_map_lanes(_square_block, [1, 2, 5, 3, 3],
                               workers=workers, label="probe")
        assert info.value.item_index == 3
        assert info.value.label == "probe"
        assert "ValueError" in str(info.value)


class TestSeedSpawning:
    def test_streams_are_deterministic(self):
        a = [np.random.default_rng(seq).normal()
             for seq in spawn_seed_sequences(11, 4)]
        b = [np.random.default_rng(seq).normal()
             for seq in spawn_seed_sequences(11, 4)]
        assert a == b

    def test_streams_are_independent(self):
        draws = [gen.normal() for gen in spawn_generators(11, 8)]
        assert len(set(draws)) == len(draws)

    def test_prefix_stability(self):
        """The first k children never depend on the total count —
        what lets a caller grow ``samples`` without reshuffling."""
        short = spawn_seed_sequences(5, 2)
        long_ = spawn_seed_sequences(5, 6)
        for a, b in zip(short, long_):
            assert np.random.default_rng(a).normal() \
                == np.random.default_rng(b).normal()

    def test_count_validation(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(1, -1)
