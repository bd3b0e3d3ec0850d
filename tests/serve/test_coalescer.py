"""Coalescer tests against a fake pool whose jobs the test holds open.

Each job the coalescer ships blocks in :meth:`HeldPool.run` until the
test finishes it, so "in flight" is a state the test controls rather
than a race against real shard latency: no sleeps, no timing asserts.
Every scenario runs under :func:`asyncio.wait_for`, so a request
stranded in a bucket fails the test instead of hanging it.

The scenarios lean on one asyncio guarantee: tasks take their first
step in creation order.  Submitting ``d1, d2, ...`` as tasks in one
go therefore ships ``d1`` (idle context) before ``d2`` arrives, and
``d2`` onward arrive while ``d1``'s job is in flight.
"""

import asyncio

import pytest

from repro.serve.coalescer import MAX_BATCH, Coalescer
from repro.serve.protocol import parse_query

#: Hang guard for every scenario; a passing run takes milliseconds.
HANG_GUARD_S = 10.0


def _design(length_mm):
    return parse_query({"op": "design", "length_mm": length_mm})


def _designs(count):
    """``count`` design queries of distinct lengths."""
    return [_design(1.0 + 0.05 * index) for index in range(count)]


class HeldJob:
    """One shipped job, blocked until the test finishes it."""

    def __init__(self, queries):
        self.queries = list(queries)
        self.error = None
        self.finished = asyncio.Event()

    def finish(self, error=None):
        self.error = error
        self.finished.set()


class HeldPool:
    """Stands in for :class:`ShardedPool`; answers each query with
    itself, once the test finishes the job."""

    def __init__(self):
        self.jobs = asyncio.Queue()
        self.shipped = []

    async def run(self, queries):
        job = HeldJob(queries)
        self.shipped.append(job.queries)
        await self.jobs.put(job)
        await job.finished.wait()
        if job.error is not None:
            raise job.error
        return list(queries)


def _run(scenario):
    async def guarded():
        return await asyncio.wait_for(scenario(), HANG_GUARD_S)
    return asyncio.run(guarded())


def _submit_all(coalescer, queries):
    return [asyncio.ensure_future(coalescer.submit(query))
            for query in queries]


def _refuse_timer(*_args, **_kwargs):
    raise AssertionError("the coalescer armed a timer")


class TestOccupancyBatching:
    def test_lone_design_on_idle_context_ships_without_timer(self):
        query = _design(1.0)

        async def scenario():
            pool = HeldPool()
            coalescer = Coalescer(pool)
            loop = asyncio.get_running_loop()
            # ``call_later`` goes through ``call_at`` too; the hang
            # guard armed its own timer before this point.
            loop.call_at = _refuse_timer
            try:
                task = asyncio.ensure_future(coalescer.submit(query))
                job = await pool.jobs.get()
                assert job.queries == [query]
                job.finish()
                return await task, pool.shipped
            finally:
                del loop.call_at

        answer, shipped = _run(scenario)
        assert answer == query
        assert shipped == [[query]]

    def test_designs_arriving_while_busy_ship_as_one_next_job(self):
        queries = [_design(length) for length in (1.0, 1.5, 2.0, 2.5)]

        async def scenario():
            pool = HeldPool()
            coalescer = Coalescer(pool)
            tasks = _submit_all(coalescer, queries)
            first = await pool.jobs.get()
            assert pool.jobs.empty()
            first.finish()
            second = await pool.jobs.get()
            second.finish()
            return await asyncio.gather(*tasks), pool.shipped

        answers, shipped = _run(scenario)
        assert answers == queries
        assert shipped == [queries[:1], queries[1:]]

    def test_full_bucket_ships_while_busy(self):
        queries = _designs(1 + MAX_BATCH)

        async def scenario():
            pool = HeldPool()
            coalescer = Coalescer(pool)
            tasks = _submit_all(coalescer, queries)
            first = await pool.jobs.get()
            # The first job is still held: the second ships because
            # its bucket filled, not because the shard went idle.
            second = await pool.jobs.get()
            second.finish()
            first.finish()
            return await asyncio.gather(*tasks), pool.shipped

        answers, shipped = _run(scenario)
        assert answers == queries
        assert shipped == [queries[:1], queries[1:]]

    def test_raising_job_fails_its_futures_and_ships_parked_bucket(self):
        queries = _designs(1 + MAX_BATCH + 1)
        full = queries[1:1 + MAX_BATCH]
        failure = RuntimeError("shard fell over")

        async def scenario():
            pool = HeldPool()
            coalescer = Coalescer(pool)
            # The first design ships alone; the next MAX_BATCH fill a
            # bucket and ship while it is busy; the last parks behind
            # both.
            tasks = _submit_all(coalescer, queries)
            first = await pool.jobs.get()
            second = await pool.jobs.get()
            assert second.queries == full
            second.finish(failure)
            third = await pool.jobs.get()
            third.finish()
            first.finish()
            return (await asyncio.gather(*tasks, return_exceptions=True),
                    pool.shipped)

        outcomes, shipped = _run(scenario)
        assert outcomes == [queries[0]] + [failure] * MAX_BATCH \
            + [queries[-1]]
        assert shipped == [queries[:1], full, queries[-1:]]

    def test_drain_ships_bucket_parked_behind_inflight_job(self):
        queries = [_design(length) for length in (1.0, 1.5)]

        async def scenario():
            pool = HeldPool()
            coalescer = Coalescer(pool)
            tasks = _submit_all(coalescer, queries)
            first = await pool.jobs.get()
            draining = asyncio.ensure_future(coalescer.drain())
            # Shipped by drain() while the first job is still held.
            second = await pool.jobs.get()
            second.finish()
            first.finish()
            await draining
            return await asyncio.gather(*tasks), pool.shipped

        answers, shipped = _run(scenario)
        assert answers == queries
        assert shipped == [queries[:1], queries[1:]]


@pytest.mark.parametrize("op_document", [
    {"op": "max_feasible_length"},
    {"op": "design_batch", "lengths_mm": [1.0, 2.0]},
])
def test_other_ops_ship_as_singletons_beside_busy_designs(op_document):
    """Non-``design`` ops never park, even while designs are busy."""
    design = _design(1.0)
    other = parse_query(op_document)

    async def scenario():
        pool = HeldPool()
        coalescer = Coalescer(pool)
        tasks = _submit_all(coalescer, [design, other])
        # Both jobs reach the pool before either finishes.
        first = await pool.jobs.get()
        second = await pool.jobs.get()
        second.finish()
        first.finish()
        return await asyncio.gather(*tasks), pool.shipped

    answers, shipped = _run(scenario)
    assert answers == [design, other]
    assert len(shipped) == 2
    assert [design] in shipped and [other] in shipped
