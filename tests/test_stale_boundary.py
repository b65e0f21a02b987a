"""Regression tests pinning the repo-wide deadline boundary convention.

The convention, stated once and enforced everywhere:

- a query still pending when ``now == deadline`` is **stale** (inference
  takes strictly positive time, so it can no longer finish in time),
- a completion landing exactly at the deadline is **in time**,
- issue feasibility is ``now + fastest <= deadline``.

These tests exist so a future refactor cannot silently flip any ``<=``
to ``<`` (or vice versa) in one layer without the others noticing.
"""

import numpy as np

from repro.accelerator.power import DVFSTable
from repro.baselines.profiles import lighttrader_profile
from repro.core.scheduler import WorkloadScheduler
from repro.pipeline.offload import PendingIndexStore, Query

# Filler rows that never go stale, queued behind each case's own rows:
# none gives a queue of the case's rows alone, 40 a deeper queue whose
# deadline heap holds the filler above the case's rows.
PADDINGS = (0, 40)
_FAR = 10**15


def _query(query_id: int, deadline: int) -> Query:
    return Query(query_id=query_id, tick_index=query_id, arrival=0, deadline=deadline)


def _store(deadlines: list[int], padding: int) -> PendingIndexStore:
    """Workload rows with ``deadlines``, then ``padding`` filler rows."""
    dl = np.array(deadlines + [_FAR] * padding, dtype=np.int64)
    return PendingIndexStore(
        np.zeros(len(dl), dtype=np.int64), dl, enqueue_offset_ns=0, max_pending=1024
    )


def _admit(store: PendingIndexStore, rows) -> None:
    for index in rows:
        assert store.admit_index(index, 0) is None


class TestOffloadDropStale:
    def test_deadline_equal_now_is_stale(self):
        for padding in PADDINGS:
            store = _store([100], padding)
            _admit(store, range(1 + padding))
            assert store.drop_stale(100) == [0]
            assert store.dropped_stale == 1
            assert store.pending_count() == padding

    def test_deadline_one_past_now_survives(self):
        for padding in PADDINGS:
            store = _store([101], padding)
            _admit(store, range(1 + padding))
            assert store.drop_stale(100) == []
            assert store.pending_count() == 1 + padding

    def test_mixed_boundary(self):
        for padding in PADDINGS:
            store = _store([99, 100, 101], padding)
            _admit(store, range(3 + padding))
            assert store.drop_stale(100) == [0, 1]
            assert store.pending_count() == 1 + padding

    def test_requeue_front_restores_scan_bound(self):
        # A re-issued query with an earlier deadline than anything pending
        # must be due for drop_stale again, or the stale scan would skip it.
        for padding in PADDINGS:
            store = _store([600, 1_000], padding)
            _admit(store, [0])
            surrendered = store.pop_batch(1)
            _admit(store, range(1, 2 + padding))  # empty queue: bound 1_000
            assert store.drop_stale(500) == []
            store.requeue_front(surrendered)
            assert store.drop_stale(600) == [0]
            assert store.pending_count() == 1 + padding

    def test_requeue_front_preserves_order(self):
        for padding in PADDINGS:
            store = _store([800, 850, 900], padding)
            _admit(store, [0, 1])
            surrendered = store.pop_batch(2)
            _admit(store, range(2, 3 + padding))
            store.requeue_front(surrendered)
            assert store.drop_stale(10_000) == [0, 1, 2]
            assert store.pending_count() == padding


class TestCompletionBoundary:
    def test_completion_at_deadline_in_time(self):
        query = _query(0, deadline=100)
        query.completion_time = 100
        assert query.in_time()

    def test_completion_past_deadline_late(self):
        query = _query(0, deadline=100)
        query.completion_time = 101
        assert not query.in_time()


class TestFeasibilityBoundary:
    def test_feasible_exactly_at_deadline(self):
        profile = lighttrader_profile()
        scheduler = WorkloadScheduler(profile, DVFSTable(cap_hz=2.2e9))
        now = 1_000_000
        fastest = profile.t_total_ns(
            "deeplob", scheduler.table.max_point, 1
        )
        assert scheduler.deadline_feasible("deeplob", now, now + fastest)
        assert not scheduler.deadline_feasible("deeplob", now, now + fastest - 1)
        # And the stale rule's contrapositive: deadline == now is hopeless.
        assert not scheduler.deadline_feasible("deeplob", now, now)
