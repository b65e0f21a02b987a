"""The back-test's bookkeeping against its per-event oracles.

- ``PendingIndexStore`` (FIFO of ranks plus a lazy deadline heap) against
  ``ReferenceQueue``, the ``Query``-object queue of the reference pumps,
  under random operation sequences;
- ``Log2Histogram.record_many`` against per-value ``record``;
- the logged ``MetricsCollector`` against the per-event
  ``ReferenceMetricsCollector`` on the sim-time metric flushes of a
  traced back-test.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.profiles import gpu_profile, lighttrader_profile
from repro.metrics import Log2Histogram, MetricRegistry
from repro.pipeline.offload import PendingIndexStore, Query
from repro.sim.backtest import Backtester, SimConfig
from repro.sim.workload import synthetic_workload
from repro.telemetry import Telemetry
from repro.telemetry.writer import TraceWriter
from tests.oracles.backtest import ReferenceQueue
from tests.oracles.metrics import ReferenceMetricsCollector

COUNTERS = (
    "admitted",
    "dropped_overflow",
    "dropped_stale",
    "dropped_unschedulable",
    "queue_depth_high_water",
)


def _rows(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` rows: non-decreasing arrivals with ties, and deadlines from
    already expired to ~40 ns out, many repeated, some the -1 marker."""
    rng = np.random.default_rng(seed)
    timestamps = np.cumsum(rng.integers(0, 4, size=n)).astype(np.int64)
    deadlines = timestamps + rng.integers(-3, 40, size=n)
    deadlines = np.where(rng.random(n) < 0.3, deadlines // 8 * 8, deadlines)
    deadlines = np.where(rng.random(n) < 0.1, -1, deadlines)
    return timestamps, deadlines


def _pending(store: PendingIndexStore) -> list[int]:
    """The store's pending rows in FIFO order (live entries only)."""
    return [entry[2] for entry in store._fifo if entry[2] >= 0]


def _fields(query: Query) -> tuple:
    return (query.query_id, query.arrival, query.deadline, query.enqueue_time)


class TestPendingStoreAgainstReferenceQueue:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([4, 16, 64]),
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["admit", "run", "stale", "pop", "pop_batch", "drop", "requeue"]
                ),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_rows_counters_and_order(self, seed, max_pending, ops):
        timestamps, deadlines = _rows(seed, 8 * len(ops))
        ts, dl = timestamps.tolist(), deadlines.tolist()
        store = PendingIndexStore(timestamps, deadlines, 0, max_pending=max_pending)
        ref = ReferenceQueue(max_pending)
        row = now = 0
        held: list[tuple[list[Query], list[Query]]] = []

        def ref_admit(index: int, enqueue_ns: int) -> int | None:
            # ReferenceBacktester._ingest: overflow evicts the oldest.
            victim = None
            if ref.pending_count() >= ref.max_pending:
                victim = ref.drop_oldest().query_id
                ref.dropped_unschedulable -= 1
                ref.dropped_overflow += 1
            ref.admit(
                Query(
                    query_id=index,
                    tick_index=index,
                    arrival=ts[index],
                    deadline=dl[index],
                    enqueue_time=enqueue_ns,
                )
            )
            return victim

        for op, arg in ops:
            if op == "admit":  # per-event, overflow allowed; odd args enqueue late
                for __ in range(arg):
                    now = ts[row]
                    enqueue_ns = now + 5 * (arg % 2)
                    got = store.admit_index(row, enqueue_ns)
                    assert got == ref_admit(row, enqueue_ns)
                    row += 1
            elif op == "run":
                stop = row + arg
                if store.can_admit_run(arg):
                    assert ref.pending_count() + arg <= max_pending
                    got = store.admit_run(row, stop, timestamps[row:stop])
                    want = []
                    for index in range(row, stop):
                        ref_admit(index, ts[index])
                        want.extend((q.query_id, ts[index]) for q in ref.drop_stale(ts[index]))
                    assert got == want
                    now, row = ts[stop - 1], stop
            elif op == "stale":
                now += arg - 4
                got = store.drop_stale(now)
                assert got == [q.query_id for q in ref.drop_stale(now)]
            elif op == "pop":
                got = store.pop_indices(arg)
                assert got == [q.query_id for q in ref.pop_batch(arg)]
            elif op == "pop_batch":
                batch, ref_batch = store.pop_batch(arg), ref.pop_batch(arg)
                assert [_fields(q) for q in batch] == [_fields(q) for q in ref_batch]
                held.append((batch, ref_batch))
            elif op == "drop":
                victim = ref.drop_oldest()
                assert store.drop_oldest() == (victim.query_id if victim else None)
            elif held:  # requeue a surrendered batch at the head
                batch, ref_batch = held.pop(arg % len(held))
                store.requeue_front(batch)
                ref.requeue_front(ref_batch)
            for name in COUNTERS:
                assert getattr(store, name) == getattr(ref, name), name
            assert store.pending_count() == ref.pending_count()
            assert _pending(store) == [q.query_id for q in ref._pending]
            oldest = ref.peek_pending()
            assert store.oldest_index() == (oldest.query_id if oldest else None)
            assert store.pending_deadlines_less(arg, 3) == [
                d - 3 for d in ref.pending_deadlines(arg)
            ]


# Bucket edges, the float-exactness limit and the int64 extremes.
EDGES = [0, -1, -(2**63), 1, 2, 63, 64, 65, 127, 128, 2**53 - 1, 2**53, 2**53 + 1,
         2**62, 2**62 + 1, 2**63 - 2, 2**63 - 1]
int64s = st.integers(-(2**63), 2**63 - 1)


def _state(histogram: Log2Histogram) -> tuple:
    return (histogram.counts, histogram.count, histogram.total, histogram.min, histogram.max)


class TestRecordMany:
    def test_edge_values(self):
        one, many = Log2Histogram("one"), Log2Histogram("many")
        for value in EDGES:
            one.record(value)
        many.record_many(np.array(EDGES, dtype=np.int64))
        assert _state(many) == _state(one)
        assert type(many.total) is int and type(many.min) is int

    @given(st.lists(st.one_of(int64s, st.sampled_from(EDGES), st.integers(-70, 200))),
           st.lists(int64s))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_value_record(self, first, second):
        one, many = Log2Histogram("one"), Log2Histogram("many")
        for value in first + second:
            one.record(value)
        many.record_many(np.array(first, dtype=np.int64))
        many.record_many(np.array(second, dtype=np.int64))
        assert _state(many) == _state(one)


class PerEventBacktester(Backtester):
    """The shipping pumps, scoring every outcome as it happens."""

    collector = ReferenceMetricsCollector


def _flushed(backtester, workload, profile, config):
    stream = io.StringIO()
    telemetry = Telemetry(writer=TraceWriter(stream=stream), keep_events=False)
    registry = MetricRegistry()
    result = backtester(
        workload, profile, config, telemetry=telemetry, metrics=registry
    ).run()
    telemetry.close()
    events = [json.loads(line) for line in stream.getvalue().splitlines()]
    flushes = [event for event in events if event["type"] == "metrics"]
    return result, registry.snapshot(), flushes


class TestFlushParity:
    @pytest.mark.parametrize(
        "profile, config",
        [
            (lighttrader_profile, SimConfig(n_accelerators=2, workload_scheduling=True,
                                            dvfs_scheduling=True)),
            (lighttrader_profile, SimConfig(power_condition="limited")),
            (gpu_profile, SimConfig(n_accelerators=2)),
        ],
    )
    def test_same_flush_events(self, monkeypatch, profile, config):
        monkeypatch.setenv("REPRO_METRICS_FLUSH_NS", "5000000")  # 5 ms of sim time
        workload = synthetic_workload(duration_s=1.0, seed=17)
        logged = _flushed(Backtester, workload, profile(), config)
        per_event = _flushed(PerEventBacktester, workload, profile(), config)
        assert len(logged[2]) > 10
        assert logged == per_event
