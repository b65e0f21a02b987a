"""Property tests for depth snapshots and the back-test's pending queue."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.lob import DepthSnapshot
from repro.pipeline.offload import PendingIndexStore


levels = st.lists(
    st.tuples(st.integers(1, 100_000), st.integers(1, 10_000)),
    min_size=0,
    max_size=10,
)


def normalise(bids, asks):
    """Make sides consistent: bids descending, asks ascending, uncrossed."""
    bids = sorted(set(bids), key=lambda x: -x[0])
    asks = sorted(set(asks), key=lambda x: x[0])
    if bids and asks and bids[0][0] >= asks[0][0]:
        asks = [(p + bids[0][0], v) for p, v in asks]
    return tuple(bids), tuple(asks)


class TestSnapshotProperties:
    @given(levels, levels)
    @settings(max_examples=200, deadline=None)
    def test_feature_vector_always_well_formed(self, raw_bids, raw_asks):
        bids, asks = normalise(raw_bids, raw_asks)
        snap = DepthSnapshot(
            symbol="S", timestamp=0, depth=10, bids=bids, asks=asks
        )
        vec = snap.feature_vector()
        assert vec.shape == (40,)
        assert np.isfinite(vec).all()
        # Present levels are embedded verbatim.
        for i, (price, vol) in enumerate(asks[:10]):
            assert vec[4 * i] == price
            assert vec[4 * i + 1] == vol
        for i, (price, vol) in enumerate(bids[:10]):
            assert vec[4 * i + 2] == price
            assert vec[4 * i + 3] == vol

    @given(levels, levels)
    @settings(max_examples=200, deadline=None)
    def test_padded_prices_monotone(self, raw_bids, raw_asks):
        """Ask price padding ascends; bid price padding descends."""
        bids, asks = normalise(raw_bids, raw_asks)
        snap = DepthSnapshot(symbol="S", timestamp=0, depth=10, bids=bids, asks=asks)
        vec = snap.feature_vector()
        ask_prices = vec[0::4]
        bid_prices = vec[2::4]
        assert (np.diff(ask_prices) >= 0).all()
        assert (np.diff(bid_prices) <= 0).all()

    @given(st.integers(0, 1_000), st.integers(0, 1_000))
    @settings(max_examples=100, deadline=None)
    def test_imbalance_bounded(self, bid_vol, ask_vol):
        bids = ((100, bid_vol),) if bid_vol else ()
        asks = ((101, ask_vol),) if ask_vol else ()
        snap = DepthSnapshot(symbol="S", timestamp=0, depth=10, bids=bids, asks=asks)
        assert -1.0 <= snap.imbalance() <= 1.0


def _rows(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` workload rows: non-decreasing arrivals (with ties) and
    deadlines from already expired to ~60 ns out."""
    rng = np.random.default_rng(seed)
    timestamps = np.cumsum(rng.integers(0, 5, size=n)).astype(np.int64)
    deadlines = timestamps + rng.integers(-5, 60, size=n)
    return timestamps, deadlines


class TestOffloadQueueProperties:
    @given(
        st.integers(0, 2**32 - 1),
        # A shallow bound that overflows often, and one that lets the
        # queue grow deep.
        st.sampled_from([8, 40]),
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["admit", "run", "pop", "pop_batch", "drop", "stale", "requeue"]
                ),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_queue_accounting_invariant(self, seed, max_pending, ops):
        """admitted == pending + popped + dropped - requeued at all times."""
        timestamps, deadlines = _rows(seed, 8 * len(ops))
        store = PendingIndexStore(timestamps, deadlines, 0, max_pending=max_pending)
        row = popped = requeued = 0
        now = 0
        held: list = []  # popped Query objects, for requeue_front
        for op, arg in ops:
            if op == "admit":  # per-event admission, overflow allowed
                for __ in range(arg):
                    now = int(timestamps[row])
                    store.admit_index(row, now)
                    row += 1
            elif op == "run":  # admit_run under its preconditions
                stop = row + arg
                if store.can_admit_run(arg):
                    store.admit_run(row, stop, timestamps[row:stop])
                    now = int(timestamps[stop - 1])
                    row = stop
            elif op == "pop":
                popped += len(store.pop_indices(arg))
            elif op == "pop_batch":
                batch = store.pop_batch(arg)
                popped += len(batch)
                held.append(batch)
            elif op == "drop":
                store.drop_oldest()
            elif op == "stale":
                store.drop_stale(now)
            elif held:  # requeue a surrendered batch
                batch = held.pop()
                store.requeue_front(batch)
                requeued += len(batch)
            dropped = (
                store.dropped_overflow
                + store.dropped_stale
                + store.dropped_unschedulable
            )
            assert store.admitted == row
            assert store.admitted == (
                store.pending_count() + popped + dropped - requeued
            )
            assert store.queue_depth_high_water >= store.pending_count()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 50),
        st.integers(0, 10),
        st.integers(1, 60),
    )
    @settings(max_examples=150, deadline=None)
    def test_admit_run_matches_per_event_admission(self, seed, prefix, pops, run):
        """One admit_run over rows [a, j) drops the same queries, at the
        same times and in the same order, and leaves the same queue and
        counters as admit_index(k, t_k) then drop_stale(t_k) per row."""
        timestamps, deadlines = _rows(seed, prefix + run)
        stores = []
        for __ in range(2):
            store = PendingIndexStore(timestamps, deadlines, 0, max_pending=1024)
            for index in range(prefix):  # identical pending state
                store.admit_index(index, int(timestamps[index]))
            if pops:
                store.pop_indices(pops)
            stores.append(store)
        batched, per_event = stores
        a, j = prefix, prefix + run
        got = batched.admit_run(a, j, timestamps[a:j])
        want = []
        for index in range(a, j):
            t = int(timestamps[index])
            assert per_event.admit_index(index, t) is None
            want.extend((victim, t) for victim in per_event.drop_stale(t))
        assert got == want
        for name in ("admitted", "dropped_stale", "queue_depth_high_water"):
            assert getattr(batched, name) == getattr(per_event, name), name
        assert batched.pop_indices(1024) == per_event.pop_indices(1024)
