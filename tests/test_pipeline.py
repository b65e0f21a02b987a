"""Tests for offload engine, back-test pending queue, trading engine, DMA,
stages and feed handler."""

import dataclasses

import numpy as np
import pytest

from repro.errors import OrderBookError, ProtocolError, SchedulingError
from repro.lob import DepthSnapshot, Side
from repro.market import generate_session
from repro.pipeline import (
    DEFAULT_STAGES,
    DMAModel,
    FeedHandler,
    LocalBookMirror,
    NormalizationStats,
    OffloadEngine,
    Prediction,
    RiskLimits,
    TradingEngine,
)
from repro.pipeline.offload import PendingIndexStore
from repro.protocol import (
    ILink3Order,
    PacketParser,
    SecurityDirectory,
    encode_market_events,
    encode_udp_frame,
)
from repro.lob.events import BookUpdate, TradeTick, UpdateAction


def snapshot(ts=0, bid=17_999, ask=18_001):
    return DepthSnapshot(
        symbol="ESU6",
        timestamp=ts,
        depth=10,
        bids=((bid, 5), (bid - 1, 3)),
        asks=((ask, 4), (ask + 1, 6)),
    )


class TestNormalizationStats:
    def test_fit_and_apply(self):
        tape = generate_session(duration_s=1.0, seed=3)
        stats = NormalizationStats.fit(tape)
        vec = stats.apply(tape[0].snapshot.feature_vector())
        assert vec.shape == (40,)
        assert np.abs(vec).max() < 50  # roughly standardised

    def test_constant_feature_no_nan(self):
        tape = generate_session(duration_s=1.0, seed=3)
        stats = NormalizationStats.fit(tape)
        assert np.isfinite(stats.apply(tape[5].snapshot.feature_vector())).all()

    def test_too_short_rejected(self):
        from repro.market import TickTape

        with pytest.raises(SchedulingError):
            NormalizationStats.fit(TickTape([]))


class TestOffloadEngine:
    def test_warmup_produces_no_queries(self):
        engine = OffloadEngine(window=5, store_tensors=True)
        for i in range(4):
            assert engine.on_tick(snapshot(i), i, i + 100) is None
        query = engine.on_tick(snapshot(4), 4, 104)
        assert query is not None
        assert query.tensor.shape == (5, 40)

    def test_fifo_slides(self):
        engine = OffloadEngine(window=3, store_tensors=True)
        for i in range(5):
            query = engine.on_tick(snapshot(i, bid=17_990 + i), i, i + 100)
        # Last tensor holds the 3 most recent ticks.
        assert query.tensor[-1][2] == 17_994  # bid price of latest tick

    def test_overflow_drops_oldest(self):
        engine = OffloadEngine(window=1, max_pending=3)
        queries = [engine.on_tick(snapshot(i), i, i + 100) for i in range(5)]
        assert engine.pending_count() == 3
        assert engine.dropped_overflow == 2
        assert queries[0].dropped and queries[1].dropped
        (head,) = engine.pop_batch(1)
        assert head is queries[2]

    def test_pop_batch_fifo_order(self):
        engine = OffloadEngine(window=1)
        queries = [engine.on_tick(snapshot(i), i, i + 100) for i in range(4)]
        batch = engine.pop_batch(3)
        assert batch == queries[:3]
        assert engine.pending_count() == 1

    @pytest.mark.parametrize("window", [1, 3, 100])
    def test_window_is_the_stack_of_the_last_accepted_vectors(self, window):
        """Each query's tensor is, bit for bit, ``np.stack`` of the last
        ``window`` normalised vectors; a corrupt tick mid-stream never
        enters a window; later ticks never rewrite an earlier tensor."""
        tape = generate_session(duration_s=3.0, seed=3)
        stats = NormalizationStats.fit(tape)
        engine = OffloadEngine(stats=stats, window=window, store_tensors=True)
        corrupt_at = window + 1  # after the window has filled once
        accepted, issued = [], []
        for i, tick in enumerate(tape[: 3 * window + 2]):
            snap = tick.snapshot
            if i == corrupt_at:
                nan_bid = ((float("nan"), 5), *snap.bids[1:])
                bad = dataclasses.replace(snap, bids=nan_bid)
                assert engine.on_tick(bad, i, i) is None
                continue
            query = engine.on_tick(snap, i, i)
            accepted.append(stats.apply(snap.feature_vector()))
            if len(accepted) < window:
                assert query is None
                continue
            want = np.stack(accepted[-window:]).view(np.uint32)
            np.testing.assert_array_equal(query.tensor.view(np.uint32), want)
            issued.append((query, want))
        assert engine.rejected_corrupt == 1
        assert len(issued) == 2 * window + 2
        for query, want in issued:  # no query holds a view of the window
            np.testing.assert_array_equal(query.tensor.view(np.uint32), want)

    def test_invalid_params_rejected(self):
        with pytest.raises(SchedulingError):
            OffloadEngine(window=0)
        with pytest.raises(SchedulingError):
            OffloadEngine(max_pending=0)
        with pytest.raises(SchedulingError):
            OffloadEngine(window=1).pop_batch(0)


def pending_store(deadlines):
    """A back-test queue over rows arriving at 0, 1, 2, ... with ``deadlines``."""
    dl = np.asarray(deadlines, dtype=np.int64)
    store = PendingIndexStore(np.arange(len(dl), dtype=np.int64), dl, 0)
    for index in range(len(dl)):
        assert store.admit_index(index, index) is None
    return store


class TestPendingIndexStore:
    def test_drop_stale(self):
        store = pending_store([10, 500])
        assert store.drop_stale(now=100) == [0]
        assert store.dropped_stale == 1
        assert store.pending_count() == 1

    def test_drop_oldest(self):
        store = pending_store([100, 101])
        assert store.drop_oldest() == 0
        assert store.dropped_unschedulable == 1
        assert store.pending_count() == 1

    def test_pending_deadlines_less(self):
        store = pending_store([100, 101, 102, 103])
        assert store.pending_deadlines_less(2, 0) == [100, 101]
        assert store.pending_deadlines_less(10, 0) == [100, 101, 102, 103]
        assert store.pending_deadlines_less(2, 30) == [70, 71]


class TestTradingEngine:
    def probs(self, prediction, confidence=0.8):
        p = np.full(3, (1 - confidence) / 2)
        p[prediction] = confidence
        return p

    def test_up_prediction_buys(self):
        engine = TradingEngine()
        decision = engine.on_inference(self.probs(Prediction.UP), snapshot(), 1000)
        assert decision.acted
        assert decision.side is Side.BID
        assert engine.position == 1
        order = ILink3Order.decode(decision.encoded)
        assert order.side is Side.BID

    def test_down_prediction_sells(self):
        engine = TradingEngine()
        decision = engine.on_inference(self.probs(Prediction.DOWN), snapshot(), 1000)
        assert decision.side is Side.ASK
        assert engine.position == -1

    def test_stationary_no_action(self):
        engine = TradingEngine()
        decision = engine.on_inference(self.probs(Prediction.STATIONARY), snapshot(), 0)
        assert not decision.acted
        assert engine.counters.stationary == 1

    def test_low_confidence_suppressed(self):
        engine = TradingEngine(limits=RiskLimits(min_confidence=0.9))
        decision = engine.on_inference(self.probs(Prediction.UP, 0.5), snapshot(), 0)
        assert not decision.acted
        assert engine.counters.low_confidence == 1

    def test_position_limit(self):
        engine = TradingEngine(limits=RiskLimits(max_position=2))
        for i in range(5):
            engine.on_inference(self.probs(Prediction.UP), snapshot(), i)
        assert engine.position == 2
        assert engine.counters.position_limit == 3

    def test_rate_limit(self):
        engine = TradingEngine(limits=RiskLimits(max_orders_per_second=3))
        for i in range(5):
            engine.on_inference(self.probs(Prediction.UP), snapshot(ts=i), i)
        assert engine.counters.accepted == 3
        assert engine.counters.rate_limit == 2

    def test_one_sided_market_no_order(self):
        engine = TradingEngine()
        one_sided = DepthSnapshot(
            symbol="ESU6", timestamp=0, depth=10, bids=((18_000, 5),), asks=()
        )
        decision = engine.on_inference(self.probs(Prediction.UP), one_sided, 0)
        assert not decision.acted
        assert engine.counters.no_market == 1

    def test_bad_probability_shape_rejected(self):
        with pytest.raises(SchedulingError):
            TradingEngine().on_inference(np.zeros(5), snapshot(), 0)

    def test_price_clamped_to_band(self):
        engine = TradingEngine(limits=RiskLimits(max_ticks_from_mid=2))
        wild = DepthSnapshot(
            symbol="ESU6",
            timestamp=0,
            depth=10,
            bids=((17_000, 5),),
            asks=((19_000, 5),),  # mid 18_000, touch far away
        )
        decision = engine.on_inference(self.probs(Prediction.UP), wild, 0)
        assert decision.acted
        assert abs(decision.price - 18_000) <= 2


class TestDMAModel:
    def test_round_trip_positive_and_monotone(self):
        dma = DMAModel()
        times = [dma.round_trip_ns(bs) for bs in (1, 2, 8, 16)]
        assert all(t > 0 for t in times)
        assert times == sorted(times)

    def test_invalid_batch_rejected(self):
        with pytest.raises(SchedulingError):
            DMAModel().round_trip_ns(0)

    def test_setup_dominates_tiny_batches(self):
        dma = DMAModel()
        # Per-sample marginal cost is far below the fixed setup.
        marginal = dma.input_transfer_ns(2) - dma.input_transfer_ns(1)
        assert marginal < dma.input_transfer_ns(1)


class TestStages:
    def test_total_about_one_microsecond(self):
        assert 500 <= DEFAULT_STAGES.total_ns <= 2_000

    def test_pre_post_partition(self):
        assert (
            DEFAULT_STAGES.pre_inference_ns + DEFAULT_STAGES.post_inference_ns
            == DEFAULT_STAGES.total_ns
        )


class TestFeedHandlerIntegration:
    def test_frames_update_mirror(self):
        directory = SecurityDirectory()
        directory.register("ESU6")
        handler = FeedHandler(PacketParser(directory, {"ESU6"}))
        events = [
            BookUpdate("ESU6", 10, UpdateAction.NEW, Side.BID, 18_000, 7, 1),
            BookUpdate("ESU6", 10, UpdateAction.NEW, Side.ASK, 18_002, 4, 2),
        ]
        frame = encode_udp_frame(encode_market_events(events, directory, 10))
        snapshots = handler.on_frame(frame)
        assert len(snapshots) == 1
        snap = snapshots[0]
        assert snap.best_bid == 18_000
        assert snap.best_ask == 18_002
        assert snap.bids[0][1] == 7

    def test_change_and_delete(self):
        directory = SecurityDirectory()
        directory.register("ESU6")
        handler = FeedHandler(PacketParser(directory))
        mirror = handler.mirror("ESU6")
        mirror.apply(BookUpdate("ESU6", 1, UpdateAction.NEW, Side.BID, 18_000, 5, 1))
        mirror.apply(BookUpdate("ESU6", 2, UpdateAction.CHANGE, Side.BID, 18_000, 9, 2))
        assert dict(mirror.snapshot(2).bids)[18_000] == 9
        mirror.apply(BookUpdate("ESU6", 3, UpdateAction.DELETE, Side.BID, 18_000, 0, 3))
        assert mirror.snapshot(3).bids == ()

    def test_trade_updates_last_trade(self):
        mirror = LocalBookMirror("ESU6")
        mirror.apply(TradeTick("ESU6", 5, 18_001, 3, Side.BID, 1))
        snap = mirror.snapshot(6)
        assert snap.last_trade_price == 18_001
        assert snap.last_trade_quantity == 3

    def test_end_to_end_market_to_features(self):
        """Exchange events -> SBE -> UDP -> parser -> mirror -> tensor."""
        from repro.lob import ArrayMatchingEngine, Order

        directory = SecurityDirectory()
        directory.register("ESU6")
        handler = FeedHandler(PacketParser(directory))
        exchange = ArrayMatchingEngine()
        offload = OffloadEngine(window=2, store_tensors=True)

        query = None
        for i, (side, price) in enumerate(
            [(Side.BID, 18_000), (Side.ASK, 18_002), (Side.BID, 17_999), (Side.ASK, 18_003)]
        ):
            result = exchange.submit("ESU6", Order(side=side, price=price, quantity=5), i)
            frame = encode_udp_frame(encode_market_events(result.events, directory, i))
            for snap in handler.on_frame(frame):
                query = offload.on_tick(snap, i, i + 1000) or query
        assert query is not None
        assert query.tensor.shape == (2, 40)


class TestSequencedFeed:
    """Feed loss/reorder/duplication: gap detection and snapshot resync."""

    @staticmethod
    def _handler():
        directory = SecurityDirectory()
        directory.register("ESU6")
        return FeedHandler(PacketParser(directory)), directory

    @staticmethod
    def _frame(directory, sequence, events, ts):
        from repro.protocol.framing import encode_sequenced_payload

        return encode_udp_frame(
            encode_sequenced_payload(
                sequence, encode_market_events(events, directory, ts)
            )
        )

    def _update(self, i, price=18_000, side=Side.BID, volume=5):
        return BookUpdate("ESU6", i, UpdateAction.NEW, side, price, volume, i)

    def test_in_order_stream_emits_snapshots(self):
        handler, directory = self._handler()
        for sequence in range(3):
            frame = self._frame(
                directory,
                sequence,
                [self._update(sequence, price=18_000 - sequence)],
                sequence,
            )
            assert handler.on_sequenced_frame(frame)
        assert handler.sequence.gaps == 0
        assert handler.sequence.lost_packets == 0

    def test_duplicate_suppressed(self):
        handler, directory = self._handler()
        frame = self._frame(directory, 0, [self._update(0)], 0)
        assert handler.on_sequenced_frame(frame)
        # The same datagram again: dropped before touching the mirror.
        assert handler.on_sequenced_frame(frame) == []
        assert handler.sequence.duplicates == 1
        assert handler.suppressed_duplicates == 1
        assert dict(handler.mirror("ESU6").snapshot(0).bids)[18_000] == 5

    def test_gap_marks_mirror_stale_and_withholds_snapshots(self):
        handler, directory = self._handler()
        handler.on_sequenced_frame(self._frame(directory, 0, [self._update(0)], 0))
        # Sequence 1 is lost; 2 arrives.
        snapshots = handler.on_sequenced_frame(
            self._frame(directory, 2, [self._update(2, price=17_999)], 2)
        )
        assert snapshots == []  # stale mirror: no model input from it
        assert handler.sequence.gaps == 1
        assert handler.sequence.lost_packets == 1
        mirror = handler.mirror("ESU6")
        assert mirror.stale
        # Updates still applied (freshest data beats none).
        assert dict(mirror.snapshot(2).bids)[17_999] == 5

    def test_resync_from_snapshot_channel(self):
        handler, directory = self._handler()
        handler.on_sequenced_frame(self._frame(directory, 0, [self._update(0)], 0))
        handler.on_sequenced_frame(
            self._frame(directory, 5, [self._update(5, price=17_998)], 5)
        )
        assert handler.mirror("ESU6").stale
        authoritative = DepthSnapshot(
            symbol="ESU6",
            timestamp=6,
            depth=10,
            bids=((18_000, 9), (17_999, 2)),
            asks=((18_002, 4),),
            last_trade_price=18_001,
            last_trade_quantity=3,
        )
        handler.on_snapshot("ESU6", authoritative)
        mirror = handler.mirror("ESU6")
        assert not mirror.stale
        resynced = mirror.snapshot(6)
        assert dict(resynced.bids)[18_000] == 9
        assert dict(resynced.asks)[18_002] == 4
        assert mirror.last_trade_price == 18_001
        # Post-resync frames emit snapshots again.
        emitted = handler.on_sequenced_frame(
            self._frame(directory, 6, [self._update(6, price=17_997)], 6)
        )
        assert len(emitted) == 1
        assert emitted[0].best_bid == 18_000

    @staticmethod
    def _counts(handler):
        stats = handler.parser.stats
        return stats.frames_seen, stats.frames_malformed

    def test_bad_udp_frame_is_counted_and_dropped(self):
        handler, directory = self._handler()
        frame = bytearray(self._frame(directory, 0, [self._update(0)], 0))
        frame[24] ^= 0xFF  # IPv4 header checksum
        assert handler.on_sequenced_frame(bytes(frame)) == []
        assert self._counts(handler) == (1, 1)
        # No sequence number was consumed: the next frame starts clean.
        assert handler.on_sequenced_frame(
            self._frame(directory, 0, [self._update(0)], 0)
        )
        assert self._counts(handler) == (2, 1)
        assert handler.sequence.gaps == 0

    def test_short_sequence_header_is_counted_and_dropped(self):
        handler, directory = self._handler()
        assert handler.on_sequenced_frame(encode_udp_frame(b"\x00\x01")) == []
        assert self._counts(handler) == (1, 1)
        assert handler.on_sequenced_frame(
            self._frame(directory, 0, [self._update(0)], 0)
        )
        assert handler.sequence.gaps == 0

    def test_cut_market_data_body_invalidates_mirrors(self):
        from repro.protocol.framing import encode_sequenced_payload

        handler, directory = self._handler()
        assert handler.on_sequenced_frame(
            self._frame(directory, 0, [self._update(0)], 0)
        )
        body = encode_market_events([self._update(1, price=17_999)], directory, 1)
        cut = encode_udp_frame(encode_sequenced_payload(1, body[:-3]))
        assert handler.on_sequenced_frame(cut) == []
        assert self._counts(handler) == (2, 1)
        assert handler.mirror("ESU6").stale
        # Sequence 2 is contiguous, but the update sequence 1 carried is
        # lost: no snapshot until the snapshot channel resyncs the book.
        assert (
            handler.on_sequenced_frame(
                self._frame(directory, 2, [self._update(2, price=17_998)], 2)
            )
            == []
        )
        assert handler.sequence.gaps == 0

    def test_resynced_mirror_keeps_applying_incrementals(self):
        mirror = LocalBookMirror("ESU6")
        mirror.invalidate()
        snap = DepthSnapshot(
            symbol="ESU6",
            timestamp=1,
            depth=10,
            bids=((18_000, 5),),
            asks=((18_002, 4),),
        )
        mirror.resync(snap)
        mirror.apply(
            BookUpdate("ESU6", 2, UpdateAction.CHANGE, Side.BID, 18_000, 8, 2)
        )
        assert dict(mirror.snapshot(2).bids)[18_000] == 8

    @staticmethod
    def _healthy_mirror(stale):
        mirror = LocalBookMirror("ESU6")
        mirror.resync(
            DepthSnapshot("ESU6", 1, 10, bids=((99, 3), (98, 1)), asks=((101, 2),))
        )
        if stale:
            mirror.invalidate()
        return mirror

    @pytest.mark.parametrize("stale", [False, True])
    @pytest.mark.parametrize(
        "bids, asks, error",
        [
            (((100, 5), (100, 7)), ((102, 1),), ProtocolError),  # price repeated
            (((100, 5),), ((102, 1), (103, 0), (102, 2)), ProtocolError),
            (((98, 4), (0, 3)), ((102, 1),), OrderBookError),  # non-positive price
            (((98, 4),), ((102, 1), (-1, 2)), OrderBookError),
        ],
    )
    def test_rejected_resync_leaves_mirror_untouched(self, bids, asks, error, stale):
        mirror = self._healthy_mirror(stale)
        before = mirror.snapshot(5)
        bad = DepthSnapshot("ESU6", 2, 10, bids, asks, last_trade_price=100)
        with pytest.raises(error):
            mirror.resync(bad)
        assert mirror.snapshot(5) == before
        assert mirror.stale is stale
        # Incrementals still apply to the kept ladders.
        mirror.apply(BookUpdate("ESU6", 3, UpdateAction.DELETE, Side.BID, 99, 0, 3))
        assert mirror.snapshot(5).bids == ((98, 1),)

    def test_resync_skips_empty_levels_at_any_price(self):
        mirror = self._healthy_mirror(stale=True)
        mirror.resync(
            DepthSnapshot("ESU6", 2, 10, bids=((100, 5), (0, 0), (99, -1)), asks=())
        )
        assert not mirror.stale
        assert mirror.snapshot(3).bids == ((100, 5),)
        assert mirror.snapshot(3).asks == ()


class TestSequenceTracker:
    def test_verdict_sequence(self):
        from repro.pipeline.feed_handler import (
            SEQ_DUPLICATE,
            SEQ_FIRST,
            SEQ_GAP,
            SEQ_OK,
            SequenceTracker,
        )

        tracker = SequenceTracker()
        assert tracker.observe(10) == SEQ_FIRST
        assert tracker.observe(11) == SEQ_OK
        assert tracker.observe(11) == SEQ_DUPLICATE
        assert tracker.observe(14) == SEQ_GAP
        assert tracker.lost_packets == 2  # 12 and 13
        assert tracker.observe(15) == SEQ_OK


class TestCorruptVectorRejection:
    def test_non_finite_vector_refused_at_ingest(self):
        engine = OffloadEngine(window=2, store_tensors=True)
        bad = DepthSnapshot(
            symbol="ESU6",
            timestamp=0,
            depth=10,
            bids=((float("nan"), 5),),  # corrupt price off the wire
            asks=((18_002, 4),),
        )
        assert engine.on_tick(bad, 0, 1_000) is None
        assert engine.rejected_corrupt == 1
        # The rejected tick took no window slot: the next ``window``
        # finite ticks warm up afresh and yield one clean query.
        first, second = (engine.on_tick(snapshot(ts=i), i, 1_000 + i) for i in (1, 2))
        assert first is None
        assert np.isfinite(second.tensor).all()

    def test_finite_vectors_unaffected(self):
        engine = OffloadEngine(window=2, store_tensors=True)
        assert engine.on_tick(snapshot(ts=0), 0, 1_000) is None  # warm-up
        query = engine.on_tick(snapshot(ts=1), 1, 1_001)
        assert query is not None
        assert engine.rejected_corrupt == 0
        assert np.isfinite(query.tensor).all()
