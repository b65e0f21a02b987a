"""Feed handler: wire frames → parsed events → mirrored local book.

The functional front half of the trading pipeline: consumes raw UDP
frames, routes decoded market events through a *local* limit order book
mirror (the few-lowest-levels copy the paper describes) and emits depth
snapshots for the offload engine.  The timing simulator charges this
work via :class:`repro.pipeline.latency.StageLatencies`; this class is
the functional counterpart used by examples and integration tests.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from repro.errors import OrderBookError, ProtocolError
from repro.metrics import MetricRegistry, NULL_METRICS
from repro.lob.events import BookUpdate, MarketEvent, TradeTick, UpdateAction
from repro.lob.order import Side
from repro.lob.snapshot import CANONICAL_DEPTH, DepthSnapshot
from repro.protocol.framing import decode_sequenced_payload, decode_udp_frame
from repro.protocol.parser import PacketParser

# Sequence-tracker verdicts.
SEQ_FIRST = "first"
SEQ_OK = "ok"
SEQ_DUPLICATE = "duplicate"
SEQ_GAP = "gap"


@dataclass
class SequenceTracker:
    """Feed sequence-number bookkeeping: loss, reordering, duplication.

    A market-data feed numbers every datagram consecutively.  The tracker
    classifies each observed number against the expected next one:
    ``ok`` (in order), ``duplicate`` (at or below the last seen — a
    repeated or late copy whose contents were already applied or
    superseded), or ``gap`` (numbers were skipped: packets are lost until
    proven otherwise, and the book mirrors are stale until resynced from
    a snapshot).
    """

    expected: int | None = None
    gaps: int = 0
    lost_packets: int = 0
    duplicates: int = 0

    def observe(self, sequence: int) -> str:
        """Classify one sequence number and advance the tracker."""
        if self.expected is None:
            self.expected = sequence + 1
            return SEQ_FIRST
        if sequence == self.expected:
            self.expected += 1
            return SEQ_OK
        if sequence < self.expected:
            self.duplicates += 1
            return SEQ_DUPLICATE
        self.gaps += 1
        self.lost_packets += sequence - self.expected
        self.expected = sequence + 1
        return SEQ_GAP


@dataclass
class LocalBookMirror:
    """Aggregate price-level mirror of the exchange book for one symbol.

    Each side is a price -> aggregate volume ladder (a dict plus the same
    prices sorted ascending) holding exactly what the feed publishes: no
    orders, only the level totals a depth snapshot needs.  Levels must
    have positive prices and volumes; a zero volume or a DELETE removes
    the level.
    """

    symbol: str
    last_trade_price: int | None = None
    last_trade_quantity: int = 0
    # A sequence gap leaves the mirror potentially missing updates; it
    # stays stale (snapshots withheld) until resynced from an
    # authoritative DepthSnapshot.
    stale: bool = False
    # Indexed by Side: price -> volume, and the prices in ascending order.
    _volumes: tuple[dict[int, int], dict[int, int]] = field(
        init=False, repr=False, default_factory=lambda: ({}, {})
    )
    _prices: tuple[list[int], list[int]] = field(
        init=False, repr=False, default_factory=lambda: ([], [])
    )

    def invalidate(self) -> None:
        """Mark the mirror stale (a feed gap may have lost updates)."""
        self.stale = True

    def resync(self, snapshot: DepthSnapshot) -> None:
        """Rebuild the mirror from an authoritative depth snapshot.

        The snapshot's aggregate levels replace the whole book — exactly
        the recovery a real feed handler performs from the exchange's
        snapshot channel after detecting loss on the incremental channel.
        Levels without volume are skipped.  The whole snapshot is checked
        before the mirror changes: a price listed twice on one side raises
        :class:`ProtocolError`, a non-positive price with volume raises
        :class:`OrderBookError`, and either leaves the mirror as it was.
        """
        volumes: tuple[dict[int, int], dict[int, int]] = ({}, {})
        for side, levels in ((Side.BID, snapshot.bids), (Side.ASK, snapshot.asks)):
            seen = set()
            for price, volume in levels:
                if price in seen:
                    raise ProtocolError(
                        f"resync snapshot lists {side.name} price {price} twice"
                    )
                seen.add(price)
                if volume <= 0:
                    continue
                if price <= 0:
                    raise OrderBookError(
                        f"limit price must be positive ticks, got {price}"
                    )
                volumes[side][price] = volume
        self._volumes = volumes
        self._prices = (sorted(volumes[Side.BID]), sorted(volumes[Side.ASK]))
        if snapshot.last_trade_price is not None:
            self.last_trade_price = snapshot.last_trade_price
            self.last_trade_quantity = snapshot.last_trade_quantity
        self.stale = False

    def apply(self, event: MarketEvent) -> None:
        """Apply one decoded market event to the mirror.

        A book update replaces its level's volume; DELETE or a
        non-positive volume removes the level.  A positive volume at a
        non-positive price raises :class:`OrderBookError`, as resting it
        in a book would; no level can exist at such a price.
        """
        if isinstance(event, TradeTick):
            self.last_trade_price = event.price
            self.last_trade_quantity = event.quantity
            return
        if not isinstance(event, BookUpdate):
            raise ProtocolError(f"unknown event type {type(event).__name__}")
        volumes = self._volumes[event.side]
        prices = self._prices[event.side]
        price = event.price
        if event.action is UpdateAction.DELETE or event.volume <= 0:
            if volumes.pop(price, None) is not None:
                del prices[bisect_left(prices, price)]
            return
        if price not in volumes:
            if price <= 0:
                raise OrderBookError(f"limit price must be positive ticks, got {price}")
            insort(prices, price)
        volumes[price] = event.volume

    def snapshot(self, timestamp: int, depth: int = CANONICAL_DEPTH) -> DepthSnapshot:
        """Depth snapshot of the mirrored book (sequence 0)."""
        bid_volumes, ask_volumes = self._volumes
        bid_prices, ask_prices = self._prices
        return DepthSnapshot.from_ladders(
            self.symbol,
            timestamp,
            depth,
            tuple([(p, bid_volumes[p]) for p in bid_prices[: -depth - 1 : -1]]),
            tuple([(p, ask_volumes[p]) for p in ask_prices[:depth]]),
            self.last_trade_price,
            self.last_trade_quantity,
            0,
        )


class FeedHandler:
    """Parser + per-symbol book mirrors + feed sequence tracking."""

    def __init__(
        self, parser: PacketParser, metrics: MetricRegistry = NULL_METRICS
    ) -> None:
        self.parser = parser
        self.mirrors: dict[str, LocalBookMirror] = {}
        self.sequence = SequenceTracker()
        self.ticks_seen = 0
        self.suppressed_duplicates = 0
        # Pre-bound instruments (NULL_METRICS hands out shared no-ops, so
        # the per-frame paths below stay unconditional either way).
        self.metrics = metrics
        self._m_frames = metrics.counter("feed.frames")
        self._m_ticks = metrics.counter("feed.ticks")
        self._m_gaps = metrics.counter("feed.gaps")
        self._m_lost = metrics.counter("feed.lost_packets")
        self._m_dups = metrics.counter("feed.duplicates_suppressed")
        self._m_resyncs = metrics.counter("feed.resyncs")

    def mirror(self, symbol: str) -> LocalBookMirror:
        """The mirror for ``symbol``, created on first use."""
        mirror = self.mirrors.get(symbol)
        if mirror is None:
            mirror = LocalBookMirror(symbol)
            self.mirrors[symbol] = mirror
        return mirror

    def on_frame(self, frame: bytes) -> list[DepthSnapshot]:
        """Process one wire frame; returns post-update snapshots
        (one per symbol touched by the frame)."""
        self._m_frames.inc()
        packet = self.parser.parse_frame(frame)
        if packet is None:
            return []
        return self._apply_packet(packet)

    def on_sequenced_frame(self, frame: bytes) -> list[DepthSnapshot]:
        """Process one wire frame whose payload carries a sequence number.

        Duplicates (a repeated or reordered-late datagram) are dropped —
        their updates were already applied or superseded.  A gap marks
        every mirror stale: updates keep applying (freshest data still
        beats none for the top levels the feed repeats often), but
        snapshot emission is withheld until :meth:`on_snapshot` resyncs,
        so no model input is built from a book known to be incomplete.

        A malformed frame is counted in the parser's ``frames_seen`` and
        ``frames_malformed`` and dropped, as :meth:`on_frame` does.  If
        only its market-data body is malformed, its sequence number is
        already consumed and its update lost, so every mirror goes stale
        as on a gap.
        """
        self._m_frames.inc()
        stats = self.parser.stats
        stats.frames_seen += 1
        try:
            payload = decode_udp_frame(frame)
            sequence, body = decode_sequenced_payload(payload)
        except ProtocolError:
            stats.frames_malformed += 1
            return []
        before_lost = self.sequence.lost_packets
        verdict = self.sequence.observe(sequence)
        if verdict == SEQ_DUPLICATE:
            self.suppressed_duplicates += 1
            self._m_dups.inc()
            return []
        if verdict == SEQ_GAP:
            self._m_gaps.inc()
            self._m_lost.inc(self.sequence.lost_packets - before_lost)
            self._invalidate_all()
        try:
            packet = self.parser.parse_payload(body)
        except ProtocolError:
            stats.frames_malformed += 1
            self._invalidate_all()
            return []
        if packet is None:
            return []
        return self._apply_packet(packet)

    def _invalidate_all(self) -> None:
        for mirror in self.mirrors.values():
            mirror.invalidate()

    def on_snapshot(self, symbol: str, snapshot: DepthSnapshot) -> None:
        """Resync one symbol's mirror from the snapshot channel."""
        self._m_resyncs.inc()
        self.mirror(symbol).resync(snapshot)

    def _apply_packet(self, packet) -> list[DepthSnapshot]:
        touched: dict[str, int] = {}
        for event in packet.events:
            self.mirror(event.symbol).apply(event)
            touched[event.symbol] = packet.transact_time
        self.ticks_seen += 1
        self._m_ticks.inc()
        return [
            self.mirrors[symbol].snapshot(timestamp)
            for symbol, timestamp in touched.items()
            if not self.mirrors[symbol].stale
        ]
