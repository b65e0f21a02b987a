"""Depth snapshots: the representation HFT models consume.

A :class:`DepthSnapshot` freezes the top ``depth`` levels of each side at a
timestamp.  The :meth:`DepthSnapshot.feature_vector` layout matches the
DeepLOB / TransLOB convention: for each level L in 1..depth the four entries
``(ask_price_L, ask_volume_L, bid_price_L, bid_volume_L)``, giving a
``4 * depth`` vector (40 features at the canonical depth of 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lob.book import LimitOrderBook

CANONICAL_DEPTH = 10
FEATURES_PER_LEVEL = 4


@dataclass(frozen=True)
class DepthSnapshot:
    """Immutable top-of-book depth snapshot.

    ``bids`` and ``asks`` hold up to ``depth`` (price_ticks, volume) pairs,
    best price first.  Sides shallower than ``depth`` are padded during
    feature extraction (price pads extrapolate away from the touch, volume
    pads are zero) so downstream tensors always have a fixed shape.
    """

    symbol: str
    timestamp: int
    depth: int
    bids: tuple[tuple[int, int], ...]
    asks: tuple[tuple[int, int], ...]
    last_trade_price: int | None = None
    last_trade_quantity: int = 0
    sequence: int = field(default=0)

    @classmethod
    def capture(
        cls,
        book: LimitOrderBook,
        timestamp: int,
        depth: int = CANONICAL_DEPTH,
        last_trade_price: int | None = None,
        last_trade_quantity: int = 0,
        sequence: int = 0,
    ) -> "DepthSnapshot":
        """Snapshot the top ``depth`` levels of ``book`` at ``timestamp``."""
        return cls(
            symbol=book.symbol,
            timestamp=timestamp,
            depth=depth,
            bids=tuple(book.bids.top(depth)),
            asks=tuple(book.asks.top(depth)),
            last_trade_price=last_trade_price,
            last_trade_quantity=last_trade_quantity,
            sequence=sequence,
        )

    @classmethod
    def from_ladders(
        cls,
        symbol: str,
        timestamp: int,
        depth: int,
        bids: tuple[tuple[int, int], ...],
        asks: tuple[tuple[int, int], ...],
        last_trade_price: int | None,
        last_trade_quantity: int,
        sequence: int,
    ) -> "DepthSnapshot":
        """Allocation-lean constructor from pre-built (price, volume) ladders.

        Value-identical (``==``, ``hash``, ``checksum``) to the dataclass
        constructor but ~2.5x cheaper: it populates the instance dict
        directly instead of going through the frozen dataclass's
        ``object.__setattr__``-per-field ``__init__``.  The market
        generator's fast path and the feed handler's book mirror build
        one snapshot per tick through this.
        """
        snapshot = cls.__new__(cls)
        d = snapshot.__dict__
        d["symbol"] = symbol
        d["timestamp"] = timestamp
        d["depth"] = depth
        d["bids"] = bids
        d["asks"] = asks
        d["last_trade_price"] = last_trade_price
        d["last_trade_quantity"] = last_trade_quantity
        d["sequence"] = sequence
        return snapshot

    @property
    def best_bid(self) -> int | None:
        """Best bid price in ticks, or None when the bid side is empty."""
        return self.bids[0][0] if self.bids else None

    @property
    def best_ask(self) -> int | None:
        """Best ask price in ticks, or None when the ask side is empty."""
        return self.asks[0][0] if self.asks else None

    @property
    def mid_price(self) -> float | None:
        """Mid price in ticks, or None when either side is empty."""
        if not self.bids or not self.asks:
            return None
        return (self.bids[0][0] + self.asks[0][0]) / 2

    def feature_vector(self) -> np.ndarray:
        """Flatten to the canonical ``4 * depth`` float32 feature vector.

        Layout per level: ask price, ask volume, bid price, bid volume —
        the ordering used by the DeepLOB input encoding.  Missing levels
        are padded: ask prices extrapolate upward by one tick per missing
        level, bid prices downward, volumes pad with zero.
        """
        asks, bids = self.asks, self.bids
        n_asks, n_bids = len(asks), len(bids)
        pad_ask = asks[-1][0] if asks else (self.best_bid or 0) + 1
        pad_bid = bids[-1][0] if bids else (self.best_ask or 2) - 1
        values: list[int] = []
        for lvl in range(self.depth):
            if lvl < n_asks:
                ask_price, ask_vol = asks[lvl]
            else:
                ask_price, ask_vol = pad_ask + (lvl - n_asks + 1), 0
            if lvl < n_bids:
                bid_price, bid_vol = bids[lvl]
            else:
                bid_price, bid_vol = pad_bid - (lvl - n_bids + 1), 0
            values += (ask_price, ask_vol, bid_price, bid_vol)
        return np.array(values, dtype=np.float32)

    def checksum(self) -> int:
        """Order-sensitive 64-bit FNV-1a digest of the snapshot content.

        Covers every field that defines book state — symbol, timestamp,
        sequence, both depth ladders and the last trade — so two
        snapshots collide only when they are value-identical.  The digest
        is pure integer arithmetic (no hashlib, no repr round-trip), so
        it is stable across platforms and Python versions: the campaign
        book-integrity invariant compares checksums of independently
        generated passes and engines.
        """
        h = 0xCBF29CE484222325
        prime = 0x100000001B3
        mask = 0xFFFFFFFFFFFFFFFF

        def mix(value: int) -> None:
            nonlocal h
            # Fold each value as 8 little-endian bytes (two's complement
            # for the occasional negative price pad).
            v = value & mask
            for _ in range(8):
                h = ((h ^ (v & 0xFF)) * prime) & mask
                v >>= 8

        for ch in self.symbol.encode():
            h = ((h ^ ch) * prime) & mask
        mix(self.timestamp)
        mix(self.sequence)
        mix(-1 if self.last_trade_price is None else self.last_trade_price)
        mix(self.last_trade_quantity)
        for side in (self.bids, self.asks):
            mix(len(side))
            for price, volume in side:
                mix(price)
                mix(volume)
        return h

    def imbalance(self) -> float:
        """Top-of-book volume imbalance in [-1, 1] (positive = bid heavy)."""
        bid_vol = self.bids[0][1] if self.bids else 0
        ask_vol = self.asks[0][1] if self.asks else 0
        total = bid_vol + ask_vol
        if total == 0:
            return 0.0
        return (bid_vol - ask_vol) / total
