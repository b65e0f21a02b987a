"""Limit order book substrate: orders, books, matching, snapshots, events.

The exchange side is the struct-of-arrays engine (:class:`ArrayBook` +
:class:`ArrayMatchingEngine`, with :class:`BatchedBooks` stepping N
independent books in one vectorized pass).  The object-per-order golden
model it replaced lives in ``tests/oracles/`` and is the parity suites'
reference.  The trading side does not hold orders: its book mirror
(:class:`repro.pipeline.LocalBookMirror`) keeps price -> volume ladders
and snapshots them with :meth:`DepthSnapshot.from_ladders`.
"""

from repro.lob.array_book import ArrayBook, ArraySide, LevelView, OrderSlab
from repro.lob.array_matching import (
    ArrayMatchingEngine,
    MatchResult,
    OpBatch,
    ReplaySession,
    ReplayStats,
)
from repro.lob.batched import BatchedBooks, BookOps, StepResult
from repro.lob.events import BookUpdate, MarketEvent, TradeTick, UpdateAction
from repro.lob.order import Fill, Order, OrderType, Side, TimeInForce, next_order_id
from repro.lob.snapshot import CANONICAL_DEPTH, FEATURES_PER_LEVEL, DepthSnapshot

__all__ = [
    "ArrayBook",
    "ArrayMatchingEngine",
    "ArraySide",
    "BatchedBooks",
    "BookOps",
    "BookUpdate",
    "CANONICAL_DEPTH",
    "DepthSnapshot",
    "FEATURES_PER_LEVEL",
    "Fill",
    "LevelView",
    "MarketEvent",
    "MatchResult",
    "OpBatch",
    "Order",
    "OrderSlab",
    "OrderType",
    "ReplaySession",
    "ReplayStats",
    "Side",
    "StepResult",
    "TimeInForce",
    "TradeTick",
    "UpdateAction",
    "next_order_id",
]
