"""Limit order book substrate: orders, books, matching, snapshots, events.

Two interchangeable exchange-side engines live here: the object-per-order
golden reference (:class:`LimitOrderBook` + :class:`MatchingEngine`) and
the struct-of-arrays fast path (:class:`ArrayBook` +
:class:`ArrayMatchingEngine`, with :class:`BatchedBooks` stepping N
independent books in one vectorized pass).  Pick via
``REPRO_LOB_ENGINE`` through :func:`make_matching_engine`.  The trading
side does not hold orders: its book mirror
(:class:`repro.pipeline.LocalBookMirror`) keeps price -> volume ladders
and snapshots them with :meth:`DepthSnapshot.from_ladders`.
"""

from repro.lob.array_book import ArrayBook, ArraySide, LevelView, OrderSlab
from repro.lob.array_matching import (
    ArrayMatchingEngine,
    OpBatch,
    ReplaySession,
    ReplayStats,
)
from repro.lob.batched import BatchedBooks, BookOps, StepResult
from repro.lob.book import BookSide, LimitOrderBook, PriceLevel
from repro.lob.engine import AnyMatchingEngine, make_matching_engine
from repro.lob.events import BookUpdate, MarketEvent, TradeTick, UpdateAction
from repro.lob.matching import MatchingEngine, MatchResult
from repro.lob.order import Fill, Order, OrderType, Side, TimeInForce, next_order_id
from repro.lob.snapshot import CANONICAL_DEPTH, FEATURES_PER_LEVEL, DepthSnapshot

__all__ = [
    "AnyMatchingEngine",
    "ArrayBook",
    "ArrayMatchingEngine",
    "ArraySide",
    "BatchedBooks",
    "BookOps",
    "BookSide",
    "BookUpdate",
    "CANONICAL_DEPTH",
    "DepthSnapshot",
    "FEATURES_PER_LEVEL",
    "Fill",
    "LevelView",
    "LimitOrderBook",
    "MarketEvent",
    "MatchResult",
    "MatchingEngine",
    "OpBatch",
    "Order",
    "OrderSlab",
    "OrderType",
    "PriceLevel",
    "ReplaySession",
    "ReplayStats",
    "Side",
    "StepResult",
    "TimeInForce",
    "TradeTick",
    "UpdateAction",
    "make_matching_engine",
    "next_order_id",
]
