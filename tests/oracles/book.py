"""Reference price–time-priority limit order book (test oracle).

A :class:`LimitOrderBook` keeps two :class:`BookSide` structures.  Each side
maps integer tick prices to :class:`PriceLevel` FIFO queues and maintains a
sorted price index (via :mod:`bisect`) so best-price lookups and top-N
snapshots are cheap for the shallow books HFT cares about.  This is the
object-per-order model :class:`repro.lob.array_book.ArrayBook` replaced;
:func:`capture` is the snapshot constructor the reference market
generator takes over either book.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from collections.abc import Iterator

from repro.errors import OrderBookError
from repro.lob.array_book import ArrayBook
from repro.lob.order import Order, Side
from repro.lob.snapshot import CANONICAL_DEPTH, DepthSnapshot


class PriceLevel:
    """FIFO queue of resting orders at one price.

    Orders at the same price fill in entry order (time priority).  The
    aggregate ``volume`` is maintained incrementally so snapshotting does
    not walk the queue.
    """

    __slots__ = ("price", "_orders", "volume")

    def __init__(self, price: int) -> None:
        self.price = price
        self._orders: "OrderedDict[int, Order]" = OrderedDict()
        self.volume = 0

    def __len__(self) -> int:
        return len(self._orders)

    def __iter__(self) -> Iterator[Order]:
        return iter(self._orders.values())

    @property
    def is_empty(self) -> bool:
        """True when no order rests at this price."""
        return not self._orders

    def append(self, order: Order) -> None:
        """Queue ``order`` at the back (lowest time priority)."""
        if order.order_id in self._orders:
            raise OrderBookError(f"duplicate order id {order.order_id} at level {self.price}")
        self._orders[order.order_id] = order
        self.volume += order.remaining

    def peek(self) -> Order:
        """Return (without removing) the order with highest time priority."""
        if not self._orders:
            raise OrderBookError(f"peek on empty level {self.price}")
        return next(iter(self._orders.values()))

    def reduce(self, order: Order, quantity: int) -> None:
        """Reduce ``order``'s remaining quantity by ``quantity`` (a fill
        or a partial cancel), popping it from the queue when exhausted."""
        if quantity <= 0 or quantity > order.remaining:
            raise OrderBookError(
                f"cannot reduce order {order.order_id} by {quantity} (remaining {order.remaining})"
            )
        order.remaining -= quantity
        self.volume -= quantity
        if order.remaining == 0:
            del self._orders[order.order_id]

    def remove(self, order: Order) -> None:
        """Remove ``order`` entirely (cancel), crediting back its volume."""
        if order.order_id not in self._orders:
            raise OrderBookError(f"order {order.order_id} not at level {self.price}")
        self.volume -= order.remaining
        del self._orders[order.order_id]


class BookSide:
    """One side (bid or ask) of a limit order book."""

    def __init__(self, side: Side) -> None:
        self.side = side
        self._levels: dict[int, PriceLevel] = {}
        # Ascending sorted tick prices with a level present.
        self._prices: list[int] = []

    def __len__(self) -> int:
        return len(self._levels)

    @property
    def is_empty(self) -> bool:
        """True when the whole side is empty."""
        return not self._prices

    def best_price(self) -> int | None:
        """Highest bid / lowest ask, or None when empty."""
        if not self._prices:
            return None
        return self._prices[-1] if self.side is Side.BID else self._prices[0]

    def best_level(self) -> PriceLevel | None:
        """The level at the best price, or None when empty."""
        price = self.best_price()
        return None if price is None else self._levels[price]

    def level_at(self, price: int) -> PriceLevel | None:
        """The level resting at ``price`` or None."""
        return self._levels.get(price)

    def get_or_create(self, price: int) -> PriceLevel:
        """Return the level at ``price``, creating it if absent."""
        level = self._levels.get(price)
        if level is None:
            level = PriceLevel(price)
            self._levels[price] = level
            insort(self._prices, price)
        return level

    def drop_if_empty(self, level: PriceLevel) -> None:
        """Remove ``level`` from the side once it holds no orders."""
        if not level.is_empty:
            return
        del self._levels[level.price]
        idx = bisect_left(self._prices, level.price)
        # The price must be present; assert cheapness over silent corruption.
        if idx >= len(self._prices) or self._prices[idx] != level.price:
            raise OrderBookError(f"price index corrupt: {level.price} missing")
        self._prices.pop(idx)

    def iter_best_first(self) -> Iterator[PriceLevel]:
        """Iterate levels from best to worst price."""
        prices = reversed(self._prices) if self.side is Side.BID else iter(self._prices)
        for price in prices:
            yield self._levels[price]

    def top(self, depth: int) -> list[tuple[int, int]]:
        """Return up to ``depth`` (price, volume) pairs, best first."""
        out: list[tuple[int, int]] = []
        for level in self.iter_best_first():
            if len(out) >= depth:
                break
            out.append((level.price, level.volume))
        return out

    def total_volume(self) -> int:
        """Total resting volume across all levels (O(levels))."""
        return sum(level.volume for level in self._levels.values())

    def crosses(self, price: int) -> bool:
        """True if an incoming opposite-side limit at ``price`` would trade
        against this side's best level."""
        best = self.best_price()
        if best is None:
            return False
        if self.side is Side.BID:
            return price <= best  # incoming ask at or below best bid
        return price >= best  # incoming bid at or above best ask


class LimitOrderBook:
    """A full two-sided book for one security symbol.

    The book is a passive container: it stores and organises resting
    orders.  All trading semantics (matching, cancels, replaces) live in
    :class:`tests.oracles.matching.MatchingEngine`.
    """

    def __init__(self, symbol: str) -> None:
        self.symbol = symbol
        self.bids = BookSide(Side.BID)
        self.asks = BookSide(Side.ASK)
        # order_id -> (order, level) for O(1) cancel/replace lookup.
        self._index: dict[int, tuple[Order, PriceLevel]] = {}

    def side(self, side: Side) -> BookSide:
        """The :class:`BookSide` for ``side``."""
        return self.bids if side is Side.BID else self.asks

    def __contains__(self, order_id: int) -> bool:
        return order_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def find(self, order_id: int) -> Order:
        """Return the resting order with ``order_id``.

        Raises:
            OrderBookError: if no such order rests in the book.
        """
        try:
            return self._index[order_id][0]
        except KeyError:
            raise OrderBookError(f"order {order_id} not in book {self.symbol}") from None

    def insert(self, order: Order) -> None:
        """Rest ``order`` at the back of its price level."""
        if order.order_id in self._index:
            raise OrderBookError(f"order {order.order_id} already in book {self.symbol}")
        if order.remaining <= 0:
            raise OrderBookError(f"cannot rest exhausted order {order.order_id}")
        level = self.side(order.side).get_or_create(order.price)
        level.append(order)
        self._index[order.order_id] = (order, level)

    def remove(self, order_id: int) -> Order:
        """Remove a resting order (cancel) and return it."""
        order, level = self._index.pop(self._force_find(order_id))
        level.remove(order)
        self.side(order.side).drop_if_empty(level)
        return order

    def reduce(self, order_id: int, quantity: int) -> Order:
        """Reduce a resting order in place, dropping it if exhausted."""
        order, level = self._index[self._force_find(order_id)]
        level.reduce(order, quantity)
        if order.remaining == 0:
            del self._index[order_id]
            self.side(order.side).drop_if_empty(level)
        return order

    def _force_find(self, order_id: int) -> int:
        if order_id not in self._index:
            raise OrderBookError(f"order {order_id} not in book {self.symbol}")
        return order_id

    # -- market state helpers ------------------------------------------------

    @property
    def best_bid(self) -> int | None:
        """Best (highest) bid price in ticks, or None."""
        return self.bids.best_price()

    @property
    def best_ask(self) -> int | None:
        """Best (lowest) ask price in ticks, or None."""
        return self.asks.best_price()

    @property
    def mid_price(self) -> float | None:
        """(best_bid + best_ask) / 2 in ticks, or None if one side empty."""
        bid, ask = self.best_bid, self.best_ask
        if bid is None or ask is None:
            return None
        return (bid + ask) / 2

    @property
    def spread(self) -> int | None:
        """best_ask − best_bid in ticks, or None if one side empty."""
        bid, ask = self.best_bid, self.best_ask
        if bid is None or ask is None:
            return None
        return ask - bid

    def is_crossed(self) -> bool:
        """True if best bid ≥ best ask (must never hold after matching)."""
        bid, ask = self.best_bid, self.best_ask
        return bid is not None and ask is not None and bid >= ask


def capture(
    book: "LimitOrderBook | ArrayBook",
    timestamp: int,
    depth: int = CANONICAL_DEPTH,
    last_trade_price: int | None = None,
    last_trade_quantity: int = 0,
    sequence: int = 0,
) -> DepthSnapshot:
    """Snapshot the top ``depth`` levels of ``book`` at ``timestamp``."""
    return DepthSnapshot(
        symbol=book.symbol,
        timestamp=timestamp,
        depth=depth,
        bids=tuple(book.bids.top(depth)),
        asks=tuple(book.asks.top(depth)),
        last_trade_price=last_trade_price,
        last_trade_quantity=last_trade_quantity,
        sequence=sequence,
    )
