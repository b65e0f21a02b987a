"""Reference matching engine with price–time priority (test oracle).

This is the object-per-order golden model that
:class:`repro.lob.array_matching.ArrayMatchingEngine` must match
operation for operation: it owns one :class:`LimitOrderBook` per symbol,
matches incoming orders against resting liquidity (lower ask / higher
bid levels fill first; FIFO within a level), and publishes the
incremental :class:`~repro.lob.events.BookUpdate` / trade ticks that
drive the simulated market data feed.
"""

from __future__ import annotations

from repro.errors import MatchingError
from repro.hotpath import hot_path
from repro.lob.array_matching import MatchResult
from repro.lob.events import BookUpdate, TradeTick, UpdateAction
from repro.lob.order import Fill, Order, OrderType, Side, TimeInForce
from repro.metrics import NULL_METRICS, MetricRegistry
from tests.oracles.book import LimitOrderBook, PriceLevel


class MatchingEngine:
    """Price–time-priority matching across one or more symbols.

    ``metrics`` threads a :class:`repro.metrics.MetricRegistry` through
    the hot path: orders / fills / cancels / replaces counters plus
    level-count and slab-occupancy high-water gauges.  The array engine
    records the same instruments with the same meanings (occupancy =
    resting orders), so metric snapshots are engine-agnostic.
    """

    def __init__(self, metrics: MetricRegistry | None = None) -> None:
        self._books: dict[str, LimitOrderBook] = {}
        self._sequence = 0
        registry = metrics if metrics is not None else NULL_METRICS
        self._m_orders = registry.counter("lob.orders")
        self._m_fills = registry.counter("lob.fills")
        self._m_cancels = registry.counter("lob.cancels")
        self._m_replaces = registry.counter("lob.replaces")
        self._m_levels = registry.gauge("lob.levels_high_water")
        self._m_occupancy = registry.gauge("lob.slab_occupancy_high_water")

    def book(self, symbol: str) -> LimitOrderBook:
        """The book for ``symbol``, created empty on first use."""
        book = self._books.get(symbol)
        if book is None:
            book = LimitOrderBook(symbol)
            self._books[symbol] = book
        return book

    @property
    def symbols(self) -> list[str]:
        """Symbols with a (possibly empty) book."""
        return list(self._books)

    def _next_seq(self) -> int:
        self._sequence += 1
        return self._sequence

    @hot_path
    def _record_book(self, book: LimitOrderBook) -> None:
        """Update the book-shape high-water gauges (allocation-free)."""
        self._m_levels.set(len(book.bids) + len(book.asks))
        self._m_occupancy.set(len(book))

    # -- public operations ----------------------------------------------------

    def submit(self, symbol: str, order: Order, timestamp: int) -> MatchResult:
        """Process an incoming order against ``symbol``'s book.

        Limit orders match while they cross, then rest (DAY), cancel the
        remainder (IOC) or are rejected unless fully fillable (FOK).
        Market orders match until filled or the opposite side empties.
        FOK is enforced for both LIMIT and MARKET orders (a MARKET+FOK
        order historically degraded to IOC semantics).
        """
        book = self.book(symbol)
        order.entry_time = timestamp
        result = MatchResult(order=order)
        self._m_orders.inc()

        if order.tif is TimeInForce.FOK:
            if self._fillable_quantity(book, order) < order.remaining:
                result.accepted = False
                return result

        self._match(book, order, timestamp, result)

        if order.remaining > 0 and order.order_type is OrderType.LIMIT:
            if order.tif is TimeInForce.DAY:
                book.insert(order)
                level = book.side(order.side).level_at(order.price)
                assert level is not None
                action = UpdateAction.NEW if len(level) == 1 else UpdateAction.CHANGE
                result.events.append(
                    BookUpdate(
                        symbol=symbol,
                        timestamp=timestamp,
                        action=action,
                        side=order.side,
                        price=order.price,
                        volume=level.volume,
                        sequence=self._next_seq(),
                    )
                )
            # IOC / FOK remainders are simply discarded.
        self._m_fills.inc(len(result.fills))
        self._record_book(book)
        return result

    def cancel(self, symbol: str, order_id: int, timestamp: int) -> MatchResult:
        """Cancel a resting order, publishing the level's new state."""
        book = self.book(symbol)
        order = book.find(order_id)
        book.remove(order_id)
        result = MatchResult(order=order)
        result.events.append(self._level_update(book, order.side, order.price, timestamp))
        self._m_cancels.inc()
        self._record_book(book)
        return result

    def replace(
        self,
        symbol: str,
        order_id: int,
        timestamp: int,
        new_price: int | None = None,
        new_quantity: int | None = None,
    ) -> MatchResult:
        """Cancel-and-replace a resting order.

        The replacement keeps the original order id but loses time
        priority (it re-enters the book as a fresh submission), matching
        exchange semantics for price changes and quantity increases.
        Because the replacement goes back through :meth:`submit`, an FOK
        original re-runs the full-fill check at its new price/quantity.
        """
        book = self.book(symbol)
        old = book.find(order_id)
        if new_price is None and new_quantity is None:
            raise MatchingError(f"replace of order {order_id} changes nothing")
        book.remove(order_id)
        cancel_event = self._level_update(book, old.side, old.price, timestamp)

        replacement = Order(
            side=old.side,
            price=new_price if new_price is not None else old.price,
            quantity=new_quantity if new_quantity is not None else old.remaining,
            order_id=old.order_id,
            order_type=old.order_type,
            tif=old.tif,
            owner=old.owner,
            entry_time=timestamp,
        )
        self._m_replaces.inc()
        result = self.submit(symbol, replacement, timestamp)
        result.events.insert(0, cancel_event)
        return result

    # -- internals -------------------------------------------------------------

    def _fillable_quantity(self, book: LimitOrderBook, order: Order) -> int:
        """Volume available to ``order`` at prices it is willing to cross."""
        available = 0
        for level in book.side(order.side.opposite).iter_best_first():
            if not self._price_crosses(order, level.price):
                break
            available += level.volume
            if available >= order.remaining:
                break
        return available

    @staticmethod
    def _price_crosses(order: Order, resting_price: int) -> bool:
        if order.order_type is OrderType.MARKET:
            return True
        if order.side is Side.BID:
            return order.price >= resting_price
        return order.price <= resting_price

    def _match(
        self, book: LimitOrderBook, order: Order, timestamp: int, result: MatchResult
    ) -> None:
        opposite = book.side(order.side.opposite)
        while order.remaining > 0:
            level = opposite.best_level()
            if level is None or not self._price_crosses(order, level.price):
                break
            self._match_level(book, level, order, timestamp, result)

    def _match_level(
        self,
        book: LimitOrderBook,
        level: PriceLevel,
        order: Order,
        timestamp: int,
        result: MatchResult,
    ) -> None:
        """Fill ``order`` against ``level`` until one side is exhausted."""
        traded = 0
        while order.remaining > 0 and not level.is_empty:
            maker = level.peek()
            quantity = min(order.remaining, maker.remaining)
            book.reduce(maker.order_id, quantity)
            order.remaining -= quantity
            traded += quantity
            result.fills.append(
                Fill(
                    price=level.price,
                    quantity=quantity,
                    maker_id=maker.order_id,
                    taker_id=order.order_id,
                    maker_owner=maker.owner,
                    taker_owner=order.owner,
                    aggressor_side=order.side,
                    timestamp=timestamp,
                )
            )
        result.events.append(
            TradeTick(
                symbol=book.symbol,
                timestamp=timestamp,
                price=level.price,
                quantity=traded,
                aggressor_side=order.side,
                sequence=self._next_seq(),
            )
        )
        result.events.append(
            self._level_update(book, order.side.opposite, level.price, timestamp)
        )

    def _level_update(
        self, book: LimitOrderBook, side: Side, price: int, timestamp: int
    ) -> BookUpdate:
        """Describe the current state of (side, price) as a BookUpdate."""
        level = book.side(side).level_at(price)
        if level is None:
            return BookUpdate(
                symbol=book.symbol,
                timestamp=timestamp,
                action=UpdateAction.DELETE,
                side=side,
                price=price,
                volume=0,
                sequence=self._next_seq(),
            )
        return BookUpdate(
            symbol=book.symbol,
            timestamp=timestamp,
            action=UpdateAction.CHANGE,
            side=side,
            price=price,
            volume=level.volume,
            sequence=self._next_seq(),
        )
