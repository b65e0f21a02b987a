"""Array-native matching engine: price–time priority over the SoA book.

:class:`ArrayMatchingEngine` is the exchange-side component: it matches
incoming orders against resting liquidity (lower ask / higher bid
levels fill first; FIFO within a level) and publishes the incremental
:class:`~repro.lob.events.BookUpdate` / trade ticks that drive the
simulated market data feed, keeping all book state in the
struct-of-arrays :class:`~repro.lob.array_book.ArrayBook` instead of
per-order Python objects.  ``tests/oracles/matching.py`` keeps the
object-per-order golden model it replaced; the differential suite
(``tests/test_lob_array_parity.py``) holds the two to the same fills,
the same :class:`~repro.lob.events.MarketEvent` stream and the same
sequence numbers.

One matching routine, two surfaces:

- :class:`MatchingKernel` matches plain-int orders in place on one
  symbol's book columns — no ``Order``/``Fill``/``MatchResult``/event
  objects.  The market generator's agents call it directly.
- The per-operation API (``submit``/``cancel``/``replace`` returning
  :class:`MatchResult`), used by the gateway, book seeding and the
  tests, wraps the kernel and builds fills and events from the maker
  fills it reports.

Every op checks before it writes: an unknown order or a replace that
changes nothing raises, and an FOK shortfall rejects a submission,
before the book changes.  (A replace whose resubmission is FOK-rejected
still cancels the original.)

FOK is enforced for MARKET orders too (historically only LIMIT+FOK was
checked, so a MARKET+FOK order silently degraded to IOC), and
``replace`` re-runs the FOK check on the replacement because it
resubmits through ``submit``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import NoReturn

from repro.errors import MatchingError, OrderBookError
from repro.lob.array_book import ArrayBook
from repro.lob.events import BookUpdate, MarketEvent, TradeTick, UpdateAction
from repro.lob.order import Fill, Order, OrderType, Side, TimeInForce
from repro.metrics import NULL_METRICS, MetricRegistry

__all__ = [
    "ArrayMatchingEngine",
    "MatchResult",
    "MatchingKernel",
]

_NIL = -1

# Plain-int op encodings (== the enum values; pinned by tests).
_LIMIT = int(OrderType.LIMIT)
_MARKET = int(OrderType.MARKET)
_DAY = int(TimeInForce.DAY)
_FOK = int(TimeInForce.FOK)


def _raise_missing(oid: int, symbol: str) -> NoReturn:
    """Raise the unknown-order error (kept out of hot code)."""
    raise OrderBookError(f"order {oid} not in book {symbol}")


def _raise_no_change(oid: int) -> NoReturn:
    """Raise the no-op replace error (kept out of hot code)."""
    raise MatchingError(f"replace of order {oid} changes nothing")


class _Sequence:
    """The engine-wide market-data sequence number its kernels advance."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class MatchingKernel:
    """Price–time-priority matching in place on one symbol's array book.

    The integer ops (:meth:`submit` / :meth:`cancel` / :meth:`replace`)
    read and write the book's slab columns, id map and level lists
    directly, advance the engine-wide sequence (one per trade print, one
    per book update) and move the engine's ``lob.*`` metrics per op.
    Per-op results surface allocation-free through ``op_filled`` /
    ``op_rested`` (last submit) and the sticky ``trade_price`` /
    ``trade_qty`` pair (last matched level), with running totals in
    ``traded_quantity``, ``notional``, ``n_fills`` and ``rejected``.

    :meth:`replace` keeps the resting row's owner (like the per-op API)
    rather than taking a new one.
    """

    __slots__ = (
        "book",
        "_seq",
        "_metered",
        "_m_orders",
        "_m_fills",
        "_m_cancels",
        "_m_replaces",
        "_m_levels",
        "_m_occupancy",
        "_fills",
        "n_fills",
        "traded_quantity",
        "notional",
        "rejected",
        "op_filled",
        "op_rested",
        "trade_price",
        "trade_qty",
    )

    def __init__(self, engine: ArrayMatchingEngine, book: ArrayBook) -> None:
        self.book = book
        # What the kernel needs of its engine, held directly: the engine
        # holds its kernels, so a reference back would leave every
        # discarded engine for the cycle collector to free.
        self._seq = engine._seq
        self._metered = engine._metered
        self._m_orders = engine._m_orders
        self._m_fills = engine._m_fills
        self._m_cancels = engine._m_cancels
        self._m_replaces = engine._m_replaces
        self._m_levels = engine._m_levels
        self._m_occupancy = engine._m_occupancy
        # The per-op API sets a list here for one call to receive each
        # maker fill as (price, quantity, maker id, owner id).
        self._fills: list[tuple[int, int, int, int]] | None = None
        self.n_fills = 0
        self.traded_quantity = 0
        self.notional = 0
        self.rejected = 0
        self.op_filled = 0
        self.op_rested = False
        self.trade_price = 0
        self.trade_qty = 0

    def submit(
        self,
        side: int,
        otype: int,
        tif: int,
        price: int,
        qty: int,
        oid: int,
        timestamp: int,
        owner_id: int,
    ) -> None:
        """Match-then-rest one order: FOK full-fill check, match while
        crossing (sequence +2 per matched level: trade print + level
        update), rest a DAY LIMIT remainder (+1)."""
        book = self.book
        if self._metered:
            self._m_orders.inc()
        self.op_filled = 0
        self.op_rested = False
        opposite = book.asks if side == 0 else book.bids
        opp_price = opposite.prices
        opp_vol = opposite.volume
        if tif == _FOK:
            # Fillable-volume walk, best level first, early exit; a
            # shortfall rejects before anything is written.
            available = 0
            if side == 0:
                for k in range(len(opp_price)):
                    if otype != _MARKET and opp_price[k] > price:
                        break
                    available += opp_vol[k]
                    if available >= qty:
                        break
            else:
                for k in range(len(opp_price) - 1, -1, -1):
                    if otype != _MARKET and opp_price[k] < price:
                        break
                    available += opp_vol[k]
                    if available >= qty:
                        break
            if available < qty:
                self.rejected += 1
                return

        slab = book.slab
        s_qty = slab.qty
        s_nxt = slab.nxt
        s_oid = slab.order_id
        s_owner = slab.owner
        free = slab._free
        id_slot = book._id_slot
        opp_head = opposite.head
        fills = self._fills
        remaining = qty
        sequence = self._seq.value
        n_fills = 0
        # Match while the order crosses the opposite best level.
        while remaining > 0 and opp_price:
            best = 0 if side == 0 else len(opp_price) - 1
            best_price = opp_price[best]
            if otype != _MARKET:
                if side == 0:
                    if price < best_price:
                        break
                elif price > best_price:
                    break
            level_volume = opp_vol[best]
            take = remaining if remaining < level_volume else level_volume
            self.traded_quantity += take
            self.notional += take * best_price
            remaining -= take
            sequence += 2  # trade print + level update
            self.trade_price = best_price
            self.trade_qty = take
            if take == level_volume:
                # Whole level consumed: free every maker slot.
                slot = opp_head[best]
                while slot != _NIL:
                    if fills is not None:
                        fills.append(
                            (best_price, s_qty[slot], s_oid[slot], s_owner[slot])
                        )
                    del id_slot[s_oid[slot]]
                    free.append(slot)
                    slab.in_use -= 1
                    n_fills += 1
                    slot = s_nxt[slot]
                del opp_price[best]
                del opp_vol[best]
                del opp_head[best]
                del opposite.tail[best]
                del opposite.count[best]
            else:
                # Partial level: pop exhausted makers off the FIFO
                # head, reduce the last one in place.
                opp_vol[best] = level_volume - take
                left = take
                while left > 0:
                    slot = opp_head[best]
                    maker_remaining = s_qty[slot]
                    n_fills += 1
                    if fills is not None:
                        fill = maker_remaining if maker_remaining <= left else left
                        fills.append((best_price, fill, s_oid[slot], s_owner[slot]))
                    if maker_remaining <= left:
                        left -= maker_remaining
                        nxt = s_nxt[slot]
                        opp_head[best] = nxt
                        slab.prv[nxt] = _NIL  # the level outlives this maker
                        opposite.count[best] -= 1
                        del id_slot[s_oid[slot]]
                        free.append(slot)
                        slab.in_use -= 1
                    else:
                        s_qty[slot] = maker_remaining - left
                        left = 0

        self.op_filled = qty - remaining
        if remaining > 0 and otype == _LIMIT and tif == _DAY:
            book._rest(
                side, otype, tif, price, remaining, qty, oid, timestamp, owner_id
            )
            sequence += 1  # the NEW/CHANGE book update
            self.op_rested = True
        self._seq.value = sequence
        self.n_fills += n_fills
        if self._metered:
            self._m_fills.inc(n_fills)
            self._record_book()

    def cancel(self, oid: int) -> None:
        """Unlink a resting order; an unknown id raises before any write."""
        book = self.book
        slot = book._id_slot.get(oid)
        if slot is None:
            _raise_missing(oid, book.symbol)
        book._unlink(slot)
        self._seq.value += 1  # the cancel-side level update
        if self._metered:
            self._m_cancels.inc()
            self._record_book()

    def replace(self, oid: int, new_price: int, new_qty: int, timestamp: int) -> None:
        """Cancel-and-replace, keeping the resting owner; <=0 keeps old.

        An unknown id or a replace that changes nothing raises before
        any write.  Resubmits through :meth:`submit`, so an FOK original
        re-runs the full-fill check at its new price/quantity.
        """
        book = self.book
        slot = book._id_slot.get(oid)
        if slot is None:
            _raise_missing(oid, book.symbol)
        if new_price <= 0 and new_qty <= 0:
            _raise_no_change(oid)
        slab = book.slab
        side = slab.side[slot]
        otype = slab.otype[slot]
        tif = slab.tif[slot]
        owner_id = slab.owner[slot]
        price = new_price if new_price > 0 else slab.price[slot]
        qty = new_qty if new_qty > 0 else slab.qty[slot]
        book._unlink(slot)
        self._seq.value += 1  # the cancel-side level update
        if self._metered:
            self._m_replaces.inc()
        self.submit(side, otype, tif, price, qty, oid, timestamp, owner_id)

    def _record_book(self) -> None:
        """Write the book-shape high-water gauges after an op."""
        book = self.book
        self._m_levels.set(len(book.bids.prices) + len(book.asks.prices))
        self._m_occupancy.set(book.slab.in_use)


@dataclass
class MatchResult:
    """Outcome of one matching-engine operation.

    Attributes:
        order: The (possibly filled) incoming or affected order.
        fills: Executions generated, in match order.
        events: Market-data events to publish, in publish order.
        accepted: False when the order was rejected (e.g. unfillable FOK).
    """

    order: Order
    fills: list[Fill] = field(default_factory=list)
    events: list[MarketEvent] = field(default_factory=list)
    accepted: bool = True

    @property
    def filled_quantity(self) -> int:
        """Total quantity executed by this operation."""
        return sum(fill.quantity for fill in self.fills)


class ArrayMatchingEngine:
    """Price–time-priority matching over struct-of-arrays books.

    One :class:`MatchingKernel` per symbol; ``submit``/``cancel``/
    ``replace`` wrap it.  ``metrics`` threads a
    :class:`repro.metrics.MetricRegistry` through the kernel: orders /
    fills / cancels / replaces counters plus level-count and
    slab-occupancy (resting orders) high-water gauges.  The sequence is
    engine-wide across symbols.
    """

    def __init__(self, metrics: MetricRegistry | None = None) -> None:
        self._kernels: dict[str, MatchingKernel] = {}
        self._seq = _Sequence()
        registry = metrics if metrics is not None else NULL_METRICS
        # The kernel skips its metric writes outright when they would
        # all be no-ops.
        self._metered = registry.enabled
        self._m_orders = registry.counter("lob.orders")
        self._m_fills = registry.counter("lob.fills")
        self._m_cancels = registry.counter("lob.cancels")
        self._m_replaces = registry.counter("lob.replaces")
        self._m_levels = registry.gauge("lob.levels_high_water")
        self._m_occupancy = registry.gauge("lob.slab_occupancy_high_water")

    def kernel(self, symbol: str) -> MatchingKernel:
        """The matching kernel over ``symbol``'s book (created empty)."""
        kernel = self._kernels.get(symbol)
        if kernel is None:
            kernel = MatchingKernel(self, ArrayBook(symbol))
            self._kernels[symbol] = kernel
        return kernel

    def book(self, symbol: str) -> ArrayBook:
        """The book for ``symbol``, created empty on first use."""
        return self.kernel(symbol).book

    @property
    def symbols(self) -> list[str]:
        """Symbols with a (possibly empty) book."""
        return list(self._kernels)

    @property
    def _sequence(self) -> int:
        """The last sequence number published on any of its books."""
        return self._seq.value

    # -- public operations ----------------------------------------------------

    def submit(self, symbol: str, order: Order, timestamp: int) -> MatchResult:
        """Process an incoming order against ``symbol``'s book.

        Limit orders match while they cross, then rest (DAY), cancel the
        remainder (IOC) or are rejected unless fully fillable (FOK).
        Market orders match until filled or the opposite side empties.
        FOK is enforced for both LIMIT and MARKET orders.
        """
        kernel = self.kernel(symbol)
        order.entry_time = timestamp
        return self._result(
            kernel,
            MatchResult(order=order),
            timestamp,
            kernel.submit,
            int(order.side),
            int(order.order_type),
            int(order.tif),
            order.price,
            order.remaining,
            order.order_id,
            timestamp,
            kernel.book.owners.intern(order.owner),
        )

    def cancel(self, symbol: str, order_id: int, timestamp: int) -> MatchResult:
        """Cancel a resting order, publishing the level's new state."""
        kernel = self.kernel(symbol)
        book = kernel.book
        order = book.find(order_id)
        result = MatchResult(order=order)
        result.events.append(
            self._level_event(
                book,
                order.side,
                order.price,
                timestamp,
                order.remaining,
                self._seq.value + 1,
            )
        )
        kernel.cancel(order_id)
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
        Because the replacement goes back through the kernel's
        ``submit``, an FOK original re-runs the full-fill check at its
        new price/quantity.
        """
        kernel = self.kernel(symbol)
        book = kernel.book
        old = book.find(order_id)
        if new_price is None and new_quantity is None:
            _raise_no_change(order_id)
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
        result = MatchResult(order=replacement)
        # The level as the cancel leaves it, built before the
        # resubmission (which may rest at that price) changes it again.
        result.events.append(
            self._level_event(
                book,
                old.side,
                old.price,
                timestamp,
                old.remaining,
                self._seq.value + 1,
            )
        )
        return self._result(
            kernel,
            result,
            timestamp,
            kernel.replace,
            order_id,
            replacement.price,
            replacement.quantity,
            timestamp,
        )

    # -- internals -------------------------------------------------------------

    def _result(
        self,
        kernel: MatchingKernel,
        result: MatchResult,
        timestamp: int,
        op: Callable[..., None],
        *args: int,
    ) -> MatchResult:
        """Run one kernel op, then build ``result``'s fills and events
        from the maker fills it reports, numbered on from the events
        ``result`` already holds."""
        sequence = self._seq.value
        rejected = kernel.rejected
        fills: list[tuple[int, int, int, int]] = []
        kernel._fills = fills
        try:
            op(*args)
        finally:
            kernel._fills = None
        if kernel.rejected != rejected:
            result.accepted = False
            return result
        order = result.order
        book = kernel.book
        events = result.events
        sequence += len(events)
        if fills:
            order.remaining -= kernel.op_filled
            name = book.owners.name
            taker_side = order.side
            # One trade print per matched level, then the level's new state.
            for price, level_fills in groupby(fills, itemgetter(0)):
                traded = 0
                for _, quantity, maker_id, owner_id in level_fills:
                    traded += quantity
                    result.fills.append(
                        Fill(
                            price=price,
                            quantity=quantity,
                            maker_id=maker_id,
                            taker_id=order.order_id,
                            maker_owner=name(owner_id),
                            taker_owner=order.owner,
                            aggressor_side=taker_side,
                            timestamp=timestamp,
                        )
                    )
                sequence += 1
                events.append(
                    TradeTick(
                        symbol=book.symbol,
                        timestamp=timestamp,
                        price=price,
                        quantity=traded,
                        aggressor_side=taker_side,
                        sequence=sequence,
                    )
                )
                sequence += 1
                events.append(
                    self._level_event(
                        book, taker_side.opposite, price, timestamp, 0, sequence
                    )
                )
        if kernel.op_rested:
            book_side = book.side(order.side)
            idx = book_side.find(order.price)
            events.append(
                BookUpdate(
                    symbol=book.symbol,
                    timestamp=timestamp,
                    action=(
                        UpdateAction.NEW
                        if book_side.count[idx] == 1
                        else UpdateAction.CHANGE
                    ),
                    side=order.side,
                    price=order.price,
                    volume=book_side.volume[idx],
                    sequence=sequence + 1,
                )
            )
        return result

    def _level_event(
        self,
        book: ArrayBook,
        side: Side,
        price: int,
        timestamp: int,
        removed: int,
        sequence: int,
    ) -> BookUpdate:
        """(side, price)'s level with ``removed`` less volume: DELETE when
        nothing would rest there, else CHANGE."""
        book_side = book.side(side)
        idx = book_side.find(price)
        volume = 0 if idx == _NIL else book_side.volume[idx] - removed
        return BookUpdate(
            symbol=book.symbol,
            timestamp=timestamp,
            action=UpdateAction.CHANGE if volume else UpdateAction.DELETE,
            side=side,
            price=price,
            volume=volume,
            sequence=sequence,
        )
