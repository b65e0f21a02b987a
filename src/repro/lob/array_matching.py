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

Two execution surfaces:

- the per-operation API (``submit``/``cancel``/``replace`` returning
  :class:`MatchResult`), used by the gateway and the tests;
- :class:`ReplaySession`, the checked-out batch kernel: the slab
  columns and price-level lists are copied out once, operations replay
  as pure integer arithmetic with price–time priority (no per-op
  ``Order``/``Fill``/``MatchResult``/event objects), and
  :meth:`ReplaySession.commit` swaps the buffers back into the book in
  O(1).  Sequence numbers advance exactly as the per-op path would, so
  a per-op replay of the same stream lands on the same sequence — this
  is what lets the market generator plan its agents' ops on a session
  and still produce the tapes of the per-op loop.

FOK is enforced for MARKET orders too (historically only LIMIT+FOK was
checked, so a MARKET+FOK order silently degraded to IOC), and
``replace`` re-runs the FOK check on the replacement because it
resubmits through ``submit``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NoReturn

from repro.errors import MatchingError, OrderBookError
from repro.lob.array_book import ArrayBook, ArraySide
from repro.lob.events import BookUpdate, MarketEvent, TradeTick, UpdateAction
from repro.lob.order import Fill, Order, OrderType, Side, TimeInForce
from repro.metrics import NULL_METRICS, MetricRegistry

__all__ = [
    "ArrayMatchingEngine",
    "MatchResult",
    "ReplaySession",
]

_NIL = -1

# Plain-int op encodings (== the enum values; pinned by tests).
_LIMIT = int(OrderType.LIMIT)
_MARKET = int(OrderType.MARKET)
_DAY = int(TimeInForce.DAY)
_FOK = int(TimeInForce.FOK)


def _raise_missing(oid: int, symbol: str) -> NoReturn:
    """Raise the per-op API's unknown-order error (kept out of hot code)."""
    raise OrderBookError(f"order {oid} not in book {symbol}")


def _raise_no_change(oid: int) -> NoReturn:
    """Raise the per-op API's no-op replace error (kept out of hot code)."""
    raise MatchingError(f"replace of order {oid} changes nothing")


class ReplaySession:
    """A checked-out, mutation-ready copy of one symbol's array book.

    Construction copies the slab columns, free list, id map and both
    sides' price-level lists into flat session-private buffers; the
    integer ops (:meth:`submit` / :meth:`cancel` / :meth:`replace`)
    replay against those buffers as pure int arithmetic — no ``Order``
    or event objects, no numpy scalar boxing; :meth:`commit` swaps the
    buffers into the book and flushes metrics in O(1).  Until commit the
    live book is untouched, so a raising sequence of ops is atomic: drop
    the session (don't commit) and the book still holds its last
    committed state.

    Sequence-number accounting matches the per-op engine tick for tick
    (one per trade print, one per book update), which is what lets the
    market generator's fast path emit byte-identical snapshots.  Per-op
    results surface allocation-free through ``op_filled`` / ``op_rested``
    (last submit) and the sticky ``trade_price`` / ``trade_qty`` pair
    (last matched level), with running totals in ``traded_quantity``,
    ``notional``, ``n_fills`` and friends.

    One deliberate nuance: :meth:`replace` keeps the resting row's
    owner (like the per-op API) rather than taking a new one.
    Owner ids are interned into the live :class:`OwnerTable` as ops
    arrive — the table is an append-only cache, so names interned by an
    aborted session are harmless.
    """

    __slots__ = (
        "engine",
        "book",
        "symbol",
        "cap",
        "s_oid",
        "s_price",
        "s_qty",
        "s_qty_orig",
        "s_side",
        "s_owner",
        "s_entry",
        "s_otype",
        "s_tif",
        "s_nxt",
        "s_prv",
        "free",
        "in_use",
        "high_water",
        "id_slot",
        "bid_price",
        "bid_vol",
        "bid_head",
        "bid_tail",
        "bid_cnt",
        "ask_price",
        "ask_vol",
        "ask_head",
        "ask_tail",
        "ask_cnt",
        "sequence",
        "levels_high_water",
        "n_orders",
        "n_cancels",
        "n_replaces",
        "n_fills",
        "traded_quantity",
        "notional",
        "rejected",
        "op_filled",
        "op_rested",
        "trade_price",
        "trade_qty",
    )

    def __init__(self, engine: ArrayMatchingEngine, symbol: str) -> None:
        self.engine = engine
        self.symbol = symbol
        self.book = engine.book(symbol)
        self.refresh()

    def refresh(self) -> None:
        """(Re-)copy the live book into the session buffers.

        Called by ``__init__``; call again after :meth:`commit` to keep
        using the same session for another chunk of operations (commit
        hands the buffers over to the book, so they must not be mutated
        afterwards without a fresh checkout).
        """
        book = self.book
        slab = book.slab
        self.cap = slab.capacity
        self.s_oid = slab.order_id[:]
        self.s_price = slab.price[:]
        self.s_qty = slab.qty[:]
        self.s_qty_orig = slab.qty_orig[:]
        self.s_side = slab.side[:]
        self.s_owner = slab.owner[:]
        self.s_entry = slab.entry_time[:]
        self.s_otype = slab.otype[:]
        self.s_tif = slab.tif[:]
        self.s_nxt = slab.nxt[:]
        self.s_prv = slab.prv[:]
        self.free = slab._free[:]
        self.in_use = slab.in_use
        self.high_water = slab.high_water
        self.id_slot = dict(book._id_slot)
        bids, asks = book.bids, book.asks
        self.bid_price = bids.prices[:]
        self.bid_vol = bids.volume[:]
        self.bid_head = bids.head[:]
        self.bid_tail = bids.tail[:]
        self.bid_cnt = bids.count[:]
        self.ask_price = asks.prices[:]
        self.ask_vol = asks.volume[:]
        self.ask_head = asks.head[:]
        self.ask_tail = asks.tail[:]
        self.ask_cnt = asks.count[:]
        self.sequence = self.engine._sequence
        self.levels_high_water = len(self.bid_price) + len(self.ask_price)
        self.n_orders = 0
        self.n_cancels = 0
        self.n_replaces = 0
        self.n_fills = 0
        self.traded_quantity = 0
        self.notional = 0
        self.rejected = 0
        self.op_filled = 0
        self.op_rested = False
        self.trade_price = 0
        self.trade_qty = 0

    # -- read surface (session view, pre-commit) -----------------------------

    def intern(self, owner: str) -> int:
        """Dense owner id for ``owner`` (interned in the live table)."""
        return self.book.owners.intern(owner)

    def contains(self, order_id: int) -> bool:
        """True when ``order_id`` rests in the session's book view."""
        return order_id in self.id_slot

    def best_bid(self) -> int | None:
        """Best bid price in the session view, or None."""
        bid_price = self.bid_price
        return bid_price[-1] if bid_price else None

    def best_ask(self) -> int | None:
        """Best ask price in the session view, or None."""
        ask_price = self.ask_price
        return ask_price[0] if ask_price else None

    def top_bids(self, depth: int) -> tuple[tuple[int, int], ...]:
        """Up to ``depth`` bid (price, volume) pairs, best first."""
        prices = self.bid_price
        volume = self.bid_vol
        n = len(prices)
        lo = n - depth if n > depth else 0
        out = []
        for k in range(n - 1, lo - 1, -1):
            out.append((prices[k], volume[k]))
        return tuple(out)

    def top_asks(self, depth: int) -> tuple[tuple[int, int], ...]:
        """Up to ``depth`` ask (price, volume) pairs, best first."""
        prices = self.ask_price
        volume = self.ask_vol
        n = len(prices)
        hi = depth if depth < n else n
        out = []
        for k in range(hi):
            out.append((prices[k], volume[k]))
        return tuple(out)

    # -- integer operations (hot; RL004 via the hotpath MANIFEST) ------------

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
        """Match-then-rest one order, all plain-int, no result objects.

        Mirrors the per-op ``submit`` exactly: FOK full-fill check, match
        while crossing (sequence +2 per matched level: trade print +
        level update), rest a DAY LIMIT remainder (+1).  Outcome lands
        in ``op_filled`` / ``op_rested`` / ``trade_price`` / ``trade_qty``.
        """
        self.op_filled = 0
        self.op_rested = False
        self.n_orders += 1
        remaining = qty
        s_qty = self.s_qty
        s_nxt = self.s_nxt
        s_prv = self.s_prv
        s_oid = self.s_oid
        free = self.free
        id_slot = self.id_slot
        if side == 0:  # incoming bid matches asks (best = index 0)
            opp_price = self.ask_price
            opp_vol = self.ask_vol
            opp_head = self.ask_head
            opp_tail = self.ask_tail
            opp_cnt = self.ask_cnt
        else:  # incoming ask matches bids (best = last index)
            opp_price = self.bid_price
            opp_vol = self.bid_vol
            opp_head = self.bid_head
            opp_tail = self.bid_tail
            opp_cnt = self.bid_cnt

        if tif == _FOK:
            # Fillable-volume walk, best level first, early exit.
            available = 0
            if side == 0:
                for k in range(len(opp_price)):
                    if otype != _MARKET and opp_price[k] > price:
                        break
                    available += opp_vol[k]
                    if available >= remaining:
                        break
            else:
                for k in range(len(opp_price) - 1, -1, -1):
                    if otype != _MARKET and opp_price[k] < price:
                        break
                    available += opp_vol[k]
                    if available >= remaining:
                        break
            if available < remaining:
                self.rejected += 1
                return

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
            self.sequence += 2  # trade print + level update
            self.trade_price = best_price
            self.trade_qty = take
            if take == level_volume:
                # Whole level consumed: release every maker slot.
                slot = opp_head[best]
                while slot != _NIL:
                    del id_slot[s_oid[slot]]
                    free.append(slot)
                    self.in_use -= 1
                    self.n_fills += 1
                    slot = s_nxt[slot]
                del opp_price[best]
                del opp_vol[best]
                del opp_head[best]
                del opp_tail[best]
                del opp_cnt[best]
            else:
                # Partial level: pop exhausted makers off the FIFO
                # head, reduce the last one in place.
                opp_vol[best] = level_volume - take
                left = take
                while left > 0:
                    slot = opp_head[best]
                    maker_remaining = s_qty[slot]
                    self.n_fills += 1
                    if maker_remaining <= left:
                        left -= maker_remaining
                        nxt = s_nxt[slot]
                        opp_head[best] = nxt
                        if nxt == _NIL:
                            opp_tail[best] = _NIL
                        else:
                            s_prv[nxt] = _NIL
                        opp_cnt[best] -= 1
                        del id_slot[s_oid[slot]]
                        free.append(slot)
                        self.in_use -= 1
                    else:
                        s_qty[slot] = maker_remaining - left
                        left = 0

        self.op_filled = qty - remaining
        if remaining > 0 and otype == _LIMIT and tif == _DAY:
            # Rest the remainder (NEW/CHANGE book update = one tick).
            if not free:
                self._grow_slab()
            slot = free.pop()
            self.in_use += 1
            if self.in_use > self.high_water:
                self.high_water = self.in_use
            s_oid[slot] = oid
            self.s_price[slot] = price
            s_qty[slot] = remaining
            self.s_qty_orig[slot] = qty
            self.s_side[slot] = side
            self.s_owner[slot] = owner_id
            self.s_entry[slot] = timestamp
            self.s_otype[slot] = otype
            self.s_tif[slot] = tif
            if side == 0:
                lp = self.bid_price
                lv = self.bid_vol
                lh = self.bid_head
                lt = self.bid_tail
                lc = self.bid_cnt
            else:
                lp = self.ask_price
                lv = self.ask_vol
                lh = self.ask_head
                lt = self.ask_tail
                lc = self.ask_cnt
            idx = bisect_left(lp, price)
            if idx < len(lp) and lp[idx] == price:
                tail = lt[idx]
                s_prv[slot] = tail
                s_nxt[slot] = _NIL
                if tail == _NIL:
                    lh[idx] = slot
                else:
                    s_nxt[tail] = slot
                lt[idx] = slot
                lc[idx] += 1
                lv[idx] += remaining
            else:
                lp.insert(idx, price)
                lv.insert(idx, remaining)
                lh.insert(idx, slot)
                lt.insert(idx, slot)
                lc.insert(idx, 1)
                s_prv[slot] = _NIL
                s_nxt[slot] = _NIL
                levels = len(self.bid_price) + len(self.ask_price)
                if levels > self.levels_high_water:
                    self.levels_high_water = levels
            id_slot[oid] = slot
            self.sequence += 1
            self.op_rested = True

    def cancel(self, oid: int) -> None:
        """Unlink a resting order; raises like the per-op API on unknowns."""
        slot = self.id_slot.get(oid)
        if slot is None:
            _raise_missing(oid, self.symbol)
        self._unlink(slot)
        del self.id_slot[oid]
        self.free.append(slot)
        self.in_use -= 1
        self.sequence += 1  # the cancel-side level update
        self.n_cancels += 1

    def replace(self, oid: int, new_price: int, new_qty: int, timestamp: int) -> None:
        """Cancel-and-replace, keeping the resting owner; <=0 keeps old.

        Resubmits through :meth:`submit`, so an FOK original re-runs the
        full-fill check at its new price/quantity (per-op semantics).
        """
        slot = self.id_slot.get(oid)
        if slot is None:
            _raise_missing(oid, self.symbol)
        if new_price <= 0 and new_qty <= 0:
            _raise_no_change(oid)
        side = self.s_side[slot]
        otype = self.s_otype[slot]
        tif = self.s_tif[slot]
        owner_id = self.s_owner[slot]
        price = new_price if new_price > 0 else self.s_price[slot]
        qty = new_qty if new_qty > 0 else self.s_qty[slot]
        self._unlink(slot)
        del self.id_slot[oid]
        self.free.append(slot)
        self.in_use -= 1
        self.sequence += 1  # the cancel-side level update
        self.n_replaces += 1
        self.submit(side, otype, tif, price, qty, oid, timestamp, owner_id)

    def _unlink(self, slot: int) -> None:
        """Drop slab row ``slot`` from its level (and the level if empty)."""
        s_price = self.s_price
        if self.s_side[slot] == 0:
            lp = self.bid_price
            lv = self.bid_vol
            lh = self.bid_head
            lt = self.bid_tail
            lc = self.bid_cnt
        else:
            lp = self.ask_price
            lv = self.ask_vol
            lh = self.ask_head
            lt = self.ask_tail
            lc = self.ask_cnt
        idx = bisect_left(lp, s_price[slot])
        prv = self.s_prv[slot]
        nxt = self.s_nxt[slot]
        if prv == _NIL:
            lh[idx] = nxt
        else:
            self.s_nxt[prv] = nxt
        if nxt == _NIL:
            lt[idx] = prv
        else:
            self.s_prv[nxt] = prv
        lc[idx] -= 1
        lv[idx] -= self.s_qty[slot]
        if lc[idx] == 0:
            del lp[idx]
            del lv[idx]
            del lh[idx]
            del lt[idx]
            del lc[idx]

    def _grow_slab(self) -> None:
        """Double the session's slab buffers (same slot order as the slab)."""
        cap = self.cap
        new_cap = cap * 2
        grow = new_cap - cap
        self.s_oid.extend([0] * grow)
        self.s_price.extend([0] * grow)
        self.s_qty.extend([0] * grow)
        self.s_qty_orig.extend([0] * grow)
        self.s_side.extend([0] * grow)
        self.s_owner.extend([0] * grow)
        self.s_entry.extend([0] * grow)
        self.s_otype.extend([0] * grow)
        self.s_tif.extend([0] * grow)
        self.s_nxt.extend([_NIL] * grow)
        self.s_prv.extend([_NIL] * grow)
        self.free.extend(range(new_cap - 1, cap - 1, -1))
        self.cap = new_cap

    # -- commit --------------------------------------------------------------

    def commit(self) -> None:
        """Swap the session buffers into the live book, flush metrics.

        O(1): the buffers become the book's columns (no copies).  The
        gauges replay the per-op observation order — high-water first,
        then the final value — so a committed session leaves the metric
        registry byte-identical to a per-op replay of the same stream.
        Call :meth:`refresh` before reusing the session afterwards.
        """
        book = self.book
        slab = book.slab
        engine = self.engine
        slab.capacity = self.cap
        slab.order_id = self.s_oid
        slab.price = self.s_price
        slab.qty = self.s_qty
        slab.qty_orig = self.s_qty_orig
        slab.side = self.s_side
        slab.owner = self.s_owner
        slab.entry_time = self.s_entry
        slab.otype = self.s_otype
        slab.tif = self.s_tif
        slab.nxt = self.s_nxt
        slab.prv = self.s_prv
        slab._free = self.free
        slab.in_use = self.in_use
        slab.high_water = self.high_water
        book._id_slot = self.id_slot
        bids, asks = book.bids, book.asks
        bids.prices = self.bid_price
        bids.volume = self.bid_vol
        bids.head = self.bid_head
        bids.tail = self.bid_tail
        bids.count = self.bid_cnt
        asks.prices = self.ask_price
        asks.volume = self.ask_vol
        asks.head = self.ask_head
        asks.tail = self.ask_tail
        asks.count = self.ask_cnt
        engine._sequence = self.sequence
        engine._m_orders.inc(self.n_orders)
        engine._m_cancels.inc(self.n_cancels)
        engine._m_replaces.inc(self.n_replaces)
        engine._m_fills.inc(self.n_fills)
        engine._m_levels.set(self.levels_high_water)
        engine._m_levels.set(len(self.bid_price) + len(self.ask_price))
        engine._m_occupancy.set(self.high_water)
        engine._m_occupancy.set(self.in_use)


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

    ``metrics`` threads a :class:`repro.metrics.MetricRegistry` through
    the hot path: orders / fills / cancels / replaces counters plus
    level-count and slab-occupancy (resting orders) high-water gauges.
    """

    def __init__(self, metrics: MetricRegistry | None = None) -> None:
        self._books: dict[str, ArrayBook] = {}
        self._sequence = 0
        registry = metrics if metrics is not None else NULL_METRICS
        self._m_orders = registry.counter("lob.orders")
        self._m_fills = registry.counter("lob.fills")
        self._m_cancels = registry.counter("lob.cancels")
        self._m_replaces = registry.counter("lob.replaces")
        self._m_levels = registry.gauge("lob.levels_high_water")
        self._m_occupancy = registry.gauge("lob.slab_occupancy_high_water")

    def book(self, symbol: str) -> ArrayBook:
        """The book for ``symbol``, created empty on first use."""
        book = self._books.get(symbol)
        if book is None:
            book = ArrayBook(symbol)
            self._books[symbol] = book
        return book

    @property
    def symbols(self) -> list[str]:
        """Symbols with a (possibly empty) book."""
        return list(self._books)

    def _next_seq(self) -> int:
        self._sequence += 1
        return self._sequence

    def _record_book(self, book: ArrayBook) -> None:
        """Update the book-shape high-water gauges (allocation-free)."""
        self._m_levels.set(len(book.bids.prices) + len(book.asks.prices))
        self._m_occupancy.set(book.slab.in_use)

    # -- public operations ----------------------------------------------------

    def submit(self, symbol: str, order: Order, timestamp: int) -> MatchResult:
        """Process an incoming order against ``symbol``'s book.

        Limit orders match while they cross, then rest (DAY), cancel the
        remainder (IOC) or are rejected unless fully fillable (FOK).
        Market orders match until filled or the opposite side empties.
        FOK is enforced for both LIMIT and MARKET orders.
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
                side = book.side(order.side)
                idx = side.find(order.price)
                action = (
                    UpdateAction.NEW
                    if side.count[idx] == 1
                    else UpdateAction.CHANGE
                )
                result.events.append(
                    BookUpdate(
                        symbol=symbol,
                        timestamp=timestamp,
                        action=action,
                        side=order.side,
                        price=order.price,
                        volume=side.volume[idx],
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
        result.events.append(
            self._level_update(book, order.side, order.price, timestamp)
        )
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

    def _fillable_quantity(self, book: ArrayBook, order: Order) -> int:
        """Volume available to ``order`` at prices it is willing to cross."""
        opposite = book.side(order.side.opposite)
        limit = None if order.order_type is OrderType.MARKET else order.price
        return opposite.fillable_volume(limit, order.remaining)

    @staticmethod
    def _price_crosses(order: Order, resting_price: int) -> bool:
        if order.order_type is OrderType.MARKET:
            return True
        if order.side is Side.BID:
            return order.price >= resting_price
        return order.price <= resting_price

    def _match(
        self, book: ArrayBook, order: Order, timestamp: int, result: MatchResult
    ) -> None:
        opposite = book.side(order.side.opposite)
        while order.remaining > 0:
            idx = opposite.best_index()
            if idx == _NIL or not self._price_crosses(order, opposite.prices[idx]):
                break
            self._match_level(book, opposite, idx, order, timestamp, result)

    def _match_level(
        self,
        book: ArrayBook,
        opposite: ArraySide,
        idx: int,
        order: Order,
        timestamp: int,
        result: MatchResult,
    ) -> None:
        """Fill ``order`` against level ``idx`` until one side is exhausted."""
        slab = book.slab
        price = opposite.prices[idx]
        traded = 0
        while order.remaining > 0 and opposite.count[idx] > 0:
            slot = opposite.head[idx]
            maker_remaining = slab.qty[slot]
            quantity = (
                order.remaining
                if order.remaining < maker_remaining
                else maker_remaining
            )
            slab.qty[slot] = maker_remaining - quantity
            opposite.volume[idx] -= quantity
            order.remaining -= quantity
            traded += quantity
            result.fills.append(
                Fill(
                    price=price,
                    quantity=quantity,
                    maker_id=slab.order_id[slot],
                    taker_id=order.order_id,
                    maker_owner=book.owners.name(slab.owner[slot]),
                    taker_owner=order.owner,
                    aggressor_side=order.side,
                    timestamp=timestamp,
                )
            )
            if quantity == maker_remaining:  # maker exhausted: pop from FIFO
                opposite.unlink_order(idx, slot)
                book.drop_slot(slot)
        result.events.append(
            TradeTick(
                symbol=book.symbol,
                timestamp=timestamp,
                price=price,
                quantity=traded,
                aggressor_side=order.side,
                sequence=self._next_seq(),
            )
        )
        if opposite.count[idx] == 0:
            opposite.remove_level(idx)
            result.events.append(
                BookUpdate(
                    symbol=book.symbol,
                    timestamp=timestamp,
                    action=UpdateAction.DELETE,
                    side=order.side.opposite,
                    price=price,
                    volume=0,
                    sequence=self._next_seq(),
                )
            )
        else:
            result.events.append(
                BookUpdate(
                    symbol=book.symbol,
                    timestamp=timestamp,
                    action=UpdateAction.CHANGE,
                    side=order.side.opposite,
                    price=price,
                    volume=opposite.volume[idx],
                    sequence=self._next_seq(),
                )
            )

    def _level_update(
        self, book: ArrayBook, side: Side, price: int, timestamp: int
    ) -> BookUpdate:
        """Describe the current state of (side, price) as a BookUpdate."""
        book_side = book.side(side)
        idx = book_side.find(price)
        if idx == _NIL:
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
            volume=book_side.volume[idx],
            sequence=self._next_seq(),
        )
