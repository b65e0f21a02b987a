"""Struct-of-arrays limit order book (the matching engine's state).

Where the object-per-order reference book (``tests/oracles/book.py``)
keeps one Python object per order (``Order`` dataclasses in per-level
``OrderedDict`` queues), this module keeps the whole book in a handful
of parallel columns, JAX-LOB style:

- an :class:`OrderSlab` — fixed-capacity (doubling) parallel int columns
  ``price/qty/side/owner/entry_time`` plus intrusive ``next/prev`` links
  that thread each price level's FIFO queue through the slab, with a
  free-list stack for O(1) allocate/release;
- two :class:`ArraySide` structures — sorted price-level columns with
  incrementally maintained aggregate volume, head/tail slot indices and
  per-level order counts, kept packed so best-price lookups, crossing
  checks and top-N snapshots are plain slices.

The columns are Python ``list``s of ints rather than numpy arrays: every
per-operation access is a handful of scalar reads and one ``bisect``,
and boxing those through numpy scalars made the per-op path slower than
the object-per-order reference (the "numpy scalar tax" ROADMAP.md calls
out).  Plain lists keep the same packed struct-of-arrays layout — and
the batch kernel's checkout/commit becomes cheap list copies instead of
``tolist``/``asarray`` round-trips.

The book exposes the reference book's read surface
(``best_bid``/``best_ask``/``mid_price``/``spread``/``is_crossed``/
``__contains__``/``top``), so the gateway and the parity tests read
either book the same way.  All trading semantics live in
:class:`repro.lob.array_matching.ArrayMatchingEngine`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from typing import NamedTuple

from repro.errors import OrderBookError
from repro.hotpath import hot_path
from repro.lob.order import Order, OrderType, Side, TimeInForce

__all__ = ["ArrayBook", "ArraySide", "LevelView", "OrderSlab", "OwnerTable"]

_NIL = -1  # null slot / level index sentinel

# Dense-int -> enum lookup tables: indexing a tuple is several times
# cheaper than calling the enum constructor in the per-op hot path.
_SIDES = (Side.BID, Side.ASK)
_OTYPES = (OrderType.LIMIT, OrderType.MARKET)
_TIFS = (TimeInForce.DAY, TimeInForce.IOC, TimeInForce.FOK)


class LevelView(NamedTuple):
    """One price level as seen through ``iter_best_first`` (read-only).

    Mirrors the attribute surface tests read off the reference book's
    ``PriceLevel`` (``price``, ``volume``) plus the level's
    resting-order ``count``.
    """

    price: int
    volume: int
    count: int


class OwnerTable:
    """Interns owner strings to dense int ids (and back).

    The slab stores owners as integers; fills must surface the exact
    original strings, so the table keeps both directions.
    """

    __slots__ = ("_ids", "_names")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        """The dense id for ``name``, assigning one on first sight."""
        idx = self._ids.get(name)
        if idx is None:
            idx = len(self._names)
            self._ids[name] = idx
            self._names.append(name)
        return idx

    def name(self, idx: int) -> str:
        """The owner string for a dense id."""
        return self._names[idx]


class OrderSlab:
    """Fixed-capacity struct-of-arrays order store with a free list.

    One row per live resting order.  ``nxt``/``prv`` thread the FIFO
    queue of each price level through the slab (time priority = list
    order); the free list is a plain int stack, so allocation and
    release are O(1) with no Python object churn.  Every column is a
    plain list of ints — scalar reads and writes never box through
    numpy.
    """

    __slots__ = (
        "capacity",
        "order_id",
        "price",
        "qty",
        "qty_orig",
        "side",
        "owner",
        "entry_time",
        "otype",
        "tif",
        "nxt",
        "prv",
        "_free",
        "in_use",
        "high_water",
    )

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = int(capacity)
        self.order_id = [0] * self.capacity
        self.price = [0] * self.capacity
        self.qty = [0] * self.capacity
        self.qty_orig = [0] * self.capacity
        self.side = [0] * self.capacity
        self.owner = [0] * self.capacity
        self.entry_time = [0] * self.capacity
        self.otype = [0] * self.capacity
        self.tif = [0] * self.capacity
        self.nxt = [_NIL] * self.capacity
        self.prv = [_NIL] * self.capacity
        # Free slots, popped from the end (LIFO keeps the slab dense).
        self._free = list(range(self.capacity - 1, -1, -1))
        self.in_use = 0
        self.high_water = 0

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        grow = new - old
        for column in (
            self.order_id,
            self.price,
            self.qty,
            self.qty_orig,
            self.side,
            self.owner,
            self.entry_time,
            self.otype,
            self.tif,
        ):
            column.extend([0] * grow)
        self.nxt.extend([_NIL] * grow)
        self.prv.extend([_NIL] * grow)
        # Newly minted slots stack on top so the next pops come lowest
        # slot first, matching the initial LIFO ordering.
        self._free.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    @hot_path
    def alloc(self) -> int:
        """Pop a free slot index (grows the slab when exhausted)."""
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.in_use += 1
        if self.in_use > self.high_water:
            self.high_water = self.in_use
        return slot

    @hot_path
    def release(self, slot: int) -> None:
        """Return ``slot`` to the free list."""
        self._free.append(slot)
        self.in_use -= 1


class ArraySide:
    """One side of the array book: packed sorted price-level columns.

    Levels are kept ascending by price in ``prices`` with parallel
    ``volume``/``head``/``tail``/``count`` columns; inserts and removals
    shift the packed list (cheap at HFT book depths).  Best price is
    ``prices[-1]`` for bids and ``prices[0]`` for asks.  Lookups are
    ``bisect`` over the plain int list — no scalar ``searchsorted``.
    """

    __slots__ = ("side", "slab", "prices", "volume", "head", "tail", "count")

    def __init__(self, side: Side, slab: OrderSlab) -> None:
        self.side = side
        self.slab = slab
        self.prices: list[int] = []
        self.volume: list[int] = []
        self.head: list[int] = []
        self.tail: list[int] = []
        self.count: list[int] = []

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def n(self) -> int:
        """Number of live price levels (packed length)."""
        return len(self.prices)

    @property
    def is_empty(self) -> bool:
        """True when the whole side is empty."""
        return not self.prices

    def find(self, price: int) -> int:
        """The packed index of the level at ``price``, or -1."""
        prices = self.prices
        idx = bisect_left(prices, price)
        if idx < len(prices) and prices[idx] == price:
            return idx
        return _NIL

    def get_or_create(self, price: int) -> int:
        """The packed index of the level at ``price``, inserting it sorted."""
        prices = self.prices
        idx = bisect_left(prices, price)
        if idx < len(prices) and prices[idx] == price:
            return idx
        prices.insert(idx, price)
        self.volume.insert(idx, 0)
        self.head.insert(idx, _NIL)
        self.tail.insert(idx, _NIL)
        self.count.insert(idx, 0)
        return idx

    def remove_level(self, idx: int) -> None:
        """Drop the (empty) level at packed index ``idx``."""
        del self.prices[idx]
        del self.volume[idx]
        del self.head[idx]
        del self.tail[idx]
        del self.count[idx]

    def best_index(self) -> int:
        """Packed index of the best level, or -1 when empty."""
        n = len(self.prices)
        if n == 0:
            return _NIL
        return n - 1 if self.side is Side.BID else 0

    def best_price(self) -> int | None:
        """Highest bid / lowest ask, or None when empty."""
        prices = self.prices
        if not prices:
            return None
        return prices[-1] if self.side is Side.BID else prices[0]

    def append_order(self, idx: int, slot: int) -> None:
        """Queue slab row ``slot`` at the back of level ``idx`` (FIFO)."""
        slab = self.slab
        old_tail = self.tail[idx]
        slab.prv[slot] = old_tail
        slab.nxt[slot] = _NIL
        if old_tail == _NIL:
            self.head[idx] = slot
        else:
            slab.nxt[old_tail] = slot
        self.tail[idx] = slot
        self.count[idx] += 1
        self.volume[idx] += slab.qty[slot]

    def unlink_order(self, idx: int, slot: int) -> None:
        """Remove slab row ``slot`` from level ``idx``'s FIFO queue."""
        slab = self.slab
        prv = slab.prv[slot]
        nxt = slab.nxt[slot]
        if prv == _NIL:
            self.head[idx] = nxt
        else:
            slab.nxt[prv] = nxt
        if nxt == _NIL:
            self.tail[idx] = prv
        else:
            slab.prv[nxt] = prv
        self.count[idx] -= 1
        self.volume[idx] -= slab.qty[slot]

    def crosses(self, price: int) -> bool:
        """True if an incoming opposite-side limit at ``price`` would
        trade against this side's best level."""
        best = self.best_price()
        if best is None:
            return False
        if self.side is Side.BID:
            return price <= best
        return price >= best

    def fillable_volume(self, price: int | None, cap: int) -> int:
        """Total resting volume at prices an opposite-side order limited
        to ``price`` could cross (None = market order, crosses all),
        summed over the crossed slice; ``cap`` bounds the answer the way
        the reference's early exit does (the comparison only ever asks
        "is it >= remaining")."""
        prices = self.prices
        n = len(prices)
        if n == 0:
            return 0
        if price is None:
            k_lo, k_hi = 0, n
        elif self.side is Side.BID:
            # Crossed by asks at or below the incoming limit.
            k_lo = bisect_left(prices, price)
            k_hi = n
        else:
            k_lo = 0
            k_hi = bisect_left(prices, price + 1)
        if k_lo >= k_hi:
            return 0
        total = sum(self.volume[k_lo:k_hi])
        return total if total < cap else cap

    def top(self, depth: int) -> list[tuple[int, int]]:
        """Up to ``depth`` (price, volume) pairs, best first, as ints."""
        prices = self.prices
        n = len(prices)
        out: list[tuple[int, int]] = []
        if n == 0:
            return out
        if self.side is Side.BID:
            lo = n - depth if n > depth else 0
            volume = self.volume
            for k in range(n - 1, lo - 1, -1):
                out.append((prices[k], volume[k]))
        else:
            hi = depth if depth < n else n
            volume = self.volume
            for k in range(hi):
                out.append((prices[k], volume[k]))
        return out

    def total_volume(self) -> int:
        """Total resting volume across all levels."""
        return sum(self.volume)

    def iter_best_first(self) -> Iterator["LevelView"]:
        """Iterate :class:`LevelView` triples from best to worst price."""
        n = len(self.prices)
        indices = range(n - 1, -1, -1) if self.side is Side.BID else range(n)
        for idx in indices:
            yield LevelView(self.prices[idx], self.volume[idx], self.count[idx])


class ArrayBook:
    """A full two-sided struct-of-arrays book for one symbol.

    Mirrors the reference ``LimitOrderBook``'s read surface; mutation
    goes through the slot-level operations the array matching engine
    drives.
    """

    def __init__(self, symbol: str, capacity: int = 1024) -> None:
        self.symbol = symbol
        self.slab = OrderSlab(capacity)
        self.owners = OwnerTable()
        self.bids = ArraySide(Side.BID, self.slab)
        self.asks = ArraySide(Side.ASK, self.slab)
        # order_id -> slab slot for O(1) cancel/replace lookup.
        self._id_slot: dict[int, int] = {}

    def side(self, side: Side) -> ArraySide:
        """The :class:`ArraySide` for ``side``."""
        return self.bids if side is Side.BID else self.asks

    def __contains__(self, order_id: int) -> bool:
        return order_id in self._id_slot

    def __len__(self) -> int:
        return len(self._id_slot)

    def slot_of(self, order_id: int) -> int:
        """The slab slot resting under ``order_id``.

        Raises:
            OrderBookError: if no such order rests in the book.
        """
        slot = self._id_slot.get(order_id)
        if slot is None:
            raise OrderBookError(f"order {order_id} not in book {self.symbol}")
        return slot

    def find(self, order_id: int) -> Order:
        """Reconstruct the resting order with ``order_id`` from the slab.

        The returned :class:`Order` is a value copy — mutating it does
        not touch the book (unlike the reference, which aliases the
        submitted object); the matching engines treat orders as
        read-only after rest, so the two behaviours are equivalent.
        """
        return self.order_at(self.slot_of(order_id))

    def order_at(self, slot: int) -> Order:
        """Materialise the slab row at ``slot`` as an :class:`Order`."""
        slab = self.slab
        return Order(
            side=_SIDES[slab.side[slot]],
            price=slab.price[slot],
            quantity=slab.qty_orig[slot],
            order_id=slab.order_id[slot],
            order_type=_OTYPES[slab.otype[slot]],
            tif=_TIFS[slab.tif[slot]],
            owner=self.owners.name(slab.owner[slot]),
            entry_time=slab.entry_time[slot],
            remaining=slab.qty[slot],
        )

    def insert(self, order: Order) -> int:
        """Rest ``order`` at the back of its price level; returns the slot."""
        if order.order_id in self._id_slot:
            raise OrderBookError(
                f"order {order.order_id} already in book {self.symbol}"
            )
        if order.remaining <= 0:
            raise OrderBookError(f"cannot rest exhausted order {order.order_id}")
        slab = self.slab
        slot = slab.alloc()
        slab.order_id[slot] = order.order_id
        slab.price[slot] = order.price
        slab.qty[slot] = order.remaining
        slab.qty_orig[slot] = order.quantity
        slab.side[slot] = int(order.side)
        slab.owner[slot] = self.owners.intern(order.owner)
        slab.entry_time[slot] = order.entry_time
        slab.otype[slot] = int(order.order_type)
        slab.tif[slot] = int(order.tif)
        side = self.side(order.side)
        idx = side.get_or_create(order.price)
        side.append_order(idx, slot)
        self._id_slot[order.order_id] = slot
        return slot

    def drop_slot(self, slot: int) -> None:
        """Release an already-unlinked slab row (a fully filled maker)."""
        del self._id_slot[self.slab.order_id[slot]]
        self.slab.release(slot)

    def remove(self, order_id: int) -> int:
        """Remove a resting order (cancel); returns its released slot.

        The slot's column values remain readable until the next alloc,
        which is what lets callers reconstruct the removed order.
        """
        slot = self.slot_of(order_id)
        slab = self.slab
        side = self.bids if slab.side[slot] == 0 else self.asks
        idx = side.find(slab.price[slot])
        side.unlink_order(idx, slot)
        if side.count[idx] == 0:
            side.remove_level(idx)
        del self._id_slot[order_id]
        slab.release(slot)
        return slot

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
