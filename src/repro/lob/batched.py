"""BatchedBooks: N independent order books stepped in one array pass.

The single-book engine (:mod:`repro.lob.array_matching`) tracks
per-order identity — maker ids,
FIFO time priority inside a level, per-fill attribution.  Fleet-scale
back-tests (thousands of independent symbols or scenario replicas, the
scale the LightTrader standalone-pipeline claim is stress-tested
against) do not need that attribution; they need aggregate level
dynamics at maximum throughput.

:class:`BatchedBooks` therefore keeps the *price-level aggregate* state
of ``n_books`` independent books as 2-D arrays — ``price[n_books, depth]``
and ``volume[n_books, depth]`` per side, best level first — and
:meth:`BatchedBooks.step` applies one operation per book per call with
pure vectorized numpy: eligibility prefix masks, a cumulative-volume
scan for partial fills, argsort-based level compaction and
comparison-count insertion.  No Python-level loop touches a book.

Semantics per step (all enforced vectorially, all books at once):

- LIMIT orders match while they cross, then rest the remainder (DAY),
  discard it (IOC), or reject entirely unless fully fillable (FOK — the
  same all-order-types FOK rule as the single-book engines);
- MARKET orders match against the whole opposite side; MARKET+FOK
  rejects unless fully fillable;
- REDUCE shrinks the volume at one price level (an aggregate cancel),
  dropping the level at zero.

On cancel-free op streams the per-book aggregate (price, volume) levels
evolve exactly as a single-book engine's book would — the cross-check in
``tests/test_lob_batched.py`` holds BatchedBooks to that equivalence
against :class:`~repro.lob.array_matching.ArrayMatchingEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OrderBookError
from repro.lob.order import Side, TimeInForce

__all__ = [
    "OP_LIMIT",
    "OP_MARKET",
    "OP_NOP",
    "OP_REDUCE",
    "BatchedBooks",
    "BookOps",
    "StepResult",
]

# Operation kinds (one per book per step).
OP_NOP = 0
OP_LIMIT = 1
OP_MARKET = 2
OP_REDUCE = 3

# Ask-side sentinel for empty level slots (any real price is far below).
_BIG = np.int64(1) << np.int64(60)


@dataclass(frozen=True)
class BookOps:
    """One operation per book: parallel columns of length ``n_books``.

    ``kind`` selects OP_NOP / OP_LIMIT / OP_MARKET / OP_REDUCE; ``side``
    is the incoming order's side (for REDUCE: the side holding the
    level); ``price`` is the limit / reduce price (ignored for MARKET);
    ``qty`` the order / reduction quantity; ``tif`` the time-in-force
    (DAY / IOC / FOK, ignored for REDUCE).
    """

    kind: np.ndarray
    side: np.ndarray
    price: np.ndarray
    qty: np.ndarray
    tif: np.ndarray


@dataclass(frozen=True)
class StepResult:
    """Per-book aggregates of one :meth:`BatchedBooks.step`.

    ``filled``/``notional`` are the traded quantity and price-weighted
    notional per book; ``rejected`` marks books whose FOK order was
    refused this step.
    """

    filled: np.ndarray
    notional: np.ndarray
    rejected: np.ndarray


class BatchedBooks:
    """Aggregate price-level books for ``n_books`` independent markets."""

    def __init__(self, n_books: int, depth: int = 64) -> None:
        if n_books <= 0 or depth <= 0:
            raise OrderBookError(
                f"BatchedBooks needs positive shape, got {n_books}x{depth}"
            )
        self.n_books = n_books
        self.depth = depth
        # Bids: descending best-first, empty slots 0 (prices are > 0).
        self.bid_price = np.zeros((n_books, depth), dtype=np.int64)
        self.bid_vol = np.zeros((n_books, depth), dtype=np.int64)
        # Asks: ascending best-first, empty slots _BIG.
        self.ask_price = np.full((n_books, depth), _BIG, dtype=np.int64)
        self.ask_vol = np.zeros((n_books, depth), dtype=np.int64)

    # -- snapshots -------------------------------------------------------------

    def best_bid(self) -> np.ndarray:
        """Per-book best bid price (0 where the side is empty)."""
        return self.bid_price[:, 0].copy()

    def best_ask(self) -> np.ndarray:
        """Per-book best ask price (`2**60` sentinel where empty)."""
        return self.ask_price[:, 0].copy()

    def is_crossed(self) -> np.ndarray:
        """Per-book crossed-market flags (never true after a step)."""
        has_both = (self.bid_price[:, 0] > 0) & (self.ask_price[:, 0] < _BIG)
        return has_both & (self.bid_price[:, 0] >= self.ask_price[:, 0])

    def levels(self, book: int, side: Side) -> list[tuple[int, int]]:
        """One book's (price, volume) levels, best first, as ints."""
        if side is Side.BID:
            prices, volumes = self.bid_price[book], self.bid_vol[book]
            live = prices > 0
        else:
            prices, volumes = self.ask_price[book], self.ask_vol[book]
            live = prices < _BIG
        out: list[tuple[int, int]] = []
        for price, volume in zip(prices[live].tolist(), volumes[live].tolist()):
            out.append((price, volume))
        return out

    # -- stepping --------------------------------------------------------------

    def step(self, ops: BookOps) -> StepResult:
        """Apply one operation per book, fully vectorized."""
        kind = np.asarray(ops.kind, dtype=np.int64)
        side = np.asarray(ops.side, dtype=np.int64)
        price = np.asarray(ops.price, dtype=np.int64)
        qty = np.asarray(ops.qty, dtype=np.int64)
        tif = np.asarray(ops.tif, dtype=np.int64)
        if kind.shape != (self.n_books,):
            raise OrderBookError(
                f"BookOps shape {kind.shape} != ({self.n_books},)"
            )

        filled = np.zeros(self.n_books, dtype=np.int64)
        notional = np.zeros(self.n_books, dtype=np.int64)
        rejected = np.zeros(self.n_books, dtype=bool)

        is_order = (kind == OP_LIMIT) | (kind == OP_MARKET)
        is_market = kind == OP_MARKET

        # --- incoming bids match asks; incoming asks match bids -------------
        for incoming in (int(Side.BID), int(Side.ASK)):
            active = is_order & (side == incoming)
            if not active.any():
                continue
            if incoming == int(Side.BID):
                opp_price, opp_vol = self.ask_price, self.ask_vol
                # Asks ascending: eligible = prefix with price <= limit.
                limit = np.where(is_market, _BIG, price)
                elig = opp_price <= limit[:, None]
            else:
                opp_price, opp_vol = self.bid_price, self.bid_vol
                # Bids descending: eligible = prefix with price >= limit.
                limit = np.where(is_market, 0, price)
                elig = opp_price >= limit[:, None]
            elig &= active[:, None]

            elig_vol = opp_vol * elig
            csum = np.cumsum(elig_vol, axis=1)
            fillable = csum[:, -1]

            want = np.where(active, qty, 0)
            # FOK: refuse the whole order when not fully fillable.
            fok_reject = active & (tif == int(TimeInForce.FOK)) & (fillable < want)
            rejected |= fok_reject
            want = np.where(fok_reject, 0, want)

            before = csum - elig_vol
            take = np.clip(want[:, None] - before, 0, elig_vol)
            filled += take.sum(axis=1)
            notional += np.where(elig, take * opp_price, 0).sum(axis=1)
            opp_vol -= take
            self._compact(opp_price, opp_vol, incoming == int(Side.ASK))

            # Rest DAY limit remainders on the order's own side.
            remainder = want - take.sum(axis=1)
            rest = (
                active
                & (kind == OP_LIMIT)
                & (tif == int(TimeInForce.DAY))
                & (remainder > 0)
            )
            if rest.any():
                self._rest(rest, incoming, price, remainder)

        # --- aggregate cancels ----------------------------------------------
        reduce_mask = kind == OP_REDUCE
        if reduce_mask.any():
            for reduce_side in (int(Side.BID), int(Side.ASK)):
                mask = reduce_mask & (side == reduce_side)
                if not mask.any():
                    continue
                if reduce_side == int(Side.BID):
                    lvl_price, lvl_vol = self.bid_price, self.bid_vol
                else:
                    lvl_price, lvl_vol = self.ask_price, self.ask_vol
                hit = (lvl_price == price[:, None]) & mask[:, None]
                cut = np.minimum(lvl_vol, qty[:, None]) * hit
                lvl_vol -= cut
                self._compact(lvl_price, lvl_vol, reduce_side == int(Side.BID))

        return StepResult(filled=filled, notional=notional, rejected=rejected)

    def _compact(self, lvl_price: np.ndarray, lvl_vol: np.ndarray, is_bid: bool) -> None:
        """Drop zero-volume levels, keeping survivors packed best-first."""
        sentinel = np.int64(0) if is_bid else _BIG
        live = lvl_price != sentinel
        dead = live & (lvl_vol == 0)
        if not dead.any():
            return
        # Stable sort on the dead flag pushes dead slots to the back
        # while preserving the survivors' best-first order.
        order = np.argsort(dead, axis=1, kind="stable")
        lvl_price[:] = np.take_along_axis(lvl_price, order, axis=1)
        lvl_vol[:] = np.take_along_axis(lvl_vol, order, axis=1)
        moved_dead = np.take_along_axis(dead, order, axis=1)
        lvl_price[moved_dead] = sentinel
        lvl_vol[moved_dead] = 0

    def _rest(
        self,
        rest: np.ndarray,
        incoming: int,
        price: np.ndarray,
        remainder: np.ndarray,
    ) -> None:
        """Add DAY remainders to their own side (merge or insert levels)."""
        if incoming == int(Side.BID):
            own_price, own_vol = self.bid_price, self.bid_vol
            sentinel = np.int64(0)
        else:
            own_price, own_vol = self.ask_price, self.ask_vol
            sentinel = _BIG

        # Merge into an existing level where the price already rests.
        hit = (own_price == price[:, None]) & rest[:, None]
        own_vol += np.where(hit, remainder[:, None], 0)
        merged = hit.any(axis=1)

        insert = rest & ~merged
        if not insert.any():
            return
        full = (own_price[insert] != sentinel).all(axis=1)
        if full.any():
            raise OrderBookError(
                f"BatchedBooks depth {self.depth} exhausted; raise depth"
            )
        # Position = number of strictly-better levels (descending for
        # bids, ascending for asks); sentinels compare as worst.
        if incoming == int(Side.BID):
            pos = (own_price > price[:, None]).sum(axis=1)
        else:
            pos = (own_price < price[:, None]).sum(axis=1)
        idx = np.arange(self.depth, dtype=np.int64)[None, :]
        pos_col = pos[:, None]
        ins_col = insert[:, None]
        # Gather: slots before pos keep their level, slot pos takes the
        # new one, slots after shift right by one (the worst slot — a
        # sentinel, checked above — falls off).
        src = np.clip(idx - 1, 0, self.depth - 1)
        shifted_price = np.take_along_axis(own_price, src, axis=1)
        shifted_vol = np.take_along_axis(own_vol, src, axis=1)
        new_price = np.where(
            idx < pos_col,
            own_price,
            np.where(idx == pos_col, price[:, None], shifted_price),
        )
        new_vol = np.where(
            idx < pos_col,
            own_vol,
            np.where(idx == pos_col, remainder[:, None], shifted_vol),
        )
        own_price[:] = np.where(ins_col, new_price, own_price)
        own_vol[:] = np.where(ins_col, new_vol, own_vol)
