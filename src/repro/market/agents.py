"""Order-flow agents that generate realistic exchange activity.

The synthetic market is agent-based: at every Hawkes arrival one agent
acts on the shared matching engine.  The mix below reproduces the three
ingredients the paper's traffic analysis relies on — passive liquidity
(market makers re-quoting), aggressive flow (takers), and order-chasing
behaviour that amplifies bursts (momentum traders) — while keeping the
book two-sided and mean-reverting around a slowly moving reference price.

Each agent sends its operations as plain ints to the symbol's
:class:`~repro.lob.array_matching.MatchingKernel` (``act_fast``), which
matches them in place on the live book — no ``Order``/``MatchResult``
objects per arrival.  The per-op reference loop this replaced lives in
``tests/oracles/market.py``; the RNG draw sequence is kept identical to
it draw for draw (``rng.random()`` advances the bit-stream exactly like
``rng.uniform()``, and the mix's CDF-bisect sampling consumes the same
single draw ``rng.choice(p=...)`` does), which is what keeps the tapes
byte-identical — the tape parity tests hold it to that with sha256.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.lob.array_matching import MatchingKernel
from repro.lob.order import OrderType, Side, TimeInForce, next_order_id

# Plain-int encodings of the enums the agents' ops carry.
_BID = int(Side.BID)
_ASK = int(Side.ASK)
_LIMIT = int(OrderType.LIMIT)
_MARKET = int(OrderType.MARKET)
_DAY = int(TimeInForce.DAY)
_IOC = int(TimeInForce.IOC)
_SIGN = (1, -1)  # Side.sign by int side


class FastMarketContext:
    """Mutable state shared between agents while generating a session.

    Agents read the live book (best bid/ask, order presence, anchor
    price) through ``book`` and write it through ``kernel``'s integer
    ops.  ``anchor_price`` reproduces the reference context's float math
    exactly (same rounding of the same mid), which tape parity depends
    on.
    """

    __slots__ = (
        "symbol",
        "reference_price",
        "last_direction",
        "kernel",
        "book",
        "_owner_ids",
    )

    def __init__(
        self, symbol: str, reference_price: float, kernel: MatchingKernel
    ) -> None:
        self.symbol = symbol
        self.reference_price = reference_price
        self.last_direction = 0
        self.kernel = kernel
        self.book = kernel.book
        self._owner_ids: dict[str, int] = {}

    def owner_id(self, name: str) -> int:
        """Dense owner id for ``name`` (memoised interning)."""
        owner = self._owner_ids.get(name)
        if owner is None:
            owner = self.book.owners.intern(name)
            self._owner_ids[name] = owner
        return owner

    def anchor_price(self) -> int:
        """Best integer price to quote around: the mid if the book is
        two-sided, else the drifting reference price."""
        bid = self.book.best_bid
        ask = self.book.best_ask
        if bid is not None and ask is not None:
            return round((bid + ask) / 2)
        return round(self.reference_price)


class Agent(abc.ABC):
    """One participant archetype; ``act_fast`` plans its operations."""

    @abc.abstractmethod
    def act_fast(
        self, fctx: FastMarketContext, timestamp: int, rng: np.random.Generator
    ) -> bool:
        """Send zero or more operations at ``timestamp`` through
        ``fctx.kernel``; True when the arrival produced market events."""


class MarketMaker(Agent):
    """Quotes both sides around the anchor and recycles stale quotes.

    Keeps a bounded inventory of live quotes; when over the bound it
    cancels the oldest quote first — generating the cancel/replace churn
    that dominates real tick feeds.
    """

    def __init__(self, name: str, max_live_quotes: int = 40, max_depth: int = 8) -> None:
        self.name = name
        self.max_live_quotes = max_live_quotes
        self.max_depth = max_depth
        self._live: list[int] = []  # order ids, oldest first

    def act_fast(
        self, fctx: FastMarketContext, timestamp: int, rng: np.random.Generator
    ) -> bool:
        kernel = fctx.kernel
        book = fctx.book
        had_events = False
        while len(self._live) >= self.max_live_quotes:
            order_id = self._live.pop(0)
            if order_id in book:
                kernel.cancel(order_id)
                had_events = True
        anchor = fctx.anchor_price()
        side = _BID if rng.random() < 0.5 else _ASK
        offset = int(rng.integers(1, self.max_depth + 1))
        price = anchor - offset if side == _BID else anchor + offset
        if price <= 0:
            return had_events
        quantity = int(rng.integers(1, 10))
        order_id = next_order_id()
        kernel.submit(
            side, _LIMIT, _DAY, price, quantity, order_id, timestamp,
            fctx.owner_id(self.name),
        )
        if kernel.op_rested:
            self._live.append(order_id)
        # A DAY limit always prints (fills and/or a resting update).
        return True


class LiquidityTaker(Agent):
    """Sends aggressive IOC orders that cross the spread (noise flow)."""

    def __init__(self, name: str, aggression: float = 0.5) -> None:
        self.name = name
        self.aggression = aggression

    def act_fast(
        self, fctx: FastMarketContext, timestamp: int, rng: np.random.Generator
    ) -> bool:
        book = fctx.book
        best_bid = book.best_bid
        best_ask = book.best_ask
        if best_bid is None or best_ask is None:
            return False
        side = _BID if rng.random() < 0.5 else _ASK
        touch = best_ask if side == _BID else best_bid
        quantity = int(rng.integers(1, 6))
        kernel = fctx.kernel
        kernel.submit(
            side, _LIMIT, _IOC, touch, quantity, next_order_id(), timestamp,
            fctx.owner_id(self.name),
        )
        if kernel.op_filled:
            fctx.last_direction = _SIGN[side]
            return True
        # An unfilled IOC leaves no trace (no fills, no resting update).
        return False


class MomentumTrader(Agent):
    """Chases the last move, amplifying bursts into directional cascades."""

    def __init__(self, name: str) -> None:
        self.name = name

    def act_fast(
        self, fctx: FastMarketContext, timestamp: int, rng: np.random.Generator
    ) -> bool:
        if fctx.last_direction == 0:
            return False
        book = fctx.book
        if book.best_bid is None or book.best_ask is None:
            return False
        side = _BID if fctx.last_direction > 0 else _ASK
        quantity = int(rng.integers(1, 4))
        kernel = fctx.kernel
        kernel.submit(
            side, _MARKET, _DAY, 1, quantity, next_order_id(), timestamp,
            fctx.owner_id(self.name),
        )
        return kernel.op_filled > 0


@dataclass(frozen=True)
class AgentMix:
    """Weighted population of agents sampled per arrival."""

    agents: tuple[Agent, ...]
    weights: tuple[float, ...]
    # Normalized CDF of the weights, cached for sample_fast's bisect.
    _cdf: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.agents) != len(self.weights):
            raise ValueError("agents and weights must align")
        if not self.agents:
            raise ValueError("agent mix cannot be empty")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        probs = np.asarray(self.weights, dtype=float)
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf.tolist())

    def sample_fast(self, rng: np.random.Generator) -> Agent:
        """Draw one agent according to the mix weights.

        ``rng.choice(n, p=probs)`` inverts the probability CDF on a
        single ``rng.random()`` draw, so bisecting the cached CDF on one
        ``rng.random()`` selects the agent the reference sampler's
        ``rng.choice`` would and leaves the bit-stream in the same state
        (pinned by the tape parity tests)."""
        return self.agents[bisect_right(self._cdf, rng.random())]


def default_mix() -> AgentMix:
    """The standard population: 60% maker churn, 30% takers, 10% momentum."""
    return AgentMix(
        agents=(
            MarketMaker("mm-0"),
            MarketMaker("mm-1", max_depth=4),
            LiquidityTaker("taker-0"),
            MomentumTrader("momo-0"),
        ),
        weights=(0.35, 0.25, 0.30, 0.10),
    )
