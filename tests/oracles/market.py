"""Reference market generation loop (test oracle).

The shipping generator (:meth:`repro.market.generator.MarketSimulator.generate`)
sends each agent's operations as plain ints to the live book's
:class:`~repro.lob.array_matching.MatchingKernel`.  This module keeps the
per-op loop it replaced: every agent action goes through an engine's
public ``submit``/``cancel`` API and returns :class:`MatchResult` lists,
and every tick is snapshotted with :func:`tests.oracles.book.capture`.
It runs on either book — the shipping :class:`ArrayMatchingEngine` or
the reference :class:`tests.oracles.matching.MatchingEngine` — and must
produce byte-identical tapes and metric registries to the shipping
generator for the same (config, mix, seed, duration).

The agents' reference actions are the ``act`` methods the shipping
agents used to carry, kept here as functions of the agent
(:func:`act`); :func:`sample` is the ``rng.choice`` mix sampler that
``AgentMix.sample_fast`` replaced draw for draw.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

import repro.market.generator as generator
from repro.lob.array_book import ArrayBook
from repro.lob.array_matching import ArrayMatchingEngine, MatchResult
from repro.lob.events import TradeTick
from repro.lob.order import Order, OrderType, Side, TimeInForce
from repro.market.agents import (
    Agent,
    AgentMix,
    LiquidityTaker,
    MarketMaker,
    MomentumTrader,
)
from repro.market.generator import MarketConfig, MarketSimulator
from repro.market.hawkes import BURSTY, HawkesParams, HawkesProcess
from repro.market.replay import Tick, TickTape
from repro.metrics import MetricRegistry
from repro.units import sec_to_ns
from tests.oracles.book import LimitOrderBook, capture
from tests.oracles.matching import MatchingEngine

AnyMatchingEngine = MatchingEngine | ArrayMatchingEngine


@dataclass
class MarketContext:
    """Mutable state shared between agents while generating a session.

    ``engine`` is either book engine: agents trade against the
    struct-of-arrays book or the object-per-order reference.
    """

    symbol: str
    reference_price: float  # slowly drifting fair value, in ticks
    last_direction: int = 0  # sign of the last trade-driven mid move
    engine: AnyMatchingEngine = field(default_factory=ArrayMatchingEngine)

    @property
    def book(self) -> "LimitOrderBook | ArrayBook":
        """The symbol's live book."""
        return self.engine.book(self.symbol)

    def anchor_price(self) -> int:
        """Best integer price to quote around: the mid if the book is
        two-sided, else the drifting reference price."""
        mid = self.book.mid_price
        return round(mid) if mid is not None else round(self.reference_price)


def _maker_act(
    self: MarketMaker, ctx: MarketContext, timestamp: int, rng: np.random.Generator
) -> list[MatchResult]:
    results: list[MatchResult] = []
    book = ctx.book
    # Recycle stale quotes beyond the live bound.
    while len(self._live) >= self.max_live_quotes:
        order_id = self._live.pop(0)
        if order_id in book:
            results.append(ctx.engine.cancel(ctx.symbol, order_id, timestamp))
    anchor = ctx.anchor_price()
    side = Side.BID if rng.uniform() < 0.5 else Side.ASK
    offset = int(rng.integers(1, self.max_depth + 1))
    price = anchor - offset if side is Side.BID else anchor + offset
    if price <= 0:
        return results
    order = Order(
        side=side,
        price=price,
        quantity=int(rng.integers(1, 10)),
        owner=self.name,
    )
    results.append(ctx.engine.submit(ctx.symbol, order, timestamp))
    if order.order_id in book:
        self._live.append(order.order_id)
    return results


def _taker_act(
    self: LiquidityTaker, ctx: MarketContext, timestamp: int, rng: np.random.Generator
) -> list[MatchResult]:
    book = ctx.book
    if book.best_bid is None or book.best_ask is None:
        return []
    side = Side.BID if rng.uniform() < 0.5 else Side.ASK
    touch = book.best_ask if side is Side.BID else book.best_bid
    order = Order(
        side=side,
        price=touch,
        quantity=int(rng.integers(1, 6)),
        tif=TimeInForce.IOC,
        owner=self.name,
    )
    result = ctx.engine.submit(ctx.symbol, order, timestamp)
    if result.fills:
        ctx.last_direction = side.sign
    return [result]


def _momentum_act(
    self: MomentumTrader, ctx: MarketContext, timestamp: int, rng: np.random.Generator
) -> list[MatchResult]:
    if ctx.last_direction == 0:
        return []
    book = ctx.book
    if book.best_bid is None or book.best_ask is None:
        return []
    side = Side.BID if ctx.last_direction > 0 else Side.ASK
    order = Order(
        side=side,
        price=1,
        quantity=int(rng.integers(1, 4)),
        order_type=OrderType.MARKET,
        owner=self.name,
    )
    return [ctx.engine.submit(ctx.symbol, order, timestamp)]


_ACTS: dict[type, Callable[..., list[MatchResult]]] = {
    MarketMaker: _maker_act,
    LiquidityTaker: _taker_act,
    MomentumTrader: _momentum_act,
}


def act(
    agent: Agent, ctx: MarketContext, timestamp: int, rng: np.random.Generator
) -> list[MatchResult]:
    """Perform ``agent``'s operations at ``timestamp``; return results."""
    return _ACTS[type(agent)](agent, ctx, timestamp, rng)


def sample(self: AgentMix, rng: np.random.Generator) -> Agent:
    """Draw one agent according to the mix weights."""
    probs = np.asarray(self.weights, dtype=float)
    probs /= probs.sum()
    return self.agents[int(rng.choice(len(self.agents), p=probs))]


class ReferenceMarketSimulator(MarketSimulator):
    """:class:`MarketSimulator` running the per-op reference loop.

    ``engine`` builds the book engine (called with ``metrics=``): the
    shipping :class:`ArrayMatchingEngine` by default, or the reference
    :class:`MatchingEngine`.
    """

    def __init__(
        self,
        config: MarketConfig | None = None,
        mix: AgentMix | None = None,
        seed: int = 0,
        metrics: MetricRegistry | None = None,
        engine: Callable[..., AnyMatchingEngine] = ArrayMatchingEngine,
    ) -> None:
        super().__init__(config, mix, seed, metrics)
        self.engine = engine

    def generate(self, duration_s: float, max_ticks: int | None = None) -> TickTape:
        cfg = self.config
        rng = np.random.default_rng(self.seed)
        ctx = MarketContext(
            symbol=cfg.symbol,
            reference_price=float(cfg.initial_price),
            engine=self.engine(metrics=self.metrics),
        )
        self._seed_book(ctx.engine)

        process = HawkesProcess(cfg.hawkes, rng)
        arrival_times = process.sample_times_ns(sec_to_ns(duration_s))
        return self._generate_reference(ctx, rng, arrival_times, max_ticks)

    def _generate_reference(
        self,
        ctx: MarketContext,
        rng: np.random.Generator,
        arrival_times: np.ndarray,
        max_ticks: int | None,
    ) -> TickTape:
        """The per-op loop: every action through the engine's public API."""
        cfg = self.config
        chunk = generator._ARRIVAL_CHUNK
        ticks: list[Tick] = []
        sequence = 0
        for start in range(0, arrival_times.shape[0], chunk):
            for timestamp in arrival_times[start : start + chunk].tolist():
                agent = sample(self.mix, rng)
                results = act(agent, ctx, timestamp, rng)
                if not any(result.events for result in results):
                    continue
                # Random-walk drift of the reference price keeps the market
                # alive even if one side is temporarily swept.
                ctx.reference_price += rng.normal(0.0, 0.05)
                last_trade = self._last_trade(results)
                sequence += 1
                snapshot = capture(
                    ctx.book,
                    timestamp=timestamp,
                    depth=cfg.snapshot_depth,
                    last_trade_price=last_trade[0],
                    last_trade_quantity=last_trade[1],
                    sequence=sequence,
                )
                ticks.append(Tick(timestamp=timestamp, snapshot=snapshot))
                if max_ticks is not None and len(ticks) >= max_ticks:
                    return TickTape(ticks)
        return TickTape(ticks)

    @staticmethod
    def _last_trade(results: Sequence[MatchResult]) -> tuple[int | None, int]:
        """Extract the price/quantity of the last trade in ``results``."""
        for result in reversed(results):
            for event in reversed(result.events):
                if isinstance(event, TradeTick) and event.quantity > 0:
                    return event.price, event.quantity
        return None, 0


def reference_session(
    duration_s: float = 10.0,
    seed: int = 0,
    hawkes: HawkesParams | None = None,
    symbol: str = "ESU6",
    engine: Callable[..., AnyMatchingEngine] = ArrayMatchingEngine,
) -> TickTape:
    """:func:`repro.market.generator.generate_session` through the
    reference loop on the book ``engine`` builds."""
    config = MarketConfig(symbol=symbol, hawkes=hawkes or BURSTY)
    return ReferenceMarketSimulator(config, seed=seed, engine=engine).generate(
        duration_s
    )
