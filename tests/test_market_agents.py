"""Unit tests for the order-flow agents.

The agents act through the per-op reference actions in
``tests/oracles/market.py``; the tape parity tests hold the shipping
``act_fast`` plans to them draw for draw.
"""

import numpy as np
import pytest

from repro.lob import Order, Side
from repro.market.agents import (
    AgentMix,
    LiquidityTaker,
    MarketMaker,
    MomentumTrader,
    default_mix,
)
from tests.oracles.market import MarketContext, act


@pytest.fixture
def ctx():
    context = MarketContext(symbol="ES", reference_price=18_000.0)
    # Two-sided seed.
    context.engine.submit("ES", Order(side=Side.BID, price=17_998, quantity=10), 0)
    context.engine.submit("ES", Order(side=Side.ASK, price=18_002, quantity=10), 0)
    return context


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestMarketMaker:
    def test_places_quotes(self, ctx, rng):
        maker = MarketMaker("mm")
        for t in range(20):
            act(maker, ctx, t, rng)
        book = ctx.book
        assert len(book) > 2  # seeded 2 plus maker quotes

    def test_recycles_stale_quotes(self, ctx, rng):
        maker = MarketMaker("mm", max_live_quotes=5)
        for t in range(50):
            act(maker, ctx, t, rng)
        assert len(maker._live) <= 5

    def test_quotes_around_anchor(self, ctx, rng):
        maker = MarketMaker("mm", max_depth=3)
        for t in range(30):
            act(maker, ctx, t, rng)
        for side in (ctx.book.bids, ctx.book.asks):
            for level in side.iter_best_first():
                assert abs(level.price - 18_000) <= 12


class TestLiquidityTaker:
    def test_crosses_the_spread(self, ctx, rng):
        taker = LiquidityTaker("taker")
        fills = []
        for t in range(30):
            for result in act(taker, ctx, t, rng):
                fills.extend(result.fills)
        assert fills  # some IOC orders executed

    def test_noop_on_empty_book(self, rng):
        context = MarketContext(symbol="ES", reference_price=100.0)
        assert act(LiquidityTaker("t"), context, 0, rng) == []

    def test_sets_direction(self, ctx, rng):
        taker = LiquidityTaker("taker")
        for t in range(30):
            act(taker, ctx, t, rng)
        assert ctx.last_direction in (-1, 0, 1)


class TestMomentumTrader:
    def test_idle_without_direction(self, ctx, rng):
        assert act(MomentumTrader("momo"), ctx, 0, rng) == []

    def test_chases_direction(self, ctx, rng):
        ctx.last_direction = 1
        results = act(MomentumTrader("momo"), ctx, 0, rng)
        assert results
        assert results[0].order.side is Side.BID


class TestAgentMix:
    def test_default_mix_samples_all_archetypes(self, rng):
        mix = default_mix()
        names = {type(mix.sample_fast(rng)).__name__ for __ in range(200)}
        assert names == {"MarketMaker", "LiquidityTaker", "MomentumTrader"}

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            AgentMix(agents=(), weights=())
        with pytest.raises(ValueError):
            AgentMix(agents=(MarketMaker("m"),), weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            AgentMix(agents=(MarketMaker("m"),), weights=(-1.0,))
