"""Market simulator: Hawkes arrivals drive agents through the matching engine.

This produces the synthetic CME-like session used by every experiment:
bursty tick timestamps (Hawkes), realistic two-sided book dynamics
(agent-based order flow through a real price–time-priority matching
engine), and per-tick depth snapshots recorded as a :class:`TickTape`.

The generator's agents send plain-int ops straight to the symbol's
:class:`~repro.lob.array_matching.MatchingKernel`, which matches them in
place on the live book — no per-arrival ``Order``/``MatchResult``/event
objects, snapshots sliced straight from the book's packed level lists.
``tests/oracles/market.py`` keeps the per-op loop this replaced (every
agent action through the engine's public API); the RNG draw sequence
and the reference-price drift are preserved draw for draw, which keeps
the two tapes byte-identical.

Arrivals are consumed in chunks of ``_ARRIVAL_CHUNK``, so a long session
never materialises its full arrival array as a Python list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lob.array_matching import ArrayMatchingEngine
from repro.lob.order import Order, Side
from repro.lob.snapshot import CANONICAL_DEPTH, DepthSnapshot
from repro.market.agents import AgentMix, FastMarketContext, default_mix
from repro.market.hawkes import BURSTY, HawkesParams, HawkesProcess
from repro.market.replay import Tick, TickTape
from repro.metrics import MetricRegistry
from repro.units import sec_to_ns

# Arrival timestamps are converted to Python ints this many at a time,
# which bounds the ``tolist`` batch (peak memory on long sessions).
_ARRIVAL_CHUNK = 4096


@dataclass(frozen=True)
class MarketConfig:
    """Configuration of a synthetic market session.

    Attributes:
        symbol: Security symbol stamped on all events.
        initial_price: Starting fair value in integer ticks (E-mini S&P 500
            around 4500.00 points = 18000 quarter-point ticks).
        hawkes: Arrival process parameters (default: the bursty preset).
        seed_levels: Number of price levels pre-seeded on each side.
        seed_volume: Resting volume per pre-seeded level.
        snapshot_depth: Depth recorded in each tick snapshot.
    """

    symbol: str = "ESU6"
    initial_price: int = 18_000
    hawkes: HawkesParams = field(default_factory=lambda: BURSTY)
    seed_levels: int = 12
    seed_volume: int = 25
    snapshot_depth: int = CANONICAL_DEPTH


class MarketSimulator:
    """Generates re-runnable synthetic market sessions."""

    def __init__(
        self,
        config: MarketConfig | None = None,
        mix: AgentMix | None = None,
        seed: int = 0,
        metrics: MetricRegistry | None = None,
    ) -> None:
        self.config = config or MarketConfig()
        self.mix = mix or default_mix()
        self.seed = seed
        self.metrics = metrics

    def _seed_book(self, engine: ArrayMatchingEngine) -> None:
        """Pre-populate a symmetric book so agents have liquidity to act on."""
        cfg = self.config
        for level in range(1, cfg.seed_levels + 1):
            engine.submit(
                cfg.symbol,
                Order(
                    side=Side.BID,
                    price=cfg.initial_price - level,
                    quantity=cfg.seed_volume,
                    owner="seed",
                ),
                0,
            )
            engine.submit(
                cfg.symbol,
                Order(
                    side=Side.ASK,
                    price=cfg.initial_price + level,
                    quantity=cfg.seed_volume,
                    owner="seed",
                ),
                0,
            )

    def generate(self, duration_s: float, max_ticks: int | None = None) -> TickTape:
        """Run a session of ``duration_s`` seconds and return its tick tape.

        Every Hawkes arrival triggers one agent action; each action's
        market-data events become one tick (timestamp + post-event
        snapshot).  The same (config, mix, seed, duration) always produces
        the identical tape.

        Agents act on the live book through its matching kernel.  Every
        kernel op checks before it writes, so an exception from an agent
        op propagates with the book as the previous op left it.
        """
        cfg = self.config
        rng = np.random.default_rng(self.seed)
        engine = ArrayMatchingEngine(metrics=self.metrics)
        self._seed_book(engine)

        process = HawkesProcess(cfg.hawkes, rng)
        arrival_times = process.sample_times_ns(sec_to_ns(duration_s))

        symbol = cfg.symbol
        depth = cfg.snapshot_depth
        kernel = engine.kernel(symbol)
        bids = kernel.book.bids
        asks = kernel.book.asks
        fctx = FastMarketContext(symbol, float(cfg.initial_price), kernel)
        sample_fast = self.mix.sample_fast
        normal = rng.normal
        ticks: list[Tick] = []
        sequence = 0
        for start in range(0, arrival_times.shape[0], _ARRIVAL_CHUNK):
            for timestamp in arrival_times[start : start + _ARRIVAL_CHUNK].tolist():
                agent = sample_fast(rng)
                traded_before = kernel.traded_quantity
                if not agent.act_fast(fctx, timestamp, rng):
                    continue
                fctx.reference_price += normal(0.0, 0.05)
                if kernel.traded_quantity > traded_before:
                    last_price, last_quantity = kernel.trade_price, kernel.trade_qty
                else:
                    last_price, last_quantity = None, 0
                sequence += 1
                snapshot = DepthSnapshot.from_ladders(
                    symbol,
                    timestamp,
                    depth,
                    tuple(bids.top(depth)),
                    tuple(asks.top(depth)),
                    last_price,
                    last_quantity,
                    sequence,
                )
                ticks.append(Tick(timestamp=timestamp, snapshot=snapshot))
                if max_ticks is not None and len(ticks) >= max_ticks:
                    return TickTape(ticks)
        return TickTape(ticks)


def generate_session(
    duration_s: float = 10.0,
    seed: int = 0,
    hawkes: HawkesParams | None = None,
    symbol: str = "ESU6",
) -> TickTape:
    """One-call helper used across examples, benchmarks and probes."""
    config = MarketConfig(symbol=symbol, hawkes=hawkes or BURSTY)
    return MarketSimulator(config, seed=seed).generate(duration_s)
