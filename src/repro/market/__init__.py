"""Synthetic market substrate: bursty arrivals, agents, tick tapes."""

from repro.market.agents import (
    Agent,
    AgentMix,
    FastMarketContext,
    LiquidityTaker,
    MarketMaker,
    MomentumTrader,
    default_mix,
)
from repro.market.gateway import ExchangeGateway, ExecType, ExecutionReport, GatewayStats
from repro.market.generator import MarketConfig, MarketSimulator, generate_session
from repro.market.hawkes import BURSTY, CALM, HawkesParams, HawkesProcess, sample_arrivals
from repro.market.replay import Tick, TickTape
from repro.market.stats import TrafficStats, describe, traffic_stats

__all__ = [
    "Agent",
    "AgentMix",
    "BURSTY",
    "CALM",
    "ExchangeGateway",
    "ExecType",
    "ExecutionReport",
    "FastMarketContext",
    "GatewayStats",
    "HawkesParams",
    "HawkesProcess",
    "LiquidityTaker",
    "MarketConfig",
    "MarketMaker",
    "MarketSimulator",
    "MomentumTrader",
    "Tick",
    "TickTape",
    "TrafficStats",
    "default_mix",
    "describe",
    "generate_session",
    "sample_arrivals",
    "traffic_stats",
]
