"""Discrete-event back-testing framework."""

from repro.sim.backtest import Backtester, SimConfig, run_lighttrader
from repro.sim.events import EventKind, EventQueue
from repro.sim.metrics import MetricsCollector, RunResult
from repro.sim.workload import (
    DEFAULT_TRAFFIC,
    DeadlinePolicy,
    FixedDeadline,
    HorizonDeadline,
    OpportunityDeadline,
    QueryWorkload,
    Regime,
    TrafficSpec,
    synthetic_workload,
)

__all__ = [
    "Backtester",
    "DEFAULT_TRAFFIC",
    "DeadlinePolicy",
    "EventKind",
    "EventQueue",
    "FixedDeadline",
    "HorizonDeadline",
    "MetricsCollector",
    "OpportunityDeadline",
    "QueryWorkload",
    "Regime",
    "RunResult",
    "SimConfig",
    "SimulationError",
    "TrafficSpec",
    "run_lighttrader",
    "synthetic_workload",
]

from repro.errors import SimulationError  # noqa: E402  (re-export for convenience)
