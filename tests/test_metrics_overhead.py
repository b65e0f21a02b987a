"""Metrics must be free when disabled and allocation-flat when enabled.

Mirrors ``test_telemetry_overhead.py``: the scoring loop, feed handler
and offload queue are permanently instrumented, and the contract that
makes this acceptable is (a) ``REPRO_METRICS=0`` touches only shared
no-op instruments — zero bytes allocated inside ``repro/metrics`` — and
(b) with metrics on, hot-path updates mutate pre-allocated slots and
array buckets, so steady-state allocation stays bounded by small-int
boxing, never per-event object churn.  Allocation counts, not
wall-clock, so the tests cannot flake with machine load.
"""

import tracemalloc

from repro.baselines import lighttrader_profile
from repro.metrics import NULL_METRICS, MetricRegistry
from repro.sim.backtest import Backtester, SimConfig
from repro.sim.workload import synthetic_workload

_CONFIG = dict(
    model="deeplob",
    n_accelerators=2,
    workload_scheduling=True,
    dvfs_scheduling=True,
)
# Every run here replays one workload; QueryWorkload is immutable.
_WORKLOAD = synthetic_workload(2.0, seed=4, name="overhead")


def _run(metrics):
    profile = lighttrader_profile()
    Backtester(_WORKLOAD, profile, SimConfig(**_CONFIG), metrics=metrics).run()


def _metrics_bytes(metrics):
    # Warm every lazy cache (anchor calibration, sweep grids) so the
    # traced window sees only steady-state work.
    _run(MetricRegistry(enabled=False))
    metrics_filter = tracemalloc.Filter(True, "*/repro/metrics/*")
    tracemalloc.start(10)
    try:
        _run(metrics)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces([metrics_filter]).statistics("filename")
    return sum(stat.size for stat in stats), stats


def test_disabled_metrics_allocate_nothing():
    allocated, stats = _metrics_bytes(MetricRegistry(enabled=False))
    assert allocated == 0, (
        f"repro.metrics allocated {allocated} bytes while disabled: "
        f"{[str(s) for s in stats]}"
    )


def test_null_registry_is_shared_and_inert():
    assert NULL_METRICS.counter("a") is NULL_METRICS.histogram("b")
    assert MetricRegistry(enabled=False).counter("c") is NULL_METRICS.counter("d")


def test_enabled_metrics_stay_allocation_flat():
    # A pre-populated registry (instruments already created by a first
    # run) must not grow per-event: counter/gauge slots and histogram
    # bucket arrays are in place, so live-size growth during the traced
    # run is bounded by boxed ints/floats, not per-query allocations.
    registry = MetricRegistry()
    _run(registry)  # create every instrument once
    allocated, stats = _metrics_bytes(registry)
    budget = 2048
    assert allocated < budget, (
        f"repro.metrics allocated {allocated} bytes across "
        f"{len(_WORKLOAD)} queries (budget {budget}): "
        f"{[str(s) for s in stats]}"
    )
