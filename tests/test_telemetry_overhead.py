"""Telemetry must be free when disabled.

The hot paths (event loop, scheduler, power manager) are permanently
instrumented; the contract that makes this acceptable is that a run
without telemetry touches only shared no-op objects.  These are
regression tests on that contract — allocation counts, not wall-clock,
so they cannot flake with machine load.
"""

import tracemalloc

from repro.baselines import lighttrader_profile
from repro.sim.backtest import Backtester, SimConfig
from repro.sim.workload import synthetic_workload
from repro.telemetry.registry import NULL_REGISTRY, Registry


def test_disabled_registry_shares_one_null_instrument():
    registry = Registry(enabled=False)
    null = registry.counter("a")
    assert registry.counter("b") is null
    assert registry.gauge("c") is null
    assert registry.histogram("d") is null
    assert NULL_REGISTRY.counter("anything") is null
    # And it stays allocation-free: no instrument dict growth either.
    assert not registry._counters and not registry._gauges


def test_null_instrument_api_is_inert():
    null = NULL_REGISTRY.counter("x")
    null.inc()
    null.inc(100)
    null.set(3.0)
    null.record(5.0)
    assert null.value == 0
    assert null.to_dict() == {}


def test_untraced_backtest_allocates_nothing_in_telemetry():
    profile = lighttrader_profile()
    workload = synthetic_workload(2.0, seed=4, name="overhead")
    config = SimConfig(
        model="deeplob",
        n_accelerators=2,
        workload_scheduling=True,
        dvfs_scheduling=True,
    )
    # Warm every lazy cache (anchor calibration, sweep grids) first, so
    # the traced window sees only steady-state simulation work.
    Backtester(workload, profile, config).run()

    telemetry_filter = tracemalloc.Filter(True, "*/repro/telemetry/*")
    tracemalloc.start(10)
    try:
        Backtester(workload, profile, config).run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    telemetry_stats = snapshot.filter_traces([telemetry_filter]).statistics("filename")
    allocated = sum(stat.size for stat in telemetry_stats)
    # The telemetry package must not allocate at all on the no-telemetry
    # path (shared null instruments, no spans, no decision log).
    assert allocated == 0, (
        f"telemetry allocated {allocated} bytes without a consumer: "
        f"{[str(s) for s in telemetry_stats]}"
    )
