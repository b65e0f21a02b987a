"""Offload conservation over whole back-tests: every admitted query ends
in exactly one outcome.

``offload.admitted == responded + completed_late + dropped + unscored``
holds only if no issue ever overwrites a batch still in flight.  The
traffic is quantised to whole microseconds, so arrivals share instants,
devices issued together finish together, and completions tie — the
case where a device whose completion at ``now`` has not run yet must
not take a new batch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.profiles import fpga_profile, gpu_profile, lighttrader_profile
from repro.faults.plan import seeded_plan
from repro.metrics import MetricRegistry
from repro.sim.backtest import Backtester, SimConfig
from tests.traffic import DURATION_S, quantised_workload

_SCHEMES = {
    "baseline": (False, False),
    "ws": (True, False),
    "ds": (False, True),
    "ws+ds": (True, True),
}
_LIGHTTRADER = [
    (n, scheme) for n in (2, 4, 16) for scheme in sorted(_SCHEMES)
]


def _assert_conserved(workload, profile, config, faults=None) -> None:
    registry = MetricRegistry()
    result = Backtester(
        workload, profile, config, faults=faults, metrics=registry
    ).run()
    counters = registry.snapshot()["counters"]
    outcomes = (
        counters["queries.responded"]
        + counters["queries.completed_late"]
        + counters["queries.dropped"]
        + counters["queries.unscored"]
    )
    assert counters["offload.admitted"] == outcomes, result.describe()
    if faults is None:
        assert result.n_queries == workload.scored_count, result.describe()


seeds = given(seed=st.integers(0, 2**16))
few = settings(max_examples=3, deadline=None, derandomize=True)


class TestConservation:
    @pytest.mark.parametrize("n, scheme", _LIGHTTRADER)
    @seeds
    @few
    def test_lighttrader(self, n, scheme, seed):
        ws, ds = _SCHEMES[scheme]
        config = SimConfig(
            n_accelerators=n,
            workload_scheduling=ws,
            dvfs_scheduling=ds,
            power_condition="limited",
        )
        _assert_conserved(quantised_workload(seed), lighttrader_profile(), config)

    @pytest.mark.parametrize("profile", [gpu_profile, fpga_profile])
    @seeds
    @few
    def test_fixed_profiles(self, profile, seed):
        config = SimConfig(n_accelerators=2)
        _assert_conserved(quantised_workload(seed), profile(), config)

    @seeds
    @few
    def test_seeded_fault_plan(self, seed):
        workload = quantised_workload(seed)
        plan = seeded_plan(
            duration_s=DURATION_S,
            n_accelerators=4,
            n_ticks=len(workload),
            seed=seed,
            device_failure_rate_hz=5.0,
            failure_downtime_s=0.05,
            corruption_rate_hz=5.0,
            throttle_rate_hz=5.0,
            throttle_duration_s=0.05,
            stall_rate_hz=5.0,
            stall_duration_us=200.0,
            duplicate_prob=0.01,
            reorder_prob=0.01,
        )
        config = SimConfig(
            n_accelerators=4, workload_scheduling=True, dvfs_scheduling=True
        )
        _assert_conserved(workload, lighttrader_profile(), config, faults=plan)
