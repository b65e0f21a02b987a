"""Fault injection: plans, injector mechanics, graceful degradation."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.profiles import fpga_profile, gpu_profile, lighttrader_profile
from repro.errors import SimulationError
from repro.faults import (
    DEVICE_FAILURE,
    DEVICE_RECOVERY,
    DMA_STALL,
    PACKET_DROP,
    PACKET_DUP,
    PACKET_REORDER,
    QUERY_CORRUPTION,
    THERMAL_THROTTLE,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    seeded_plan,
)
from repro.sim.backtest import Backtester, SimConfig
from repro.sim.workload import Regime, TrafficSpec, synthetic_workload
from repro.telemetry import Telemetry
from repro.units import GHZ, sec_to_ns

DURATION = 2.0


def _workload(duration_s=DURATION, seed=1):
    return synthetic_workload(duration_s=duration_s, seed=seed)


def _config(**kwargs):
    defaults = dict(
        model="deeplob",
        n_accelerators=16,
        workload_scheduling=True,
        dvfs_scheduling=True,
    )
    defaults.update(kwargs)
    return SimConfig(**defaults)


def _hard_failure_plan(n_failures=4, t_s=0.5):
    """Permanently fail ``n_failures`` devices shortly into the run."""
    return FaultPlan(
        events=tuple(
            FaultEvent(
                t_ns=sec_to_ns(t_s) + i * 1_000, kind=DEVICE_FAILURE, accel_id=i
            )
            for i in range(n_failures)
        )
    )


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            FaultEvent(t_ns=0, kind="cosmic_ray")

    def test_cluster_fault_needs_accel(self):
        with pytest.raises(SimulationError):
            FaultEvent(t_ns=0, kind=DEVICE_FAILURE)

    def test_feed_fault_needs_tick(self):
        with pytest.raises(SimulationError):
            FaultEvent(t_ns=0, kind=PACKET_DROP)

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            FaultEvent(t_ns=-1, kind=DMA_STALL)

    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.empty
        assert plan.cluster_events() == ()
        assert plan.feed_events() == ()
        assert plan.counts() == {}

    def test_event_partition(self):
        plan = FaultPlan(
            events=(
                FaultEvent(t_ns=5, kind=DMA_STALL, duration_ns=10),
                FaultEvent(t_ns=1, kind=DEVICE_FAILURE, accel_id=0),
                FaultEvent(t_ns=0, kind=PACKET_DROP, tick_index=3),
            )
        )
        cluster = plan.cluster_events()
        assert [e.kind for e in cluster] == [DEVICE_FAILURE, DMA_STALL]  # sorted
        assert [e.kind for e in plan.feed_events()] == [PACKET_DROP]

    def test_seeded_plan_deterministic(self):
        kwargs = dict(
            duration_s=5.0,
            n_accelerators=8,
            n_ticks=1000,
            device_failure_rate_hz=1.0,
            corruption_rate_hz=1.0,
            throttle_rate_hz=1.0,
            stall_rate_hz=1.0,
            packet_loss_prob=0.01,
            duplicate_prob=0.01,
            reorder_prob=0.01,
        )
        assert seeded_plan(seed=5, **kwargs) == seeded_plan(seed=5, **kwargs)
        assert seeded_plan(seed=5, **kwargs) != seeded_plan(seed=6, **kwargs)

    def test_seeded_plan_zero_rates_empty(self):
        assert seeded_plan(duration_s=5.0, n_accelerators=8, n_ticks=100).empty

    def test_seeded_plan_targets_valid_devices(self):
        plan = seeded_plan(
            duration_s=5.0, n_accelerators=4, seed=2, device_failure_rate_hz=3.0
        )
        assert all(0 <= e.accel_id < 4 for e in plan.cluster_events())


class TestFaultInjector:
    def test_rejects_out_of_range_accel(self):
        plan = FaultPlan(
            events=(FaultEvent(t_ns=0, kind=DEVICE_FAILURE, accel_id=7),)
        )
        with pytest.raises(ValueError):
            FaultInjector(plan, n_accelerators=4)

    def test_arrival_times(self):
        plan = FaultPlan(
            events=(
                FaultEvent(t_ns=0, kind=PACKET_DROP, tick_index=0),
                FaultEvent(t_ns=0, kind=PACKET_REORDER, tick_index=1, delay_ns=50),
                FaultEvent(t_ns=0, kind=PACKET_DUP, tick_index=2, delay_ns=30),
            )
        )
        injector = FaultInjector(plan, n_accelerators=1)
        assert injector.arrival_times(0, 100) == ()
        assert injector.arrival_times(1, 100) == (150,)
        assert injector.arrival_times(2, 100) == (100, 130)
        assert injector.arrival_times(3, 100) == (100,)

    def test_duplicate_suppressed_on_second_arrival(self):
        plan = FaultPlan(
            events=(FaultEvent(t_ns=0, kind=PACKET_DUP, tick_index=0, delay_ns=10),)
        )
        injector = FaultInjector(plan, n_accelerators=1)
        assert injector.on_arrival(0, 100) == "admit"
        assert injector.on_arrival(0, 110) == "duplicate"
        assert injector.feed_duplicates_suppressed == 1

    def test_stall_window(self):
        injector = FaultInjector(FaultPlan(), n_accelerators=1)
        injector.begin_stall(100, 50)
        assert injector.on_arrival(0, 120) == "stalled"
        assert injector.on_arrival(0, 150) == "admit"  # boundary: window closed


class TestGracefulDegradation:
    def test_empty_plan_bit_transparent(self):
        workload = _workload()
        profile = lighttrader_profile()
        config = _config()
        plain = Backtester(workload, profile, config).run()
        empty = Backtester(workload, profile, config, faults=FaultPlan()).run()
        assert dataclasses.asdict(plain) == dataclasses.asdict(empty)

    def test_four_of_sixteen_hard_failures(self):
        """The headline acceptance scenario: 4 of 16 devices fail for good
        mid-run; the back-test completes, power redistributes across the
        12 survivors, and the decision log records it all."""
        workload = _workload()
        profile = lighttrader_profile()
        telemetry = Telemetry()
        backtester = Backtester(
            workload, profile, _config(), telemetry=telemetry,
            faults=_hard_failure_plan(4),
        )
        result = backtester.run()  # must not raise
        assert result.n_queries > 0
        events = telemetry.decisions.events
        failures = [
            e for e in events
            if e["type"] == "fault" and e["kind"] == DEVICE_FAILURE
        ]
        assert len(failures) == 4
        assert failures[-1]["survivors"] == 12
        # Algorithm 2 keeps redistributing after the failures — over the
        # surviving devices only.
        fail_time = max(e["t_ns"] for e in failures)
        assert any(
            e["type"] == "redistribute" and e["t_ns"] > fail_time for e in events
        )
        assert telemetry.registry.counter(f"faults.{DEVICE_FAILURE}").value == 4

    def test_failed_devices_quarantined_and_survivors_absorb_load(self):
        workload = _workload()
        profile = lighttrader_profile()
        config = _config(n_accelerators=4)
        plan = _hard_failure_plan(2, t_s=0.2)
        backtester = Backtester(workload, profile, config, faults=plan)
        degraded = backtester.run()
        healthy = Backtester(workload, profile, config).run()
        # Half the cluster is gone for 90% of the run: the run completes
        # and still answers queries, at no better a rate than the
        # healthy cluster.
        assert degraded.responded > 0
        assert degraded.response_rate <= healthy.response_rate + 1e-12

    def test_recovery_readmits_device(self):
        workload = _workload()
        profile = lighttrader_profile()
        telemetry = Telemetry()
        plan = FaultPlan(
            events=(
                FaultEvent(
                    t_ns=sec_to_ns(0.5),
                    kind=DEVICE_FAILURE,
                    accel_id=0,
                    duration_ns=sec_to_ns(0.5),
                ),
            )
        )
        Backtester(
            workload, profile, _config(n_accelerators=2),
            telemetry=telemetry, faults=plan,
        ).run()
        events = telemetry.decisions.events
        recoveries = [
            e for e in events
            if e["type"] == "fault" and e["kind"] == DEVICE_RECOVERY
        ]
        assert len(recoveries) == 1
        assert recoveries[0]["survivors"] == 2
        assert recoveries[0]["t_ns"] == sec_to_ns(1.0)

    def test_thermal_throttle_caps_committed_points(self):
        """While throttled, every DVFS transition lands at or below the cap."""
        workload = _workload()
        profile = lighttrader_profile()
        telemetry = Telemetry()
        cap_hz = 1.0 * GHZ
        plan = FaultPlan(
            events=(
                FaultEvent(
                    t_ns=sec_to_ns(0.2),
                    kind=THERMAL_THROTTLE,
                    accel_id=0,
                    cap_hz=cap_hz,
                    duration_ns=sec_to_ns(1.5),
                ),
            )
        )
        Backtester(
            workload, profile, _config(n_accelerators=1),
            telemetry=telemetry, faults=plan,
        ).run()
        start, end = sec_to_ns(0.2), sec_to_ns(1.7)
        throttled = [
            e for e in telemetry.decisions.events
            if e["type"] == "dvfs_transition" and start <= e["t_ns"] < end
        ]
        assert throttled, "expected transitions inside the throttle window"
        assert all(e["new"]["freq_ghz"] <= cap_hz / 1e9 + 1e-9 for e in throttled)

    def test_corruption_reissues_or_drops(self):
        workload = _workload()
        profile = lighttrader_profile()
        telemetry = Telemetry()
        plan = FaultPlan(
            events=tuple(
                FaultEvent(t_ns=sec_to_ns(0.1 * k), kind=QUERY_CORRUPTION, accel_id=0)
                for k in range(1, 15)
            )
        )
        result = Backtester(
            workload, profile, _config(n_accelerators=1),
            telemetry=telemetry, faults=plan,
        ).run()
        assert result.n_queries > 0
        corrupt = [
            e for e in telemetry.decisions.events
            if e["type"] == "fault" and e["kind"] == "corrupt_result"
        ]
        assert corrupt  # at least one batch was in flight when flagged
        assert all(
            "requeued" in e and "dropped" in e for e in corrupt
        )

    def test_dma_stall_defers_admission(self):
        workload = _workload()
        profile = lighttrader_profile()
        plan = FaultPlan(
            events=(
                FaultEvent(
                    t_ns=sec_to_ns(0.5), kind=DMA_STALL, duration_ns=sec_to_ns(0.4)
                ),
            )
        )
        stalled = Backtester(
            workload, profile, _config(n_accelerators=2), faults=plan
        ).run()
        clean = Backtester(workload, profile, _config(n_accelerators=2)).run()
        # A 400 ms admission freeze must cost responses.
        assert stalled.responded < clean.responded

    def test_lighttrader_degrades_less_than_fixed_baseline(self):
        """Acceptance: under the same hard-failure FaultPlan, the ws+ds
        scheduler's miss-rate increase stays strictly below the fixed-DVFS
        baseline's.  Needs traffic heavy enough that losing half the
        cluster actually hurts — the default calm-dominated spec is
        absorbed by any survivor count."""
        spec = TrafficSpec(
            calm=Regime("calm", rate_hz=2_000.0, mean_dwell_s=0.2),
            episodes=(
                Regime("active", rate_hz=9_000.0, mean_dwell_s=0.06),
                Regime("burst", rate_hz=40_000.0, mean_dwell_s=0.012),
            ),
            episode_weights=(0.6, 0.4),
        )
        workload = synthetic_workload(duration_s=DURATION, spec=spec, seed=1)
        profile = lighttrader_profile()
        plan = _hard_failure_plan(2, t_s=0.4)

        def miss_delta(**flags):
            config = _config(n_accelerators=4, **flags)
            clean = Backtester(workload, profile, config).run()
            faulty = Backtester(workload, profile, config, faults=plan).run()
            return faulty.miss_rate - clean.miss_rate

        smart = miss_delta(workload_scheduling=True, dvfs_scheduling=True)
        fixed = miss_delta(workload_scheduling=False, dvfs_scheduling=False)
        assert 0.0 < smart < fixed

    def test_fault_plan_on_fixed_profile_refused(self):
        """Fault plans apply to LightTrader profiles only: a non-empty plan
        on a GPU/FPGA profile is refused at construction, while an empty
        plan still means no injection."""
        workload = _workload()
        plan = seeded_plan(
            DURATION,
            4,
            n_ticks=len(workload),
            seed=9,
            device_failure_rate_hz=1.0,
            failure_downtime_s=0.3,
        )
        assert not plan.empty
        config = SimConfig(model="deeplob", n_accelerators=4)
        for profile in (gpu_profile(), fpga_profile()):
            with pytest.raises(SimulationError, match="LightTrader profiles only"):
                Backtester(workload, profile, config, faults=plan)
            plain = Backtester(workload, profile, config).run()
            empty = Backtester(workload, profile, config, faults=FaultPlan()).run()
            assert dataclasses.asdict(empty) == dataclasses.asdict(plain)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_identical_seed_and_plan_identical_results(self, seed):
        """Property: (workload seed, fault plan) fully determine the run."""
        workload = synthetic_workload(duration_s=1.0, seed=seed)
        plan = seeded_plan(
            1.0,
            4,
            n_ticks=len(workload),
            seed=seed,
            device_failure_rate_hz=2.0,
            failure_downtime_s=0.2,
            corruption_rate_hz=2.0,
            throttle_rate_hz=1.0,
            throttle_duration_s=0.2,
            stall_rate_hz=1.0,
            packet_loss_prob=0.02,
            duplicate_prob=0.01,
            reorder_prob=0.01,
        )
        profile = lighttrader_profile()
        config = _config(n_accelerators=4)
        first = Backtester(workload, profile, config, faults=plan).run()
        second = Backtester(workload, profile, config, faults=plan).run()
        assert dataclasses.asdict(first) == dataclasses.asdict(second)
