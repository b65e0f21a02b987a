"""Tests for the PPW metric, Algorithm 1 and Algorithm 2."""

import pytest

from repro.accelerator import (
    AcceleratorCluster,
    DVFSTable,
    DVFS_SWITCH_NS,
    PowerModel,
)
from repro.baselines import lighttrader_profile
from repro.core import DVFSScheduler, WorkloadScheduler, ppw
from repro.errors import SchedulingError
from repro.units import us_to_ns


@pytest.fixture(scope="module")
def profile():
    return lighttrader_profile()


@pytest.fixture
def table():
    return DVFSTable()


class TestPPW:
    def test_definition(self):
        # 2 queries, 1 ms, 5 W -> 2 / (1e-3 * 5) = 400
        assert ppw(2, 1_000_000, 5.0) == pytest.approx(400.0)

    def test_higher_batch_higher_ppw(self):
        assert ppw(4, 1000, 1.0) > ppw(2, 1000, 1.0)

    def test_lower_latency_higher_ppw(self):
        assert ppw(1, 500, 1.0) > ppw(1, 1000, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(SchedulingError):
            ppw(0, 1000, 1.0)
        with pytest.raises(SchedulingError):
            ppw(1, 0, 1.0)
        with pytest.raises(SchedulingError):
            ppw(1, 1000, 0.0)


class TestWorkloadScheduler:
    def scheduler(self, profile, table, **kwargs):
        return WorkloadScheduler(profile, table, **kwargs)

    def test_infeasible_deadline_returns_none(self, profile, table):
        ws = self.scheduler(profile, table)
        # Deadline already essentially passed: nothing can fit.
        assert ws.decide("deeplob", now=1_000_000, deadlines=[1_000_100], power_budget_w=55.0) is None

    def test_tiny_power_budget_returns_none(self, profile, table):
        ws = self.scheduler(profile, table)
        decision = ws.decide(
            "vanilla_cnn", now=0, deadlines=[us_to_ns(10_000)], power_budget_w=0.01
        )
        assert decision is None

    def test_feasible_decision_meets_constraints(self, profile, table):
        ws = self.scheduler(profile, table)
        deadlines = [us_to_ns(2_000)] * 4
        decision = ws.decide("vanilla_cnn", now=0, deadlines=deadlines, power_budget_w=10.0)
        assert decision is not None
        assert decision.t_total_ns <= deadlines[0]
        assert decision.power_w <= 10.0
        assert 1 <= decision.batch_size <= 4

    def test_batches_under_queue_pressure(self, profile, table):
        """With many pending queries and loose deadlines, batch > 1 wins PPW."""
        ws = self.scheduler(profile, table)
        deadlines = [us_to_ns(50_000)] * 16
        decision = ws.decide("vanilla_cnn", now=0, deadlines=deadlines, power_budget_w=20.0)
        assert decision.batch_size > 1

    def test_tight_deadline_forces_small_batch_or_fast_clock(self, profile, table):
        ws = self.scheduler(profile, table)
        loose = ws.decide("deeplob", 0, [us_to_ns(100_000)] * 8, 20.0)
        tight = ws.decide("deeplob", 0, [us_to_ns(400)] * 8, 20.0)
        assert tight is not None
        assert tight.t_total_ns < loose.t_total_ns

    def test_min_deadline_within_batch_respected(self, profile, table):
        """A tight deadline deep in the queue caps the usable batch size."""
        ws = self.scheduler(profile, table)
        deadlines = [us_to_ns(50_000), us_to_ns(50_000), us_to_ns(200)] + [us_to_ns(50_000)] * 5
        decision = ws.decide("vanilla_cnn", now=0, deadlines=deadlines, power_budget_w=20.0)
        assert decision is not None
        if decision.batch_size >= 3:
            assert decision.t_total_ns <= us_to_ns(200)

    def test_floor_frequency_respected_when_feasible(self, profile, table):
        ws = self.scheduler(profile, table)
        decision = ws.decide(
            "vanilla_cnn",
            0,
            [us_to_ns(100_000)],
            power_budget_w=55.0,
            floor_freq_hz=2.0e9,
        )
        assert decision.point.freq_hz >= 2.0e9

    def test_floor_relaxed_when_power_cannot_carry_it(self, profile, table):
        """If the share can't power the floor, slower points are allowed."""
        ws = self.scheduler(profile, table)
        decision = ws.decide(
            "deeplob",
            0,
            [us_to_ns(100_000)],
            power_budget_w=1.0,
            floor_freq_hz=2.0e9,
        )
        assert decision is not None
        assert decision.point.freq_hz < 2.0e9

    def test_empty_deadlines_rejected(self, profile, table):
        with pytest.raises(SchedulingError):
            self.scheduler(profile, table).decide("vanilla_cnn", 0, [], 10.0)

    def test_metric_ablation_latency_prefers_speed(self, profile, table):
        ppw_ws = self.scheduler(profile, table, metric="ppw")
        fast_ws = self.scheduler(profile, table, metric="latency")
        deadlines = [us_to_ns(50_000)] * 8
        slow = ppw_ws.decide("vanilla_cnn", 0, deadlines, 55.0, floor_freq_hz=0.0)
        fast = fast_ws.decide("vanilla_cnn", 0, deadlines, 55.0, floor_freq_hz=0.0)
        assert fast.t_total_ns <= slow.t_total_ns
        assert fast.batch_size == 1

    def test_unknown_metric_rejected(self, profile, table):
        with pytest.raises(SchedulingError):
            self.scheduler(profile, table, metric="random")

    def test_static_decision_is_batch_one(self, profile, table):
        ws = self.scheduler(profile, table)
        decision = ws.static_decision("vanilla_cnn", table.at_ghz(2.0), 0, us_to_ns(1))
        assert decision.batch_size == 1
        assert decision.point.freq_ghz == pytest.approx(2.0)


class TestDVFSScheduler:
    def make_cluster(self, table, n=4, budget=20.0):
        return AcceleratorCluster(
            n_accelerators=n, table=table, power_model=PowerModel(), budget_w=budget
        )

    def busy_device(self, cluster, table, point_ghz=1.0, duration_us=600, deadline_us=5_000):
        device = cluster.devices[0]
        device.point = table.at_ghz(point_ghz)
        device.issue(
            0,
            us_to_ns(duration_us),
            batch_size=1,
            activity=1.5,
            deadline_ns=us_to_ns(deadline_us),
        )
        return device

    def test_redistribute_boosts_busy_device(self, profile, table):
        cluster = self.make_cluster(table)
        device = self.busy_device(cluster, table, point_ghz=1.0)
        ds = DVFSScheduler(profile, table)
        before = device.busy_until
        transitions = ds.redistribute(cluster, now=0)
        assert transitions >= 1
        assert device.point.freq_ghz > 1.0
        assert device.busy_until < before

    def test_redistribute_respects_budget(self, profile, table):
        cluster = self.make_cluster(table, n=4, budget=6.0)
        for i in range(4):
            cluster.devices[i].point = table.at_ghz(1.0)
            cluster.devices[i].issue(0, us_to_ns(600), 1, 1.5, deadline_ns=us_to_ns(5_000))
        ds = DVFSScheduler(profile, table)
        ds.redistribute(cluster, now=0)
        assert cluster.total_power(0) <= 6.0 + 1e-9

    def test_redistribute_reserve_held_back(self, profile, table):
        cluster = self.make_cluster(table, n=2, budget=8.0)
        self.busy_device(cluster, table, point_ghz=1.0)
        ds = DVFSScheduler(profile, table)
        ds.redistribute(cluster, now=0, reserve_w=6.0)
        # With most of the budget reserved, the boost must stay modest.
        assert cluster.total_power(0) <= 8.0 - 6.0 + 2.5

    def test_reclaim_frees_headroom(self, profile, table):
        cluster = self.make_cluster(table, n=2, budget=9.0)
        device = self.busy_device(
            cluster, table, point_ghz=2.2, duration_us=100, deadline_us=100_000
        )
        ds = DVFSScheduler(profile, table)
        before = cluster.headroom(0)
        assert ds.reclaim(cluster, now=0, needed_w=before + 2.0)
        assert cluster.headroom(0) >= before + 2.0

    def test_reclaim_already_satisfied(self, profile, table):
        cluster = self.make_cluster(table, budget=100.0)
        ds = DVFSScheduler(profile, table)
        assert ds.reclaim(cluster, now=0, needed_w=1.0)

    def test_save_power_scales_down_within_deadline(self, profile, table):
        """A reclaim saves power by slowing a busy batch, no further than
        its deadline allows."""
        cluster = self.make_cluster(table, n=2, budget=9.0)
        device = self.busy_device(
            cluster, table, point_ghz=2.2, duration_us=100, deadline_us=100_000
        )
        ds = DVFSScheduler(profile, table)
        ds.reclaim(cluster, now=0, needed_w=cluster.headroom(0) + 2.0)
        assert device.point.freq_ghz < 2.2
        assert device.busy_until <= us_to_ns(100_000)

    def test_save_power_respects_tight_deadline(self, profile, table):
        """A reclaim leaves a batch without deadline slack at its point."""
        cluster = self.make_cluster(table, n=2, budget=9.0)
        device = self.busy_device(
            cluster, table, point_ghz=2.0, duration_us=500, deadline_us=510
        )
        ds = DVFSScheduler(profile, table)
        assert not ds.reclaim(cluster, now=0, needed_w=cluster.headroom(0) + 2.0)
        assert device.point.freq_ghz == pytest.approx(2.0)
        assert device.busy_until == us_to_ns(500)

    def test_boost_skipped_when_switch_eats_gain(self, profile, table):
        """A nearly-finished batch is not worth a 4 µs PMIC transition."""
        cluster = self.make_cluster(table)
        device = cluster.devices[0]
        device.point = table.at_ghz(1.0)
        device.issue(0, round(DVFS_SWITCH_NS * 1.5), 1, 1.5, deadline_ns=us_to_ns(10_000))
        ds = DVFSScheduler(profile, table)
        now = round(DVFS_SWITCH_NS * 1.4)  # almost done
        assert ds.redistribute(cluster, now=now) == 0
