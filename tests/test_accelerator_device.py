"""Tests for accelerator devices, clusters, C2C links and the interpreter."""

import numpy as np
import pytest

from repro.accelerator import (
    Accelerator,
    AcceleratorCluster,
    C2CLinkConfig,
    CGRAInterpreter,
    DVFSTable,
    DVFS_SWITCH_NS,
    InterlakenLinkConfig,
    OperatingPoint,
    PowerModel,
    WatermarkFifo,
    bandwidth_ratio,
    simulate_flow_control,
)
from repro import paperdata
from repro.errors import AcceleratorError
from repro.units import us_to_ns


@pytest.fixture
def table():
    return DVFSTable(cap_hz=2.0e9)


@pytest.fixture
def device(table):
    return Accelerator(0, table, PowerModel(), initial_point=table.at_ghz(2.0))


class TestAccelerator:
    def test_idle_initially(self, device):
        assert device.is_idle(0)

    def test_issue_makes_busy_until_completion(self, device):
        record = device.issue(100, us_to_ns(50), batch_size=1, activity=1.5)
        assert not device.is_idle(record.completion_time - 1)
        assert device.is_idle(record.completion_time)

    def test_finish_before_completion_rejected(self, device):
        device.issue(0, 1000, 1, 1.5)
        with pytest.raises(AcceleratorError):
            device.finish(500)

    def test_finish_counts(self, device):
        device.issue(0, 1000, 1, 1.5)
        device.finish(1000)
        assert device.completed == 1
        assert device.current is None

    def test_issue_while_busy_rejected(self, device):
        device.issue(0, 1000, 1, 1.5)
        with pytest.raises(AcceleratorError):
            device.issue(500, 1000, 1, 1.5)

    def test_dvfs_switch_delay(self, device, table):
        ready = device.set_point(table.at_ghz(1.0), now=0)
        assert ready == DVFS_SWITCH_NS
        with pytest.raises(AcceleratorError):
            device.issue(0, 1000, 1, 1.5)  # not ready until the switch settles

    def test_same_point_is_free(self, device, table):
        assert device.set_point(table.at_ghz(2.0), now=0) == 0

    def test_dvfs_change_while_busy_rejected(self, device, table):
        device.issue(0, 1000, 1, 1.5)
        with pytest.raises(AcceleratorError):
            device.set_point(table.at_ghz(1.0), now=500)

    def test_power_during_and_after(self, device):
        record = device.issue(0, 1000, 2, 1.5)
        assert device.power_now(500) == pytest.approx(record.power_w)
        assert device.power_now(2000) < record.power_w  # idle leakage


class TestCluster:
    @pytest.fixture
    def cluster(self, table):
        return AcceleratorCluster(
            n_accelerators=4, table=table, power_model=PowerModel(), budget_w=20.0
        )

    def test_budget_split(self, cluster):
        assert cluster.per_accel_budget_w == pytest.approx(5.0)

    def test_idle_and_busy_partition(self, cluster):
        cluster.devices[0].issue(0, 1000, 1, 1.5)
        assert len(cluster.idle_devices(500)) == 3
        assert len(cluster.busy_devices(500)) == 1

    def test_next_completion(self, cluster):
        cluster.devices[0].issue(0, 1000, 1, 1.5)
        cluster.devices[1].issue(0, 3000, 1, 1.5)
        assert cluster.next_completion(0) == 1000
        assert cluster.next_completion(5000) is None

    def test_total_power_sums_devices(self, cluster):
        before = cluster.total_power(0)
        cluster.devices[0].issue(0, 1000, 1, 1.5)
        assert cluster.total_power(500) > before

    def test_headroom(self, cluster):
        assert cluster.headroom(0) <= 20.0
        assert cluster.headroom(0) > 0

    def test_invalid_cluster_rejected(self, table):
        with pytest.raises(AcceleratorError):
            AcceleratorCluster(0, table, PowerModel(), budget_w=10.0)
        with pytest.raises(AcceleratorError):
            AcceleratorCluster(2, table, PowerModel(), budget_w=0.0)


def _oracle_power(device, now):
    """power_now recomputed from the power model, with no cached state."""
    if not device.healthy:
        return 0.0
    record = device.current
    if record is not None and now < record.completion_time:
        return device.power_model.power_w(
            record.point, record.activity, record.batch_size
        )
    return device.power_model.idle_power_w(device.point)


def _oracle_total(cluster, now):
    """The cluster draw as a left-to-right sum over devices."""
    total = 0.0
    for device in cluster.devices:
        total += _oracle_power(device, now)
    return total


class TestCachedPowerState:
    """The cached idle draw and the in-place rescale never change a watt.

    Random operation sequences on a 4-device cluster; after every step,
    total_power and each power_now must have the oracle's exact bits at
    ``now`` and just before, at and after every in-flight completion
    (at it, the batch is still ``current`` until finish() runs)."""

    # Operation → relative draw weight (faults rarer than batch traffic).
    OPS = {
        "issue": 4,
        "rescale_up": 3,
        "rescale_down": 3,
        "finish": 3,
        "to_completion": 2,
        "fail": 1,
        "recover": 2,
        "throttle": 1,
        "release": 1,
        "set_point": 2,
        "assign": 1,
    }

    @staticmethod
    def _check(cluster, now):
        probes = {now}
        for device in cluster.devices:
            if device.current is not None:
                done = device.current.completion_time
                probes.update((done - 1, done, done + 1))
        for t in sorted(probes):
            assert cluster.total_power(t).hex() == _oracle_total(cluster, t).hex()
            for device in cluster.devices:
                assert device.power_now(t).hex() == _oracle_power(device, t).hex()

    @staticmethod
    def _step(op, device, now, rng, table, model):
        """Apply ``op`` to ``device`` if it is legal now; returns the new
        time, or None when the operation does not apply."""
        points = table.points
        pick = points[int(rng.integers(0, len(points)))]
        record = device.current
        busy = record is not None and not device.is_idle(now)
        if op == "issue":
            # A batch completing at ``now`` holds the device until its
            # finish() runs; Accelerator.issue refuses to overwrite it.
            if (
                not device.healthy
                or device.current is not None
                or device.ready_time(now) > now
            ):
                return None
            device.issue(
                now,
                int(rng.integers(1, 40_000)),
                batch_size=int(rng.integers(1, 17)),
                activity=float(rng.uniform(0.0, 4.0)),
                deadline_ns=now + int(rng.integers(0, 40_000)),
            )
        elif op in ("rescale_up", "rescale_down"):
            if not busy:
                return None
            up = op == "rescale_up"
            choices = [
                p
                for p in points
                if (p.freq_hz > device.point.freq_hz) == up and p != device.point
            ]
            if not choices:
                return None
            point = choices[int(rng.integers(0, len(choices)))]
            power = None
            if rng.random() < 0.5:  # the handed-over draw, as Algorithm 2 does
                power = model.power_w(point, record.activity, record.batch_size)
            device.rescale_inflight(now, point, int(rng.integers(0, 20_000)), power)
        elif op == "finish":
            if record is None or now < record.completion_time:
                return None
            device.finish(now)
        elif op == "to_completion":
            if record is None or record.completion_time <= now:
                return None
            return record.completion_time  # probed before finish() runs
        elif op == "fail":
            device.fail(now)
        elif op == "recover":
            if device.healthy:
                return None
            device.recover(now, pick if rng.random() < 0.5 else None)
        elif op == "throttle":
            device.throttle(pick.freq_hz)
        elif op == "release":
            device.release_throttle()
        elif op == "set_point":
            if not device.healthy or not device.is_idle(now):
                return None
            if device.cap_hz is not None and pick.freq_hz > device.cap_hz + 1e-3:
                return None
            device.set_point(pick, now)
        else:  # assign: a table point, an equal copy, or an off-table point
            roll = rng.random()
            if roll < 0.4:
                device.point = pick
            elif roll < 0.6:
                device.point = OperatingPoint(pick.freq_hz, pick.voltage)
            elif roll < 0.8:  # same clock, another voltage
                voltage = float(rng.uniform(0.6, 1.2))
                device.point = OperatingPoint(device.point.freq_hz, voltage)
            else:
                freq = float(rng.uniform(0.8e9, 2.2e9))
                device.point = OperatingPoint(freq, table.config.voltage_at(freq))
        return now

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_recomputation_under_random_operations(self, seed):
        table = DVFSTable()
        model = PowerModel()
        cluster = AcceleratorCluster(
            n_accelerators=4, table=table, power_model=model, budget_w=20.0
        )
        rng = np.random.default_rng(seed)
        names = list(self.OPS)
        weights = np.array([self.OPS[name] for name in names], dtype=float)
        applied = set()
        now = 0
        self._check(cluster, now)
        for __ in range(800):
            now += int(rng.integers(0, 2_000))
            op = names[int(rng.choice(len(names), p=weights / weights.sum()))]
            device = cluster.devices[int(rng.integers(0, 4))]
            moved = self._step(op, device, now, rng, table, model)
            if moved is None:
                continue
            applied.add(op)
            now = moved
            self._check(cluster, now)
        assert applied == set(self.OPS)


class TestC2CLink:
    def test_bandwidth_ratio_near_paper(self):
        ratio = bandwidth_ratio()
        assert ratio == pytest.approx(
            paperdata.FIG9_C2C_VS_INTERLAKEN_BANDWIDTH, rel=0.05
        )

    def test_c2c_efficiency_higher_than_interlaken(self):
        assert C2CLinkConfig().protocol_efficiency > InterlakenLinkConfig().protocol_efficiency

    def test_transfer_time_linear(self):
        link = C2CLinkConfig()
        assert link.transfer_ns(2_000_000) == pytest.approx(
            2 * link.transfer_ns(1_000_000), rel=0.01
        )

    def test_negative_transfer_rejected(self):
        with pytest.raises(AcceleratorError):
            C2CLinkConfig().transfer_ns(-1)
        with pytest.raises(AcceleratorError):
            InterlakenLinkConfig().transfer_ns(-1)


class TestWatermarkFlowControl:
    def test_no_overflow_with_adequate_margin(self):
        fifo = WatermarkFifo(depth=32, high_watermark=24, low_watermark=8, delay_cycles=4)
        stats = simulate_flow_control(500, fifo, consumer_period=2)
        assert stats.overflows == 0
        assert stats.words_sent == 500

    def test_fast_consumer_no_stalls(self):
        fifo = WatermarkFifo(depth=32, high_watermark=24, low_watermark=8)
        stats = simulate_flow_control(200, fifo, consumer_period=1)
        assert stats.stall_cycles == 0

    def test_slow_consumer_throughput_matches_consumer(self):
        fifo = WatermarkFifo(depth=32, high_watermark=24, low_watermark=8)
        stats = simulate_flow_control(300, fifo, consumer_period=3)
        assert stats.throughput == pytest.approx(1 / 3, rel=0.1)
        assert stats.stall_cycles > 0

    def test_tiny_margin_overflows(self):
        """High watermark at the very top + signal delay -> overflow risk."""
        fifo = WatermarkFifo(depth=8, high_watermark=8, low_watermark=1, delay_cycles=6)
        stats = simulate_flow_control(200, fifo, consumer_period=4)
        assert stats.overflows > 0

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(AcceleratorError):
            WatermarkFifo(depth=8, high_watermark=9, low_watermark=1)
        with pytest.raises(AcceleratorError):
            WatermarkFifo(depth=8, high_watermark=4, low_watermark=6)


class TestInterpreter:
    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((9, 33)).astype(np.float32)
        b = rng.standard_normal((33, 21)).astype(np.float32)
        interp = CGRAInterpreter()
        np.testing.assert_allclose(interp.matmul(a, b), a @ b, rtol=1e-4, atol=1e-5)
        assert interp.stats.mac_instructions > 0

    def test_matmul_shape_mismatch_rejected(self):
        interp = CGRAInterpreter()
        with pytest.raises(AcceleratorError):
            interp.matmul(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_elementwise_matches_numpy(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.1, 2.0, size=(7, 11)).astype(np.float32)
        interp = CGRAInterpreter()
        np.testing.assert_allclose(interp.elementwise("exp", x), np.exp(x), rtol=1e-5)
        np.testing.assert_allclose(interp.elementwise("tanh", x), np.tanh(x), rtol=1e-5)

    def test_unknown_function_rejected(self):
        with pytest.raises(AcceleratorError):
            CGRAInterpreter().elementwise("sinh", np.ones(3))

    def test_conv_via_lowering_matches_layer(self):
        """FMT lowering + grid matmul equals the nn Conv2D (valid, no bias)."""
        from repro.nn.layers import Conv2D

        rng = np.random.default_rng(2)
        layer = Conv2D(3, (3, 3), padding="valid")
        layer.build((2, 8, 7), np.random.default_rng(5))
        layer.params["bias"][:] = 0.0
        x = rng.standard_normal((1, 2, 8, 7)).astype(np.float32)
        expected = layer.forward(x)[0]
        got = CGRAInterpreter().conv2d_via_lowering(x[0], layer.params["weight"])
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)


class TestFmt:
    def test_lowering_shape(self):
        from repro.accelerator import lower_conv2d

        x = np.arange(2 * 5 * 4, dtype=np.float32).reshape(2, 5, 4)
        result = lower_conv2d(x, (2, 2))
        assert result.data.shape == (2 * 2 * 2, 4 * 3)
        assert result.cycles > 0

    def test_transpose_roundtrip(self):
        from repro.accelerator import transpose2d

        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        np.testing.assert_array_equal(transpose2d(transpose2d(x).data).data, x)

    def test_shuffle_validates_permutation(self):
        from repro.accelerator import shuffle_channels

        x = np.zeros((4, 2, 2), dtype=np.float32)
        with pytest.raises(AcceleratorError):
            shuffle_channels(x, np.array([0, 1, 1, 2]))

    def test_flatten_orders_differ(self):
        from repro.accelerator import flatten_hw

        x = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
        chw = flatten_hw(x, "chw").data
        hwc = flatten_hw(x, "hwc").data
        assert not np.array_equal(chw, hwc)
        assert sorted(chw.tolist()) == sorted(hwc.tolist())
