"""Tests for DVFS table, power model and Table-III calibration."""

import numpy as np
import pytest

from repro import paperdata
from repro.accelerator import (
    DEFAULT_CONFIG,
    AcceleratorConfig,
    DVFSTable,
    K_FULL_UTILISATION,
    OperatingPoint,
    PowerModel,
    build_static_table,
    fit_activity_coefficients,
)
from repro.baselines.profiles import lighttrader_profile
from repro.errors import AcceleratorError
from repro.units import GHZ


class TestConfig:
    def test_peak_tflops_matches_table1(self):
        assert DEFAULT_CONFIG.peak_tflops() == pytest.approx(
            paperdata.TABLE1_BF16_TFLOPS, rel=0.05
        )

    def test_peak_int8_tops_matches_table1(self):
        assert DEFAULT_CONFIG.peak_int8_tops() == pytest.approx(
            paperdata.TABLE1_INT8_TOPS, rel=0.05
        )

    def test_voltage_envelope(self):
        assert DEFAULT_CONFIG.voltage_at(0.8 * GHZ) == pytest.approx(0.68)
        assert DEFAULT_CONFIG.voltage_at(2.2 * GHZ) == pytest.approx(1.16)

    def test_voltage_out_of_range_rejected(self):
        with pytest.raises(AcceleratorError):
            DEFAULT_CONFIG.voltage_at(3.0 * GHZ)

    def test_invalid_configs_rejected(self):
        with pytest.raises(AcceleratorError):
            AcceleratorConfig(epe_cols=99)
        with pytest.raises(AcceleratorError):
            AcceleratorConfig(min_freq_hz=3e9)


class TestDVFSTable:
    def test_points_cover_envelope(self):
        table = DVFSTable()
        assert table.min_point.freq_ghz == pytest.approx(0.8)
        assert table.max_point.freq_ghz == pytest.approx(2.2)
        assert len(table) == 15  # 0.8 .. 2.2 in 0.1 steps

    def test_cap_limits_table(self):
        table = DVFSTable(cap_hz=paperdata.TABLE3_CONSERVATIVE_CAP_HZ)
        assert table.max_point.freq_ghz == pytest.approx(2.0)

    def test_voltage_monotone_in_frequency(self):
        table = DVFSTable()
        voltages = [p.voltage for p in table]
        assert voltages == sorted(voltages)

    def test_next_up_down(self):
        table = DVFSTable()
        mid = table.at_ghz(1.5)
        assert table.next_up(mid).freq_ghz == pytest.approx(1.6)
        assert table.next_down(mid).freq_ghz == pytest.approx(1.4)
        assert table.next_up(table.max_point) is None
        assert table.next_down(table.min_point) is None

    def test_missing_point_rejected(self):
        with pytest.raises(AcceleratorError):
            DVFSTable().at_ghz(1.55)

    def test_point_equality_and_hash_by_value(self):
        # Equal, distinct points compare and hash alike, as the dataclass
        # fields define them; other types are not equal.
        for point in DVFSTable():
            twin = OperatingPoint(point.freq_hz, point.voltage)
            assert twin is not point
            assert point == point and not point != point
            assert twin == point and not twin != point
            assert hash(twin) == hash(point)
            assert hash(point) == hash((point.freq_hz, point.voltage))
            assert point != OperatingPoint(point.freq_hz, point.voltage + 0.01)
            assert point != OperatingPoint(point.freq_hz + 1.0, point.voltage)
            assert point != (point.freq_hz, point.voltage)
            assert point.__eq__("2.0 GHz") is NotImplemented
        assert {OperatingPoint(1e9, 0.8): "a"}[OperatingPoint(1e9, 0.8)] == "a"


class TestPowerModel:
    @pytest.fixture
    def model(self):
        return PowerModel()

    def test_power_monotone_in_frequency(self, model):
        table = DVFSTable()
        powers = [model.power_w(p, activity=1.5) for p in table]
        assert powers == sorted(powers)

    @pytest.mark.parametrize("cap_hz", [None, paperdata.TABLE3_CONSERVATIVE_CAP_HZ])
    def test_power_non_decreasing_point_to_point(self, model, cap_hz):
        """Algorithm 2 stops its faster-point scan at the first point over
        the headroom; that is exact only while power_w never falls from
        one table point to the next, at any activity and batch."""
        table = DVFSTable(cap_hz=cap_hz)
        calibrated = list(fit_activity_coefficients().values()) + [
            cost.activity for cost in lighttrader_profile().costs.values()
        ]
        rng = np.random.default_rng(17)
        drawn = rng.uniform(0.0, K_FULL_UTILISATION, size=40).tolist()
        for activity in calibrated + drawn + [0.0, K_FULL_UTILISATION]:
            for batch in range(1, 17):
                powers = [model.power_w(p, activity, batch) for p in table]
                for lower, higher in zip(powers, powers[1:]):
                    assert lower <= higher, (activity, batch, powers)

    def test_power_monotone_in_activity(self, model):
        point = DVFSTable().at_ghz(2.0)
        assert model.power_w(point, 1.0) < model.power_w(point, 2.0)

    def test_power_rises_with_batch(self, model):
        point = DVFSTable().at_ghz(2.0)
        p1 = model.power_w(point, 1.5, batch_size=1)
        p8 = model.power_w(point, 1.5, batch_size=8)
        assert p8 > p1
        assert p8 < p1 * 1.35  # bounded by the batch activity gain

    def test_full_utilisation_hits_package_ceiling(self, model):
        point = OperatingPoint(freq_hz=2.2 * GHZ, voltage=1.16)
        assert model.power_w(point, K_FULL_UTILISATION) == pytest.approx(
            paperdata.TABLE1_MAX_POWER_W, rel=1e-6
        )

    def test_idle_below_active(self, model):
        point = DVFSTable().at_ghz(1.0)
        assert model.idle_power_w(point) < model.power_w(point, 0.5)

    def test_select_max_frequency(self, model):
        table = DVFSTable(cap_hz=2.0 * GHZ)
        point = model.select_max_frequency(table, activity=1.5, budget_w=2.0)
        assert point is not None
        assert model.power_w(point, 1.5) <= 2.0
        up = table.next_up(point)
        if up is not None:
            assert model.power_w(up, 1.5) > 2.0

    def test_select_none_when_budget_too_small(self, model):
        table = DVFSTable()
        assert model.select_max_frequency(table, activity=2.0, budget_w=0.01) is None

    def test_invalid_inputs_rejected(self, model):
        point = DVFSTable().at_ghz(1.0)
        with pytest.raises(AcceleratorError):
            model.power_w(point, activity=-1.0)
        with pytest.raises(AcceleratorError):
            model.power_w(point, activity=1.0, batch_size=0)


class TestTable3Calibration:
    @pytest.fixture(scope="class")
    def coefficients(self):
        return fit_activity_coefficients()

    def test_coefficients_ordered_by_complexity(self, coefficients):
        assert (
            coefficients["vanilla_cnn"]
            < coefficients["translob"]
            < coefficients["deeplob"]
        )

    def test_coefficients_below_full_utilisation(self, coefficients):
        for k in coefficients.values():
            assert 0 < k < K_FULL_UTILISATION

    def test_reproduces_table3_within_one_step(self, coefficients):
        """Every regenerated cell within 0.1 GHz of the published value."""
        ours = build_static_table(coefficients)
        mismatches = 0
        for condition in ("sufficient", "limited"):
            for model, row in paperdata.TABLE3_FREQ_GHZ[condition].items():
                for n, paper_freq in row.items():
                    diff = abs(ours[condition][model][n] - paper_freq)
                    assert diff <= 0.1 + 1e-9
                    if diff > 1e-9:
                        mismatches += 1
        # At most a couple of one-step deviations across all 30 cells.
        assert mismatches <= 3

    def test_exact_match_majority(self, coefficients):
        ours = build_static_table(coefficients)
        exact = sum(
            1
            for condition in ("sufficient", "limited")
            for model, row in paperdata.TABLE3_FREQ_GHZ[condition].items()
            for n, paper_freq in row.items()
            if abs(ours[condition][model][n] - paper_freq) < 1e-9
        )
        assert exact >= 27  # 30 cells total
