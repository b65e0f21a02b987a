"""DVFS operating points and the accelerator power model.

Power follows the classic CMOS form ``P = V² (s + k_m f)``: a
voltage-dependent leakage term plus switching power proportional to
frequency and the workload's activity coefficient ``k_m`` (how hard a
given model drives the array; DeepLOB toggles more of the grid than the
vanilla CNN).  Model activity coefficients are calibrated against the
paper's Table III by :func:`fit_activity_coefficients`, and larger batch
sizes raise utilisation — and therefore power — through
``batch_activity``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import paperdata
from repro.accelerator.config import DEFAULT_CONFIG, AcceleratorConfig
from repro.errors import AcceleratorError, CalibrationError
from repro.units import GHZ

# Shared leakage coefficient (W per V²) and batch activity gain.
STATIC_COEFF_W_PER_V2 = 0.25
BATCH_ACTIVITY_GAIN = 0.30

# Activity coefficient of a fully-utilised array: pins P(2.2 GHz) at the
# Table-I ceiling of 10.8 W.
K_FULL_UTILISATION = (
    (paperdata.TABLE1_MAX_POWER_W - STATIC_COEFF_W_PER_V2 * 1.16**2)
    / (1.16**2 * 2.2)
)


@dataclass(frozen=True)
class OperatingPoint:
    """One DVFS point: frequency (Hz) and the voltage it requires."""

    freq_hz: float
    voltage: float

    def __eq__(self, other: object) -> bool:
        # Callers mostly compare table points with themselves, which the
        # identity test settles; the dataclass still generates __hash__.
        if self is other:
            return True
        if not isinstance(other, OperatingPoint):
            return NotImplemented
        return (self.freq_hz, self.voltage) == (other.freq_hz, other.voltage)

    @property
    def freq_ghz(self) -> float:
        """Frequency in GHz (display)."""
        return self.freq_hz / GHZ

    def __repr__(self) -> str:
        return f"<{self.freq_ghz:.1f} GHz @ {self.voltage:.2f} V>"


class DVFSTable:
    """The discrete operating points the PMICs can be programmed to.

    Points step every 100 MHz across the silicon envelope; the *table*
    may be capped below silicon max (the paper's static configurations
    never exceed 2.0 GHz for margin).
    """

    def __init__(
        self,
        config: AcceleratorConfig = DEFAULT_CONFIG,
        step_hz: float = 0.1 * GHZ,
        cap_hz: float | None = None,
    ) -> None:
        self.config = config
        cap = cap_hz if cap_hz is not None else config.max_freq_hz
        if cap < config.min_freq_hz:
            raise AcceleratorError("DVFS cap below minimum frequency")
        points = []
        freq = config.min_freq_hz
        while freq <= cap + 1e-3:
            points.append(OperatingPoint(freq_hz=freq, voltage=config.voltage_at(freq)))
            freq += step_hz
        self.points: tuple[OperatingPoint, ...] = tuple(points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def min_point(self) -> OperatingPoint:
        """Slowest operating point."""
        return self.points[0]

    @property
    def max_point(self) -> OperatingPoint:
        """Fastest operating point."""
        return self.points[-1]

    def at_ghz(self, freq_ghz: float) -> OperatingPoint:
        """The point at ``freq_ghz`` (must exist in the table)."""
        for point in self.points:
            if abs(point.freq_ghz - freq_ghz) < 1e-6:
                return point
        raise AcceleratorError(f"no {freq_ghz:.1f} GHz point in DVFS table")

    def next_up(self, point: OperatingPoint) -> OperatingPoint | None:
        """The next faster point, or None at the top."""
        idx = self.points.index(point)
        return self.points[idx + 1] if idx + 1 < len(self.points) else None

    def next_down(self, point: OperatingPoint) -> OperatingPoint | None:
        """The next slower point, or None at the bottom."""
        idx = self.points.index(point)
        return self.points[idx - 1] if idx > 0 else None


@dataclass(frozen=True)
class PowerModel:
    """Accelerator power as a function of operating point and workload."""

    static_coeff: float = STATIC_COEFF_W_PER_V2
    batch_gain: float = BATCH_ACTIVITY_GAIN

    def power_w(
        self, point: OperatingPoint, activity: float, batch_size: int = 1
    ) -> float:
        """Power draw running a workload with coefficient ``activity``.

        ``activity`` is the model's k_m (W per GHz·V² at batch 1);
        batching raises it asymptotically by ``batch_gain``.
        """
        if activity < 0:
            raise AcceleratorError(f"activity must be non-negative, got {activity}")
        if batch_size <= 0:
            raise AcceleratorError(f"batch size must be positive, got {batch_size}")
        k_eff = activity * (1.0 + self.batch_gain * (1.0 - 1.0 / batch_size))
        v2 = point.voltage**2
        return v2 * (self.static_coeff + k_eff * point.freq_ghz)

    def idle_power_w(self, point: OperatingPoint) -> float:
        """Leakage-only draw of an idle accelerator at ``point``."""
        return point.voltage**2 * self.static_coeff

    def select_max_frequency(
        self,
        table: DVFSTable,
        activity: float,
        budget_w: float,
        batch_size: int = 1,
    ) -> OperatingPoint | None:
        """Fastest table point whose power fits ``budget_w`` (None if even
        the slowest point does not fit)."""
        best = None
        for point in table:
            if self.power_w(point, activity, batch_size) <= budget_w:
                best = point
        return best


def fit_activity_coefficients(
    model_names: tuple[str, ...] = ("vanilla_cnn", "translob", "deeplob"),
    power_model: PowerModel | None = None,
    config: AcceleratorConfig = DEFAULT_CONFIG,
) -> dict[str, float]:
    """Calibrate per-model activity coefficients against Table III.

    For each model we find the k_m minimising the squared mismatch
    between the frequency our static selector would choose and the
    paper's published conservative clock, across every (condition, N)
    cell.  This is the documented substitution for profiling real
    silicon: the *selector* is exercised end-to-end; only the scalar
    activity coefficients come from the published table.
    """
    power_model = power_model or PowerModel()
    table = DVFSTable(config, cap_hz=paperdata.TABLE3_CONSERVATIVE_CAP_HZ)
    coefficients: dict[str, float] = {}
    for name in model_names:
        candidates = np.linspace(0.2, K_FULL_UTILISATION, 400)
        best_k, best_err = None, None
        for k in candidates:
            err = 0.0
            for condition in ("sufficient", "limited"):
                budgets = paperdata.TABLE3_AVAILABLE_W[condition]
                targets = paperdata.TABLE3_FREQ_GHZ[condition][name]
                for n, budget in budgets.items():
                    point = power_model.select_max_frequency(table, k, budget)
                    selected = point.freq_ghz if point is not None else 0.0
                    err += (selected - targets[n]) ** 2
            if best_err is None or err < best_err:
                best_k, best_err = float(k), err
        if best_k is None:  # pragma: no cover - candidates is never empty
            raise CalibrationError(f"no activity coefficient found for {name}")
        coefficients[name] = best_k
    if not _ordering_consistent(coefficients, model_names):
        raise CalibrationError(
            f"fitted activity coefficients are not monotone in model size: {coefficients}"
        )
    return coefficients


def _ordering_consistent(
    coefficients: dict[str, float], names: tuple[str, ...]
) -> bool:
    """Heavier models (later in ``names``) must not draw *less* power."""
    values = [coefficients[n] for n in names]
    return all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def build_static_table(
    coefficients: dict[str, float],
    power_model: PowerModel | None = None,
    config: AcceleratorConfig = DEFAULT_CONFIG,
) -> dict[str, dict[str, dict[int, float]]]:
    """Regenerate Table III from the fitted power model.

    Returns ``table[condition][model][n_accels] = freq_ghz`` (0.0 when no
    operating point fits the budget).
    """
    power_model = power_model or PowerModel()
    table = DVFSTable(config, cap_hz=paperdata.TABLE3_CONSERVATIVE_CAP_HZ)
    out: dict[str, dict[str, dict[int, float]]] = {}
    for condition in ("sufficient", "limited"):
        out[condition] = {}
        for name, k in coefficients.items():
            row = {}
            for n, budget in paperdata.TABLE3_AVAILABLE_W[condition].items():
                point = power_model.select_max_frequency(table, k, budget)
                row[n] = point.freq_ghz if point is not None else 0.0
            out[condition][name] = row
    return out
