"""Precomputed Algorithm-1 sweep tables.

``t_total_ns`` and ``power_w`` are pure functions of
(model, operating point, batch size), yet the reference Algorithm-1 loop
re-derives them per candidate on every issue — the back-tester's hottest
path.  A :class:`SweepGrid` materialises both quantities once per
(model, DVFS table, max batch) as dense numpy arrays, so a sweep becomes
a scan of candidates ranked once per queue depth.

Every cell is produced by calling the profile's own scalar oracle, which
makes the grid bit-exact with the reference loop by construction — the
vectorized sweep is a re-ordering of identical float operations, not a
re-derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.accelerator.power import DVFSTable, OperatingPoint

if TYPE_CHECKING:
    from repro.baselines.profiles import LightTraderProfile

__all__ = ["SweepGrid"]


@dataclass(frozen=True)
class SweepGrid:
    """Dense (operating point × batch size) decision tables for one model.

    Attributes:
        model: Model name the grid was built for.
        points: Operating points in DVFS-table order (row order).
        freq_hz: ``(P,)`` float64 frequencies, aligned with ``points``.
        t_total_ns: ``(P, B)`` int64 DNN-pipeline latency per candidate.
        power_w: ``(P, B)`` float64 accelerator power per candidate.
        max_batch: Number of batch columns (column ``j`` is batch ``j+1``).
    """

    model: str
    points: tuple[OperatingPoint, ...]
    freq_hz: np.ndarray
    t_total_ns: np.ndarray
    power_w: np.ndarray
    max_batch: int

    @classmethod
    def build(
        cls,
        profile: "LightTraderProfile",
        model: str,
        table: DVFSTable,
        max_batch: int,
    ) -> "SweepGrid":
        """Materialise the grid from the profile's scalar oracle."""
        points = table.points
        t_total = np.empty((len(points), max_batch), dtype=np.int64)
        power = np.empty((len(points), max_batch), dtype=np.float64)
        for i, point in enumerate(points):
            for batch in range(1, max_batch + 1):
                t_total[i, batch - 1] = profile.t_total_ns(model, point, batch)
                power[i, batch - 1] = profile.power_w(model, point, batch)
        t_total.setflags(write=False)
        power.setflags(write=False)
        freq = np.array([point.freq_hz for point in points], dtype=np.float64)
        freq.setflags(write=False)
        return cls(
            model=model,
            points=points,
            freq_hz=freq,
            t_total_ns=t_total,
            power_w=power,
            max_batch=max_batch,
        )
