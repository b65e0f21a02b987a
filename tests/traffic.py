"""Shared test traffic: saturating micro-bursts quantised to whole µs.

Quantised arrivals share instants, devices issued together finish
together and completions tie — the traffic on which same-instant
bookkeeping and piled-up completion events show.
"""

from __future__ import annotations

import numpy as np

from repro.sim.workload import QueryWorkload, Regime, TrafficSpec, synthetic_workload

# Saturating micro-bursts: deep queues, every device busy, many ties.
BURST = TrafficSpec(
    calm=Regime("calm", rate_hz=2_000.0, mean_dwell_s=0.05),
    episodes=(
        Regime("burst", rate_hz=60_000.0, mean_dwell_s=0.01),
        Regime("active", rate_hz=12_000.0, mean_dwell_s=0.04),
    ),
    episode_weights=(0.5, 0.5),
)
DURATION_S = 0.4


def quantised_workload(seed: int) -> QueryWorkload:
    """``DURATION_S`` of ``BURST`` traffic, arrivals and deadlines
    floored to whole microseconds (the -1 of an unscored query kept)."""
    workload = synthetic_workload(DURATION_S, spec=BURST, seed=seed)
    deadlines = workload.deadlines
    return QueryWorkload(
        workload.timestamps // 1_000 * 1_000,
        np.where(deadlines >= 0, deadlines // 1_000 * 1_000, deadlines),
        name=f"quantised[{seed}]",
    )
