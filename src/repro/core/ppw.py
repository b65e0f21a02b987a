"""Performance-per-watt metric (paper §III-D).

``PPW = batch_size / (latency × consumed power)`` — queries per
joule-second, higher when the accelerator runs computationally and
energetically efficiently.  Both schedulers rank their candidates by
this metric (Algorithm 1 by absolute PPW, Algorithm 2 by marginal PPW
gain of a DVFS step).
"""

from __future__ import annotations

from repro.errors import SchedulingError


def ppw(batch_size: int, latency_ns: int, power_w: float) -> float:
    """The PPW metric: batch / (latency[s] × power[W])."""
    if batch_size <= 0:
        raise SchedulingError(f"batch size must be positive, got {batch_size}")
    if latency_ns <= 0:
        raise SchedulingError(f"latency must be positive, got {latency_ns}")
    if power_w <= 0:
        raise SchedulingError(f"power must be positive, got {power_w}")
    return batch_size / ((latency_ns / 1e9) * power_w)
