"""DVFS scheduling — Algorithm 2 of the paper plus power reclaim.

The DVFS scheduler manages the card's shared power budget in two phases:

1. **Reclaim** (on demand, before an issue): when a new batch needs more
   headroom than the rail has left, busy accelerators are slowed, most
   boosted first, as far as their in-flight batch's deadline allows
   (with a slack margin) until the headroom exists.
2. **Redistribute** (after workload scheduling): leftover budget is
   handed out greedily — each round, evaluate re-pointing every busy
   accelerator to any faster operating point (one PMIC transition reaches
   any point, so a "step" is a single transition); if the power increase
   fits the remaining headroom and the transition nets a latency
   improvement after the switch delay, score it by marginal PPW; commit
   the best candidate and repeat until nothing fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.accelerator.device import DVFS_SWITCH_NS, Accelerator, AcceleratorCluster
from repro.accelerator.power import DVFSTable, OperatingPoint
from repro.baselines.profiles import LightTraderProfile
from repro.core.ppw import ppw

if TYPE_CHECKING:
    from repro.telemetry.decisions import DecisionLog

# Fraction of a batch's remaining deadline slack a reclaim may consume by
# slowing the clock; the rest stays as safety margin.
SAVE_SLACK_FRACTION = 0.6


@dataclass(frozen=True)
class DVFSScheduler:
    """Algorithm 2: greedy marginal-PPW power distribution."""

    profile: LightTraderProfile
    table: DVFSTable
    # Telemetry decision log; None keeps the hot path uninstrumented.
    log: "DecisionLog | None" = field(default=None, compare=False)
    # Per-operating-point boost floor: once a batch's remaining time is at
    # or below this, no faster table point can pass the switch-delay test
    # (round(remaining·f/f') ≥ remaining − switch for every f' > f), so the
    # device can be skipped without scanning the table.  The bound uses the
    # uncapped fastest point, which only ever makes it conservative.
    _boost_floor_ns: dict[float, float] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # Faster table points per operating frequency, so the candidate scan
    # starts where the table stops being slower than the device.
    _faster: "dict[float, tuple[OperatingPoint, ...]]" = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # Exact power_w memo keyed (freq_hz, activity, batch): power_w is a
    # pure function, so cached floats are bit-identical to recomputation.
    _power_cache: dict[tuple[float, float, int], float] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # Observability: lifetime counts folded into the run's MetricRegistry.
    # reclaims / boost_transitions are parity-held (both event pumps
    # drive them identically); redistribute_calls is an ``impl.``
    # diagnostic (the fast pump gates redistribution by epoch).
    stats: dict[str, int] = field(
        compare=False,
        repr=False,
        default_factory=lambda: {
            "reclaims": 0,
            "redistribute_calls": 0,
            "boost_transitions": 0,
        },
    )

    def __post_init__(self) -> None:
        fmax = max(point.freq_hz for point in self.table)
        floors = {}
        faster = {}
        for point in self.table:
            f = point.freq_hz
            if f >= fmax:
                floors[f] = float("inf")  # nothing faster exists
            else:
                # round(y) ≥ y − 0.5 makes the rejection certain whenever
                # remaining ≤ (switch − 0.5)/(1 − f/fmax); the extra −0.5
                # absorbs float rounding in the comparison itself.
                floors[f] = (DVFS_SWITCH_NS - 1.0) / (1.0 - f / fmax)
            faster[f] = tuple(p for p in self.table if p.freq_hz > f)
        object.__setattr__(self, "_boost_floor_ns", floors)
        object.__setattr__(self, "_faster", faster)

    # -- phase 1: reclaim -------------------------------------------------------

    def _scale_down_busy(self, device: Accelerator, now: int) -> int:
        record = device.current
        if record is None or record.deadline_ns is None:
            return 0
        remaining = device.busy_until - now
        slack = record.deadline_ns - device.busy_until
        if slack <= DVFS_SWITCH_NS or remaining <= 0:
            return 0
        budget = remaining + round(slack * SAVE_SLACK_FRACTION) - DVFS_SWITCH_NS
        # Lowest point whose stretched remaining time still fits the budget
        # (single PMIC transition).
        best: OperatingPoint | None = None
        best_stretched = 0
        for point in self.table:
            if point.freq_hz >= device.point.freq_hz:
                break
            stretched = round(remaining * device.point.freq_hz / point.freq_hz)
            if stretched <= budget:
                best = point
                best_stretched = stretched
                break  # table iterates slowest-first; first fit is lowest
        if best is None:
            return 0
        device.rescale_inflight(now, best, best_stretched)
        return 1

    def reclaim(self, cluster: AcceleratorCluster, now: int, needed_w: float) -> bool:
        """Free at least ``needed_w`` of headroom for a new batch issue.

        This is the paper's "saving power before the scheduler executes
        the workload scheduling to make room for a new batch issue":
        busy accelerators are slowed (within their deadline margins)
        until the requested headroom exists.  Returns True on success.
        """
        self.stats["reclaims"] += 1
        if cluster.headroom(now) >= needed_w:
            return True
        # Slow the fastest (most boosted) devices first.
        for device in sorted(
            cluster.busy_devices(now), key=lambda d: -d.point.freq_hz
        ):
            self._scale_down_busy(device, now)
            if cluster.headroom(now) >= needed_w:
                break
        satisfied = cluster.headroom(now) >= needed_w
        if self.log is not None:
            self.log.record_reclaim(now, needed_w, cluster.headroom(now), satisfied)
        return satisfied

    # -- phase 2: redistribute --------------------------------------------------

    def redistribute(
        self, cluster: AcceleratorCluster, now: int, reserve_w: float = 0.0
    ) -> int:
        """Greedy Algorithm-2 rounds; returns DVFS transitions applied.

        ``reserve_w`` holds back headroom for imminent issues (one static
        share when idle devices exist), so boosting in-flight batches
        never starves the next batch of power.
        """
        self.stats["redistribute_calls"] += 1
        transitions = 0
        adjusted: set[int] = set()
        floors = self._boost_floor_ns
        while True:
            # Filter on the O(1) boost floor before paying for a headroom
            # sum or a table scan: a device whose remaining time is under
            # the floor cannot yield a candidate, so skipping it never
            # changes the chosen transition.
            scan = [
                device
                for device in cluster.devices
                if device.healthy
                and device.busy_until > now  # busy_devices(), inlined
                and device.accel_id not in adjusted  # one transition per event
                and device.busy_until - now > floors.get(device.point.freq_hz, 0.0)
            ]
            if not scan:
                self.stats["boost_transitions"] += transitions
                if transitions and self.log is not None:
                    self.log.record_redistribute(
                        now, transitions, cluster.headroom(now)
                    )
                return transitions
            headroom = cluster.headroom(now) - reserve_w
            best_gain = -float("inf")
            best: tuple[Accelerator, OperatingPoint, int, float] | None = None
            for device in scan:
                candidate = self._speed_up_candidate(device, now, headroom)
                if candidate is None:
                    continue
                point, remaining, power, gain = candidate
                if gain > best_gain:
                    best_gain = gain
                    best = (device, point, remaining, power)
            if best is None:
                self.stats["boost_transitions"] += transitions
                if transitions and self.log is not None:
                    self.log.record_redistribute(
                        now, transitions, cluster.headroom(now)
                    )
                return transitions
            device, point, remaining, power = best
            device.rescale_inflight(now, point, remaining, power)
            adjusted.add(device.accel_id)
            transitions += 1

    def _speed_up_candidate(self, device: Accelerator, now: int, headroom: float):
        """Best single transition to a faster point for ``device``.

        Returns (point, new_remaining, new_power, ppw_inc) or None.  The
        marginal PPW is usually negative (energy per op rises with V²);
        Algorithm 2 still commits — its goal is to spend the whole budget
        on speed — and the ranking picks the least costly candidate.
        """
        record = device.current
        if record is None:
            return None
        remaining = device.busy_until - now
        if remaining <= 0:
            return None
        best = None
        freq = device.point.freq_hz
        faster = self._faster.get(freq)
        if faster is None:  # off-table point: fall back to a full filter
            faster = tuple(p for p in self.table if p.freq_hz > freq)
        cache = self._power_cache
        activity = record.activity
        batch = record.batch_size
        old_power = record.power_w
        old_total = record.completion_time - record.issue_time
        old_ppw = None
        for point in faster:
            if device.cap_hz is not None and point.freq_hz > device.cap_hz + 1e-3:
                break  # thermally throttled: nothing faster is programmable
            new_remaining = round(remaining * freq / point.freq_hz)
            if DVFS_SWITCH_NS + new_remaining >= remaining:
                continue  # the switch delay would eat the gain
            key = (point.freq_hz, activity, batch)
            new_power = cache.get(key)
            if new_power is None:
                new_power = cache[key] = device.power_model.power_w(
                    point, activity, batch
                )
            if new_power - old_power > headroom:
                # power_w rises with frequency (voltage does), so every
                # faster point is over the headroom too.
                break
            new_total = old_total - remaining + DVFS_SWITCH_NS + new_remaining
            # Algorithm 2's ppw_inc: the PPW gain of this move, with
            # the old term computed once per device.
            new_ppw = ppw(batch, new_total, new_power)
            if old_ppw is None:
                old_ppw = ppw(batch, old_total, old_power)
            gain = new_ppw - old_ppw
            if best is None or gain > best[3]:
                best = (point, new_remaining, new_power, gain)
        return best
