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

# One rung of a candidate ladder: a faster point and the batch's draw there.
_Rung = tuple[OperatingPoint, float]


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
    # Candidate ladders keyed (freq_hz, activity, batch): the table points
    # faster than freq_hz, slowest first, each with the batch's draw
    # there.  power_w is pure, so the cached floats are the ones a fresh
    # call returns.
    _ladders: "dict[tuple[float, float, int], tuple[_Rung, ...]]" = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # Observability: lifetime counts folded into the run's MetricRegistry.
    # reclaims / boost_transitions are parity-held (both event pumps
    # drive them identically); redistribute_calls is an ``impl.``
    # diagnostic (the fast pump skips calls that cannot act).
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
        for point in self.table:
            f = point.freq_hz
            if f >= fmax:
                floors[f] = float("inf")  # nothing faster exists
            else:
                # round(y) ≥ y − 0.5 makes the rejection certain whenever
                # remaining ≤ (switch − 0.5)/(1 − f/fmax); the extra −0.5
                # absorbs float rounding in the comparison itself.
                floors[f] = (DVFS_SWITCH_NS - 1.0) / (1.0 - f / fmax)
        object.__setattr__(self, "_boost_floor_ns", floors)

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

        Each round commits the first best marginal-PPW transition over
        the busy devices not yet moved at this call.  The scan list is
        built once, and a committed device leaves it: a commit changes no
        other device, so the rest of the list stays what a rebuild gives.
        """
        self.stats["redistribute_calls"] += 1
        floors = self._boost_floor_ns
        # Filter on the O(1) boost floor before paying for a headroom sum
        # or a ladder scan: a device whose remaining time is under the
        # floor cannot yield a candidate.
        scan = [
            device
            for device in cluster.devices
            if device.healthy
            and device.busy_until > now  # busy_devices(), inlined
            and device.busy_until - now > floors.get(device.point.freq_hz, 0.0)
        ]
        transitions = 0
        while scan:
            headroom = cluster.headroom(now) - reserve_w
            best_gain = -float("inf")
            best = None
            for device in scan:
                candidate = self._speed_up_candidate(device, now, headroom)
                if candidate is not None and candidate[0] > best_gain:
                    best_gain = candidate[0]
                    best = (device, candidate)
            if best is None:
                break
            device, (__, point, remaining, power) = best
            device.rescale_inflight(now, point, remaining, power)
            scan.remove(device)  # one transition per device per call
            transitions += 1
        self.stats["boost_transitions"] += transitions
        if transitions and self.log is not None:
            self.log.record_redistribute(now, transitions, cluster.headroom(now))
        return transitions

    def _speed_up_candidate(self, device: Accelerator, now: int, headroom: float):
        """Best single transition to a faster point for a busy ``device``:
        (ppw_inc, point, new_remaining, new_power), the first maximum, or
        None.  The marginal PPW is usually negative (energy per op rises
        with V²); Algorithm 2 still commits — its goal is to spend the
        whole budget on speed — and the ranking picks the least costly
        candidate.
        """
        record = device.current
        remaining = device.busy_until - now
        freq = device.point.freq_hz
        activity = record.activity
        batch = record.batch_size
        key = (freq, activity, batch)
        ladder = self._ladders.get(key)
        if ladder is None:
            power_w = device.power_model.power_w
            ladder = self._ladders[key] = tuple(
                (point, power_w(point, activity, batch))
                for point in self.table
                if point.freq_hz > freq
            )
        cap = device.cap_hz
        old_power = record.power_w
        old_total = record.completion_time - record.issue_time
        ran_ns = old_total - remaining + DVFS_SWITCH_NS  # run so far, plus the switch
        old_ppw = None
        best = None
        for point, new_power in ladder:
            if cap is not None and point.freq_hz > cap + 1e-3:
                break  # thermally throttled: nothing faster is programmable
            new_remaining = round(remaining * freq / point.freq_hz)
            if DVFS_SWITCH_NS + new_remaining >= remaining:
                continue  # the switch delay would eat the gain
            if new_power - old_power > headroom:
                break  # every faster point draws at least as much
            if old_ppw is None:
                old_ppw = ppw(batch, old_total, old_power)
            # Algorithm 2's ppw_inc: the PPW gain of this move.
            gain = ppw(batch, ran_ns + new_remaining, new_power) - old_ppw
            if best is None or gain > best[0]:
                best = (gain, point, new_remaining, new_power)
        return best
