"""Reference Algorithm 2 (test oracle).

:class:`ReferenceDVFSScheduler` is :class:`repro.core.dvfs.DVFSScheduler`
with the round-by-round greedy loop in place of the shipping one: every
round rebuilds its scan list, sums the rail's headroom and scans every
faster table point of every busy device, with an exact power memo.
Reclaim is inherited.  The DVFS-parity tests hold the shipping scheduler
to its transitions, device state, counters and decision log, and the
loop-parity tests drive it through
:class:`~tests.oracles.backtest.ReferenceBacktester`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator.device import DVFS_SWITCH_NS, Accelerator, AcceleratorCluster
from repro.accelerator.power import OperatingPoint
from repro.core.dvfs import DVFSScheduler
from repro.core.ppw import ppw


@dataclass(frozen=True)
class ReferenceDVFSScheduler(DVFSScheduler):
    """:class:`DVFSScheduler` running the reference Algorithm-2 loop."""

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

    def __post_init__(self) -> None:
        super().__post_init__()
        for point in self.table:
            f = point.freq_hz
            self._faster[f] = tuple(p for p in self.table if p.freq_hz > f)

    def redistribute(
        self, cluster: AcceleratorCluster, now: int, reserve_w: float = 0.0
    ) -> int:
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
        """Best single transition to a faster point for ``device``:
        (point, new_remaining, new_power, ppw_inc) or None."""
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
