"""Accelerator device and multi-accelerator cluster timing models.

An :class:`Accelerator` is a time-stamped state machine: it is idle or
busy until a completion time, runs at a DVFS operating point (changing
the point costs a PMIC/PLL relock delay — the "power switching delay"
the paper warns makes frequent DVFS hazardous), and reports its
instantaneous power draw.  The :class:`AcceleratorCluster` aggregates N
devices behind the shared card power budget, and its devices share one
:class:`StateEpoch` that every scheduling-visible mutation bumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator.config import DEFAULT_CONFIG, AcceleratorConfig
from repro.accelerator.power import DVFSTable, OperatingPoint, PowerModel
from repro.errors import AcceleratorError
from repro.units import us_to_ns

# PMIC reconfiguration + PLL relock time for a DVFS transition.
DVFS_SWITCH_NS = us_to_ns(4.0)


class StateEpoch:
    """A counter bumped by every scheduling-visible device mutation."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


@dataclass
class IssueRecord:
    """One batch issued to an accelerator (for traces and power audits)."""

    accel_id: int
    issue_time: int
    completion_time: int
    batch_size: int
    point: OperatingPoint
    activity: float
    power_w: float
    deadline_ns: int | None = None


class Accelerator:
    """Timing/power state machine for one AI accelerator.

    Every mutation that can change scheduling-visible state (point, busy
    window, health, cap) bumps ``epoch``: the cluster's shared
    :class:`StateEpoch`, or a private one for a standalone device.
    """

    def __init__(
        self,
        accel_id: int,
        table: DVFSTable,
        power_model: PowerModel,
        initial_point: OperatingPoint | None = None,
        epoch: StateEpoch | None = None,
    ) -> None:
        self.accel_id = accel_id
        self.table = table
        self.power_model = power_model
        self.point = initial_point or table.min_point
        # Idle (leakage) draw of the point object in ``_idle_point``.  It
        # is refreshed whenever ``point`` holds another object, which also
        # covers direct boot-time assignment; points are frozen, so the
        # cached float is the one idle_power_w would return.
        self._idle_point: OperatingPoint | None = None
        self._idle_w = 0.0
        self.busy_until = 0
        self.available_at = 0  # includes any in-flight DVFS switch
        self.current: IssueRecord | None = None
        self.completed: int = 0
        # Health state (fault injection): a failed device is quarantined —
        # it accepts no work, draws no power, and stays out of every
        # cluster view until re-admitted.  A thermal cap (Hz) bounds the
        # operating points the schedulers may program.
        self.healthy = True
        self.failures = 0
        # PMIC transitions actually applied (idle repoints, re-admission
        # reprogramming, in-flight rescales) — counted whether or not the
        # on_transition telemetry hook is bound.
        self.transitions = 0
        self.cap_hz: float | None = None
        self.epoch = epoch if epoch is not None else StateEpoch()
        # Telemetry hook: called as (now, accel_id, old_point, new_point,
        # reason) on every PMIC transition.  None = uninstrumented.
        self.on_transition = None

    def is_idle(self, now: int) -> bool:
        """True when no batch is in flight at time ``now``."""
        return now >= self.busy_until

    def ready_time(self, now: int) -> int:
        """Earliest time a new batch could start (busy + switch barriers)."""
        return max(now, self.busy_until, self.available_at)

    def set_point(
        self, point: OperatingPoint, now: int, reason: str = "idle_repoint"
    ) -> int:
        """Change the DVFS operating point.

        Returns the time the new point is stable.  Changing the point of
        a busy accelerator is rejected — the hardware applies DVFS
        between batches only.
        """
        if not self.healthy:
            raise AcceleratorError(
                f"accel {self.accel_id}: cannot program a failed device"
            )
        if not self.is_idle(now):
            raise AcceleratorError(
                f"accel {self.accel_id}: cannot change DVFS point while busy"
            )
        if self.cap_hz is not None and point.freq_hz > self.cap_hz + 1e-3:
            raise AcceleratorError(
                f"accel {self.accel_id}: {point} exceeds thermal cap "
                f"{self.cap_hz / 1e9:.1f} GHz"
            )
        if point == self.point:
            return now
        self.transitions += 1
        if self.on_transition is not None:
            self.on_transition(now, self.accel_id, self.point, point, reason)
        self.point = point
        self.available_at = max(self.available_at, now + DVFS_SWITCH_NS)
        self.epoch.value += 1
        return self.available_at

    # -- health (fault injection) ----------------------------------------------

    def fail(self, now: int) -> IssueRecord | None:
        """Hard-fail the device: quarantine it and surrender its batch.

        Returns the in-flight record (the caller decides what to do with
        the queries it carried), or None when the device was idle or
        already failed.  A failed device draws no power and is excluded
        from every cluster scheduling view until :meth:`recover`.
        """
        if not self.healthy:
            return None
        self.healthy = False
        self.failures += 1
        record = self.current
        self.current = None
        self.busy_until = now
        self.available_at = now
        self.epoch.value += 1
        return record

    def recover(self, now: int, point: OperatingPoint | None = None) -> None:
        """Re-admit a quarantined device at ``point`` (default: slowest).

        Re-admission reprograms the PMIC, so the device only becomes
        schedulable one DVFS switch delay after ``now``.
        """
        if self.healthy:
            return
        target = point if point is not None else self.table.min_point
        if self.cap_hz is not None and target.freq_hz > self.cap_hz + 1e-3:
            target = fastest_capped(self.table, self.cap_hz)
        if target != self.point:
            self.transitions += 1
            if self.on_transition is not None:
                self.on_transition(
                    now, self.accel_id, self.point, target, "readmission"
                )
        self.healthy = True
        self.point = target
        self.busy_until = now
        self.available_at = max(self.available_at, now + DVFS_SWITCH_NS)
        self.epoch.value += 1

    def throttle(self, cap_hz: float) -> None:
        """Impose a thermal frequency cap (enforced on future programming)."""
        if cap_hz < self.table.min_point.freq_hz:
            raise AcceleratorError(
                f"accel {self.accel_id}: thermal cap below the slowest DVFS point"
            )
        self.cap_hz = cap_hz
        self.epoch.value += 1

    def release_throttle(self) -> None:
        """Lift the thermal cap (schedulers repoint at the next issue)."""
        self.cap_hz = None
        self.epoch.value += 1

    def issue(
        self,
        now: int,
        duration_ns: int,
        batch_size: int,
        activity: float,
        deadline_ns: int | None = None,
    ) -> IssueRecord:
        """Start a batch at ``now`` lasting ``duration_ns``.

        ``deadline_ns`` (the oldest query's t_avail boundary) rides along
        so the DVFS scheduler knows how far the batch may be slowed.
        """
        if not self.healthy:
            raise AcceleratorError(f"accel {self.accel_id}: cannot issue to a failed device")
        if self.current is not None:  # in flight until finish(), even when due
            raise AcceleratorError(f"accel {self.accel_id}: batch still in flight")
        start = self.ready_time(now)
        if start > now:
            raise AcceleratorError(
                f"accel {self.accel_id}: issue at {now} before ready time {start}"
            )
        if duration_ns <= 0:
            raise AcceleratorError(f"duration must be positive, got {duration_ns}")
        record = IssueRecord(
            accel_id=self.accel_id,
            issue_time=now,
            completion_time=now + duration_ns,
            batch_size=batch_size,
            point=self.point,
            activity=activity,
            power_w=self.power_model.power_w(self.point, activity, batch_size),
            deadline_ns=deadline_ns,
        )
        self.busy_until = record.completion_time
        self.current = record
        self.epoch.value += 1
        return record

    def rescale_inflight(
        self,
        now: int,
        point: OperatingPoint,
        new_remaining_ns: int,
        power_w: float | None = None,
    ) -> IssueRecord:
        """Apply a DVFS change to the batch currently in flight.

        The DVFS scheduler (Algorithm 2) may speed up or slow down a busy
        accelerator; the caller computes the remaining work's duration at
        the new point, and the switch delay is charged on top.  A caller
        that already holds the batch's draw at ``point`` passes it as
        ``power_w``.  The in-flight record is updated in place and
        returned.
        """
        record = self.current
        if record is None or self.is_idle(now):
            raise AcceleratorError(f"accel {self.accel_id}: no batch in flight")
        if new_remaining_ns < 0:
            raise AcceleratorError("remaining time cannot be negative")
        old = self.point
        switch = DVFS_SWITCH_NS if point != old else 0
        if switch:
            self.transitions += 1
        if switch and self.on_transition is not None:
            reason = "inflight_boost" if point.freq_hz > old.freq_hz else "inflight_save"
            self.on_transition(now, self.accel_id, old, point, reason)
        if power_w is None:
            power_w = self.power_model.power_w(point, record.activity, record.batch_size)
        self.point = point
        record.point = point
        record.power_w = power_w
        record.completion_time = self.busy_until = now + switch + new_remaining_ns
        self.epoch.value += 1
        return record

    def finish(self, now: int) -> IssueRecord:
        """Mark the in-flight batch complete (must be at/after completion)."""
        if self.current is None:
            raise AcceleratorError(f"accel {self.accel_id}: nothing to finish")
        if now < self.current.completion_time:
            raise AcceleratorError(
                f"accel {self.accel_id}: finish at {now} before completion "
                f"{self.current.completion_time}"
            )
        record = self.current
        self.current = None
        self.completed += 1
        self.epoch.value += 1
        return record

    def power_now(self, now: int) -> float:
        """Instantaneous power draw at ``now`` (a failed device draws 0)."""
        if not self.healthy:
            return 0.0
        if self.current is not None and now < self.current.completion_time:
            return self.current.power_w
        if self.point is self._idle_point:
            return self._idle_w
        return self.idle_w()

    def idle_w(self) -> float:
        """Leakage-only draw at the current point (cached per point)."""
        point = self.point
        if point is not self._idle_point:
            self._idle_point = point
            self._idle_w = self.power_model.idle_power_w(point)
        return self._idle_w


def fastest_capped(table: DVFSTable, cap_hz: float) -> OperatingPoint:
    """The fastest table point at or below ``cap_hz`` (min point fallback)."""
    best = table.min_point
    for point in table:
        if point.freq_hz <= cap_hz + 1e-3:
            best = point
        else:
            break
    return best


@dataclass
class AcceleratorCluster:
    """N accelerators behind one shared accelerator power budget.

    The devices share ``epoch``, so its value moves exactly when some
    device's scheduling-visible state does.
    """

    n_accelerators: int
    table: DVFSTable
    power_model: PowerModel
    budget_w: float
    config: AcceleratorConfig = DEFAULT_CONFIG
    devices: list[Accelerator] = field(init=False)
    epoch: StateEpoch = field(init=False, default_factory=StateEpoch)

    def __post_init__(self) -> None:
        if self.n_accelerators <= 0:
            raise AcceleratorError("cluster needs at least one accelerator")
        if self.budget_w <= 0:
            raise AcceleratorError("power budget must be positive")
        self.devices = [
            Accelerator(i, self.table, self.power_model, epoch=self.epoch)
            for i in range(self.n_accelerators)
        ]

    def __iter__(self):
        return iter(self.devices)

    def __len__(self) -> int:
        return self.n_accelerators

    @property
    def per_accel_budget_w(self) -> float:
        """Even static split of the budget (the no-DS baseline policy)."""
        return self.budget_w / self.n_accelerators

    @property
    def n_healthy(self) -> int:
        """Devices currently admitted to scheduling."""
        return sum(1 for d in self.devices if d.healthy)

    def idle_devices(self, now: int) -> list[Accelerator]:
        """Healthy devices able to take a batch at ``now`` (none in flight)."""
        return [
            d
            for d in self.devices
            if d.healthy and d.current is None and d.ready_time(now) <= now
        ]

    def busy_devices(self, now: int) -> list[Accelerator]:
        """Healthy devices with a batch in flight at ``now``."""
        return [d for d in self.devices if d.healthy and not d.is_idle(now)]

    def next_completion(self, now: int) -> int | None:
        """Earliest in-flight completion time, or None if all idle."""
        times = [d.busy_until for d in self.busy_devices(now)]
        return min(times) if times else None

    def total_power(self, now: int) -> float:
        """Instantaneous cluster draw."""
        # power_now inlined (same values, same left-to-right float order
        # as sum()); this runs once per simulated event.  A failed device
        # draws 0.0, which addition leaves bit-exact, so it is skipped.
        total = 0.0
        for device in self.devices:
            if not device.healthy:
                continue
            current = device.current
            if current is not None and now < current.completion_time:
                total += current.power_w
            elif device.point is device._idle_point:
                total += device._idle_w
            else:
                total += device.idle_w()
        return total

    def headroom(self, now: int) -> float:
        """Unused budget at ``now`` (never negative by scheduler contract)."""
        return self.budget_w - self.total_power(now)
