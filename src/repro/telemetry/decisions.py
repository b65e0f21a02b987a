"""Scheduler decision log: why Algorithm 1 and Algorithm 2 did what they did.

Captures every Algorithm-1 sweep (candidates considered, feasible set
size, per-reason rejection counts, the committed
:class:`~repro.core.scheduler.ScheduleDecision` or the fallback taken),
every Algorithm-2 power-save / reclaim / redistribution round, every
DVFS transition, and a power-rail timeline sampled at state changes.
Events stream to the run's :class:`~repro.telemetry.writer.TraceWriter`
and aggregate into registry counters; in-memory retention is optional so
long runs don't grow without bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.registry import Registry
from repro.telemetry.writer import TraceWriter

if TYPE_CHECKING:  # avoid a telemetry → core import cycle at runtime
    from repro.accelerator.power import OperatingPoint
    from repro.core.scheduler import ScheduleDecision

__all__ = ["DecisionLog", "decision_to_dict", "point_to_dict"]


def point_to_dict(point: "OperatingPoint | None") -> dict | None:
    if point is None:
        return None
    return {"freq_ghz": round(point.freq_hz / 1e9, 3), "voltage": point.voltage}


def decision_to_dict(decision: "ScheduleDecision | None") -> dict | None:
    if decision is None:
        return None
    return {
        "point": point_to_dict(decision.point),
        "batch_size": decision.batch_size,
        "t_total_ns": decision.t_total_ns,
        "power_w": round(decision.power_w, 3),
        "ppw": decision.ppw,
    }


class DecisionLog:
    """Streaming record of scheduler and power-management decisions."""

    def __init__(
        self,
        registry: Registry | None = None,
        writer: TraceWriter | None = None,
        keep_events: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else Registry()
        self.writer = writer
        self.events: list[dict] | None = [] if keep_events else None

    def emit(self, kind: str, /, **fields) -> dict:
        """Record one event of ``kind`` (the low-level entry point)."""
        event = {"type": kind, **fields}
        if self.events is not None:
            self.events.append(event)
        if self.writer is not None:
            self.writer.write(event)
        return event

    # -- Algorithm 1 ---------------------------------------------------------

    def record_sweep(
        self,
        now: int,
        considered: int,
        feasible: int,
        rejected_deadline: int,
        rejected_power: int,
        chosen: "ScheduleDecision | None",
        floor_relaxed: bool = False,
    ) -> None:
        """One Algorithm-1 sweep over the (DVFS × batch) candidate grid."""
        counters = self.registry
        counters.counter("scheduler.sweeps").inc()
        counters.counter("scheduler.candidates_considered").inc(considered)
        counters.counter("scheduler.rejected_deadline").inc(rejected_deadline)
        counters.counter("scheduler.rejected_power").inc(rejected_power)
        if chosen is None:
            counters.counter("scheduler.sweeps_infeasible").inc()
        self.emit(
            "sweep",
            t_ns=now,
            considered=considered,
            feasible=feasible,
            rejected_deadline=rejected_deadline,
            rejected_power=rejected_power,
            floor_relaxed=floor_relaxed,
            chosen=decision_to_dict(chosen),
        )

    def record_fallback(self, now: int, reason: str, query_id: int | None = None) -> None:
        """Algorithm 1 found no candidate: what the simulator did about it
        (``drop_unschedulable`` or ``defer_power``)."""
        self.registry.counter(f"scheduler.fallback.{reason}").inc()
        event = {"t_ns": now, "reason": reason}
        if query_id is not None:
            event["query_id"] = query_id
        self.emit("fallback", **event)

    # -- Algorithm 2 ---------------------------------------------------------

    def record_reclaim(
        self, now: int, needed_w: float, headroom_w: float, satisfied: bool
    ) -> None:
        """A power-reclaim pass run to make room for a new batch issue."""
        self.registry.counter("dvfs.reclaims").inc()
        if not satisfied:
            self.registry.counter("dvfs.reclaims_failed").inc()
        self.emit(
            "reclaim",
            t_ns=now,
            needed_w=round(needed_w, 3),
            headroom_w=round(headroom_w, 3),
            satisfied=satisfied,
        )

    def record_redistribute(
        self, now: int, transitions: int, headroom_w: float
    ) -> None:
        """One greedy Algorithm-2 redistribution (only logged when it acted)."""
        self.registry.counter("dvfs.redistribute_transitions").inc(transitions)
        self.emit(
            "redistribute",
            t_ns=now,
            transitions=transitions,
            headroom_w=round(headroom_w, 3),
        )

    # -- fault injection -------------------------------------------------------

    def record_fault(
        self, now: int, kind: str, accel_id: int | None = None, **fields
    ) -> None:
        """One fault-injection or recovery event (``kind`` is free-form:
        a :mod:`repro.faults` fault kind, or a degradation action such as
        ``requeue``/``drop``/``readmission``)."""
        self.registry.counter(f"faults.{kind}").inc()
        event = {"t_ns": now, "kind": kind}
        if accel_id is not None:
            event["accel_id"] = accel_id
        event.update(fields)
        self.emit("fault", **event)

    # -- device-level DVFS + power rail ---------------------------------------

    def record_transition(
        self,
        now: int,
        accel_id: int,
        old_point: "OperatingPoint",
        new_point: "OperatingPoint",
        reason: str,
    ) -> None:
        """One PMIC/PLL transition on one accelerator."""
        self.registry.counter("dvfs.transitions").inc()
        self.registry.counter(f"dvfs.transitions.{reason}").inc()
        self.emit(
            "dvfs_transition",
            t_ns=now,
            accel_id=accel_id,
            reason=reason,
            old=point_to_dict(old_point),
            new=point_to_dict(new_point),
        )

    def record_power(self, now: int, watts: float) -> None:
        """One point of the power-rail timeline (caller dedups repeats)."""
        gauge = self.registry.gauge("power.rail_w")
        gauge.set(watts)
        self.emit("power", t_ns=now, watts=round(watts, 4))
