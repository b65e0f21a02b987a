"""Fault injector: replays a :class:`FaultPlan` through one back-test.

The injector owns the *mechanics* of injection — scheduling cluster
faults on the event queue, perturbing the arrival schedule, tracking DMA
stall windows, duplicate suppression and corrupted in-flight batches —
while the :class:`~repro.sim.backtest.Backtester` owns the *policy* of
degradation (requeue vs drop, quarantine, power redistribution), because
policy needs the cluster, scheduler and metrics in scope.

One injector serves exactly one run; it is cheap, single-use state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plan import (
    PACKET_DROP,
    PACKET_DUP,
    PACKET_REORDER,
    FaultEvent,
    FaultPlan,
)
from repro.sim.events import EventKind, EventQueue

if TYPE_CHECKING:
    from repro.telemetry.decisions import DecisionLog

# Arrival verdicts.
ADMIT = "admit"
DUPLICATE = "duplicate"
STALLED = "stalled"


class FaultInjector:
    """Per-run fault replay state."""

    def __init__(
        self,
        plan: FaultPlan,
        n_accelerators: int,
        log: "DecisionLog | None" = None,
    ) -> None:
        self.plan = plan
        self.log = log
        self._dropped_ticks: set[int] = set()
        self._delayed_ticks: dict[int, int] = {}
        self._dup_ticks: dict[int, int] = {}
        for event in plan.feed_events():
            if event.kind == PACKET_DROP:
                self._dropped_ticks.add(event.tick_index)
            elif event.kind == PACKET_REORDER:
                self._delayed_ticks[event.tick_index] = event.delay_ns
            elif event.kind == PACKET_DUP:
                self._dup_ticks[event.tick_index] = event.delay_ns
        for event in plan.cluster_events():
            if event.accel_id >= n_accelerators:
                raise ValueError(
                    f"fault targets accel {event.accel_id} but the run has "
                    f"only {n_accelerators} accelerators"
                )
        # Mutable run state.
        self.stall_until = -1  # end of the current DMA stall window (ns)
        self.corrupted: set[int] = set()  # accel ids with a poisoned batch
        self._seen_ticks: set[int] = set()  # for sequence-number dup detection
        # Observed-fault counters (what actually bit, vs what was planned).
        self.feed_dropped = 0
        self.feed_duplicates_suppressed = 0
        self.feed_reordered = 0
        self.stalled_arrivals = 0
        # Cluster faults actually applied, keyed by fault kind — folded
        # into the run's MetricRegistry as ``faults.applied.<kind>``.
        self.applied: dict[str, int] = {}

    def note_applied(self, kind: str) -> None:
        """Record that one cluster fault of ``kind`` actually fired."""
        self.applied[kind] = self.applied.get(kind, 0) + 1

    # -- schedule construction ---------------------------------------------------

    def schedule(self, queue: EventQueue) -> None:
        """Push every cluster-scoped fault onto the event queue."""
        for event in self.plan.cluster_events():
            queue.push(event.t_ns, EventKind.FAULT, event)
        if self.log is not None and not self.plan.empty:
            self.log.record_fault(0, "plan", **self.plan.counts())

    def arrival_times(self, tick_index: int, nominal_ns: int) -> tuple[int, ...]:
        """Wire-arrival instants for one workload tick.

        A dropped packet yields no arrival (its sequence gap is what the
        feed handler's resync machinery absorbs); a reordered packet
        arrives late; a duplicated packet arrives twice and the second
        copy is suppressed at ingest by sequence-number dup detection.
        """
        if tick_index in self._dropped_ticks:
            self.feed_dropped += 1
            return ()
        delay = self._delayed_ticks.get(tick_index)
        if delay is not None:
            self.feed_reordered += 1
            return (nominal_ns + delay,)
        dup_delay = self._dup_ticks.get(tick_index)
        if dup_delay is not None:
            return (nominal_ns, nominal_ns + max(dup_delay, 1))
        return (nominal_ns,)

    # -- event-loop hooks ---------------------------------------------------------

    def on_arrival(self, tick_index: int, now: int) -> str:
        """Classify one ARRIVAL event: admit, duplicate, or stalled."""
        if now < self.stall_until:
            self.stalled_arrivals += 1
            return STALLED
        if tick_index in self._seen_ticks:
            self.feed_duplicates_suppressed += 1
            if self.log is not None:
                self.log.record_fault(now, "duplicate_suppressed", tick_index=tick_index)
            return DUPLICATE
        self._seen_ticks.add(tick_index)
        return ADMIT

    def begin_stall(self, now: int, duration_ns: int) -> None:
        """Open (or extend) a DMA stall window."""
        self.stall_until = max(self.stall_until, now + duration_ns)
