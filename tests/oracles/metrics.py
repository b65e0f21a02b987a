"""Per-event back-test metrics collector (test oracle).

:class:`ReferenceMetricsCollector` is the collector that scores every
outcome as it happens: plain-int counters, registry counters and
histograms updated per query, and the energy integral accumulated per
power sample.  :class:`repro.sim.metrics.MetricsCollector` logs the
same calls and folds them at the end of the run (or before a due
metrics flush); the loop-parity tests run the reference back-test pumps
on this collector and hold the two byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.metrics import MetricRegistry, NULL_METRICS
from repro.pipeline.offload import Query
from repro.sim.metrics import RunResult


@dataclass
class ReferenceMetricsCollector:
    """Accumulates per-query outcomes and a power-over-time integral."""

    system: str
    model: str
    _latencies_us: list[float] = field(default_factory=list)
    _batch_sizes: list[int] = field(default_factory=list)
    responded: int = 0
    completed_late: int = 0
    dropped: int = 0
    unscored: int = 0
    _energy_j: float = 0.0
    _power_time_ns: int = 0
    _peak_power_w: float = 0.0
    _last_power_sample: tuple[int, float] | None = None
    # Open constant-wattage segment: (start_ns, watts).  Integration
    # happens only when the value changes (and for the trailing segment
    # in result()), so a caller that skips value-identical samples — the
    # fast simulator loop — accumulates the exact same float sequence as
    # one that samples every event.
    _segment: tuple[int, float] | None = None
    # Aggregate-metric registry; NULL_METRICS is a shared no-op, so the
    # recording paths below stay branch-free whether metrics are on or
    # off.  Instruments are pre-bound in ``__post_init__`` — the hot
    # paths never do a name lookup.
    registry: MetricRegistry = field(default=NULL_METRICS, repr=False)

    def __post_init__(self) -> None:
        reg = self.registry
        self._m_responded = reg.counter("queries.responded")
        self._m_late = reg.counter("queries.completed_late")
        self._m_dropped = reg.counter("queries.dropped")
        self._m_unscored = reg.counter("queries.unscored")
        self._m_deadline_miss = reg.counter("deadline.missed")
        self._m_t2t = reg.histogram("tick_to_trade_ns")
        self._m_batch = reg.histogram("batch.size")
        self._m_power = reg.gauge("power.rail_w")

    def record_completion(self, query: Query, order_time: int, batch_size: int) -> None:
        """A query's order left the system at ``order_time``."""
        if query.deadline < 0:
            self.unscored += 1
            self._m_unscored.inc()
            return
        self._batch_sizes.append(batch_size)
        self._m_batch.record(batch_size)
        if order_time <= query.deadline:
            self.responded += 1
            self._latencies_us.append((order_time - query.arrival) / 1_000.0)
            self._m_responded.inc()
            self._m_t2t.record(order_time - query.arrival)
        else:
            self.completed_late += 1
            self._m_late.inc()
            self._m_deadline_miss.inc()
        self.registry.maybe_flush(order_time)

    def record_completion_ids(
        self,
        deadline: int,
        arrival: int,
        order_time: int,
        batch_size: int,
    ) -> None:
        """Plain-int completion recording for the fast loop's lazy path:
        counter- and float-identical to :meth:`record_completion`
        without a materialised :class:`Query`."""
        if deadline < 0:
            self.unscored += 1
            self._m_unscored.inc()
            return
        self._batch_sizes.append(batch_size)
        self._m_batch.record(batch_size)
        if order_time <= deadline:
            self.responded += 1
            self._latencies_us.append((order_time - arrival) / 1_000.0)
            self._m_responded.inc()
            self._m_t2t.record(order_time - arrival)
        else:
            self.completed_late += 1
            self._m_late.inc()
            self._m_deadline_miss.inc()
        self.registry.maybe_flush(order_time)

    def record_drop(self, query: Query) -> None:
        """A query was dropped before completing."""
        self.record_drop_ids(query.deadline)

    def record_drop_ids(self, deadline: int) -> None:
        """Plain-int drop recording for the fast loop's lazy path:
        counter-identical to :meth:`record_drop` without requiring a
        materialised :class:`Query`."""
        if deadline < 0:
            self.unscored += 1
            self._m_unscored.inc()
        else:
            self.dropped += 1
            self._m_dropped.inc()
            self._m_deadline_miss.inc()

    def sample_power(self, now: int, watts: float) -> None:
        """Integrate power over time (call at every state change).

        The integral is a step function: the previous wattage is held
        until ``now``.  Equal timestamps replace the reading (last write
        at an instant wins); an out-of-order sample (``now`` before the
        last one) still registers for the peak but never rewinds the
        integral.  Value-identical samples only extend the open segment,
        so redundant sampling never perturbs the float accumulation.
        """
        last = self._last_power_sample
        if last is not None:
            if now < last[0]:
                self._peak_power_w = max(self._peak_power_w, watts)
                return
            if watts != last[1]:
                start, seg_watts = self._segment
                dt = now - start
                if dt > 0:
                    self._energy_j += seg_watts * dt / 1e9
                    self._power_time_ns += dt
                self._segment = (now, watts)
                # Gauge writes happen only on value changes (and the
                # first sample below), so the fast loop — which skips
                # value-identical samples — produces the identical gauge
                # sequence as the reference loop.
                self._m_power.set(watts)
        else:
            self._segment = (now, watts)
            self._m_power.set(watts)
        self._peak_power_w = max(self._peak_power_w, watts)
        self._last_power_sample = (now, watts)

    def result(self) -> RunResult:
        """Finalise into a :class:`RunResult`.

        Latency statistics cover in-time responses only; when a run had
        none they are NaN (``describe()`` prints ``n/a``) rather than a
        fake 0 µs — an all-miss run must not masquerade as a 0-latency
        run.
        """
        if self._latencies_us:
            lat = np.asarray(self._latencies_us)
            mean_us = float(lat.mean())
            p50_us = float(np.percentile(lat, 50))
            p99_us = float(np.percentile(lat, 99))
        else:
            mean_us = p50_us = p99_us = float("nan")
        scored = self.responded + self.completed_late + self.dropped
        energy_j = self._energy_j
        power_time_ns = self._power_time_ns
        if self._segment is not None and self._last_power_sample is not None:
            # Close the trailing constant-wattage segment (non-mutating:
            # result() stays safe to call repeatedly).
            start, seg_watts = self._segment
            dt = self._last_power_sample[0] - start
            if dt > 0:
                energy_j += seg_watts * dt / 1e9
                power_time_ns += dt
        duration_s = power_time_ns / 1e9
        return RunResult(
            system=self.system,
            model=self.model,
            n_queries=scored,
            responded=self.responded,
            completed_late=self.completed_late,
            dropped=self.dropped,
            mean_latency_us=mean_us,
            p50_latency_us=p50_us,
            p99_latency_us=p99_us,
            mean_batch_size=(
                float(np.mean(self._batch_sizes)) if self._batch_sizes else 0.0
            ),
            mean_power_w=(energy_j / duration_s if duration_s > 0 else 0.0),
            peak_power_w=self._peak_power_w,
            energy_j=energy_j,
            duration_s=duration_s,
        )
