"""Back-test metrics: response rate, miss rate, latency and power stats.

The simulation framework "tracks each input query to see if its
tick-to-trade meets the available time and stores the result for the
record" (paper §IV-A).  :class:`MetricsCollector` is that record: an
append-only log of query outcomes and power samples, which it folds in a
few numpy passes into :class:`RunResult`, the digest every experiment
consumes, and into the run's metric registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.metrics import MetricRegistry, NULL_METRICS
from repro.pipeline.offload import Query


# The power fold state before the first sample: earlier than any time,
# and a wattage every reading differs from.
_BEFORE_ANY_NS = int(np.iinfo(np.int64).min)
_NAN = float("nan")


def _fmt_us(value: float) -> str:
    """Microsecond figure for display; NaN (no in-time responses) → n/a."""
    return "n/a" if math.isnan(value) else f"{value:.0f}µs"


@dataclass(frozen=True)
class RunResult:
    """Digest of one back-test run."""

    system: str
    model: str
    n_queries: int  # scored queries (known deadline)
    responded: int  # completed within deadline
    completed_late: int
    dropped: int
    mean_latency_us: float  # tick-to-trade of in-time responses; NaN if none
    p50_latency_us: float
    p99_latency_us: float
    mean_batch_size: float
    mean_power_w: float
    peak_power_w: float
    energy_j: float
    duration_s: float

    @property
    def response_rate(self) -> float:
        """Fraction of scored queries answered within their deadline."""
        return self.responded / self.n_queries if self.n_queries else 0.0

    @property
    def miss_rate(self) -> float:
        """1 − response rate."""
        return 1.0 - self.response_rate

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"{self.system}/{self.model}: {self.response_rate:.1%} response "
            f"({self.responded}/{self.n_queries}), mean t2t "
            f"{_fmt_us(self.mean_latency_us)}, p99 {_fmt_us(self.p99_latency_us)}, "
            f"batch {self.mean_batch_size:.2f}, power {self.mean_power_w:.1f}W "
            f"(peak {self.peak_power_w:.1f}W)"
        )


@dataclass
class MetricsCollector:
    """Logs per-query outcomes and power samples; folds them on demand.

    The recording methods only append.  :meth:`result` folds the whole
    log into a :class:`RunResult` and may be called repeatedly.  The
    registry receives each log entry once: at :meth:`result`, or just
    before a due sim-time flush, so flush events carry the values that
    counting every outcome as it happens would.  The log is the one
    account: the counts cannot come from a registry, which may be off.
    """

    system: str
    model: str
    # Aggregate-metric registry; the default NULL_METRICS is a shared
    # no-op, and a disabled registry skips the fold altogether.
    registry: MetricRegistry = field(default=NULL_METRICS, repr=False)
    # The log: completions as flat (deadline, arrival, order_ns, batch)
    # quadruples, drops as deadlines, power samples as (ns, W) pairs.
    _completions: list[int] = field(default_factory=list, repr=False)
    _drops: list[int] = field(default_factory=list, repr=False)
    _power_ns: list[int] = field(default_factory=list, repr=False)
    _power_w: list[float] = field(default_factory=list, repr=False)
    # Fold state: the log lengths folded so far, the arrays they became
    # (completions, drops, power times, power watts), and the latest
    # sample time and last accepted wattage they end on.
    _folded: tuple[int, int, int] = (0, 0, 0)
    _parts: list[tuple[np.ndarray, ...]] = field(default_factory=list, repr=False)
    _folded_ns: int = _BEFORE_ANY_NS
    _folded_w: float = _NAN

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
        """A query's order left the system at ``order_time``: in time when
        ``order_time <= deadline``, unscored when the deadline is -1."""
        deadline = query.deadline
        self._completions.extend((deadline, query.arrival, order_time, batch_size))
        if order_time >= self.registry.next_flush_ns and deadline >= 0:
            self._flush(order_time)

    def record_completion_ids(
        self,
        deadline: int,
        arrival: int,
        order_time: int,
        batch_size: int,
    ) -> None:
        """:meth:`record_completion` from plain ints, for the pumps' lazy
        path that never materialises a :class:`Query`."""
        self._completions.extend((deadline, arrival, order_time, batch_size))
        if order_time >= self.registry.next_flush_ns and deadline >= 0:
            self._flush(order_time)

    def record_drop(self, query: Query) -> None:
        """A query was dropped before completing."""
        self._drops.append(query.deadline)

    def record_drop_ids(self, deadline: int) -> None:
        """:meth:`record_drop` from the query's deadline alone."""
        self._drops.append(deadline)

    def sample_power(self, now: int, watts: float) -> None:
        """Log the power draw at ``now`` (call at every state change).

        The integral is a step function: the previous wattage is held
        until ``now``.  Equal timestamps replace the reading (last write
        at an instant wins); an out-of-order sample (``now`` before an
        earlier one) still registers for the peak but never rewinds the
        integral.  A segment breaks only where the wattage changes, so
        redundant samples never perturb the float accumulation, and the
        ``power.rail_w`` gauge is written at those change points.
        """
        self._power_ns.append(now)
        self._power_w.append(watts)

    @property
    def unscored(self) -> int:
        """Queries with an unknown (-1) deadline, completed or dropped."""
        return sum(deadline < 0 for deadline in self._completions[0::4] + self._drops)

    def _flush(self, now: int) -> None:
        """Fold the log into the registry, then emit the due snapshot."""
        self._fold()
        self.registry.flush(now)

    def _fold(self) -> None:
        """Convert the log entries not folded yet to arrays, once, and
        fold them into the registry when it is on."""
        done_at, drops_at, power_at = self._folded
        done, drops, times, watts = part = (
            _int64(self._completions[done_at:]).reshape(-1, 4),
            _int64(self._drops[drops_at:]),
            _int64(self._power_ns[power_at:]),
            np.array(self._power_w[power_at:], dtype=np.float64),
        )
        self._parts.append(part)
        self._folded = (len(self._completions), len(self._drops), len(self._power_ns))
        if not self.registry.enabled:
            return
        responded, late, dropped, unscored, t2t_ns, batches = _tally(done, drops)
        self._m_responded.inc(responded)
        self._m_late.inc(late)
        self._m_dropped.inc(dropped)
        self._m_unscored.inc(unscored)
        self._m_deadline_miss.inc(late + dropped)
        self._m_t2t.record_many(t2t_ns)
        self._m_batch.record_many(batches)
        if len(times):
            __, accepted, change = _accepted(
                times, watts, self._folded_ns, self._folded_w
            )
            if change.any():
                # The largest write, then the last: the gauge keeps both.
                self._m_power.set(float(accepted[change].max()))
                self._m_power.set(float(accepted[change][-1]))
            if len(accepted):
                self._folded_w = float(accepted[-1])
            self._folded_ns = max(self._folded_ns, int(times.max()))

    def result(self) -> RunResult:
        """Finalise into a :class:`RunResult`.

        Latency statistics cover in-time responses only; when a run had
        none they are NaN (``describe()`` prints ``n/a``) rather than a
        fake 0 µs — an all-miss run must not masquerade as a 0-latency
        run.
        """
        self._fold()
        done, drops, times, watts = (np.concatenate(log) for log in zip(*self._parts))
        responded, completed_late, dropped, __, t2t_ns, batches = _tally(done, drops)
        if responded:
            lat = t2t_ns / 1_000.0
            mean_us = float(lat.mean())
            p50_us = float(np.percentile(lat, 50))
            p99_us = float(np.percentile(lat, 99))
        else:
            mean_us = p50_us = p99_us = float("nan")
        energy_j = peak_power_w = 0.0
        power_time_ns = 0
        if len(times):
            at, accepted, change = _accepted(times, watts, _BEFORE_ANY_NS, _NAN)
            # Segment k holds its wattage from its change point to the next
            # one, the last to the last accepted sample.  Its joules add up
            # left to right (cumsum, not a pairwise sum), like a running sum.
            starts = at[change]
            held = np.diff(starts, append=at[-1])
            joules = accepted[change][held > 0] * held[held > 0] / 1e9
            energy_j = float(np.cumsum(joules)[-1]) if len(joules) else 0.0
            power_time_ns = int(at[-1] - starts[0])
            peak_power_w = max(peak_power_w, float(watts.max()))
        duration_s = power_time_ns / 1e9
        return RunResult(
            system=self.system,
            model=self.model,
            n_queries=responded + completed_late + dropped,
            responded=responded,
            completed_late=completed_late,
            dropped=dropped,
            mean_latency_us=mean_us,
            p50_latency_us=p50_us,
            p99_latency_us=p99_us,
            mean_batch_size=float(np.mean(batches)) if len(batches) else 0.0,
            mean_power_w=(energy_j / duration_s if duration_s > 0 else 0.0),
            peak_power_w=peak_power_w,
            energy_j=energy_j,
            duration_s=duration_s,
        )


def _int64(values: list[int]) -> np.ndarray:
    return np.fromiter(values, dtype=np.int64, count=len(values))


def _tally(
    done: np.ndarray, drops: np.ndarray
) -> tuple[int, int, int, int, np.ndarray, np.ndarray]:
    """Outcome counts of completion rows (deadline, arrival, order_ns,
    batch) and drop deadlines — (responded, late, dropped, unscored) —
    then the in-time tick-to-trade times (ns) and the scored batch
    sizes, both in completion order."""
    deadline, arrival, order, batch = done.T
    scored = deadline >= 0
    in_time = scored & (order <= deadline)
    t2t_ns = order[in_time] - arrival[in_time]
    batches = batch[scored]
    dropped = int(np.count_nonzero(drops >= 0))
    unscored = len(deadline) - len(batches) + len(drops) - dropped
    return len(t2t_ns), len(batches) - len(t2t_ns), dropped, unscored, t2t_ns, batches


def _accepted(
    times: np.ndarray, watts: np.ndarray, after_ns: int, last_w: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The power samples the integral accepts, and where they change.

    A sample is accepted unless an earlier one (or ``after_ns``) is
    later than it.  Returns the accepted times and wattages, and the
    mask of accepted samples whose wattage differs from the accepted
    sample before (``last_w`` before the first; NaN differs from all).
    """
    keep = times >= np.maximum(np.maximum.accumulate(times), after_ns)
    accepted = watts[keep]
    change = accepted != np.concatenate(([last_w], accepted[:-1]))
    return times[keep], accepted, change
