"""Offload engine: LOB data → normalised BF16 input tensors (paper Fig. 5).

The offload engine converts each tick's LOB snapshot into a feature
vector (market-protocol integers → BF16), Z-score-normalises it against
statistics fitted on historical data, keeps the last ``window`` vectors
in a ring buffer from which each query copies the model's 2-D input
feature map, and queues the resulting query for the DNN pipeline,
tail-dropping the oldest query when the queue overflows.

The back-test's pending queue is :class:`PendingIndexStore`.  It owns
stale-query management: queries whose deadline has passed are dropped
before wasting accelerator time, the oldest query is evicted when the
scheduler finds no feasible offloading option (Algorithm 1's fallback),
and a surrendered batch goes back to the head of the queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import SchedulingError
from repro.hotpath import hot_path
from repro.lob.snapshot import DepthSnapshot
from repro.market.replay import TickTape
from repro.nn.precision import to_bf16


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature Z-score statistics fitted on historical market data."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, tape: TickTape) -> "NormalizationStats":
        """Fit mean/std per feature over a historical tape."""
        if len(tape) < 2:
            raise SchedulingError("need at least two ticks to fit normalisation")
        features = tape.feature_matrix()
        std = features.std(axis=0)
        std[std == 0] = 1.0  # constant features normalise to zero, not NaN
        return cls(mean=features.mean(axis=0), std=std)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Z-score ``vector`` and quantise to BF16.

        The input must be finite — NaN/Inf would quantise silently into
        the BF16 tensor and poison every window that stacks it; callers
        reject corrupt vectors first (see ``OffloadEngine.on_tick``).
        """
        if not np.isfinite(vector).all():
            raise SchedulingError("non-finite feature vector reached normalisation")
        return self.normalise(vector)

    def normalise(self, vector: np.ndarray) -> np.ndarray:
        """:meth:`apply` for a vector the caller has already found finite."""
        return to_bf16((vector - self.mean) / self.std)


@dataclass
class Query:
    """One tick's inference request flowing through the DNN pipeline."""

    query_id: int
    tick_index: int
    arrival: int  # ns: when the tick reached the offload engine
    deadline: int  # ns: latest useful completion (t_avail boundary)
    tensor: np.ndarray | None = None  # (window, features) when materialised
    enqueue_time: int | None = None  # ns: when it entered the offload queue
    issue_time: int | None = None
    completion_time: int | None = None
    dropped: bool = False
    drop_reason: str | None = None  # 'overflow' | 'stale' | 'unschedulable' | ...

    @property
    def completed(self) -> bool:
        """True once an inference result came back."""
        return self.completion_time is not None

    def in_time(self) -> bool:
        """True when the query completed within its deadline."""
        return self.completed and self.completion_time <= self.deadline


class OffloadEngine:
    """Sliding feature window plus the pending-query FIFO of the
    functional tick-to-order path."""

    def __init__(
        self,
        stats: NormalizationStats | None = None,
        window: int = 100,
        max_pending: int = 256,
        store_tensors: bool = False,
    ) -> None:
        if window <= 0:
            raise SchedulingError(f"window must be positive, got {window}")
        if max_pending <= 0:
            raise SchedulingError(f"max_pending must be positive, got {max_pending}")
        self.stats = stats
        self.window = window
        self.max_pending = max_pending
        self.store_tensors = store_tensors
        # 2 * window rows, allocated on the first vector.  Each vector is
        # written at _head and _head + window, so the last ``window``
        # vectors are always ring[_head : _head + window], oldest first.
        self._ring: np.ndarray | None = None
        self._head = 0  # next write row, which holds the oldest vector
        self._filled = 0  # vectors taken so far, saturating at ``window``
        self._pending: deque[Query] = deque()
        self._next_id = 0
        self.admitted = 0
        self.queue_depth_high_water = 0
        self.dropped_overflow = 0
        self.rejected_corrupt = 0  # non-finite feature vectors refused at ingest

    # -- ingest ------------------------------------------------------------------

    def on_tick(
        self,
        snapshot: DepthSnapshot,
        arrival: int,
        deadline: int,
        tick_index: int = -1,
    ) -> Query | None:
        """Ingest one tick; returns the queued Query or None during warm-up.

        During the first ``window - 1`` ticks there is not yet a full
        input feature map, so no query is generated (the window warms up).
        """
        window = self.window
        if self.store_tensors:
            vector = snapshot.feature_vector()
            if not np.isfinite(vector).all():
                # A corrupt (NaN/Inf) vector would otherwise quantise
                # silently into the window and contaminate the next
                # ``window`` tensors; reject the tick instead.
                self.rejected_corrupt += 1
                return None
            if self.stats is not None:
                vector = self.stats.normalise(vector)
            if self._ring is None:
                self._ring = np.empty((2 * window, *vector.shape), dtype=vector.dtype)
            head = self._head
            self._ring[head] = self._ring[head + window] = vector
            self._head = (head + 1) % window
        self._filled = min(self._filled + 1, window)
        if self._filled < window:
            return None
        tensor = None  # timing-only mode materialises no data
        if self.store_tensors:
            # A copy, so later ticks never rewrite a queued query's input.
            tensor = self._ring[self._head : self._head + window].copy()

        query = Query(
            query_id=self._next_id,
            tick_index=tick_index,
            arrival=arrival,
            deadline=deadline,
            tensor=tensor,
            enqueue_time=arrival,
        )
        self._next_id += 1
        if len(self._pending) >= self.max_pending:
            # Input queue overflow: drop the oldest pending query (tail-drop
            # of stale data, keeping the freshest market state).
            victim = self._pending.popleft()
            victim.dropped = True
            victim.drop_reason = "overflow"
            self.dropped_overflow += 1
        self.admit(query)
        return query

    def admit(self, query: Query) -> None:
        """Append a fully-constructed query to the pending queue, counting
        it and tracking the queue's high-water depth."""
        self._pending.append(query)
        self.admitted += 1
        depth = len(self._pending)
        if depth > self.queue_depth_high_water:
            self.queue_depth_high_water = depth

    # -- queue management ----------------------------------------------------------

    def pending_count(self) -> int:
        """Queries waiting to be issued."""
        return len(self._pending)

    def pop_batch(self, batch_size: int) -> list[Query]:
        """Dequeue up to ``batch_size`` oldest queries for one batch issue."""
        if batch_size <= 0:
            raise SchedulingError(f"batch size must be positive, got {batch_size}")
        batch = []
        while self._pending and len(batch) < batch_size:
            batch.append(self._pending.popleft())
        return batch


class PendingIndexStore:
    """Struct-of-arrays pending queue of the back-test pumps.

    The store queues *workload row indices*: timestamps and deadlines
    stay in the workload's int64 arrays and a ``Query`` is materialised
    lazily — at batch issue, at drop recording, and on fault paths — so
    the admission hot path allocates nothing per event.  It owns the
    back-test's queue policy: FIFO order, overflow tail-drop, stale drops
    behind a conservative deadline scan bound, eviction of the oldest
    query, ``requeue_front`` fault semantics and the drop counters.  The
    loop-parity tests hold it byte-identical to the :class:`Query`-object
    queue of the reference pumps in ``tests/oracles/backtest.py``.

    ``admit_run`` is the batched path: it admits a contiguous run of
    arrivals that occur between two scheduling decisions in one call,
    replaying the per-event admit → stale-scan cadence as one vectorized
    pass with identical drop order and drop timestamps.
    """

    def __init__(
        self,
        timestamps: np.ndarray,
        deadlines: np.ndarray,
        enqueue_offset_ns: int,
        max_pending: int = 256,
    ) -> None:
        if max_pending <= 0:
            raise SchedulingError(f"max_pending must be positive, got {max_pending}")
        self._dl = np.ascontiguousarray(deadlines, dtype=np.int64)
        # Python-int mirrors: O(1) unboxed lookups on the decision path
        # (a numpy scalar index costs ~10x a list index).  Public so the
        # fast loop's lazy completion path can score queries straight
        # from the arrays without materialising Query objects.
        self.ts_list: list[int] = timestamps.tolist()
        self.dl_list: list[int] = self._dl.tolist()
        self._enqueue_offset_ns = enqueue_offset_ns
        self.max_pending = max_pending
        self._buf: list[int] = []  # pending workload indices, FIFO
        self._head = 0
        # Lower bound on the pending deadlines' minimum: drop_stale skips
        # its scan while now < bound.  Removals only raise the true
        # minimum, so the bound stays conservative without bookkeeping.
        self._min_deadline_bound = 0
        # Injector-perturbed admissions (stall/reorder) enqueue later than
        # arrival + offset; everything else derives its enqueue time.
        self._enqueue_override: dict[int, int] = {}
        self.admitted = 0
        self.queue_depth_high_water = 0
        self.dropped_overflow = 0
        self.dropped_stale = 0
        self.dropped_unschedulable = 0
        self.rejected_corrupt = 0

    # -- materialisation ---------------------------------------------------------

    def materialise(self, index: int) -> Query:
        """Build the Query object for a queued workload row (lazy path)."""
        enqueue = self._enqueue_override.get(index)
        if enqueue is None:
            enqueue = self.ts_list[index] + self._enqueue_offset_ns
        return Query(
            query_id=index,
            tick_index=index,
            arrival=self.ts_list[index],
            deadline=self.dl_list[index],
            enqueue_time=enqueue,
        )

    # -- queue management --------------------------------------------------------

    def pending_count(self) -> int:
        return len(self._buf) - self._head

    def oldest_index(self) -> int | None:
        return self._buf[self._head] if self._head < len(self._buf) else None

    def oldest_deadline(self) -> int | None:
        if self._head >= len(self._buf):
            return None
        return self.dl_list[self._buf[self._head]]

    def pending_deadlines_less(self, k: int, offset: int) -> list[int]:
        """Deadlines of the first ``k`` pending queries, FIFO order, each
        less ``offset`` — one pass for the scheduler's slack-adjusted
        deadline list."""
        dl = self.dl_list
        return [dl[i] - offset for i in self._buf[self._head : self._head + k]]

    @hot_path
    def admit_index(self, index: int, enqueue_ns: int) -> int | None:
        """Admit one arrival; returns the overflow victim's index, if any.

        When the queue is full the oldest pending query is tail-dropped
        (reason ``overflow``) before the new one is appended.
        """
        victim = None
        buf = self._buf
        if len(buf) - self._head >= self.max_pending:
            victim = buf[self._head]
            self._head += 1
            self.dropped_overflow += 1
        default = self.ts_list[index] + self._enqueue_offset_ns
        if enqueue_ns != default:
            self._enqueue_override[index] = enqueue_ns
        if self._head >= len(buf):
            self._min_deadline_bound = self.dl_list[index]
        else:
            deadline = self.dl_list[index]
            if deadline < self._min_deadline_bound:
                self._min_deadline_bound = deadline
        buf.append(index)
        self.admitted += 1
        depth = len(buf) - self._head
        if depth > self.queue_depth_high_water:
            self.queue_depth_high_water = depth
        return victim

    @hot_path
    def can_admit_run(self, count: int) -> bool:
        """True when ``count`` consecutive admissions cannot overflow."""
        return self.pending_count() + count <= self.max_pending

    def admit_run(
        self, start: int, stop: int, times_ns: np.ndarray
    ) -> list[tuple[int, int]]:
        """Admit workload rows ``[start, stop)`` arriving at
        ``times_ns[k - start]``, replaying the per-event
        admit → stale-scan cadence in one vectorized pass.

        Preconditions (the caller's to guarantee): no overflow possible
        (``can_admit_run``), row index == query id (injector-free run),
        times non-decreasing.  Returns the stale victims as
        ``(index, drop_ns)`` in exactly the order and with exactly the
        timestamps the per-event loop would have produced: ascending drop
        step, FIFO queue order within a step, ``drop_ns`` = the arrival
        timestamp of the step whose scan caught the victim.
        """
        buf = self._buf
        head = self._head
        times = np.ascontiguousarray(times_ns[: stop - start], dtype=np.int64)
        t_last = int(times[-1])
        new_dl = self._dl[start:stop]
        drops: list[tuple[int, int, int]] = []  # (step, rank, index)
        kept_existing: list[int] | None = None
        # Existing pending: anything expiring by the run's end is dropped
        # at the first step whose arrival time reaches its deadline.
        if head < len(buf) and t_last >= self._min_deadline_bound:
            existing = np.asarray(buf[head:], dtype=np.int64)
            exist_dl = self._dl[existing]
            stale = exist_dl <= t_last
            if stale.any():
                ranks = np.flatnonzero(stale)
                steps = np.searchsorted(times, exist_dl[ranks], side="left")
                for rank, step, index in zip(
                    ranks.tolist(), steps.tolist(), existing[ranks].tolist()
                ):
                    drops.append((step, rank, index))
                kept_existing = existing[~stale].tolist()
        # New arrivals: admitted at their own step, droppable from then on.
        rank_base = len(buf) - head
        stale_new = new_dl <= t_last
        if stale_new.any():
            offsets = np.flatnonzero(stale_new)
            steps = np.searchsorted(times, new_dl[offsets], side="left")
            # A query cannot be dropped before it arrives: clamp to its
            # own admission step (its deadline may predate the run).
            steps = np.maximum(steps, offsets)
            for off, step in zip(offsets.tolist(), steps.tolist()):
                drops.append((step, rank_base + off, start + off))
            kept_new = (start + np.flatnonzero(~stale_new)).tolist()
        else:
            kept_new = list(range(start, stop))
        # High-water replay: the per-event loop observes queue depth right
        # after each admission, before that step's stale scan — so the
        # depth after admitting arrival k is ``rank_base + (k+1)`` minus
        # the drops whose scan step is < k (a step-s drop lands after
        # step s's own admission).
        n = stop - start
        self.admitted += n
        if drops:
            steps_sorted = np.sort(
                np.asarray([d[0] for d in drops], dtype=np.int64)
            )
            arange_n = np.arange(n, dtype=np.int64)
            before = np.searchsorted(steps_sorted, arange_n, side="left")
            peak = rank_base + int((arange_n + 1 - before).max())
        else:
            peak = rank_base + n
        if peak > self.queue_depth_high_water:
            self.queue_depth_high_water = peak
        if drops:
            self.dropped_stale += len(drops)
            if kept_existing is not None:
                self._buf = kept_existing + kept_new
                self._head = 0
            else:
                buf.extend(kept_new)
            drops.sort()
            out = [(index, int(times[step])) for step, _rank, index in drops]
        else:
            buf.extend(kept_new)
            out = []
        # Exact bound over the survivors (cheap: arrays are at hand).
        remaining = self._buf[self._head :]
        if remaining:
            self._min_deadline_bound = int(self._dl[remaining].min())
        else:
            self._min_deadline_bound = 0
        return out

    def pop_batch(self, batch_size: int) -> list[Query]:
        """Dequeue up to ``batch_size`` oldest queries, materialised."""
        if batch_size <= 0:
            raise SchedulingError(f"batch size must be positive, got {batch_size}")
        buf = self._buf
        head = self._head
        take = min(batch_size, len(buf) - head)
        if take <= 0:
            return []
        batch = [self.materialise(i) for i in buf[head : head + take]]
        head += take
        if head >= len(buf):
            buf.clear()
            head = 0
        elif head > 1024:
            del buf[:head]
            head = 0
        self._head = head
        overrides = self._enqueue_override
        if overrides:
            for query in batch:
                overrides.pop(query.query_id, None)
        return batch

    def pop_indices(self, batch_size: int) -> list[int]:
        """Dequeue up to ``batch_size`` oldest queries as raw workload
        indices — the lazy twin of :meth:`pop_batch` for runs that never
        need Query objects (no injector, span tracing off)."""
        if batch_size <= 0:
            raise SchedulingError(f"batch size must be positive, got {batch_size}")
        buf = self._buf
        head = self._head
        take = min(batch_size, len(buf) - head)
        if take <= 0:
            return []
        batch = buf[head : head + take]
        head += take
        if head >= len(buf):
            buf.clear()
            head = 0
        elif head > 1024:
            del buf[:head]
            head = 0
        self._head = head
        overrides = self._enqueue_override
        if overrides:
            for index in batch:
                overrides.pop(index, None)
        return batch

    def drop_oldest(self) -> int | None:
        """Evict the oldest pending query (Algorithm 1's fallback path);
        returns its index (the caller materialises if it needs a Query)."""
        index = self.oldest_index()
        if index is None:
            return None
        self._head += 1
        self.dropped_unschedulable += 1
        return index

    def requeue_front(self, queries: "list[Query]") -> None:
        """Put surrendered queries back at the head, oldest first."""
        if not queries:
            return
        requeued_min = min(q.deadline for q in queries)
        if self._head >= len(self._buf):
            self._min_deadline_bound = requeued_min
        else:
            self._min_deadline_bound = min(self._min_deadline_bound, requeued_min)
        for query in queries:
            default = self.ts_list[query.query_id] + self._enqueue_offset_ns
            if query.enqueue_time is not None and query.enqueue_time != default:
                self._enqueue_override[query.query_id] = query.enqueue_time
        self._buf[self._head : self._head] = [q.query_id for q in queries]
        depth = len(self._buf) - self._head
        if depth > self.queue_depth_high_water:
            self.queue_depth_high_water = depth

    def drop_stale(self, now: int) -> list[int]:
        """Indices of every pending query with ``deadline <= now``, removed.

        Boundary convention (pinned repo-wide): ``deadline <= now`` is
        stale.  Inference takes strictly positive time, so a query still
        pending when its deadline arrives can no longer produce an
        in-time result.  The complementary rules: a completion landing
        exactly at the deadline is in time (``Query.in_time``,
        ``MetricsCollector``), and issue feasibility is
        ``now + fastest <= deadline``
        (``WorkloadScheduler.deadline_feasible``).

        The scan is skipped while ``now`` is below the deadline bound,
        and every scan retightens the bound to the exact pending
        minimum, so scans almost always pay for themselves with at least
        one drop.
        """
        buf = self._buf
        head = self._head
        if head >= len(buf) or now < self._min_deadline_bound:
            return []
        if len(buf) - head > 32:
            # Deep queue: one vectorized pass (same FIFO drop order and
            # bound retightening as the scalar scan below).
            pending = np.asarray(buf[head:] if head else buf, dtype=np.int64)
            pending_dl = self._dl[pending]
            stale_mask = pending_dl <= now
            if not stale_mask.any():
                self._min_deadline_bound = int(pending_dl.min())
                return []
            dropped_arr = pending[stale_mask].tolist()
            kept_arr = pending[~stale_mask]
            self.dropped_stale += len(dropped_arr)
            self._buf = kept_arr.tolist()
            self._head = 0
            self._min_deadline_bound = (
                int(pending_dl[~stale_mask].min()) if kept_arr.size else 0
            )
            return dropped_arr
        dl = self.dl_list
        true_min = None
        any_stale = False
        for i in range(head, len(buf)):
            deadline = dl[buf[i]]
            if deadline <= now:
                any_stale = True
                break
            if true_min is None or deadline < true_min:
                true_min = deadline
        if not any_stale:
            self._min_deadline_bound = true_min if true_min is not None else 0
            return []
        dropped: list[int] = []
        kept: list[int] = []
        kept_min = None
        for i in range(head, len(buf)):
            index = buf[i]
            deadline = dl[index]
            if deadline <= now:
                dropped.append(index)
            else:
                if kept_min is None or deadline < kept_min:
                    kept_min = deadline
                kept.append(index)
        self.dropped_stale += len(dropped)
        self._buf = kept
        self._head = 0
        self._min_deadline_bound = kept_min if kept_min is not None else 0
        return dropped
