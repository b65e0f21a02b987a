"""Offload engine: LOB data → normalised BF16 input tensors (paper Fig. 5).

The offload engine converts each tick's LOB snapshot into a feature
vector (market-protocol integers → BF16), Z-score-normalises it against
statistics fitted on historical data, keeps the last ``window`` vectors
in a ring buffer from which each query copies the model's 2-D input
feature map, and queues the resulting query for the DNN pipeline,
tail-dropping the oldest query when the queue overflows.

The back-test's pending queue is :class:`PendingIndexStore`, a FIFO
plus a deadline heap.  It owns stale-query management: queries whose
deadline has passed are dropped before wasting accelerator time, the
oldest query is evicted when the scheduler finds no feasible offloading
option (Algorithm 1's fallback), and a surrendered batch goes back to
the head of the queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter

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
    """Pending queue of the back-test pumps, over workload row indices.

    A ``Query`` is materialised lazily: at batch issue, at drop recording
    and on fault paths.  The store owns the queue policy: FIFO order,
    overflow tail-drop, stale drops, eviction of the oldest query,
    ``requeue_front`` and the drop counters.  Each admission is one entry
    ``[deadline, rank, index]``, held in a FIFO and in a deadline
    min-heap.  Ranks are unique; admissions take them at the back and
    ``requeue_front`` below the head, so FIFO order is rank order.
    Removal is lazy: it sets the entry's index to -1, the heap discards
    dead entries when their deadlines come up, and the FIFO skips them
    (its head is always live).  So a stale drop costs O(log n) and never
    rescans the queue.  The loop-parity tests hold the store to the
    ``Query`` queue of the reference pumps in ``tests/oracles/``.
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
        # Python-int copies: O(1) unboxed lookups on the decision path
        # (a numpy scalar index costs ~10x a list index).  Public so the
        # pumps' lazy completion path can score queries straight from
        # the arrays without materialising Query objects.
        self.ts_list: list[int] = timestamps.tolist()
        self.dl_list: list[int] = np.asarray(deadlines, dtype=np.int64).tolist()
        self._enqueue_offset_ns = enqueue_offset_ns
        self.max_pending = max_pending
        self._fifo: deque[list[int]] = deque()
        self._heap: list[list[int]] = []
        self._front = 0  # lowest rank handed out (requeues go below it)
        self._back = 0  # rank of the next admission
        self._count = 0  # live entries
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
        return self._count

    def oldest_index(self) -> int | None:
        return self._fifo[0][2] if self._count else None

    def oldest_deadline(self) -> int | None:
        return self._fifo[0][0] if self._count else None

    def pending_deadlines_less(self, k: int, offset: int) -> list[int]:
        """Deadlines of the first ``k`` pending queries, FIFO order, each
        less ``offset`` — one pass for the scheduler's slack-adjusted
        deadline list."""
        out: list[int] = []
        for entry in self._fifo:
            if len(out) >= k:
                break
            if entry[2] >= 0:
                out.append(entry[0] - offset)
        return out

    @hot_path
    def admit_index(self, index: int, enqueue_ns: int) -> int | None:
        """Admit one arrival; returns the overflow victim's index, if any.

        When the queue is full the oldest pending query is tail-dropped
        (reason ``overflow``) before the new one is appended.
        """
        victim = None
        fifo = self._fifo
        count = self._count
        if count >= self.max_pending:
            head = fifo.popleft()
            victim = head[2]
            head[2] = -1
            while fifo and fifo[0][2] < 0:
                fifo.popleft()
            count -= 1
            self.dropped_overflow += 1
        if enqueue_ns != self.ts_list[index] + self._enqueue_offset_ns:
            self._enqueue_override[index] = enqueue_ns
        rank = self._back
        self._back = rank + 1
        entry = [self.dl_list[index], rank, index]
        fifo.append(entry)
        heappush(self._heap, entry)
        count += 1
        self._count = count
        self.admitted += 1
        if count > self.queue_depth_high_water:
            self.queue_depth_high_water = count
        return victim

    @hot_path
    def can_admit_run(self, count: int) -> bool:
        """True when ``count`` consecutive admissions cannot overflow."""
        return self._count + count <= self.max_pending

    def admit_run(
        self, start: int, stop: int, times_ns: np.ndarray
    ) -> list[tuple[int, int]]:
        """Admit workload rows ``[start, stop)`` arriving at
        ``times_ns[k - start]``, each admission followed by
        ``drop_stale`` at its arrival time, in one call.

        Preconditions (the caller's): no overflow (``can_admit_run``), row
        index == query id (injector-free run), non-decreasing times.
        Returns the stale victims as ``(index, drop_ns)`` in drop order,
        ``drop_ns`` being the arrival time of the step that dropped them.
        """
        fifo = self._fifo
        heap = self._heap
        dl = self.dl_list
        rank = self._back
        count = self._count
        high = self.queue_depth_high_water
        drops: list[tuple[int, int]] = []
        index = start
        for now in times_ns[: stop - start].tolist():
            entry = [dl[index], rank, index]
            fifo.append(entry)
            heappush(heap, entry)
            index += 1
            rank += 1
            count += 1
            if count > high:
                high = count
            if heap[0][0] <= now:
                due = []
                while heap and heap[0][0] <= now:
                    entry = heappop(heap)
                    if entry[2] >= 0:
                        due.append(entry)
                if len(due) > 1:
                    due.sort(key=_rank)
                for entry in due:
                    drops.append((entry[2], now))
                    entry[2] = -1
                count -= len(due)
        while fifo and fifo[0][2] < 0:
            fifo.popleft()
        self._back = rank
        self._count = count
        self.queue_depth_high_water = high
        self.admitted += stop - start
        self.dropped_stale += len(drops)
        return drops

    def pop_batch(self, batch_size: int) -> list[Query]:
        """Dequeue up to ``batch_size`` oldest queries, materialised."""
        return [self.materialise(index) for index in self.pop_indices(batch_size)]

    def pop_indices(self, batch_size: int) -> list[int]:
        """Dequeue up to ``batch_size`` oldest queries as raw workload
        indices — the lazy twin of :meth:`pop_batch` for runs that never
        need Query objects (no injector, span tracing off)."""
        if batch_size <= 0:
            raise SchedulingError(f"batch size must be positive, got {batch_size}")
        fifo = self._fifo
        batch: list[int] = []
        take = min(batch_size, self._count)
        self._count -= take
        while take:
            entry = fifo.popleft()
            index = entry[2]
            if index >= 0:
                entry[2] = -1
                batch.append(index)
                take -= 1
        while fifo and fifo[0][2] < 0:
            fifo.popleft()
        return batch

    def drop_oldest(self) -> int | None:
        """Evict the oldest pending query (Algorithm 1's fallback path);
        returns its index (the caller materialises if it needs a Query)."""
        if not self._count:
            return None
        fifo = self._fifo
        entry = fifo.popleft()
        index = entry[2]
        entry[2] = -1
        while fifo and fifo[0][2] < 0:
            fifo.popleft()
        self._count -= 1
        self.dropped_unschedulable += 1
        return index

    def requeue_front(self, queries: "list[Query]") -> None:
        """Put surrendered queries back at the head, oldest first."""
        fifo = self._fifo
        rank = self._front
        for query in reversed(queries):
            index = query.query_id
            default = self.ts_list[index] + self._enqueue_offset_ns
            if query.enqueue_time is not None and query.enqueue_time != default:
                self._enqueue_override[index] = query.enqueue_time
            rank -= 1
            entry = [query.deadline, rank, index]
            fifo.appendleft(entry)
            heappush(self._heap, entry)
        self._front = rank
        self._count += len(queries)
        if self._count > self.queue_depth_high_water:
            self.queue_depth_high_water = self._count

    def drop_stale(self, now: int) -> list[int]:
        """Indices of every pending query with ``deadline <= now``, removed,
        in FIFO order.

        Boundary convention (pinned repo-wide): ``deadline <= now`` is
        stale.  Inference takes strictly positive time, so a query still
        pending when its deadline arrives can no longer produce an
        in-time result.  The complementary rules: a completion landing
        exactly at the deadline is in time (``Query.in_time``,
        ``MetricsCollector``), and issue feasibility is
        ``now + fastest <= deadline``
        (``WorkloadScheduler.deadline_feasible``).  The rule covers the
        -1 marker of an unscored query too: it is stale at the first
        scan.  Only due heap entries are visited.
        """
        heap = self._heap
        if not heap or heap[0][0] > now:
            return []
        due = []
        while heap and heap[0][0] <= now:
            entry = heappop(heap)
            if entry[2] >= 0:
                due.append(entry)
        if len(due) > 1:
            due.sort(key=_rank)
        dropped: list[int] = []
        for entry in due:
            dropped.append(entry[2])
            entry[2] = -1
        if dropped:
            fifo = self._fifo
            while fifo and fifo[0][2] < 0:
                fifo.popleft()
            self._count -= len(dropped)
            self.dropped_stale += len(dropped)
        return dropped


_rank = itemgetter(1)  # an entry's rank: FIFO order among stale victims
