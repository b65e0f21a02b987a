"""Reference back-test event pumps (test oracle).

:class:`ReferenceBacktester` is :class:`repro.sim.backtest.Backtester`
with every run on a heap pump over a queue of :class:`Query` objects:
every arrival is a heap event, every decision is a fresh Algorithm-1
sweep, and power is sampled after every event.  For a LightTrader
profile that pump is :meth:`~ReferenceBacktester._run_lighttrader`, the
golden model of ``Backtester._run_lighttrader_fast``; for a fixed
(GPU/FPGA) profile it is :meth:`~ReferenceBacktester._run_fixed_system`,
the golden model of ``Backtester._run_fixed_system_fast``.  Both run on
:class:`ReferenceQueue`: the functional :class:`OffloadEngine` queue plus
the FIFO stale, evict and requeue policy that the shipping pumps run on
``PendingIndexStore``, and both score into the per-event
:class:`~tests.oracles.metrics.ReferenceMetricsCollector` (the shipping
runs log outcomes and fold them at the end).  The LightTrader pump
redistributes power through :class:`~tests.oracles.dvfs.ReferenceDVFSScheduler`,
and its completion events carry their batch's ``IssueRecord``: one is
pushed at every issue, for every busy device after an acting
redistribution, and after a thermal rescale, with no de-duplication.  The
loop-parity tests hold the shipping runs byte-identical to these.
"""

from __future__ import annotations

from collections import deque

from repro import paperdata
from repro.accelerator.device import AcceleratorCluster, fastest_capped
from repro.accelerator.power import DVFSTable, OperatingPoint, PowerModel
from repro.baselines.profiles import LightTraderProfile
from repro.core.scheduler import WorkloadScheduler
from repro.faults.injector import DUPLICATE, STALLED
from repro.pipeline.offload import OffloadEngine, Query
from repro.sim.backtest import (
    Backtester,
    _make_fault_handler,
    _make_surrender_batch,
    _Pending,
)
from repro.sim.events import EventKind, EventQueue
from repro.telemetry import completed_query_trace
from tests.oracles.dvfs import ReferenceDVFSScheduler
from tests.oracles.metrics import ReferenceMetricsCollector


class ReferenceQueue(OffloadEngine):
    """The offload engine's pending queue with the back-test's queue
    management: stale drops behind a conservative scan bound, eviction
    of the oldest query, and requeueing of surrendered batches."""

    def __init__(self, max_pending: int) -> None:
        super().__init__(window=1, max_pending=max_pending)
        # Lower bound on min(q.deadline for q in _pending); lets drop_stale
        # skip its scan while now < bound (removals only raise the true
        # minimum, so the bound stays conservative without bookkeeping).
        self._min_deadline_bound = 0
        self.dropped_stale = 0
        self.dropped_unschedulable = 0

    def admit(self, query: Query) -> None:
        """Append ``query``, maintaining the stale-scan deadline bound.

        The append is inline rather than a ``super()`` call, which would
        slow the reference loop that ``benchmarks/bench_sim_speed.py``
        times against the shipping one.
        """
        if not self._pending or query.deadline < self._min_deadline_bound:
            self._min_deadline_bound = query.deadline
        self._pending.append(query)
        self.admitted += 1
        depth = len(self._pending)
        if depth > self.queue_depth_high_water:
            self.queue_depth_high_water = depth

    def peek_pending(self) -> Query | None:
        """The oldest pending query, if any."""
        return self._pending[0] if self._pending else None

    def pending_deadlines(self, k: int) -> list[int]:
        """Deadlines of the first ``k`` pending queries, FIFO order."""
        out = []
        for query in self._pending:
            out.append(query.deadline)
            if len(out) == k:
                break
        return out

    def drop_oldest(self) -> Query | None:
        """Evict the oldest pending query (Algorithm 1's fallback path)."""
        if not self._pending:
            return None
        query = self._pending.popleft()
        query.dropped = True
        query.drop_reason = "unschedulable"
        self.dropped_unschedulable += 1
        return query

    def requeue_front(self, queries: "list[Query]") -> None:
        """Put surrendered queries back at the head of the pending queue.

        Used when a device fails or returns a corrupted result: the batch
        it carried goes back to the front (oldest first, preserving FIFO
        order) and competes for the next issue against its original
        deadline.
        """
        if not queries:
            return
        requeued_min = min(q.deadline for q in queries)
        if not self._pending:
            self._min_deadline_bound = requeued_min
        else:
            self._min_deadline_bound = min(self._min_deadline_bound, requeued_min)
        self._pending.extendleft(reversed(queries))
        depth = len(self._pending)
        if depth > self.queue_depth_high_water:
            self.queue_depth_high_water = depth

    def drop_stale(self, now: int) -> list[Query]:
        """Drop every pending query whose deadline has already passed
        (``deadline <= now``, the repo-wide stale convention)."""
        if not self._pending or now < self._min_deadline_bound:
            return []  # every deadline is >= bound > now: nothing stale
        # First pass: scan without rebuilding.  The bound is conservative
        # (admissions past a still-live minimum don't raise it), so most
        # scans past it still find nothing stale — tightening the bound
        # to the true minimum is then the whole yield of the scan, and
        # the deque survives untouched.
        true_min = None
        any_stale = False
        for query in self._pending:
            if query.deadline <= now:
                any_stale = True
                break
            if true_min is None or query.deadline < true_min:
                true_min = query.deadline
        if not any_stale:
            self._min_deadline_bound = true_min if true_min is not None else 0
            return []
        dropped = []
        kept: deque[Query] = deque()
        kept_min = None
        for query in self._pending:
            if query.deadline <= now:
                query.dropped = True
                query.drop_reason = "stale"
                self.dropped_stale += 1
                dropped.append(query)
            else:
                if kept_min is None or query.deadline < kept_min:
                    kept_min = query.deadline
                kept.append(query)
        self._pending = kept
        self._min_deadline_bound = kept_min if kept_min is not None else 0
        return dropped


class ReferenceBacktester(Backtester):
    """:class:`Backtester` whose every run takes a heap pump and scores
    every outcome as it happens."""

    collector = ReferenceMetricsCollector

    def _pump(self, queue: EventQueue, state: _Pending) -> None:
        state.offload = ReferenceQueue(self.config.max_pending)
        # Every arrival is a heap event.  FAULT sorts before ARRIVAL at
        # equal times, so pushing arrivals after the injector's faults
        # never changes the order.
        pre_ns = self.profile.stages.pre_inference_ns
        injector = state.injector
        for index in range(len(self.workload)):
            ts = int(self.workload.timestamps[index])
            if injector is None:
                queue.push(ts + pre_ns, EventKind.ARRIVAL, index)
            else:
                for t in injector.arrival_times(index, ts + pre_ns):
                    queue.push(t, EventKind.ARRIVAL, index)
        if self._is_lighttrader:
            self._run_lighttrader(queue, state)
        else:
            self._run_fixed_system(queue, state)

    def _ingest(self, state: _Pending, index: int, now: int) -> None:
        """Turn workload row ``index`` into a pending query at ``now``."""
        query = Query(
            query_id=index,
            tick_index=index,
            arrival=int(self.workload.timestamps[index]),
            deadline=int(self.workload.deadlines[index]),
            enqueue_time=now,
        )
        # Reuse the offload engine's queue/overflow machinery directly.
        engine = state.offload
        if engine.pending_count() >= engine.max_pending:
            victim = engine.drop_oldest()
            engine.dropped_unschedulable -= 1
            engine.dropped_overflow += 1
            if victim is not None:
                victim.drop_reason = "overflow"
                self._record_drop(state, victim, now)
        engine.admit(query)

    def _drop_stale(self, state: _Pending, now: int) -> None:
        for victim in state.offload.drop_stale(now):
            self._record_drop(state, victim, now)

    def _run_lighttrader(self, queue: EventQueue, state: _Pending) -> None:
        assert isinstance(self.profile, LightTraderProfile)
        config = self.config
        profile = self.profile
        cost = profile.cost(config.model)

        static_table = DVFSTable(cap_hz=paperdata.TABLE3_CONSERVATIVE_CAP_HZ)
        dynamic_table = DVFSTable()  # full silicon envelope for Algorithms 1/2
        power_model: PowerModel = profile.power_model
        static_point = power_model.select_max_frequency(
            static_table,
            cost.activity,
            config.budget_w / config.n_accelerators,
        ) or static_table.min_point

        telemetry = state.telemetry
        decision_log = telemetry.decisions if telemetry is not None else None
        spans_on = telemetry is not None and telemetry.trace_queries
        light_on = telemetry is not None and telemetry.light
        cluster = AcceleratorCluster(
            n_accelerators=config.n_accelerators,
            table=dynamic_table,
            power_model=power_model,
            budget_w=config.budget_w,
        )
        for device in cluster.devices:
            device.point = static_point  # boot-time configuration, no delay
            if telemetry is not None:
                device.on_transition = telemetry.record_transition

        ws = WorkloadScheduler(
            profile,
            dynamic_table,
            max_batch=config.max_batch,
            metric=config.scheduler_metric,
            log=decision_log,
        )
        ds = (
            ReferenceDVFSScheduler(profile, dynamic_table, log=decision_log)
            if config.dvfs_scheduling
            else None
        )

        state.cluster = cluster
        state.scheduler = ws
        state.dvfs = ds

        static_power = profile.power_w(config.model, static_point, 1)
        min_power = profile.power_w(config.model, dynamic_table.min_point, 1)

        post_slack_ns = profile.stages.post_inference_ns
        injector = state.injector

        def capped(point: OperatingPoint, device) -> OperatingPoint:
            """Clamp a chosen point to the device's thermal cap, if any."""
            if device.cap_hz is not None and point.freq_hz > device.cap_hz + 1e-3:
                return fastest_capped(dynamic_table, device.cap_hz)
            return point

        def decide_for(device, now: int, deadline: int):
            """One scheduling decision for an idle device, or None to drop."""
            if config.workload_scheduling:
                budget = self._issue_budget(cluster, device, now)
                if ds is not None and budget < min_power:
                    # Save power to make room for this issue (paper §III-D).
                    ds.reclaim(cluster, now, min_power - cluster.headroom(now))
                    budget = self._issue_budget(cluster, device, now)
                # Effective deadlines: the order must leave the trading
                # engine (post-inference stages) before t_avail expires.
                deadlines = [
                    d - post_slack_ns
                    for d in state.offload.pending_deadlines(config.max_batch)
                ]
                return ws.decide(
                    config.model,
                    now,
                    deadlines,
                    budget,
                    floor_freq_hz=static_point.freq_hz,
                    cap_freq_hz=device.cap_hz,
                )
            if ds is not None:
                # DVFS scheduling without batching: fastest point that the
                # live rail headroom admits (batch stays 1).
                budget = self._issue_budget(cluster, device, now)
                point = power_model.select_max_frequency(
                    dynamic_table, cost.activity, budget
                )
                if point is None:
                    ds.reclaim(cluster, now, static_power - cluster.headroom(now))
                    budget = self._issue_budget(cluster, device, now)
                    point = power_model.select_max_frequency(
                        dynamic_table, cost.activity, budget
                    )
                if point is None:
                    point = static_point  # worst-case-safe fallback
                return ws.static_decision(
                    config.model, capped(point, device), now, deadline
                )
            return ws.static_decision(
                config.model, capped(static_point, device), now, deadline
            )

        def try_schedule(now: int) -> None:
            self._drop_stale(state, now)
            for device in cluster.idle_devices(now):
                while state.offload.pending_count() > 0:
                    oldest = state.offload.peek_pending()
                    assert oldest is not None
                    deadline = oldest.deadline if oldest.deadline >= 0 else now
                    decision = decide_for(device, now, deadline)
                    if decision is None:
                        effective = deadline - post_slack_ns
                        if ws.deadline_feasible(config.model, now, effective):
                            # Only power stands in the way; keep the query
                            # queued until a busy accelerator releases
                            # budget (its completion re-triggers scheduling).
                            if decision_log is not None:
                                decision_log.record_fallback(
                                    now, "defer_power", oldest.query_id
                                )
                            break
                        victim = state.offload.drop_oldest()
                        if victim is not None:
                            if decision_log is not None:
                                decision_log.record_fallback(
                                    now, "drop_unschedulable", victim.query_id
                                )
                            self._record_drop(state, victim, now)
                        continue
                    if decision.point != device.point:
                        ready = device.set_point(decision.point, now)
                        queue.push(ready, EventKind.RETRY, None)
                        break
                    batch = state.offload.pop_batch(decision.batch_size)
                    record = device.issue(
                        now,
                        decision.t_total_ns,
                        len(batch),
                        cost.activity,
                        deadline_ns=deadline,
                    )
                    for query in batch:
                        query.issue_time = now
                    state.in_flight[device.accel_id] = batch
                    queue.push(record.completion_time, EventKind.COMPLETION, record)
                    break  # this device is now busy; move to the next one
            if ds is not None:
                reserve = static_power if cluster.idle_devices(now) else 0.0
                if ds.redistribute(cluster, now, reserve_w=reserve):
                    for device in cluster.busy_devices(now):
                        push_completion(device)

        def push_completion(device) -> None:
            queue.push(device.busy_until, EventKind.COMPLETION, device.current)

        surrender_batch = _make_surrender_batch(
            state, lambda victim, when: self._record_drop(state, victim, when)
        )
        if injector is not None:
            handle_fault = _make_fault_handler(
                injector=injector,
                cluster=cluster,
                state=state,
                decision_log=decision_log,
                dynamic_table=dynamic_table,
                static_point=static_point,
                queue=queue,
                surrender_batch=surrender_batch,
                push_completion=push_completion,
            )

        post_ns = self.profile.stages.post_inference_ns
        while len(queue):
            now, kind, payload = queue.pop()
            if kind is EventKind.ARRIVAL:
                if injector is not None:
                    verdict = injector.on_arrival(payload, now)
                    if verdict == STALLED:
                        # DMA stall window: defer admission to its end.
                        queue.push(injector.stall_until, EventKind.ARRIVAL, payload)
                        continue
                    if verdict == DUPLICATE:
                        continue  # second copy of a duplicated packet
                self._ingest(state, payload, now)
                try_schedule(now)
            elif kind is EventKind.COMPLETION:
                # The event names its batch: once that batch has finished
                # (or been surrendered) the event is dead, even when its
                # device already runs a later batch.
                device = cluster.devices[payload.accel_id]
                if device.current is not payload:
                    continue
                if device.busy_until > now:
                    queue.push(device.busy_until, EventKind.COMPLETION, payload)
                    continue  # batch was stretched by the power-save step
                device.finish(now)
                batch = state.in_flight.pop(device.accel_id, [])
                if injector is not None and device.accel_id in injector.corrupted:
                    # The batch returned garbage: never score it; re-issue
                    # whatever can still meet its original deadline.
                    injector.corrupted.discard(device.accel_id)
                    requeued, dropped = surrender_batch(batch, now, "corrupt_result")
                    if decision_log is not None:
                        decision_log.record_fault(
                            now,
                            "corrupt_result",
                            accel_id=device.accel_id,
                            requeued=requeued,
                            dropped=dropped,
                        )
                    try_schedule(now)
                    continue
                for query in batch:
                    query.completion_time = now + post_ns
                    state.metrics.record_completion(
                        query, query.completion_time, len(batch)
                    )
                if batch and spans_on:
                    trans_ns = profile.t_trans_ns(len(batch))
                    for query in batch:
                        telemetry.record_query(
                            completed_query_trace(
                                query,
                                profile.stages,
                                inference_done_ns=now,
                                t_trans_ns=trans_ns,
                                batch_size=len(batch),
                                accel_id=device.accel_id,
                            )
                        )
                elif batch and light_on:
                    for query in batch:
                        telemetry.record_completion_light(
                            query.deadline, query.arrival, query.completion_time
                        )
                try_schedule(now)
            elif kind is EventKind.FAULT:
                handle_fault(now, payload)
                try_schedule(now)
            else:  # RETRY
                try_schedule(now)
            watts = cluster.total_power(now)
            state.metrics.sample_power(now, watts)
            if telemetry is not None:
                telemetry.sample_power(now, watts)

    def _run_fixed_system(self, queue: EventQueue, state: _Pending) -> None:
        config = self.config
        telemetry = state.telemetry
        spans_on = telemetry is not None and telemetry.trace_queries
        light_on = telemetry is not None and telemetry.light
        busy_until = [0] * config.n_accelerators
        post_ns = self.profile.stages.post_inference_ns
        t_total = self.profile.t_total_ns(config.model, None, 1)
        trans_ns = self.profile.t_trans_ns(1)

        def try_schedule(now: int) -> None:
            self._drop_stale(state, now)
            for server, free_at in enumerate(busy_until):
                if free_at > now:
                    continue
                batch = state.offload.pop_batch(1)
                if not batch:
                    return
                query = batch[0]
                query.issue_time = now
                busy_until[server] = now + t_total
                # The query rides in its completion event: a server whose
                # completion at ``now`` has not run yet may be re-issued
                # at ``now`` without losing the query it carried.
                queue.push(busy_until[server], EventKind.COMPLETION, (server, query))

        while len(queue):
            now, kind, payload = queue.pop()
            if kind is EventKind.ARRIVAL:
                self._ingest(state, payload, now)
            elif kind is EventKind.COMPLETION:
                server, query = payload
                query.completion_time = now + post_ns
                state.metrics.record_completion(query, query.completion_time, 1)
                if spans_on:
                    telemetry.record_query(
                        completed_query_trace(
                            query,
                            self.profile.stages,
                            inference_done_ns=now,
                            t_trans_ns=trans_ns,
                            batch_size=1,
                            accel_id=server,
                        )
                    )
                elif light_on:
                    telemetry.record_completion_light(
                        query.deadline, query.arrival, query.completion_time
                    )
            try_schedule(now)
            state.metrics.sample_power(now, self.profile.system_power_w)
            if telemetry is not None:
                telemetry.sample_power(now, self.profile.system_power_w)
