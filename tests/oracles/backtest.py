"""Reference LightTrader event pump (test oracle).

:class:`ReferenceBacktester` is :class:`repro.sim.backtest.Backtester`
with every run on a heap pump: every arrival is a heap event, every
decision is a fresh Algorithm-1 sweep, and power is sampled after every
event.  For a LightTrader profile that pump is :meth:`_run_lighttrader`,
the golden model the shipping cursor pump
(``Backtester._run_lighttrader_fast``) replaced; for a fixed (GPU/FPGA)
profile it is the shipping ``Backtester._run_fixed_system``.  The
loop-parity tests hold the shipping runs byte-identical to these.
"""

from __future__ import annotations

from repro import paperdata
from repro.accelerator.device import AcceleratorCluster, fastest_capped
from repro.accelerator.power import DVFSTable, OperatingPoint, PowerModel
from repro.baselines.profiles import LightTraderProfile
from repro.core.dvfs import DVFSScheduler
from repro.core.scheduler import WorkloadScheduler
from repro.faults.injector import DUPLICATE, STALLED
from repro.sim.backtest import (
    Backtester,
    _make_fault_handler,
    _make_surrender_batch,
    _Pending,
)
from repro.sim.events import EventKind, EventQueue
from repro.telemetry import completed_query_trace


class ReferenceBacktester(Backtester):
    """:class:`Backtester` whose every run takes a heap pump."""

    def _heap_pump(self):
        if self._is_lighttrader:
            return self._run_lighttrader
        return self._run_fixed_system

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
            DVFSScheduler(profile, dynamic_table, log=decision_log)
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
                    queue.push(record.completion_time, EventKind.COMPLETION, device.accel_id)
                    break  # this device is now busy; move to the next one
            if ds is not None:
                reserve = static_power if cluster.idle_devices(now) else 0.0
                if ds.redistribute(cluster, now, reserve_w=reserve):
                    for device in cluster.busy_devices(now):
                        queue.push(device.busy_until, EventKind.COMPLETION, device.accel_id)

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
                device = cluster.devices[payload]
                if device.current is None:
                    continue  # stale event (batch already finished)
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
