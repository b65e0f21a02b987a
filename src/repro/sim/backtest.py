"""The back-testing simulator (paper §IV-A).

Replays a :class:`~repro.sim.workload.QueryWorkload` against a system
profile and — for LightTrader — an accelerator cluster driven by the
selected scheduling scheme:

- **baseline**: FIFO, batch 1, the conservative static DVFS point of
  Table III, stale queries dropped at issue time;
- **WS**: Algorithm 1 picks (DVFS, batch) per issue by PPW under the
  static per-accelerator power share;
- **DS**: batch 1, but Algorithm 2 saves power on busy devices and
  greedily redistributes the shared budget;
- **WS+DS**: Algorithm 1 against the live rail headroom plus Algorithm 2
  redistribution.

GPU-based and FPGA-based systems run the same FIFO policy with their own
profiles, which is exactly the paper's non-batching comparison.  Fault
plans apply to LightTrader profiles only: the paper never injects faults
into its GPU/FPGA baselines, so :class:`Backtester` refuses a non-empty
plan on any other profile.

Each system has one event pump.  Both merge the sorted arrival stream
against the heap with a cursor and admit each run of arrivals between
scheduling decisions in one call to the pending queue,
:class:`~repro.pipeline.offload.PendingIndexStore`, whose deadline heap
drops stale queries without rescanning the queue.  The LightTrader
pump also memoizes Algorithm-1 decisions, gates Algorithm-2
redistribution and power sampling on the cluster's one state epoch, and
materialises :class:`Query` objects lazily.  Its completion events name
their batch (the :class:`~repro.accelerator.device.IssueRecord`), so an
event whose batch has finished dies at pop.  The golden-model heap
pumps, where every arrival is a heap event and power is sampled after
every event, live in ``tests/oracles/``; the loop-parity tests hold both
pumps byte-identical to them — same :class:`RunResult`, same decision
log, same traces — at every trace level.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro import envcfg, paperdata
from repro.accelerator.device import AcceleratorCluster, fastest_capped
from repro.metrics import MetricRegistry, exposition
from repro.metrics.manifest import build_manifest, write_manifest
from repro.accelerator.power import DVFSTable, OperatingPoint, PowerModel
from repro.baselines.profiles import LightTraderProfile, SystemProfile
from repro.core.dvfs import DVFSScheduler
from repro.core.scheduler import WorkloadScheduler
from repro.errors import SimulationError
from repro.faults.injector import DUPLICATE, STALLED, FaultInjector
from repro.faults.plan import (
    DEVICE_FAILURE,
    DEVICE_RECOVERY,
    DMA_STALL,
    QUERY_CORRUPTION,
    THERMAL_RELEASE,
    THERMAL_THROTTLE,
    FaultEvent,
    FaultPlan,
)
from repro.pipeline.offload import PendingIndexStore, Query
from repro.sim.events import EventKind, EventQueue
from repro.sim.metrics import MetricsCollector, RunResult
from repro.sim.workload import QueryWorkload
from repro.telemetry import (
    Telemetry,
    completed_query_trace,
    dropped_query_trace,
    run_telemetry,
)

@dataclass(frozen=True)
class SimConfig:
    """Configuration of one LightTrader back-test run."""

    model: str = "vanilla_cnn"
    n_accelerators: int = 1
    power_condition: str = "sufficient"  # 'sufficient' (55 W) | 'limited' (20 W)
    workload_scheduling: bool = False
    dvfs_scheduling: bool = False
    max_batch: int = 16
    max_pending: int = 512
    scheduler_metric: str = "ppw"  # 'ppw' | 'latency' | 'throughput' (ablation)

    def __post_init__(self) -> None:
        if self.power_condition not in ("sufficient", "limited"):
            raise SimulationError(f"unknown power condition {self.power_condition!r}")
        if self.n_accelerators <= 0:
            raise SimulationError("need at least one accelerator")

    @property
    def budget_w(self) -> float:
        """Total accelerator power budget for this condition."""
        if self.power_condition == "sufficient":
            return paperdata.TABLE3_SUFFICIENT_TOTAL_W
        return paperdata.TABLE3_LIMITED_TOTAL_W

    @property
    def scheme(self) -> str:
        """Display name of the scheduling scheme."""
        if self.workload_scheduling and self.dvfs_scheduling:
            return "ws+ds"
        if self.workload_scheduling:
            return "ws"
        if self.dvfs_scheduling:
            return "ds"
        return "baseline"


@dataclass
class _Pending:
    """The offload queue plus bookkeeping shared by the event handlers."""

    offload: PendingIndexStore
    metrics: MetricsCollector
    telemetry: Telemetry | None = None
    in_flight: dict[int, list[Query]] = field(default_factory=dict)
    injector: FaultInjector | None = None
    # Set by the LightTrader pumps so the end-of-run metric fold can read
    # device/scheduler/DVFS counters (None on fixed-profile runs).
    cluster: AcceleratorCluster | None = None
    scheduler: WorkloadScheduler | None = None
    dvfs: DVFSScheduler | None = None


def _make_surrender_batch(state: _Pending, record_drop):
    """Build the LightTrader surrender policy (shared with the reference
    pump in ``tests/oracles/backtest.py``).

    A query is still live while its original deadline has not passed
    (``deadline > now``; negative deadlines never expire) — re-issue
    competes against the *original* deadline, never a fresh one.
    """

    def surrender_batch(batch: "list[Query]", now: int, reason: str) -> tuple[int, int]:
        alive = [q for q in batch if q.deadline < 0 or q.deadline > now]
        dead = [q for q in batch if not (q.deadline < 0 or q.deadline > now)]
        for query in alive:
            query.issue_time = None
        state.offload.requeue_front(alive)
        for victim in dead:
            victim.dropped = True
            victim.drop_reason = reason
            record_drop(victim, now)
        return len(alive), len(dead)

    return surrender_batch


def _make_record_drop_index(state: _Pending, stages):
    """Build the cursor pumps' drop scorer over the pending queue's
    workload rows: score a lazily-stored drop, and materialise its
    :class:`Query` only for span tracing."""
    metrics = state.metrics
    telemetry = state.telemetry
    spans_on = telemetry is not None and telemetry.trace_queries
    light_on = telemetry is not None and telemetry.light
    store = state.offload
    dl_list = store.dl_list

    def record_drop_index(index: int, drop_ns: int, reason: str) -> None:
        metrics.record_drop_ids(dl_list[index])
        if spans_on:
            victim = store.materialise(index)
            victim.dropped = True
            victim.drop_reason = reason
            telemetry.record_query(
                dropped_query_trace(victim, stages, drop_ns=drop_ns)
            )
        elif light_on:
            telemetry.record_drop_light(dl_list[index], reason)

    return record_drop_index


def _make_fault_handler(
    *,
    injector: FaultInjector,
    cluster: AcceleratorCluster,
    state: _Pending,
    decision_log,
    dynamic_table: DVFSTable,
    static_point: OperatingPoint,
    queue: EventQueue,
    surrender_batch,
    push_completion,
):
    """Build the LightTrader fault-event policy (shared with the reference
    pump in ``tests/oracles/backtest.py``).  ``push_completion(device)``
    schedules the completion of the batch ``device`` runs, at its
    ``busy_until``."""

    def handle_fault(now: int, event: FaultEvent) -> None:
        device = cluster.devices[event.accel_id] if event.accel_id >= 0 else None
        if event.kind == DEVICE_FAILURE:
            assert device is not None
            if not device.healthy:
                return  # already quarantined by an earlier fault
            device.fail(now)
            injector.note_applied(DEVICE_FAILURE)
            injector.corrupted.discard(device.accel_id)
            batch = state.in_flight.pop(device.accel_id, [])
            requeued, dropped = surrender_batch(batch, now, "device_failure")
            if decision_log is not None:
                decision_log.record_fault(
                    now,
                    DEVICE_FAILURE,
                    accel_id=device.accel_id,
                    requeued=requeued,
                    dropped=dropped,
                    survivors=cluster.n_healthy,
                )
            if event.duration_ns > 0:
                queue.push(
                    now + event.duration_ns,
                    EventKind.FAULT,
                    FaultEvent(
                        t_ns=now + event.duration_ns,
                        kind=DEVICE_RECOVERY,
                        accel_id=device.accel_id,
                    ),
                )
        elif event.kind == DEVICE_RECOVERY:
            assert device is not None
            if device.healthy:
                return
            device.recover(now, static_point)  # recover() clamps to any cap
            injector.note_applied(DEVICE_RECOVERY)
            if decision_log is not None:
                decision_log.record_fault(
                    now,
                    DEVICE_RECOVERY,
                    accel_id=device.accel_id,
                    survivors=cluster.n_healthy,
                )
        elif event.kind == QUERY_CORRUPTION:
            assert device is not None
            if device.healthy and device.current is not None:
                injector.corrupted.add(device.accel_id)
                injector.note_applied(QUERY_CORRUPTION)
                if decision_log is not None:
                    decision_log.record_fault(
                        now, QUERY_CORRUPTION, accel_id=device.accel_id
                    )
        elif event.kind == THERMAL_THROTTLE:
            assert device is not None
            cap = max(event.cap_hz, dynamic_table.min_point.freq_hz)
            device.throttle(cap)
            injector.note_applied(THERMAL_THROTTLE)
            if decision_log is not None:
                decision_log.record_fault(
                    now,
                    THERMAL_THROTTLE,
                    accel_id=device.accel_id,
                    cap_ghz=round(cap / 1e9, 3),
                )
            if device.healthy and device.point.freq_hz > cap + 1e-3:
                target = fastest_capped(dynamic_table, cap)
                if device.is_idle(now):
                    ready = device.set_point(target, now, reason="thermal_throttle")
                    queue.push(ready, EventKind.RETRY, None)
                else:
                    remaining = device.busy_until - now
                    stretched = round(
                        remaining * device.point.freq_hz / target.freq_hz
                    )
                    device.rescale_inflight(now, target, stretched)
                    push_completion(device)
            if event.duration_ns > 0:
                queue.push(
                    now + event.duration_ns,
                    EventKind.FAULT,
                    FaultEvent(
                        t_ns=now + event.duration_ns,
                        kind=THERMAL_RELEASE,
                        accel_id=device.accel_id,
                    ),
                )
        elif event.kind == THERMAL_RELEASE:
            assert device is not None
            if device.cap_hz is not None:
                device.release_throttle()
                injector.note_applied(THERMAL_RELEASE)
                if decision_log is not None:
                    decision_log.record_fault(
                        now, THERMAL_RELEASE, accel_id=device.accel_id
                    )
        elif event.kind == DMA_STALL:
            injector.begin_stall(now, event.duration_ns)
            injector.note_applied(DMA_STALL)
            if decision_log is not None:
                decision_log.record_fault(
                    now, DMA_STALL, duration_ns=event.duration_ns
                )

    return handle_fault


def _fold_registry(registry: MetricRegistry, state: _Pending, pushed: int) -> None:
    """Fold end-of-run counters from the engines into the registry.

    Everything here is parity-held state (the loop-parity tests hold the
    queues, devices and decision logs byte-identical between pumps)
    except the ``impl.``-prefixed diagnostics, which legitimately differ
    (the fast pump memoizes sweeps and epoch-gates redistribution).
    """
    if not registry.enabled:
        return
    registry.counter("impl.events.pushed").inc(pushed)
    offload = state.offload
    registry.counter("offload.admitted").inc(offload.admitted)
    registry.counter("offload.dropped_overflow").inc(offload.dropped_overflow)
    registry.counter("offload.dropped_stale").inc(offload.dropped_stale)
    registry.counter("offload.dropped_unschedulable").inc(
        offload.dropped_unschedulable
    )
    registry.counter("offload.rejected_corrupt").inc(offload.rejected_corrupt)
    registry.gauge("offload.queue_depth_high_water").set(
        float(offload.queue_depth_high_water)
    )
    injector = state.injector
    if injector is not None:
        registry.counter("faults.feed_dropped").inc(injector.feed_dropped)
        registry.counter("faults.feed_duplicates_suppressed").inc(
            injector.feed_duplicates_suppressed
        )
        registry.counter("faults.feed_reordered").inc(injector.feed_reordered)
        registry.counter("faults.stalled_arrivals").inc(injector.stalled_arrivals)
        for kind in sorted(injector.applied):
            registry.counter("faults.applied." + kind).inc(injector.applied[kind])
    cluster = state.cluster
    if cluster is not None:
        quarantines = 0
        completed = 0
        transitions = 0
        for device in cluster.devices:
            quarantines += device.failures
            completed += device.completed
            transitions += device.transitions
        registry.counter("device.quarantines").inc(quarantines)
        registry.counter("device.completed_batches").inc(completed)
        registry.counter("dvfs.transitions").inc(transitions)
    scheduler = state.scheduler
    if scheduler is not None:
        memo = scheduler.memo_stats
        registry.counter("impl.memo.hits").inc(memo["hits"])
        registry.counter("impl.memo.misses").inc(memo["misses"])
        registry.counter("impl.memo.invalidations").inc(memo["invalidations"])
        registry.counter("impl.sweeps").inc(memo["sweeps"])
    dvfs = state.dvfs
    if dvfs is not None:
        registry.counter("dvfs.reclaims").inc(dvfs.stats["reclaims"])
        registry.counter("dvfs.boost_transitions").inc(
            dvfs.stats["boost_transitions"]
        )
        registry.counter("impl.dvfs.redistribute_calls").inc(
            dvfs.stats["redistribute_calls"]
        )


class Backtester:
    """Replays one workload through one system configuration."""

    # The outcome account each run records into (the reference back-test
    # in ``tests/oracles/`` swaps in the per-event collector).
    collector = MetricsCollector

    def __init__(
        self,
        workload: QueryWorkload,
        profile: SystemProfile,
        config: SimConfig | None = None,
        telemetry: Telemetry | None = None,
        faults: FaultPlan | None = None,
        metrics: MetricRegistry | None = None,
    ) -> None:
        self.workload = workload
        self.profile = profile
        self.config = config or SimConfig()
        self.telemetry = telemetry
        # Aggregate-metric registry; None defers to REPRO_METRICS at run
        # time (a fresh registry per run when enabled).
        self.metrics = metrics
        # An empty plan normalises to "no injection" so the fault-free
        # run stays bit-transparent: every fault branch below is guarded
        # by ``injector is not None``.
        self.faults = faults if faults is not None and not faults.empty else None
        self._is_lighttrader = isinstance(profile, LightTraderProfile)
        if self.faults is not None and not self._is_lighttrader:
            raise SimulationError(
                f"fault plans apply to LightTrader profiles only, not {profile.name!r}"
            )
        self.last_metrics: MetricsCollector | None = None
        self.last_run_metrics: MetricRegistry | None = None

    # -- public -------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the back-test and return its metrics digest.

        Telemetry: an explicit ``telemetry=`` handed to the constructor
        is used as-is (the caller closes it); otherwise, when
        ``REPRO_TRACE_DIR`` is set, a per-run JSONL trace is written
        there and closed automatically.  With neither, tracing is off
        and every hook degrades to an ``is None`` check.
        """
        config = self.config
        system = f"{self.profile.name}[{config.scheme}]"
        registry = self.metrics
        if registry is None:
            registry = MetricRegistry(
                enabled=envcfg.get_int(envcfg.METRICS.name) > 0
            )
        metrics = self.collector(system=system, model=config.model, registry=registry)
        telemetry = self.telemetry
        owns_telemetry = False
        if telemetry is None:
            telemetry = run_telemetry(f"{system}-{config.model}")
            owns_telemetry = telemetry is not None
        if telemetry is not None and telemetry.writer is not None:
            registry.bind_flush(
                telemetry.writer.write,
                envcfg.get_int(envcfg.METRICS_FLUSH_NS.name),
            )
        if telemetry is not None:
            telemetry.record_run(
                self.profile.name,
                config.model,
                config.scheme,
                n_accelerators=config.n_accelerators,
                power_condition=config.power_condition,
            )
        injector = None
        if self.faults is not None:
            injector = FaultInjector(
                self.faults,
                config.n_accelerators,
                log=telemetry.decisions if telemetry is not None else None,
            )
        state = _Pending(
            offload=PendingIndexStore(
                self.workload.timestamps,
                self.workload.deadlines,
                self.profile.stages.pre_inference_ns,
                max_pending=config.max_pending,
            ),
            metrics=metrics,
            telemetry=telemetry,
            injector=injector,
        )
        queue = EventQueue()
        if injector is not None:
            injector.schedule(queue)
        self._pump(queue, state)

        for query in state.offload.pop_batch(config.max_pending):
            query.drop_reason = "end_of_run"
            self._record_drop(state, query, query.enqueue_time or query.arrival)
        self.last_metrics = metrics
        _fold_registry(registry, state, queue.pushed)
        self.last_run_metrics = registry
        if owns_telemetry:
            telemetry.close()
        result = metrics.result()
        self._export_metrics(registry, system, result)
        return result

    def _pump(self, queue: EventQueue, state: _Pending) -> None:
        """Run this system's event pump to the end of the workload."""
        if self._is_lighttrader:
            self._run_lighttrader_fast(queue, state)
        else:
            self._run_fixed_system_fast(state)

    def _export_metrics(
        self, registry: MetricRegistry, system: str, result: RunResult
    ) -> None:
        """Write <run>.manifest.json + <run>.prom when exporting is on."""
        export_dir = envcfg.get_path(envcfg.METRICS_EXPORT.name)
        if export_dir is None or not registry.enabled:
            return
        import dataclasses
        from pathlib import Path

        from repro.telemetry import _safe_filename

        name = _safe_filename(f"{system}-{self.config.model}")
        directory = Path(export_dir)
        manifest = build_manifest(
            run={
                "system": system,
                "profile": self.profile.name,
                "scheme": self.config.scheme,
                "model": self.config.model,
                "workload": self.workload.name,
                "workload_ticks": len(self.workload),
            },
            registry=registry,
            config=dataclasses.asdict(self.config),
            result=result,
        )
        write_manifest(directory / f"{name}.manifest.json", manifest)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.prom").write_text(exposition(registry))

    # -- LightTrader path ------------------------------------------------------------

    def _run_lighttrader_fast(self, queue: EventQueue, state: _Pending) -> None:
        """The fast LightTrader pump: cursor-merged arrivals, batched
        admission runs, memoized decisions, epoch-gated redistribution
        and change-driven power sampling.

        Parity argument, in brief: every device-state change flows
        through an :class:`Accelerator` method that bumps the cluster's
        shared epoch, and every busy/ready boundary crossing has a heap
        event at exactly that timestamp, so (a) between consecutive heap
        events with no healthy idle device, arrivals can neither issue
        nor change cluster power — they are pure queue admissions, taken
        in one ``PendingIndexStore.admit_run`` call; (b) when the epoch
        is unchanged, cluster power at the previous sample is still
        exact, and Algorithm-2 redistribution (a no-op then) stays a
        no-op; with no healthy device in flight it is a no-op too, so it
        is not called.  (c) A completion event names its batch: it
        completes that batch or, if a reclaim stretched it, re-pushes
        itself, and once the batch has finished it is dropped, so it can
        never complete a later batch of its device.  A second event for
        the same batch at the same time would pop after the first and do
        nothing, so it is never pushed.  The loop-parity tests enforce
        all of this byte-for-byte against the reference heap pump in
        ``tests/oracles/backtest.py``.
        """
        assert isinstance(self.profile, LightTraderProfile)
        config = self.config
        profile = self.profile
        cost = profile.cost(config.model)

        static_table = DVFSTable(cap_hz=paperdata.TABLE3_CONSERVATIVE_CAP_HZ)
        dynamic_table = DVFSTable()
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
            device.point = static_point
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
        post_ns = post_slack_ns
        injector = state.injector
        store = state.offload
        metrics = state.metrics
        devices = cluster.devices
        stages = profile.stages
        max_batch = config.max_batch
        workload_scheduling = config.workload_scheduling
        model = config.model
        static_freq = static_point.freq_hz
        issue_budget = self._issue_budget
        # Lazy batches: without an injector (no surrender paths) and with
        # span tracing off, nothing ever reads a Query object for a
        # completed query — score straight from the workload arrays.
        lazy_on = state.injector is None and not spans_on
        ts_list = store.ts_list
        dl_list = store.dl_list

        def capped(point: OperatingPoint, device) -> OperatingPoint:
            if device.cap_hz is not None and point.freq_hz > device.cap_hz + 1e-3:
                return fastest_capped(dynamic_table, device.cap_hz)
            return point

        # select_max_frequency is pure in (table, activity, budget) and
        # table/activity are fixed for the run: cache it by budget.
        select_cache: dict[float, OperatingPoint | None] = {}

        def select_dynamic(budget: float) -> OperatingPoint | None:
            try:
                return select_cache[budget]
            except KeyError:
                point = power_model.select_max_frequency(
                    dynamic_table, cost.activity, budget
                )
                select_cache[budget] = point
                return point

        def decide_for(device, now: int, deadline: int):
            if workload_scheduling:
                budget = issue_budget(cluster, device, now)
                if ds is not None and budget < min_power:
                    ds.reclaim(cluster, now, min_power - cluster.headroom(now))
                    budget = issue_budget(cluster, device, now)
                deadlines = store.pending_deadlines_less(max_batch, post_slack_ns)
                return ws.decide_memo(
                    model,
                    now,
                    deadlines,
                    budget,
                    floor_freq_hz=static_freq,
                    cap_freq_hz=device.cap_hz,
                )
            if ds is not None:
                budget = issue_budget(cluster, device, now)
                point = select_dynamic(budget)
                if point is None:
                    ds.reclaim(cluster, now, static_power - cluster.headroom(now))
                    budget = issue_budget(cluster, device, now)
                    point = select_dynamic(budget)
                if point is None:
                    point = static_point
                return ws.static_decision(
                    model, capped(point, device), now, deadline
                )
            return ws.static_decision(
                model, capped(static_point, device), now, deadline
            )

        record_drop_index = _make_record_drop_index(state, stages)
        epoch = cluster.epoch
        redist_epoch = -1

        # Completion events carry their IssueRecord.  Per device, the
        # (record, time) of its newest completion event: the same pair
        # again would only add an event that pops after the first one
        # and does nothing.
        event_record: list = [None] * len(devices)
        event_ns = [0] * len(devices)

        def push_completion(device) -> None:
            record = device.current
            at = device.busy_until
            i = device.accel_id
            if event_record[i] is record and event_ns[i] == at:
                return
            event_record[i] = record
            event_ns[i] = at
            queue.push(at, EventKind.COMPLETION, record)

        def try_schedule(now: int) -> None:
            nonlocal redist_epoch
            if store.pending_count():
                for index in store.drop_stale(now):
                    record_drop_index(index, now, "stale")
            # With nothing pending the device loop cannot issue anything;
            # skip straight to the redistribution tail.
            for device in devices if store.pending_count() else ():
                if (
                    not device.healthy
                    or device.current is not None
                    or device.available_at > now
                ):
                    continue
                while store.pending_count() > 0:
                    od = store.oldest_deadline()
                    deadline = od if od >= 0 else now
                    decision = decide_for(device, now, deadline)
                    if decision is None:
                        effective = deadline - post_slack_ns
                        if ws.deadline_feasible(model, now, effective):
                            if decision_log is not None:
                                decision_log.record_fallback(
                                    now, "defer_power", store.oldest_index()
                                )
                            break
                        victim = store.drop_oldest()
                        if victim is not None:
                            if decision_log is not None:
                                decision_log.record_fallback(
                                    now, "drop_unschedulable", victim
                                )
                            record_drop_index(victim, now, "unschedulable")
                        continue
                    if decision.point != device.point:
                        ready = device.set_point(decision.point, now)
                        queue.push(ready, EventKind.RETRY, None)
                        break
                    if lazy_on:
                        batch = store.pop_indices(decision.batch_size)
                    else:
                        batch = store.pop_batch(decision.batch_size)
                    device.issue(
                        now,
                        decision.t_total_ns,
                        len(batch),
                        cost.activity,
                        deadline_ns=deadline,
                    )
                    if not lazy_on:
                        for query in batch:
                            query.issue_time = now
                    state.in_flight[device.accel_id] = batch
                    push_completion(device)
                    break
            if ds is not None and epoch.value != redist_epoch:
                reserve = 0.0
                in_flight = False
                for d in devices:  # (no listcomp)
                    if not d.healthy:
                        continue
                    if d.busy_until > now:
                        in_flight = True
                    elif d.current is None and d.available_at <= now:
                        reserve = static_power
                # With nothing in flight a call would be a no-op: skip it.
                if in_flight and ds.redistribute(cluster, now, reserve_w=reserve):
                    for d in devices:
                        if d.healthy and d.busy_until > now:
                            push_completion(d)
                    # Acting is not exhaustive (one transition per
                    # device per call): the reference re-runs every
                    # event and may keep boosting, so stay ungated
                    # until a call comes back a no-op.
                    redist_epoch = -1
                else:
                    redist_epoch = epoch.value

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

        # Sorted arrival stream (replaces per-arrival heap events).  With
        # injection, stall/duplicate perturbations expand the stream; the
        # stable sort reproduces the heap's (time, seq) tie order.
        pre_ns = stages.pre_inference_ns
        wl_ts = self.workload.timestamps
        arr_i: list[int] | None = None
        if injector is None:
            arr_np = wl_ts.astype(np.int64, copy=True)
            arr_np += pre_ns
            arr_t: list[int] = arr_np.tolist()
        else:
            raw_t: list[int] = []
            raw_i: list[int] = []
            for index in range(len(self.workload)):
                nominal = int(wl_ts[index]) + pre_ns
                for t in injector.arrival_times(index, nominal):
                    raw_t.append(t)
                    raw_i.append(index)
            order = np.argsort(np.asarray(raw_t, dtype=np.int64), kind="stable")
            arr_t = [raw_t[k] for k in order]
            arr_i = [raw_i[k] for k in order]
            arr_np = np.asarray(arr_t, dtype=np.int64)
        n_arr = len(arr_t)
        a = 0

        # Change-driven power sampling: the reference samples at the end
        # of every non-continue event; the value can only differ from the
        # previous sample when the epoch moved, so sample exactly then
        # (plus the first and last loop-end events, which pin the
        # integral's window), and the skipped samples are value-exact.
        sampled_once = False
        sampled_epoch = -1
        sampled_ns = -1
        watts = 0.0
        last_event_ns = -1

        def sample(now: int) -> None:
            nonlocal sampled_once, sampled_epoch, sampled_ns, watts, last_event_ns
            last_event_ns = now
            value = epoch.value
            if sampled_once and value == sampled_epoch:
                return
            new_watts = cluster.total_power(now)
            if sampled_once:
                sampled_epoch = value
                if new_watts == watts:
                    # Value-identical: the collector would only extend
                    # its open segment, and the final pin supplies the
                    # trailing timestamp — skipping is byte-neutral.
                    return
            watts = new_watts
            sampled_once = True
            sampled_epoch = value
            sampled_ns = now
            metrics.sample_power(now, watts)
            if telemetry is not None:
                telemetry.sample_power(now, watts)

        heap = queue._heap
        while True:
            if heap:
                if a < n_arr:
                    at = arr_t[a]
                    top = heap[0]
                    # Heap wins ties unless it holds a re-pushed ARRIVAL
                    # (always a later insertion than the stream's copy).
                    take_arrival = at < top[0] or (at == top[0] and top[1] == 3)
                else:
                    take_arrival = False
            elif a < n_arr:
                at = arr_t[a]
                take_arrival = True
            else:
                break
            if take_arrival:
                now = at
                if injector is not None:
                    index = arr_i[a]
                    a += 1
                    verdict = injector.on_arrival(index, now)
                    if verdict == STALLED:
                        queue.push(injector.stall_until, EventKind.ARRIVAL, index)
                        continue
                    if verdict == DUPLICATE:
                        continue
                    victim = store.admit_index(index, now)
                    if victim is not None:
                        record_drop_index(victim, now, "overflow")
                    try_schedule(now)
                else:
                    idle = False
                    for d in devices:
                        if d.healthy and d.current is None and d.available_at <= now:
                            idle = True
                            break
                    if idle:
                        victim = store.admit_index(a, now)
                        a += 1
                        if victim is not None:
                            record_drop_index(victim, now, "overflow")
                        try_schedule(now)
                    else:
                        # No device can issue before the next heap event
                        # (every busy/ready crossing has one), so every
                        # arrival strictly before it is a pure admission:
                        # admit the run in one call.  With DVFS
                        # scheduling the reference additionally re-runs
                        # redistribute at every arrival, and an acting
                        # pass is not exhaustive — drain only while the
                        # tail is converged at the current epoch (a no-op
                        # stays a no-op: with no epoch change headroom is
                        # constant and boost feasibility only shrinks as
                        # remaining work drains).
                        j = bisect_left(arr_t, heap[0][0], a + 1) if heap else n_arr
                        if (
                            j - a > 1
                            and (ds is None or redist_epoch == epoch.value)
                            and store.can_admit_run(j - a)
                        ):
                            for index, drop_ns in store.admit_run(
                                a, j, arr_np[a:j]
                            ):
                                record_drop_index(index, drop_ns, "stale")
                            now = arr_t[j - 1]
                            a = j
                        else:
                            victim = store.admit_index(a, now)
                            a += 1
                            if victim is not None:
                                record_drop_index(victim, now, "overflow")
                            try_schedule(now)
                sample(now)
            else:
                now, kind, payload = queue.pop()
                if kind is EventKind.COMPLETION:
                    device = devices[payload.accel_id]
                    if device.current is not payload:
                        continue  # its batch has finished
                    if device.busy_until > now:
                        push_completion(device)  # stretched since pushed
                        continue
                    device.finish(now)
                    batch = state.in_flight.pop(device.accel_id, [])
                    if injector is not None and device.accel_id in injector.corrupted:
                        injector.corrupted.discard(device.accel_id)
                        requeued, dropped = surrender_batch(
                            batch, now, "corrupt_result"
                        )
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
                    if lazy_on:
                        order = now + post_ns
                        nb = len(batch)
                        for index in batch:
                            metrics.record_completion_ids(
                                dl_list[index], ts_list[index], order, nb
                            )
                        if batch and light_on:
                            for index in batch:
                                telemetry.record_completion_light(
                                    dl_list[index], ts_list[index], order
                                )
                        try_schedule(now)
                        sample(now)
                        continue
                    for query in batch:
                        query.completion_time = now + post_ns
                        metrics.record_completion(
                            query, query.completion_time, len(batch)
                        )
                    if batch and spans_on:
                        trans_ns = profile.t_trans_ns(len(batch))
                        for query in batch:
                            telemetry.record_query(
                                completed_query_trace(
                                    query,
                                    stages,
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
                    # Faults can repoint/quarantine devices: every cached
                    # sweep's floor/cap/budget context may be void.
                    ws.invalidate_memo()
                    handle_fault(now, payload)
                    try_schedule(now)
                elif kind is EventKind.ARRIVAL:
                    # Re-pushed arrival from a DMA-stall window.
                    verdict = injector.on_arrival(payload, now)
                    if verdict == STALLED:
                        queue.push(injector.stall_until, EventKind.ARRIVAL, payload)
                        continue
                    if verdict == DUPLICATE:
                        continue
                    victim = store.admit_index(payload, now)
                    if victim is not None:
                        record_drop_index(victim, now, "overflow")
                    try_schedule(now)
                else:  # RETRY
                    try_schedule(now)
                sample(now)
        # Pin the final sample so duration_s spans exactly the same
        # [first event, last event] window the reference integrates.
        if sampled_once and last_event_ns != sampled_ns:
            metrics.sample_power(last_event_ns, watts)

    @staticmethod
    def _issue_budget(cluster, device, now) -> float:
        """Power available to a new issue on ``device``.

        Without DVFS scheduling each accelerator owns its static share;
        with it, an issue may consume the whole unused rail (the device's
        own idle draw is released when it goes active).
        """
        return cluster.headroom(now) + device.power_now(now)

    # -- fixed-profile (GPU / FPGA) path ----------------------------------------------

    def _run_fixed_system_fast(self, state: _Pending) -> None:
        """The fixed-profile (GPU/FPGA) pump, fault-free by construction
        (the constructor refuses a fault plan on a fixed profile).

        Constant service time makes completions FIFO (a deque replaces
        the heap) and constant system power makes the timeline flat: the
        first and last events pin the same integral the reference heap
        pump in ``tests/oracles/backtest.py`` accumulates event by event.
        """
        config = self.config
        telemetry = state.telemetry
        spans_on = telemetry is not None and telemetry.trace_queries
        light_on = telemetry is not None and telemetry.light
        store = state.offload
        metrics = state.metrics
        stages = self.profile.stages
        post_ns = stages.post_inference_ns
        t_total = self.profile.t_total_ns(config.model, None, 1)
        trans_ns = self.profile.t_trans_ns(1)
        watts = self.profile.system_power_w

        arr_np = self.workload.timestamps + stages.pre_inference_ns
        arr_t: list[int] = arr_np.tolist()
        n_arr = len(arr_t)
        a = 0
        n_servers = config.n_accelerators
        busy_until = [0] * n_servers
        # Fault-free by construction; with spans off too, completions can
        # be scored straight from the workload arrays (no Query objects).
        lazy_on = not spans_on
        ts_list = store.ts_list
        dl_list = store.dl_list
        completions: deque = deque()  # (completion_ns, server, Query|index) FIFO
        first_ns = -1
        last_ns = 0
        record_drop_index = _make_record_drop_index(state, stages)

        while True:
            if completions:
                ct = completions[0][0]
                take_arrival = a < n_arr and arr_t[a] < ct
            elif a < n_arr:
                take_arrival = True
            else:
                break
            if take_arrival:
                now = arr_t[a]
                free = False
                for b in busy_until:
                    if b <= now:
                        free = True
                        break
                if not free:
                    # All servers busy until the next completion: admit
                    # the arrival run in one call.
                    j = bisect_left(arr_t, ct, a + 1)
                    if j - a > 1 and store.can_admit_run(j - a):
                        if first_ns < 0:
                            first_ns = now
                        for index, drop_ns in store.admit_run(a, j, arr_np[a:j]):
                            record_drop_index(index, drop_ns, "stale")
                        last_ns = arr_t[j - 1]
                        a = j
                        continue
                victim = store.admit_index(a, now)
                a += 1
                if victim is not None:
                    record_drop_index(victim, now, "overflow")
            else:
                now, server, query = completions.popleft()
                if lazy_on:
                    index = query
                    order = now + post_ns
                    metrics.record_completion_ids(
                        dl_list[index], ts_list[index], order, 1
                    )
                    if light_on:
                        telemetry.record_completion_light(
                            dl_list[index], ts_list[index], order
                        )
                else:
                    query.completion_time = now + post_ns
                    metrics.record_completion(query, query.completion_time, 1)
                    if spans_on:
                        telemetry.record_query(
                            completed_query_trace(
                                query,
                                stages,
                                inference_done_ns=now,
                                t_trans_ns=trans_ns,
                                batch_size=1,
                                accel_id=server,
                            )
                        )
            if store.pending_count():
                for index in store.drop_stale(now):
                    record_drop_index(index, now, "stale")
                for server in range(n_servers):
                    if busy_until[server] > now:
                        continue
                    if lazy_on:
                        batch = store.pop_indices(1)
                    else:
                        batch = store.pop_batch(1)
                    if not batch:
                        break
                    query = batch[0]
                    if not lazy_on:
                        query.issue_time = now
                    done = now + t_total
                    busy_until[server] = done
                    completions.append((done, server, query))
            if first_ns < 0:
                first_ns = now
            last_ns = now
        if first_ns >= 0:
            metrics.sample_power(first_ns, watts)
            if telemetry is not None:
                telemetry.sample_power(first_ns, watts)
            metrics.sample_power(last_ns, watts)

    # -- shared helpers ---------------------------------------------------------------

    def _record_drop(self, state: _Pending, query: Query, now: int) -> None:
        """Score a drop and, when tracing, emit its truncated span trace."""
        state.metrics.record_drop(query)
        telemetry = state.telemetry
        if telemetry is None:
            return
        if telemetry.trace_queries:
            telemetry.record_query(
                dropped_query_trace(query, self.profile.stages, drop_ns=now)
            )
        elif telemetry.light:
            telemetry.record_drop_light(query.deadline, query.drop_reason or "unknown")


def run_lighttrader(
    workload: QueryWorkload,
    config: SimConfig,
    profile: LightTraderProfile | None = None,
) -> RunResult:
    """Convenience wrapper for the common LightTrader case."""
    from repro.baselines.profiles import lighttrader_profile

    return Backtester(workload, profile or lighttrader_profile(), config).run()
