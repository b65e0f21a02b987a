"""Parallel experiment runner: fan independent back-tests across processes.

The figure reproductions are grids of mutually independent back-tests —
per model, per system, per accelerator count, per scheduling scheme.
:func:`run_many` executes such a grid either inline (``jobs=1``, the
deterministic default) or across a process pool, with

- **deterministic ordering**: results come back in spec order whatever
  the completion order;
- **seed isolation**: a :class:`RunSpec` carries the full workload
  parameterisation, and every run is a pure function of its spec — the
  same spec produces the byte-identical :class:`RunResult` at any job
  count;
- **per-run trace routing**: each spec names its run, so JSONL traces
  from parallel workers land in distinct files of the shared trace dir;
- **crash containment**: a worker process dying (OOM-killed, segfault)
  no longer poisons the whole grid — the affected specs are retried on a
  fresh pool (``REPRO_BENCH_RETRIES`` times, default 1) and, if the
  crash persists, reported as per-run :class:`RunFailure` placeholders
  with every other result intact.

Workers rebuild workloads through the workload cache (one generation per
process at most; zero with ``REPRO_WORKLOAD_CACHE``) and reuse one
profile per process so sweep grids amortise across the grid's runs.

``--jobs`` surfaces in the drivers; ``REPRO_BENCH_JOBS`` sets the
process-wide default (1 = serial).
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro import envcfg
from repro.baselines.modelcosts import ModelCost
from repro.baselines.profiles import (
    LightTraderProfile,
    SystemProfile,
    fpga_profile,
    gpu_profile,
    lighttrader_profile,
)
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.sim.backtest import Backtester, SimConfig
from repro.sim.metrics import RunResult
from repro.sim.workload import TrafficSpec
from repro.sim.workload_cache import cached_synthetic_workload
from repro.telemetry import run_telemetry

__all__ = [
    "BENCH_JOBS_ENV",
    "BENCH_RETRIES_ENV",
    "BENCH_TIMEOUT_S_ENV",
    "RunFailure",
    "RunSpec",
    "WorkloadSpec",
    "default_jobs",
    "default_retries",
    "default_timeout_s",
    "execute_run",
    "profile_for",
    "run_many",
]

BENCH_JOBS_ENV = envcfg.BENCH_JOBS.name
# Extra pool rebuilds granted when a worker process dies mid-grid.
BENCH_RETRIES_ENV = envcfg.BENCH_RETRIES.name
# Per-run wall-clock timeout for pooled execution (0 = off).
BENCH_TIMEOUT_S_ENV = envcfg.BENCH_TIMEOUT_S.name

# Exponential backoff between pool-rebuild attempts: a worker that died
# to transient memory pressure gets breathing room before the retry.
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 5.0


def _backoff_s(rebuild: int) -> float:
    """Sleep before pool rebuild number ``rebuild`` (1-based)."""
    return min(_BACKOFF_BASE_S * (2.0 ** (rebuild - 1)), _BACKOFF_CAP_S)
# Test hook: a file whose content names a run; executing that run removes
# the file and kills the worker process (simulating an OOM kill / segv).
BENCH_CRASH_FILE_ENV = envcfg.BENCH_CRASH_FILE.name

_PROFILE_FACTORIES = {
    "lighttrader": lighttrader_profile,
    "gpu": gpu_profile,
    "fpga": fpga_profile,
}

# One profile per (process, name): sweep grids and anchor calibration are
# then shared by every run the worker executes.
_profiles: dict[str, SystemProfile] = {}


def default_jobs() -> int:
    """Worker count: ``REPRO_BENCH_JOBS`` or 1 (serial)."""
    return envcfg.get_int(BENCH_JOBS_ENV)


def default_retries() -> int:
    """Pool-crash retries: ``REPRO_BENCH_RETRIES`` or 1."""
    return envcfg.get_int(BENCH_RETRIES_ENV)


def default_timeout_s() -> float:
    """Per-run wall-clock timeout: ``REPRO_BENCH_TIMEOUT_S`` or 0 (off)."""
    return envcfg.get_float(BENCH_TIMEOUT_S_ENV)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one cached synthetic workload.

    ``traffic`` overrides the calibrated default :class:`TrafficSpec`
    (scenario campaigns shape flash-crash bursts or thin-liquidity opens
    this way); ``None`` keeps the headline calibration.  The spec stays
    frozen/hashable, so it remains a workload-cache key and pickles to
    pool workers unchanged.
    """

    duration_s: float
    seed: int = 1
    name: str = "headline"
    traffic: TrafficSpec | None = None

    def build(self):
        kwargs = {} if self.traffic is None else {"spec": self.traffic}
        return cached_synthetic_workload(
            duration_s=self.duration_s, seed=self.seed, name=self.name, **kwargs
        )


@dataclass(frozen=True)
class RunSpec:
    """One independent back-test: profile + config + workload + routing."""

    profile: str  # 'lighttrader' | 'gpu' | 'fpga'
    config: SimConfig
    workload: WorkloadSpec
    run_name: str
    trace_dir: str | None = None
    # Extra model costs to register on the (LightTrader) profile before
    # running — how the Fig. 8 zoo models travel to worker processes.
    extra_costs: tuple[ModelCost, ...] = field(default=())
    # Deterministic fault schedule injected into the run (None/empty =
    # the bit-transparent fault-free path).
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.profile not in _PROFILE_FACTORIES:
            raise SimulationError(
                f"unknown profile {self.profile!r}; known: {sorted(_PROFILE_FACTORIES)}"
            )


@dataclass(frozen=True)
class RunFailure:
    """Placeholder result for a spec whose worker process died.

    Carries the spec index so grid consumers can keep row/column
    alignment; truthiness is False so ``filter`` idioms skip it.
    """

    spec_index: int
    error: str
    attempts: int

    def __bool__(self) -> bool:
        return False


def profile_for(name: str) -> SystemProfile:
    """The process-shared profile instance for ``name``."""
    profile = _profiles.get(name)
    if profile is None:
        profile = _profiles[name] = _PROFILE_FACTORIES[name]()
    return profile


def _maybe_crash(spec: RunSpec) -> None:
    """Kill this worker if the crash-hook file names ``spec`` (tests only)."""
    crash_file = envcfg.get_path(BENCH_CRASH_FILE_ENV)
    if not crash_file or not os.path.exists(crash_file):
        return
    try:
        with open(crash_file) as handle:
            target = handle.read().strip()
    except OSError:
        return
    if target == spec.run_name:
        os.remove(crash_file)  # consume: the retry of this spec survives
        os._exit(13)


def execute_run(spec: RunSpec) -> RunResult:
    """Run one spec (the process-pool work item)."""
    _maybe_crash(spec)
    profile = profile_for(spec.profile)
    if spec.extra_costs:
        if not isinstance(profile, LightTraderProfile):
            raise SimulationError("extra model costs require the LightTrader profile")
        for cost in spec.extra_costs:
            if profile.costs.get(cost.name) != cost:
                profile.register(cost)
    workload = spec.workload.build()
    telemetry = run_telemetry(spec.run_name, spec.trace_dir) if spec.trace_dir else None
    result = Backtester(
        workload, profile, spec.config, telemetry=telemetry, faults=spec.faults
    ).run()
    if telemetry is not None:
        telemetry.close()
    return result


def run_many(
    specs: "list[RunSpec]",
    jobs: int | None = None,
    retries: int | None = None,
    worker: "Callable[[RunSpec], object]" = execute_run,
    timeout_s: float | None = None,
) -> "list[RunResult | RunFailure]":
    """Execute ``specs``, returning results in spec order.

    ``jobs=None`` reads ``REPRO_BENCH_JOBS``; 1 runs inline with no pool
    (bit-for-bit the serial path).  Each worker is warm across its share
    of the grid — profiles, sweep grids and cached workloads persist for
    the pool's lifetime.  ``worker`` swaps the per-spec work item (the
    campaign harness runs richer evidence-collecting items through the
    same pool machinery); it must be a picklable module-level callable.

    A worker process dying (not an ordinary exception — those still
    propagate) breaks the pool; the unfinished specs are retried on a
    fresh pool up to ``retries`` times (``REPRO_BENCH_RETRIES``, default
    1) with exponential backoff between rebuilds, and any spec still
    unfinished yields a :class:`RunFailure` at its index instead of
    poisoning the whole grid.

    ``timeout_s`` (``REPRO_BENCH_TIMEOUT_S``, default 0 = off) bounds
    each pooled run's wall clock.  Specs are submitted in a sliding
    window of ``jobs`` so submission time is start time; a run that
    exceeds the budget is resolved as a :class:`RunFailure` and its
    worker processes are terminated — the other in-flight specs ride the
    normal retry on a fresh pool.  Inline execution (``jobs=1``) cannot
    be preempted and ignores the timeout.
    """
    specs = list(specs)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    retries = default_retries() if retries is None else max(0, int(retries))
    timeout = default_timeout_s() if timeout_s is None else max(0.0, float(timeout_s))
    if jobs == 1 or len(specs) <= 1:
        return [worker(spec) for spec in specs]
    # Build each distinct workload once in the parent before forking:
    # children then inherit the populated cache copy-on-write instead of
    # regenerating per worker (a no-op on spawn platforms).
    for workload_spec in dict.fromkeys(
        getattr(spec, "workload", None) for spec in specs
    ):
        if workload_spec is not None:
            workload_spec.build()
    results: "dict[int, RunResult | RunFailure]" = {}
    pending = list(range(len(specs)))
    attempts = 0
    while pending:
        attempts += 1
        if attempts > 1:
            time.sleep(_backoff_s(attempts - 1))
        broken: BrokenProcessPool | None = None
        timed_out = False
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            backlog = iter(pending)
            active: "dict[Future, tuple[int, float | None]]" = {}

            def _submit_next() -> None:
                nonlocal broken
                if broken is not None:
                    return
                index = next(backlog, None)
                if index is None:
                    return
                deadline = time.monotonic() + timeout if timeout > 0 else None
                try:
                    future = pool.submit(worker, specs[index])
                except BrokenProcessPool as exc:
                    # A worker died since the last wait: stop submitting;
                    # this spec rides the retry with the unfinished ones.
                    broken = exc
                    return
                active[future] = (index, deadline)

            for _ in range(min(jobs, len(pending))):
                _submit_next()
            while active and broken is None and not timed_out:
                wait_s = None
                if timeout > 0:
                    next_deadline = min(d for _, d in active.values() if d is not None)
                    wait_s = max(0.0, next_deadline - time.monotonic())
                done, _ = wait(set(active), timeout=wait_s, return_when=FIRST_COMPLETED)
                for future in done:
                    index, _deadline = active.pop(future)
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool as exc:
                        broken = exc
                        break
                    _submit_next()
                if done or timeout <= 0:
                    continue
                now = time.monotonic()
                for future, (index, deadline) in list(active.items()):
                    if deadline is not None and now >= deadline:
                        results[index] = RunFailure(
                            spec_index=index,
                            error=(
                                f"run exceeded the {timeout:g}s wall-clock "
                                "timeout"
                            ),
                            attempts=attempts,
                        )
                        timed_out = True
                if timed_out:
                    # The pool cannot preempt one work item: terminate
                    # its processes; the other in-flight specs are
                    # retried on a fresh pool below.
                    for process in list(getattr(pool, "_processes", {}).values()):
                        process.terminate()
        if broken is None and not timed_out:
            pending = []
            continue
        # Every spec without a result rides the retry (the dead worker
        # took its own spec down and cancelled the queued ones; finished
        # results — including timeout RunFailures — are kept).
        pending = [i for i in pending if i not in results]
        if broken is not None and attempts > retries:
            for index in pending:
                results[index] = RunFailure(
                    spec_index=index,
                    error=f"worker process died: {broken}",
                    attempts=attempts,
                )
            pending = []
    return [results[i] for i in range(len(specs))]
