"""Parallel experiment runner: determinism, ordering, job control."""

import dataclasses
import functools
import os

import numpy as np
import pytest

from repro.bench.runner import (
    BENCH_JOBS_ENV,
    RunSpec,
    WorkloadSpec,
    default_jobs,
    execute_run,
    run_many,
)
from repro.errors import SimulationError
from repro.sim.backtest import SimConfig
from repro.sim.workload import synthetic_workload

DURATION = 2.0


def _grid():
    workload = WorkloadSpec(duration_s=DURATION, seed=3, name="runner-test")
    specs = []
    for model in ("deeplob", "vanilla_cnn"):
        for ws in (False, True):
            specs.append(
                RunSpec(
                    profile="lighttrader",
                    config=SimConfig(
                        model=model, n_accelerators=2, workload_scheduling=ws
                    ),
                    workload=workload,
                    run_name=f"{model}-ws{int(ws)}",
                )
            )
    return specs


def test_serial_and_parallel_results_identical():
    specs = _grid()
    serial = run_many(specs, jobs=1)
    parallel = run_many(specs, jobs=2)
    assert len(serial) == len(parallel) == len(specs)
    for left, right in zip(serial, parallel):
        # Results come back in spec order with byte-identical metrics.
        assert dataclasses.asdict(left) == dataclasses.asdict(right)


def test_runs_differ_across_specs():
    serial = run_many(_grid(), jobs=1)
    assert serial[0].miss_rate != serial[1].miss_rate or (
        serial[0].mean_power_w != serial[1].mean_power_w
    )


def test_unknown_profile_rejected():
    with pytest.raises(SimulationError):
        RunSpec(
            profile="tpu",
            config=SimConfig(),
            workload=WorkloadSpec(duration_s=DURATION),
            run_name="bad",
        )


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv(BENCH_JOBS_ENV, raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv(BENCH_JOBS_ENV, "6")
    assert default_jobs() == 6
    monkeypatch.setenv(BENCH_JOBS_ENV, "0")
    assert default_jobs() == 1  # clamped to serial
    monkeypatch.setenv(BENCH_JOBS_ENV, "many")
    with pytest.raises(SimulationError):
        default_jobs()


def test_trace_dir_routes_per_run(tmp_path):
    spec = _grid()[1]
    spec = dataclasses.replace(spec, trace_dir=str(tmp_path))
    (result,) = run_many([spec], jobs=1)
    assert result.n_queries > 0
    traces = list(tmp_path.glob("*.jsonl"))
    assert len(traces) == 1
    assert spec.run_name in traces[0].name


def test_default_retries_env(monkeypatch):
    from repro.bench.runner import BENCH_RETRIES_ENV, default_retries

    monkeypatch.delenv(BENCH_RETRIES_ENV, raising=False)
    assert default_retries() == 1
    monkeypatch.setenv(BENCH_RETRIES_ENV, "3")
    assert default_retries() == 3
    monkeypatch.setenv(BENCH_RETRIES_ENV, "-2")
    assert default_retries() == 0  # clamped
    monkeypatch.setenv(BENCH_RETRIES_ENV, "lots")
    with pytest.raises(SimulationError):
        default_retries()


def _crash_once(marker_path, spec):
    """Run ``spec``, killing the worker first if ``marker_path`` names it.

    The marker is consumed before the kill (a simulated OOM kill or
    segfault), so a retry of the same spec survives.
    """
    try:
        with open(marker_path) as handle:
            target = handle.read().strip()
    except FileNotFoundError:
        target = None
    if target == spec.run_name:
        os.remove(marker_path)
        os._exit(13)
    return execute_run(spec)


def _crashing_worker(specs, index, tmp_path):
    """A picklable worker that kills its process once, on ``specs[index]``."""
    marker = tmp_path / "crash"
    marker.write_text(specs[index].run_name)
    return marker, functools.partial(_crash_once, str(marker))


def test_worker_crash_retried_transparently(tmp_path):
    """One worker dies mid-grid; the retry pool recovers every result."""
    specs = _grid()
    marker, worker = _crashing_worker(specs, 2, tmp_path)
    survived = run_many(specs, jobs=2, retries=1, worker=worker)
    assert not marker.exists()  # the crash fired exactly once
    clean = run_many(specs, jobs=1)
    for left, right in zip(survived, clean):
        assert dataclasses.asdict(left) == dataclasses.asdict(right)


def test_worker_crash_without_retries_yields_runfailure(tmp_path):
    from repro.bench.runner import RunFailure

    specs = _grid()
    doomed = 1
    # With retries=0 the single attempt at the doomed spec dies and must
    # produce a placeholder.
    __, worker = _crashing_worker(specs, doomed, tmp_path)
    results = run_many(specs, jobs=2, retries=0, worker=worker)
    failures = [r for r in results if isinstance(r, RunFailure)]
    assert failures  # at least the doomed spec (pool-mates may ride along)
    assert any(f.spec_index == doomed for f in failures)
    for failure in failures:
        assert not failure  # falsy: filter() idioms skip it
        assert results[failure.spec_index] is failure  # order preserved
        assert "worker process died" in failure.error
    # Specs finished before the crash keep their real results.
    clean = run_many(specs, jobs=1)
    for index, result in enumerate(results):
        if not isinstance(result, RunFailure):
            assert dataclasses.asdict(result) == dataclasses.asdict(clean[index])


def test_ordinary_exception_still_propagates():
    specs = _grid()[:2]
    bad = dataclasses.replace(
        specs[1],
        workload=WorkloadSpec(duration_s=DURATION, seed=3, name="runner-test"),
        config=SimConfig(model="no_such_model", n_accelerators=2),
    )
    with pytest.raises(Exception):
        run_many([specs[0], bad], jobs=2)


@dataclasses.dataclass(frozen=True)
class _TinySpec:
    """Minimal spec for custom-worker tests (no workload attribute)."""

    run_name: str
    sleep_s: float = 0.0


def _tiny_worker(spec):
    import time as _time

    if spec.sleep_s:
        _time.sleep(spec.sleep_s)
    return ("ran", spec.run_name)


def test_custom_worker_runs_through_the_pool():
    specs = [_TinySpec("a"), _TinySpec("b"), _TinySpec("c")]
    assert run_many(specs, jobs=2, worker=_tiny_worker) == [
        ("ran", "a"),
        ("ran", "b"),
        ("ran", "c"),
    ]
    # Inline path uses the same worker.
    assert run_many(specs, jobs=1, worker=_tiny_worker) == [
        ("ran", "a"),
        ("ran", "b"),
        ("ran", "c"),
    ]


def test_timeout_contains_wedged_run_as_runfailure():
    from repro.bench.runner import RunFailure

    specs = [_TinySpec("fast1"), _TinySpec("slow", sleep_s=60.0), _TinySpec("fast2")]
    results = run_many(specs, jobs=2, worker=_tiny_worker, timeout_s=1.0)
    assert results[0] == ("ran", "fast1")
    assert results[2] == ("ran", "fast2")
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.spec_index == 1
    assert "wall-clock timeout" in failure.error
    assert not failure  # falsy placeholder, like crash failures


def test_timeout_env_default(monkeypatch):
    from repro.bench.runner import BENCH_TIMEOUT_S_ENV, default_timeout_s

    monkeypatch.delenv(BENCH_TIMEOUT_S_ENV, raising=False)
    assert default_timeout_s() == 0.0  # off by default
    monkeypatch.setenv(BENCH_TIMEOUT_S_ENV, "2.5")
    assert default_timeout_s() == 2.5
    monkeypatch.setenv(BENCH_TIMEOUT_S_ENV, "-1")
    assert default_timeout_s() == 0.0  # clamped to the minimum
    monkeypatch.setenv(BENCH_TIMEOUT_S_ENV, "soon")
    with pytest.raises(SimulationError):
        default_timeout_s()


def test_backoff_schedule_is_exponential_and_capped():
    from repro.bench.runner import _BACKOFF_BASE_S, _BACKOFF_CAP_S, _backoff_s

    assert _backoff_s(1) == _BACKOFF_BASE_S
    assert _backoff_s(2) == 2 * _BACKOFF_BASE_S
    assert _backoff_s(3) == 4 * _BACKOFF_BASE_S
    assert _backoff_s(100) == _BACKOFF_CAP_S


def test_retry_sleeps_with_backoff_between_pool_rebuilds(tmp_path, monkeypatch):
    import repro.bench.runner as runner_module
    from repro.bench.runner import _backoff_s

    slept = []
    monkeypatch.setattr(runner_module.time, "sleep", slept.append)
    specs = _grid()
    __, worker = _crashing_worker(specs, 2, tmp_path)
    results = run_many(specs, jobs=2, retries=2, worker=worker)
    assert all(not isinstance(r, runner_module.RunFailure) for r in results)
    # One pool rebuild after the crash → one backoff sleep.
    assert slept == [_backoff_s(1)]


@pytest.mark.parametrize("retries", [0, 1])
def test_pool_broken_at_submit_is_contained(monkeypatch, retries):
    """A worker dying between a finished result and the next submit makes
    ``submit`` itself raise; that must retry or fail the unsubmitted
    specs, never escape.  The fake pool runs work inline and breaks on
    the third submit: the first two specs finish, the third and fourth
    are left over for the retry."""
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    import repro.bench.runner as runner_module
    from repro.bench.runner import RunFailure, _backoff_s

    submits = []

    class FlakyPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            submits.append(args)
            if len(submits) == 3:
                raise BrokenProcessPool("a worker died before this submit")
            future = Future()
            future.set_result(fn(*args))
            return future

    slept = []
    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", FlakyPool)
    monkeypatch.setattr(runner_module.time, "sleep", slept.append)
    specs = [_TinySpec(name) for name in "abcd"]
    results = run_many(specs, jobs=2, retries=retries, worker=_tiny_worker)
    assert results[:2] == [("ran", "a"), ("ran", "b")]
    if retries:
        assert results[2:] == [("ran", "c"), ("ran", "d")]
        assert slept == [_backoff_s(1)]
    else:
        assert [type(r) for r in results[2:]] == [RunFailure, RunFailure]
        assert [r.spec_index for r in results[2:]] == [2, 3]
        assert len(submits) == 3  # nothing submitted after the pool broke


def test_workload_spec_matches_direct_generation():
    spec = WorkloadSpec(duration_s=DURATION, seed=5, name="memo-test")
    built = spec.build()
    direct = synthetic_workload(DURATION, seed=5, name="memo-test")
    np.testing.assert_array_equal(built.timestamps, direct.timestamps)
    np.testing.assert_array_equal(built.deadlines, direct.deadlines)
    assert built.name == direct.name


def test_workload_spec_builds_once_per_process():
    spec = WorkloadSpec(duration_s=DURATION, seed=5, name="memo-test")
    first = spec.build()
    # An equal spec is the same key: no regeneration, no copy.
    assert dataclasses.replace(spec).build() is first


def test_workload_memo_separates_specs():
    base = WorkloadSpec(duration_s=DURATION, seed=5, name="memo-test")
    other_seed = dataclasses.replace(base, seed=6).build()
    other_duration = dataclasses.replace(base, duration_s=DURATION + 1.0).build()
    assert other_seed is not base.build()
    assert not np.array_equal(other_seed.timestamps, base.build().timestamps)
    assert len(other_duration) != len(base.build())


def test_workload_spec_traffic_override():
    from repro.sim.workload import Regime, TrafficSpec

    custom = TrafficSpec(
        calm=Regime("calm", rate_hz=100.0, mean_dwell_s=2.0),
        episodes=(Regime("burst", rate_hz=20_000.0, mean_dwell_s=0.05),),
        episode_weights=(1.0,),
    )
    default_spec = WorkloadSpec(duration_s=DURATION, seed=3, name="traffic-test")
    custom_spec = dataclasses.replace(default_spec, traffic=custom)
    assert custom_spec != default_spec  # distinct cache keys
    default_workload = default_spec.build()
    custom_workload = custom_spec.build()
    assert len(custom_workload) != len(default_workload)
    # The spec stays hashable (cache key) and rebuilds the same workload.
    assert custom_spec.build() is custom_workload


def test_fault_plan_travels_to_workers():
    from repro.faults import FaultEvent, FaultPlan, DEVICE_FAILURE
    from repro.units import sec_to_ns

    plan = FaultPlan(
        events=(
            FaultEvent(t_ns=sec_to_ns(0.5), kind=DEVICE_FAILURE, accel_id=0),
        )
    )
    specs = _grid()[:2]
    faulted = [dataclasses.replace(spec, faults=plan) for spec in specs]
    parallel = run_many(faulted, jobs=2)
    serial = run_many(faulted, jobs=1)
    for left, right in zip(parallel, serial):
        assert dataclasses.asdict(left) == dataclasses.asdict(right)
