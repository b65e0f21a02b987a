"""Shipping-loop vs reference-loop parity: byte-identical back-tests.

The shipping event pumps restructure the simulator — batched arrival
admission, decision memoization, lazy query materialisation,
change-driven power sampling — but are contractually a pure
optimisation of the heap pumps of
:class:`tests.oracles.backtest.ReferenceBacktester`: every
:class:`RunResult` field, decision-log event, telemetry counter and
query trace must match the reference loop bit for bit.  These tests pin
that contract over a seeded matrix of scheduling schemes, traffic
presets, system profiles, queue-overflow pressure, a deterministic
fault plan, every trace level, and the Fig. 11 and Fig. 13 grids.

The canonical pinned run (6 s of headline traffic, seed 1, DeepLOB,
N=2, WS+DS, limited power) is held to its committed manifest
``benchmarks/results/run_manifest_baseline.json`` and to ceilings on
the shipping loop's work counts.  Counts, not wall-clock: the loop's
speed is perfbench's ``queries_per_s``.

Regression anchor: a saturated single accelerator under DVFS scheduling,
where the reference loop re-runs the (non-exhaustive) Algorithm-2
redistribution at every arrival — the batched-admission drain must not
swallow those passes (see the drain gate in ``_run_lighttrader_fast``).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import repro.bench.runner
from repro.accelerator.power import DVFSTable
from repro.baselines.profiles import fpga_profile, gpu_profile, lighttrader_profile
from repro.bench import run_fig11, run_fig13
from repro.core.scheduler import WorkloadScheduler
from repro.faults.plan import seeded_plan
from repro.metrics import IMPL_PREFIX, MetricRegistry
from repro.metrics.diff import flatten_manifest
from repro.metrics.manifest import build_manifest
from repro.sim.backtest import Backtester, SimConfig
from repro.sim.workload import QueryWorkload, Regime, TrafficSpec, synthetic_workload
from repro.telemetry import Telemetry
from tests.oracles.backtest import ReferenceBacktester
from tests.traffic import quantised_workload

# Sustained micro-burst traffic: keeps every device saturated so the
# batched-admission drain and the redistribution tail interact.
BURST = TrafficSpec(
    calm=Regime("calm", rate_hz=800.0, mean_dwell_s=1.0),
    episodes=(
        Regime("burst", rate_hz=40_000.0, mean_dwell_s=0.03),
        Regime("active", rate_hz=9_000.0, mean_dwell_s=0.08),
    ),
    episode_weights=(0.5, 0.5),
)

_SCHEME_FLAGS = {
    "baseline": (False, False),
    "ws": (True, False),
    "ds": (False, True),
    "ws+ds": (True, True),
}


def _workload(preset: str):
    if preset == "burst":
        return synthetic_workload(duration_s=1.5, spec=BURST, seed=42)
    return synthetic_workload(duration_s=2.0, spec=TrafficSpec(), seed=42)


def _run_pair(workload, profile, config, faults=None, level=2):
    """One back-test per loop; returns ((result, telemetry, metrics), ...)."""
    out = []
    for backtester in (ReferenceBacktester, Backtester):
        telemetry = Telemetry(keep_traces=True, keep_events=True, level=level)
        metrics = MetricRegistry()
        result = backtester(
            workload, profile, config, telemetry=telemetry, faults=faults,
            metrics=metrics,
        ).run()
        telemetry.close()
        out.append((result, telemetry, metrics))
    return out


def _assert_parity(workload, profile, config, faults=None, level=2):
    (ref, tel_ref, met_ref), (fast, tel_fast, met_fast) = _run_pair(
        workload, profile, config, faults=faults, level=level
    )
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)
    assert tel_fast.decisions.events == tel_ref.decisions.events
    assert tel_fast.registry.snapshot() == tel_ref.registry.snapshot()
    traces_ref = [t.to_event() for t in (tel_ref.traces or [])]
    traces_fast = [t.to_event() for t in (tel_fast.traces or [])]
    assert traces_fast == traces_ref
    # MetricRegistry parity: every public metric matches; only names
    # under the impl. prefix (memo/sweep/redistribute bookkeeping) may
    # legitimately differ between the two pumps.
    snap_fast = met_fast.public_snapshot()
    assert snap_fast == met_ref.public_snapshot()
    assert snap_fast["counters"], "registry saw no counter traffic"
    assert not any(
        name.startswith(IMPL_PREFIX)
        for section in snap_fast.values()
        for name in section
    )
    return ref


class TestSchemePresetMatrix:
    @pytest.mark.parametrize("preset", ["calm", "burst"])
    @pytest.mark.parametrize("scheme", sorted(_SCHEME_FLAGS))
    def test_lighttrader_schemes(self, preset, scheme):
        ws, ds = _SCHEME_FLAGS[scheme]
        config = SimConfig(
            workload_scheduling=ws,
            dvfs_scheduling=ds,
            n_accelerators=2,
            power_condition="limited" if preset == "burst" else "sufficient",
        )
        result = _assert_parity(_workload(preset), lighttrader_profile(), config)
        assert result.n_queries > 0

    @pytest.mark.parametrize("preset", ["calm", "burst"])
    def test_fixed_profiles(self, preset):
        workload = _workload(preset)
        _assert_parity(workload, gpu_profile(), SimConfig(n_accelerators=2))
        _assert_parity(workload, fpga_profile(), SimConfig())

    def test_single_device_redistribute_drain(self):
        # Regression: one saturated accelerator under ws+ds.  Algorithm 2
        # boosts the in-flight batch one step per event, so the reference
        # keeps boosting across consecutive arrivals; a batched drain
        # that swallows those arrival events loses boosts and the miss
        # rate drifts.  This configuration diverged before the drain was
        # gated on redistribution convergence.
        config = SimConfig(
            model="vanilla_cnn",
            n_accelerators=1,
            workload_scheduling=True,
            dvfs_scheduling=True,
        )
        _assert_parity(_workload("burst"), lighttrader_profile(), config)


class TestPiledCompletions:
    """Eight and sixteen devices under Algorithm 2: boosts, reclaims and
    same-instant completions pile up completion events, and every event
    of a finished batch must die without completing a later one."""

    @pytest.mark.parametrize("condition", ["sufficient", "limited"])
    @pytest.mark.parametrize("scheme", ["ds", "ws+ds"])
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("traffic", ["burst", "quantised"])
    def test_many_devices(self, traffic, n, scheme, condition):
        ws, ds = _SCHEME_FLAGS[scheme]
        config = SimConfig(
            model="translob",
            n_accelerators=n,
            workload_scheduling=ws,
            dvfs_scheduling=ds,
            power_condition=condition,
        )
        if traffic == "burst":
            workload = _workload("burst")
        else:
            workload = quantised_workload(seed=2)
        result = _assert_parity(workload, lighttrader_profile(), config)
        assert result.n_queries == workload.scored_count

    def test_completion_events_per_query_ceiling(self):
        # An event whose batch has finished is dropped at pop.  While such
        # events re-pushed themselves onto each later batch of their
        # device, this cell pushed 1,103 events per query; it reads 12.5.
        workload = quantised_workload(seed=2)
        config = SimConfig(model="translob", n_accelerators=16, dvfs_scheduling=True)
        registry = MetricRegistry()
        Backtester(workload, lighttrader_profile(), config, metrics=registry).run()
        pushed = registry.snapshot()["counters"]["impl.events.pushed"]
        assert pushed <= 25 * len(workload)


class TestSameInstantCompletions:
    """Two devices issued at one instant finish at one instant.  The
    first completion's scheduling pass must not re-issue the second
    device before its own completion has run: that would overwrite the
    batch in flight, and its queries would never be scored."""

    ARRIVALS = np.array([1_000_000, 1_000_000, 1_000_100, 1_000_200], dtype=np.int64)
    TIES = QueryWorkload(ARRIVALS, ARRIVALS + 50_000_000, name="ties")

    @pytest.mark.parametrize("scheme", sorted(_SCHEME_FLAGS))
    def test_lighttrader_scores_every_query(self, scheme):
        ws, ds = _SCHEME_FLAGS[scheme]
        config = SimConfig(
            workload_scheduling=ws, dvfs_scheduling=ds, n_accelerators=2
        )
        result = _assert_parity(self.TIES, lighttrader_profile(), config)
        assert result.n_queries == self.TIES.scored_count

    def test_fixed_profiles_score_every_query(self):
        for profile in (gpu_profile(), fpga_profile()):
            result = _assert_parity(self.TIES, profile, SimConfig(n_accelerators=2))
            assert result.n_queries == self.TIES.scored_count


class TestPressureAndFaults:
    def test_overflow_pressure(self):
        workload = synthetic_workload(duration_s=1.0, spec=BURST, seed=7)
        _assert_parity(
            workload,
            lighttrader_profile(),
            SimConfig(
                workload_scheduling=True, max_pending=8, power_condition="limited"
            ),
        )
        _assert_parity(workload, gpu_profile(), SimConfig(max_pending=4))

    @pytest.mark.parametrize("scheme", sorted(_SCHEME_FLAGS))
    def test_seeded_fault_plan(self, scheme):
        workload = synthetic_workload(duration_s=2.0, seed=11)
        plan = seeded_plan(
            duration_s=2.0,
            n_accelerators=2,
            n_ticks=len(workload),
            seed=3,
            device_failure_rate_hz=1.5,
            failure_downtime_s=0.3,
            corruption_rate_hz=1.0,
            throttle_rate_hz=1.5,
            throttle_duration_s=0.2,
            stall_rate_hz=1.0,
            stall_duration_us=200.0,
            duplicate_prob=0.01,
            reorder_prob=0.01,
        )
        ws, ds = _SCHEME_FLAGS[scheme]
        config = SimConfig(
            workload_scheduling=ws, dvfs_scheduling=ds, n_accelerators=2
        )
        _assert_parity(workload, lighttrader_profile(), config, faults=plan)

    @pytest.mark.parametrize("level", [0, 1])
    def test_trace_levels(self, level):
        workload = synthetic_workload(duration_s=1.5, seed=13)
        config = SimConfig(
            workload_scheduling=True, dvfs_scheduling=True, n_accelerators=2
        )
        _assert_parity(workload, lighttrader_profile(), config, level=level)
        _assert_parity(workload, gpu_profile(), SimConfig(), level=level)


class TestDecisionMemo:
    """decide_memo() must be a transparent cache over decide()."""

    def _situations(self, n=250, seed=5):
        rng = np.random.default_rng(seed)
        budgets = (7.5, 22.0, 45.0)  # few distinct values so the memo hits
        floors = (0.0, 1.2e9, 2.0e9)
        caps = (None, None, 1.8e9)
        out = []
        now = 1_000_000
        for _ in range(n):
            depth = int(rng.integers(1, 17))
            if rng.random() < 0.25:
                # Tight deadlines: outside the memo's slack regime, so
                # the fallback-to-decide path is exercised too.
                slack = rng.integers(1_000, 50_000, size=depth)
            else:
                slack = rng.integers(5_000_000, 50_000_000, size=depth)
            deadlines = [int(now + s) for s in np.sort(slack)[::-1]]
            out.append(
                (
                    now,
                    deadlines,
                    budgets[int(rng.integers(len(budgets)))],
                    floors[int(rng.integers(len(floors)))],
                    caps[int(rng.integers(len(caps)))],
                )
            )
            now += int(rng.integers(1_000, 200_000))
        return out

    def test_memo_matches_decide(self):
        profile = lighttrader_profile()
        table = DVFSTable(cap_hz=2.2e9)
        memoized = WorkloadScheduler(profile, table)
        plain = WorkloadScheduler(profile, table)
        for now, deadlines, budget, floor, cap in self._situations():
            got = memoized.decide_memo(
                "deeplob", now, deadlines, budget,
                floor_freq_hz=floor, cap_freq_hz=cap,
            )
            want = plain.decide(
                "deeplob", now, deadlines, budget,
                floor_freq_hz=floor, cap_freq_hz=cap,
            )
            assert got == want
        assert memoized.memo_stats["hits"] > 0
        assert memoized.memo_stats["misses"] > 0

    def test_invalidation_refills_with_identical_decisions(self):
        # The fast loop flushes the memo on every FAULT event (failure,
        # recovery, throttle: any of them voids the cached floor/cap/
        # budget context).  Decisions after a flush must re-derive to the
        # same values — the memo carries no state beyond pure caching.
        profile = lighttrader_profile()
        table = DVFSTable(cap_hz=2.2e9)
        scheduler = WorkloadScheduler(profile, table)
        now = 10_000_000
        deadlines = [now + 40_000_000] * 4
        first = scheduler.decide_memo("deeplob", now, deadlines, 30.0)
        again = scheduler.decide_memo("deeplob", now + 1_000, deadlines, 30.0)
        assert scheduler.memo_stats["hits"] == 1
        assert again == first

        scheduler.invalidate_memo()
        assert not scheduler._memo
        refilled = scheduler.decide_memo("deeplob", now + 2_000, deadlines, 30.0)
        assert refilled == first
        assert scheduler.memo_stats["misses"] == 2


class TestFigureGrids:
    def test_fig11_and_fig13_match_reference_loop(self, monkeypatch):
        # The grids run inline at jobs=1, so patching the runner's
        # Backtester swaps the pump for every run of both figures.
        def grids():
            return (
                run_fig11(duration_s=2.0, jobs=1),
                run_fig13(duration_s=2.0, counts=(1, 2), jobs=1),
            )

        shipping = grids()
        monkeypatch.setattr(repro.bench.runner, "Backtester", ReferenceBacktester)
        reference = grids()
        for fast, ref in zip(shipping, reference):
            assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


BASELINE_MANIFEST = (
    Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "results"
    / "run_manifest_baseline.json"
)

# The canonical run's work counts, each at its count when set, so any
# growth in work fails; raising one means re-pinning it with a reason.
# The reference loop reads 1,935 sweeps, 2,902 redistribute calls and
# 4,589 pushes on the same run.
WORK_CEILINGS = {
    "impl.sweeps": 304,
    "impl.memo.misses": 8,
    "impl.dvfs.redistribute_calls": 1_655,
    "impl.events.pushed": 3_573,
}


class TestCanonicalRun:
    @pytest.fixture(scope="class")
    def manifest(self):
        duration_s, seed = 6.0, 1
        workload = synthetic_workload(duration_s, seed=seed, name="manifest")
        config = SimConfig(
            model="deeplob",
            n_accelerators=2,
            workload_scheduling=True,
            dvfs_scheduling=True,
            power_condition="limited",
        )
        registry = MetricRegistry()
        result = Backtester(
            workload, lighttrader_profile(), config, metrics=registry
        ).run()
        return build_manifest(
            run={
                "system": "lighttrader[ws+ds]",
                "profile": "lighttrader",
                "scheme": "ws+ds",
                "model": config.model,
                "workload": workload.name,
                "workload_ticks": len(workload),
                "duration_s": duration_s,
            },
            registry=registry,
            config=dataclasses.asdict(config),
            result=result,
            seeds={"workload": seed},
        )

    def test_manifest_matches_committed_baseline(self, manifest):
        baseline = json.loads(BASELINE_MANIFEST.read_text())
        for section in ("schema", "run", "config", "seeds"):
            assert manifest[section] == baseline[section]
        baseline_flat = {
            path: value
            for path, value in flatten_manifest(baseline).items()
            if not path.startswith("perf:")
        }
        assert flatten_manifest(manifest) == baseline_flat

    @pytest.mark.parametrize("counter", sorted(WORK_CEILINGS))
    def test_work_count_ceiling(self, manifest, counter):
        count = manifest["metrics"]["counters"][counter]
        assert count <= WORK_CEILINGS[counter], (counter, count)
