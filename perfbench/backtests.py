"""Back-test workloads: one Fig. 13 cell and the Fig. 11 non-batching trio.

Both replay the calibrated headline traffic (``synthetic_workload``)
with DeepLOB through :class:`~repro.sim.backtest.Backtester` on its
default event pump.  The traffic is cut into blocks of consecutive
queries; an operation is one back-test run of one block on one system,
and a cycle runs every block on every system once.
"""

from __future__ import annotations

import cProfile
import dataclasses
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro import (
    Backtester,
    QueryWorkload,
    RunResult,
    SimConfig,
    fpga_profile,
    gpu_profile,
    lighttrader_profile,
    synthetic_workload,
)
from repro.baselines import LightTraderProfile
from repro.baselines.profiles import SystemProfile
from repro.metrics import MetricRegistry

from perfbench import common
from perfbench.layers import BACKTEST_LAYERS, OTHER
from perfbench.tracing import BENCH, fold_profile

MODEL = "deeplob"
# Simulated seconds of headline traffic, about 150k queries.  The mix of
# calm, active and burst regimes sets the host cost per query: on 90 s
# of traffic it differs by 14% (IQR) from seed to seed on WS+DS, and the
# spread shrinks with the square root of the traffic length.
TRAFFIC_S = 720.0
# Queries per block: a run's fixed cost (about 1 ms) stays under 1%, a
# burst (about 600 queries) is seldom cut, and a cycle yields ~80 runs.
BLOCK_QUERIES = 2_000
# WS+DS holds the rail at the limited 20 W budget up to float rounding
# (peaks read 19.99999 W).
BUDGET_TOLERANCE = 1e-6
# Every query ends in exactly one of these registry counters.
OUTCOMES = ("responded", "completed_late", "dropped", "unscored")

WSDS = SimConfig(
    model=MODEL,
    n_accelerators=4,
    power_condition="limited",
    workload_scheduling=True,
    dvfs_scheduling=True,
)
FIFO = SimConfig(model=MODEL, n_accelerators=1)


@dataclass
class Inputs:
    blocks: list[QueryWorkload]
    systems: list[tuple[SystemProfile, SimConfig]]
    setup_ms: dict[str, float]


def setup(seed: int, variant: str, traffic_s: float = TRAFFIC_S) -> Inputs:
    """Generate and block the traffic, build the profiles, warm up."""
    t0 = perf_counter()
    workload = synthetic_workload(duration_s=traffic_s, seed=seed, name="headline")
    t1 = perf_counter()
    if variant == "wsds":
        systems = [(lighttrader_profile(), WSDS)]
    else:
        systems = [
            (lighttrader_profile(), FIFO),
            (gpu_profile(), FIFO),
            (fpga_profile(), FIFO),
        ]
    t2 = perf_counter()
    blocks = [
        QueryWorkload(
            workload.timestamps[i : i + BLOCK_QUERIES],
            workload.deadlines[i : i + BLOCK_QUERIES],
            name=f"headline[{i}:]",
        )
        for i in range(0, len(workload), BLOCK_QUERIES)
    ]
    # One block per system builds the sweep grids and first-call state,
    # so the timed runs start warm.
    for profile, config in systems:
        Backtester(blocks[0], profile, config, metrics=MetricRegistry()).run()
    return Inputs(
        blocks=blocks,
        systems=systems,
        setup_ms={
            "sim.workload.generate_ms": (t1 - t0) * 1e3,
            "baselines.profile_ms": (t2 - t1) * 1e3,
        },
    )


def check_result(
    result: RunResult, workload: QueryWorkload, profile: SystemProfile, config: SimConfig
) -> list[str]:
    """Output checks that hold for any seed; returns the problems found."""
    name = result.system
    problems = []
    outcomes = result.responded + result.completed_late + result.dropped
    if not result.n_queries == outcomes == workload.scored_count:
        problems.append(
            f"{name}: n_queries {result.n_queries}, responded+late+dropped "
            f"{outcomes}, scored queries {workload.scored_count}"
        )
    # The rail budget binds LightTrader only: the GPU and FPGA systems
    # draw 59.3 W and 55.8 W against the 55 W SimConfig budget.
    limit = config.budget_w * (1 + BUDGET_TOLERANCE)
    if isinstance(profile, LightTraderProfile) and result.peak_power_w > limit:
        problems.append(f"{name}: peak rail power {result.peak_power_w} W over budget")
    if not 0 <= result.mean_power_w <= result.peak_power_w * (1 + BUDGET_TOLERANCE):
        problems.append(f"{name}: mean power {result.mean_power_w} W outside [0, peak]")
    latencies = (result.mean_latency_us, result.p50_latency_us, result.p99_latency_us)
    if result.responded == 0:
        if not all(math.isnan(value) for value in latencies):
            problems.append(f"{name}: latency reported with no in-time response")
    elif not 0 < result.p50_latency_us <= result.p99_latency_us:
        problems.append(f"{name}: latency p50/p99 out of order")
    max_batch = config.max_batch if config.workload_scheduling else 1
    completed = result.responded + result.completed_late
    if completed and not 1 <= result.mean_batch_size <= max_batch:
        problems.append(f"{name}: mean batch {result.mean_batch_size} not in [1, {max_batch}]")
    return problems


def result_record(result: RunResult) -> dict:
    """A RunResult as a dict, for the digest."""
    return dataclasses.asdict(result)


@dataclass
class _Tally:
    """Running totals of the timed phase; times in reference seconds."""

    host_s: float = 0.0
    untraced_s: float = 0.0
    untraced_queries: int = 0
    op_us: list[float] = field(default_factory=list)
    paired_s: float = 0.0  # untraced runs that have a profiled twin
    profiled_s: float = 0.0
    profiled_queries: int = 0
    layer_s: dict[str, float] = field(default_factory=dict)
    layer_calls: dict[str, int] = field(default_factory=dict)


def measure(inputs: Inputs, seconds: float, traced: bool, root: Path) -> common.Outcome:
    """Run every block on every system once, then keep cycling until
    ``seconds`` have passed (the first cycle always completes).

    Repeated runs must reproduce the first cycle's results exactly.
    Traced, each operation after the first cycle runs untraced and then
    profiled, so the overhead ratio compares the same work; every system
    gets at least one such pair.
    """
    out = common.Outcome()
    tally = _Tally()
    ops = [(block, system) for block in inputs.blocks for system in inputs.systems]
    first_cycle: list[RunResult | None] = [None] * len(ops)
    references: list[str | None] = [None] * len(ops)
    registries: list[dict] = []
    kernel_s = common.time_kernel()
    deadline = perf_counter() + seconds
    count = 0
    pairs_due = len(inputs.systems) if traced else 0
    while count < len(ops) + pairs_due or perf_counter() < deadline:
        op = count % len(ops)
        first = count < len(ops)
        count += 1
        block, (profile, config) = ops[op]
        for profiled in (False, True) if traced and not first else (False,):
            out.attempted += 1
            registry = MetricRegistry()
            backtester = Backtester(block, profile, config, metrics=registry)
            profiler = cProfile.Profile() if profiled else None
            start = perf_counter()
            try:
                result = profiler.runcall(backtester.run) if profiler else backtester.run()
            except Exception:
                out.fail(f"{profile.name}: {traceback.format_exc(limit=3)}")
                break
            took = perf_counter() - start
            before, kernel_s = kernel_s, common.time_kernel()
            factor = common.scale(before, kernel_s)

            problems = check_result(result, block, profile, config)
            result_digest = common.digest(result_record(result))
            if first:
                first_cycle[op] = result
                references[op] = result_digest
                registries.append(registry.snapshot())
            elif references[op] not in (None, result_digest):
                problems.append(f"{result.system}: result differs from the first cycle")
            if problems:
                out.fail("; ".join(problems))

            if profiled:
                tally.profiled_s += took * factor
                tally.profiled_queries += len(block)
                host, calls = fold_profile(profiler, root / "src", root / "perfbench")
                by_layer = {layer: value * factor for layer, value in host.items()}
                _add(tally.layer_s, by_layer)
                _add(tally.layer_calls, calls)
                out.spans.append(_run_span(len(out.spans), profile.name, took, by_layer))
            else:
                tally.host_s += took
                tally.untraced_s += took * factor
                tally.untraced_queries += len(block)
                tally.op_us.append(took * factor * 1e6)
                if traced and not first:
                    tally.paired_s += took * factor

    results = [r for r in first_cycle if r is not None]
    if len(results) == len(ops):
        out.digest = common.digest([result_record(r) for r in results])
    out.e2e = {
        "queries_per_s": common.ratio(tally.untraced_queries, tally.untraced_s),
        "op_host_p50_us": common.percentile(tally.op_us, 50),
        "op_host_p90_us": common.percentile(tally.op_us, 90),
    }
    out.report.append(
        f"host: {len(tally.op_us)} untraced runs ({len(ops)} per cycle: "
        f"{len(inputs.blocks)} blocks of up to {BLOCK_QUERIES} queries x "
        f"{len(inputs.systems)} system(s)); unscaled "
        f"{common.ratio(tally.untraced_queries, tally.host_s):.1f} queries per host second"
    )
    for profile, __ in inputs.systems:
        runs = [r for r in results if r.system.startswith(profile.name + "[")]
        if runs:
            out.report.append(_simulated_line(runs))
    if traced:
        out.layers = _layer_metrics(tally, registries)
        out.report.extend(_layer_report(tally))
    return out


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _run_span(request: int, system: str, took: float, by_layer: dict) -> dict:
    """One span per profiled run (host ns); its children are the folded
    layers' self times (reference ns)."""
    return {
        "req": request,
        "span": "backtest.run",
        "system": system,
        "duration_ns": round(took * 1e9),
        "children_self_ref_ns": {k: round(v * 1e9) for k, v in sorted(by_layer.items())},
    }


def _layer_metrics(tally: _Tally, registries: list[dict]) -> dict[str, float]:
    """Per-query layer rows: self times from the profiled runs, counts
    from the first cycle's registries (they repeat exactly)."""

    def counter(name: str) -> int:
        return sum(r["counters"].get(name, 0) for r in registries)

    n = sum(counter(f"queries.{outcome}") for outcome in OUTCOMES)
    hits, misses = counter("impl.memo.hits"), counter("impl.memo.misses")
    redistributes = counter("impl.dvfs.redistribute_calls")
    high_water = max(
        (r["gauges"].get("offload.queue_depth_high_water", {}).get("max", 0.0) for r in registries),
        default=0.0,
    )
    profiled = tally.profiled_queries
    layers = {
        f"{layer}.self_us_per_query": common.ratio(tally.layer_s.get(layer, 0.0) * 1e6, profiled)
        for layer in BACKTEST_LAYERS
    }
    attributed = sum(tally.layer_s.get(layer, 0.0) for layer in BACKTEST_LAYERS)
    layers.update(
        {
            "core.scheduler.sweeps_per_query": common.ratio(counter("impl.sweeps"), n),
            "core.scheduler.memo_hit_ratio": common.ratio(hits, hits + misses),
            "core.dvfs.redistribute_per_query": common.ratio(redistributes, n),
            "core.dvfs.boosts_per_redistribute": common.ratio(
                counter("dvfs.boost_transitions"), redistributes
            ),
            "accelerator.calls_per_query": common.ratio(
                tally.layer_calls.get("accelerator", 0), profiled
            ),
            "pipeline.offload.stale_drop_ratio": common.ratio(
                counter("offload.dropped_stale"), counter("offload.admitted")
            ),
            "pipeline.offload.queue_high_water": float(high_water),
            "trace.attributed_ratio": common.ratio(attributed, sum(tally.layer_s.values())),
            "trace.overhead_ratio": common.ratio(tally.profiled_s, tally.paired_s),
        }
    )
    return layers


def _layer_report(tally: _Tally) -> list[str]:
    total = sum(tally.layer_s.values())
    overhead = common.ratio(tally.profiled_s, tally.paired_s)
    lines = [
        f"self time by layer under a deterministic profiler, which ran "
        f"{overhead:.2f}x the untraced time and inflates call-heavy layers "
        f"({tally.profiled_queries} queries, reference us per query):"
    ]
    for layer in (*BACKTEST_LAYERS, OTHER, BENCH):
        value = tally.layer_s.get(layer, 0.0)
        lines.append(
            f"  {layer:18s} {common.ratio(value * 1e6, tally.profiled_queries):9.3f} host "
            f"({common.ratio(value, total):6.1%})"
        )
    return lines


def _simulated_line(results: list[RunResult]) -> str:
    """One system's simulated outcome over all blocks."""
    scored = sum(r.n_queries for r in results)
    responded = sum(r.responded for r in results)
    energy = sum(r.energy_j for r in results)
    duration = sum(r.duration_s for r in results)
    p50 = [r.p50_latency_us for r in results if r.responded]
    p99 = [r.p99_latency_us for r in results if r.responded]
    peak = max(r.peak_power_w for r in results)
    return (
        f"simulated: {results[0].system}/{results[0].model}: response rate "
        f"{common.ratio(responded, scored):.4f} ({responded}/{scored}), tick-to-trade "
        f"median over blocks p50 {common.median(p50) if p50 else None} us, "
        f"p99 {common.median(p99) if p99 else None} us, power mean "
        f"{common.ratio(energy, duration):.3f} W, peak {peak:.5f} W"
    )
