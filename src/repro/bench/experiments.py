"""Experiment runners: one function per paper table/figure.

Every runner returns a structured result carrying both the measured rows
and the corresponding published values, plus a ``table()`` renderer.  The
benchmark files under ``benchmarks/`` and the EXPERIMENTS.md generator
both drive these functions, so there is a single implementation of each
experiment.

Workload sizing: experiments accept ``duration_s``; the calibrated
defaults in EXPERIMENTS.md use 300 s (≈40 k queries).  Benchmarks default
to shorter runs via the ``REPRO_BENCH_DURATION`` environment variable.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro import envcfg, paperdata
from repro.accelerator.c2c import C2CLinkConfig, InterlakenLinkConfig, bandwidth_ratio
from repro.accelerator.power import build_static_table, fit_activity_coefficients
from repro.baselines.modelcosts import cost_from_model
from repro.baselines.profiles import (
    LightTraderProfile,
    fpga_profile,
    gpu_profile,
    lighttrader_profile,
)
from repro.bench.runner import RunFailure, RunSpec, WorkloadSpec, run_many
from repro.faults.plan import FaultPlan, seeded_plan
from repro.bench.tables import render_table
from repro.nn.models import benchmark_models, complexity_sweep
from repro.sim.backtest import Backtester, SimConfig
from repro.sim.metrics import RunResult
from repro.sim.workload import QueryWorkload
from repro.sim.workload_cache import cached_synthetic_workload
from repro.telemetry import run_telemetry

MODELS = ("vanilla_cnn", "translob", "deeplob")


def traced_run(
    workload: QueryWorkload,
    profile,
    config: SimConfig,
    trace_dir,
    run_name: str,
) -> RunResult:
    """One back-test, emitting a JSONL trace into ``trace_dir`` when set.

    With ``trace_dir=None`` the :class:`Backtester` still honours the
    ``REPRO_TRACE_DIR`` environment variable, so every figure
    reproduction can produce a trace directory without threading a flag
    through each call site.
    """
    telemetry = run_telemetry(run_name, trace_dir) if trace_dir else None
    result = Backtester(workload, profile, config, telemetry=telemetry).run()
    if telemetry is not None:
        telemetry.close()
    return result


def bench_duration_s(default: float = 60.0) -> float:
    """Workload duration for benchmarks (REPRO_BENCH_DURATION overrides)."""
    return envcfg.get_float(envcfg.BENCH_DURATION.name, default)


def headline_workload(duration_s: float | None = None, seed: int = 1) -> QueryWorkload:
    """The calibrated traffic used by every headline experiment.

    Served through the workload cache: one generation per process per
    (duration, seed), plus on-disk reuse when ``REPRO_WORKLOAD_CACHE``
    is set.
    """
    return cached_synthetic_workload(
        duration_s=duration_s or bench_duration_s(), seed=seed, name="headline"
    )


def _headline_spec(duration_s: float | None, seed: int) -> WorkloadSpec:
    """The :class:`WorkloadSpec` matching :func:`headline_workload`."""
    return WorkloadSpec(
        duration_s=duration_s or bench_duration_s(), seed=seed, name="headline"
    )


# --- Table I -------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Result:
    """Accelerator spec comparison."""

    measured_tflops: float
    measured_int8_tops: float
    measured_max_power_w: float

    def table(self) -> str:
        rows = [
            ["BF16 TFLOPS", f"{self.measured_tflops:.1f}", f"{paperdata.TABLE1_BF16_TFLOPS:.1f}"],
            ["INT8 TOPS", f"{self.measured_int8_tops:.1f}", f"{paperdata.TABLE1_INT8_TOPS:.1f}"],
            ["Max power (W)", f"{self.measured_max_power_w:.1f}", f"{paperdata.TABLE1_MAX_POWER_W:.1f}"],
        ]
        return render_table("Table I: accelerator specification", ["metric", "ours", "paper"], rows)


def run_table1() -> Table1Result:
    """Regenerate the Table-I headline numbers from the architecture model."""
    from repro.accelerator.config import DEFAULT_CONFIG
    from repro.accelerator.power import K_FULL_UTILISATION, PowerModel
    from repro.accelerator.power import OperatingPoint

    power = PowerModel()
    top = OperatingPoint(DEFAULT_CONFIG.max_freq_hz, DEFAULT_CONFIG.max_voltage)
    return Table1Result(
        measured_tflops=DEFAULT_CONFIG.peak_tflops(),
        measured_int8_tops=DEFAULT_CONFIG.peak_int8_tops(),
        measured_max_power_w=power.power_w(top, K_FULL_UTILISATION),
    )


# --- Table II ------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Result:
    """Model op counts (ours are the functional models; the paper's are
    its production-scale variants — the *ordering and ratios* are the
    reproducible quantity, see EXPERIMENTS.md)."""

    measured_ops: dict[str, int]

    def table(self) -> str:
        base = self.measured_ops["vanilla_cnn"]
        paper_base = paperdata.TABLE2_TOTAL_OPS["vanilla_cnn"]
        rows = []
        for name in MODELS:
            rows.append(
                [
                    name,
                    f"{self.measured_ops[name] / 1e6:.1f}M",
                    f"{self.measured_ops[name] / base:.2f}x",
                    f"{paperdata.TABLE2_TOTAL_OPS[name] / 1e9:.1f}G",
                    f"{paperdata.TABLE2_TOTAL_OPS[name] / paper_base:.2f}x",
                ]
            )
        return render_table(
            "Table II: model total OPs",
            ["model", "ours", "ours rel", "paper", "paper rel"],
            rows,
        )


def run_table2() -> Table2Result:
    """Count total OPs of the three functional benchmark models."""
    return Table2Result(
        measured_ops={name: m.total_ops() for name, m in benchmark_models().items()}
    )


# --- Table III -----------------------------------------------------------------


@dataclass(frozen=True)
class Table3Result:
    """Static clock configuration: fitted power model vs published table."""

    ours: dict[str, dict[str, dict[int, float]]]
    exact_cells: int
    total_cells: int

    def table(self) -> str:
        rows = []
        for condition in ("sufficient", "limited"):
            for model in MODELS:
                for n in paperdata.ACCELERATOR_COUNTS:
                    ours = self.ours[condition][model][n]
                    paper = paperdata.TABLE3_FREQ_GHZ[condition][model][n]
                    rows.append(
                        [condition, model, n, f"{ours:.1f}", f"{paper:.1f}",
                         "=" if abs(ours - paper) < 1e-9 else "≠"]
                    )
        return render_table(
            "Table III: static clock (GHz) per condition/model/N",
            ["condition", "model", "N", "ours", "paper", ""],
            rows,
            note=f"{self.exact_cells}/{self.total_cells} cells exact",
        )


def run_table3() -> Table3Result:
    """Regenerate Table III from the calibrated power model."""
    ours = build_static_table(fit_activity_coefficients())
    exact = 0
    total = 0
    for condition in ("sufficient", "limited"):
        for model in MODELS:
            for n, paper in paperdata.TABLE3_FREQ_GHZ[condition][model].items():
                total += 1
                if abs(ours[condition][model][n] - paper) < 1e-9:
                    exact += 1
    return Table3Result(ours=ours, exact_cells=exact, total_cells=total)


# --- Fig. 8 --------------------------------------------------------------------


@dataclass(frozen=True)
class Fig8Result:
    """Response rate for the M1..M5 complexity sweep (single accelerator)."""

    response_rates: dict[str, float]
    latencies_us: dict[str, float]

    def table(self) -> str:
        rows = [
            [name, f"{self.latencies_us[name]:.0f}", f"{self.response_rates[name]:.1%}"]
            for name in self.response_rates
        ]
        return render_table(
            "Fig. 8: response rate vs model complexity (M1 simplest .. M5)",
            ["model", "latency (µs)", "response rate"],
            rows,
            note="paper shows monotone decline with complexity",
        )


def run_fig8(
    duration_s: float | None = None, seed: int = 1, trace_dir=None, jobs: int | None = None
) -> Fig8Result:
    """Run the M1..M5 sweep on a single accelerator."""
    from repro.baselines.profiles import nominal_point

    workload_spec = _headline_spec(duration_s, seed)
    nominal = nominal_point()
    latencies = {}
    specs = []
    for name, model in complexity_sweep().items():
        cost = cost_from_model(model)
        latencies[name] = cost.infer_ns(nominal) / 1_000.0
        specs.append(
            RunSpec(
                profile="lighttrader",
                config=SimConfig(model=model.name, n_accelerators=1),
                workload=workload_spec,
                run_name=f"fig8-{name}",
                trace_dir=trace_dir,
                extra_costs=(cost,),
            )
        )
    results = run_many(specs, jobs=jobs)
    rates = {
        name: result.response_rate for name, result in zip(latencies, results)
    }
    return Fig8Result(response_rates=rates, latencies_us=latencies)


# --- Fig. 9 --------------------------------------------------------------------


@dataclass(frozen=True)
class Fig9Result:
    """C2C vs Interlaken effective bandwidth."""

    c2c_gbps: float
    interlaken_gbps: float
    ratio: float

    def table(self) -> str:
        rows = [
            ["C2C (ours)", f"{self.c2c_gbps:.1f}"],
            ["Interlaken", f"{self.interlaken_gbps:.1f}"],
            ["ratio", f"{self.ratio:.2f}x"],
        ]
        return render_table(
            "Fig. 9: effective off-chip bandwidth (GB/s)",
            ["link", "bandwidth"],
            rows,
            note=f"paper reports {paperdata.FIG9_C2C_VS_INTERLAKEN_BANDWIDTH}x",
        )


def run_fig9() -> Fig9Result:
    """Compare the link models' effective bandwidth."""
    c2c = C2CLinkConfig()
    interlaken = InterlakenLinkConfig()
    return Fig9Result(
        c2c_gbps=c2c.effective_bytes_per_second / 1e9,
        interlaken_gbps=interlaken.effective_bytes_per_second / 1e9,
        ratio=bandwidth_ratio(c2c, interlaken),
    )


# --- Fig. 11 -------------------------------------------------------------------


@dataclass(frozen=True)
class Fig11Result:
    """Non-batching comparison across the three systems."""

    latency_us: dict[str, dict[str, float]]  # system -> model -> µs
    response_rate: dict[str, dict[str, float]]
    efficiency: dict[str, dict[str, float]]  # effective TFLOPS/W
    runs: dict[str, dict[str, RunResult]] = field(repr=False, default_factory=dict)

    def speedup_vs(self, other: str) -> float:
        """Mean latency ratio other/lighttrader."""
        ratios = [
            self.latency_us[other][m] / self.latency_us["lighttrader"][m]
            for m in MODELS
        ]
        return statistics.mean(ratios)

    def response_gain_vs(self, other: str) -> float:
        """Mean response-rate ratio lighttrader/other."""
        ratios = [
            self.response_rate["lighttrader"][m] / self.response_rate[other][m]
            for m in MODELS
        ]
        return statistics.mean(ratios)

    def efficiency_gain_vs(self, other: str) -> float:
        """Mean TFLOPS/W ratio lighttrader/other."""
        ratios = [
            self.efficiency["lighttrader"][m] / self.efficiency[other][m]
            for m in MODELS
        ]
        return statistics.mean(ratios)

    def table(self) -> str:
        rows = []
        for system in ("lighttrader", "gpu", "fpga"):
            for model in MODELS:
                rows.append(
                    [
                        system,
                        model,
                        f"{self.latency_us[system][model]:.0f}",
                        f"{self.response_rate[system][model]:.1%}",
                        f"{self.efficiency[system][model]:.3f}",
                    ]
                )
        note = (
            f"speed-up vs GPU {self.speedup_vs('gpu'):.2f}x (paper "
            f"{paperdata.FIG11_GPU_SPEEDUP}), vs FPGA {self.speedup_vs('fpga'):.2f}x "
            f"(paper {paperdata.FIG11_FPGA_SPEEDUP}); response gain "
            f"{self.response_gain_vs('gpu'):.2f}/{self.response_gain_vs('fpga'):.2f} "
            f"(paper {paperdata.FIG11_GPU_RESPONSE_GAIN}/{paperdata.FIG11_FPGA_RESPONSE_GAIN}); "
            f"efficiency gain {self.efficiency_gain_vs('gpu'):.1f}/"
            f"{self.efficiency_gain_vs('fpga'):.1f} "
            f"(paper {paperdata.FIG11_GPU_EFFICIENCY_GAIN}/{paperdata.FIG11_FPGA_EFFICIENCY_GAIN})"
        )
        return render_table(
            "Fig. 11: non-batching latency / response rate / TFLOPS/W",
            ["system", "model", "latency (µs)", "response", "TFLOPS/W"],
            rows,
            note=note,
        )


def run_fig11(
    duration_s: float | None = None, seed: int = 1, trace_dir=None, jobs: int | None = None
) -> Fig11Result:
    """Single-accelerator, batch-1 comparison of the three systems."""
    from repro.baselines.profiles import nominal_point

    workload_spec = _headline_spec(duration_s, seed)
    profiles = {
        "lighttrader": lighttrader_profile(),
        "gpu": gpu_profile(),
        "fpga": fpga_profile(),
    }
    nominal = nominal_point()
    latency: dict[str, dict[str, float]] = {}
    response: dict[str, dict[str, float]] = {}
    efficiency: dict[str, dict[str, float]] = {}
    runs: dict[str, dict[str, RunResult]] = {}
    specs = []
    grid = []
    for name, profile in profiles.items():
        latency[name] = {}
        response[name] = {}
        efficiency[name] = {}
        runs[name] = {}
        for model in MODELS:
            point = nominal if isinstance(profile, LightTraderProfile) else None
            latency[name][model] = profile.t_total_ns(model, point, 1) / 1_000.0
            ops = paperdata.TABLE2_TOTAL_OPS[model]
            efficiency[name][model] = profile.effective_tflops_per_watt(model, ops)
            grid.append((name, model))
            specs.append(
                RunSpec(
                    profile=name,
                    config=SimConfig(model=model, n_accelerators=1),
                    workload=workload_spec,
                    run_name=f"fig11-{name}-{model}",
                    trace_dir=trace_dir,
                )
            )
    for (name, model), result in zip(grid, run_many(specs, jobs=jobs)):
        response[name][model] = result.response_rate
        runs[name][model] = result
    return Fig11Result(
        latency_us=latency, response_rate=response, efficiency=efficiency, runs=runs
    )


# --- Fig. 12 -------------------------------------------------------------------


@dataclass(frozen=True)
class Fig12Result:
    """Response rate scaling with the number of accelerators."""

    # condition -> model -> {n: response rate}
    rates: dict[str, dict[str, dict[int, float]]]

    def counts(self) -> tuple[int, ...]:
        """The accelerator counts this sweep actually covered."""
        first_condition = next(iter(self.rates.values()))
        first_series = next(iter(first_condition.values()))
        return tuple(first_series)

    def table(self) -> str:
        counts = self.counts()
        rows = []
        for condition, models in self.rates.items():
            for model, series in models.items():
                rows.append(
                    [condition, model] + [f"{series[n]:.1%}" for n in counts]
                )
        return render_table(
            "Fig. 12: response rate vs number of accelerators",
            ["condition", "model"] + [f"N={n}" for n in counts],
            rows,
            note="paper: rises then saturates; limited power saturates lower",
        )


def run_fig12(
    duration_s: float | None = None,
    seed: int = 1,
    models: tuple[str, ...] = MODELS,
    counts: tuple[int, ...] = paperdata.ACCELERATOR_COUNTS,
    trace_dir=None,
    jobs: int | None = None,
) -> Fig12Result:
    """Sweep accelerator count under both power conditions."""
    workload_spec = _headline_spec(duration_s, seed)
    specs = []
    grid = []
    for condition in ("sufficient", "limited"):
        for model in models:
            for n in counts:
                grid.append((condition, model, n))
                specs.append(
                    RunSpec(
                        profile="lighttrader",
                        config=SimConfig(
                            model=model, n_accelerators=n, power_condition=condition
                        ),
                        workload=workload_spec,
                        run_name=f"fig12-{condition}-{model}-n{n}",
                        trace_dir=trace_dir,
                    )
                )
    rates: dict[str, dict[str, dict[int, float]]] = {}
    for (condition, model, n), result in zip(grid, run_many(specs, jobs=jobs)):
        rates.setdefault(condition, {}).setdefault(model, {})[n] = result.response_rate
    return Fig12Result(rates=rates)


# --- Fig. 13 -------------------------------------------------------------------

SCHEMES = ("baseline", "ws", "ds", "ws+ds")
_SCHEME_FLAGS = {
    "baseline": (False, False),
    "ws": (True, False),
    "ds": (False, True),
    "ws+ds": (True, True),
}


@dataclass(frozen=True)
class Fig13Result:
    """Miss rates under the four scheduling schemes."""

    # condition -> model -> n -> scheme -> miss rate
    miss: dict[str, dict[str, dict[int, dict[str, float]]]]

    def reduction(self, condition: str, model: str, n: int, scheme: str) -> float:
        """Relative miss-rate reduction of ``scheme`` vs baseline."""
        cell = self.miss[condition][model][n]
        if cell["baseline"] == 0:
            return 0.0
        return (cell["baseline"] - cell[scheme]) / cell["baseline"]

    def mean_reduction(
        self, model: str, scheme: str, counts: tuple[int, ...]
    ) -> float:
        """Pooled relative reduction over conditions and ``counts``.

        Pooled (sum of baseline misses vs sum of scheme misses) rather
        than a mean of per-cell ratios: cells whose baseline miss rate is
        already near zero produce meaningless relative numbers.
        """
        base = 0.0
        scheme_total = 0.0
        for condition in self.miss:
            for n in counts:
                cell = self.miss[condition][model].get(n)
                if cell is None:
                    continue
                base += cell["baseline"]
                scheme_total += cell[scheme]
        if base == 0:
            return 0.0
        return (base - scheme_total) / base

    def table(self) -> str:
        rows = []
        for condition, models in self.miss.items():
            for model, series in models.items():
                for n, cell in series.items():
                    rows.append(
                        [condition, model, n]
                        + [f"{cell[s]:.3f}" for s in SCHEMES]
                        + [f"{self.reduction(condition, model, n, 'ws+ds'):+.0%}"]
                    )
        return render_table(
            "Fig. 13: miss rate by scheduling scheme",
            ["condition", "model", "N", "baseline", "ws", "ds", "ws+ds", "Δws+ds"],
            rows,
        )


def run_fig13(
    duration_s: float | None = None,
    seed: int = 1,
    models: tuple[str, ...] = MODELS,
    counts: tuple[int, ...] = paperdata.ACCELERATOR_COUNTS,
    conditions: tuple[str, ...] = ("sufficient", "limited"),
    schemes: tuple[str, ...] = SCHEMES,
    trace_dir=None,
    jobs: int | None = None,
) -> Fig13Result:
    """Sweep scheduling schemes across models, counts and power conditions."""
    workload_spec = _headline_spec(duration_s, seed)
    specs = []
    grid = []
    for condition in conditions:
        for model in models:
            for n in counts:
                for scheme in schemes:
                    ws, ds = _SCHEME_FLAGS[scheme]
                    grid.append((condition, model, n, scheme))
                    specs.append(
                        RunSpec(
                            profile="lighttrader",
                            config=SimConfig(
                                model=model,
                                n_accelerators=n,
                                power_condition=condition,
                                workload_scheduling=ws,
                                dvfs_scheduling=ds,
                            ),
                            workload=workload_spec,
                            run_name=f"fig13-{condition}-{model}-n{n}-{scheme}",
                            trace_dir=trace_dir,
                        )
                    )
    miss: dict[str, dict[str, dict[int, dict[str, float]]]] = {}
    for (condition, model, n, scheme), result in zip(
        grid, run_many(specs, jobs=jobs)
    ):
        miss.setdefault(condition, {}).setdefault(model, {}).setdefault(n, {})[
            scheme
        ] = result.miss_rate
    return Fig13Result(miss=miss)


# --- Degradation (robustness) ---------------------------------------------------

DEGRADATION_SCHEMES = ("baseline", "ws+ds")
DEGRADATION_FAULT_RATES = (0.0, 0.5, 1.0, 2.0)

# P&L proxy constants: an in-time order books the expected edge of one
# opportunity; a late completion or a dropped/lost opportunity forfeits
# the edge and pays half of it again in adverse selection (the stale
# quote gets picked off).  Absolute dollars are arbitrary — the proxy
# exists to rank schemes under the *same* fault plan, not to price runs.
PNL_EDGE_USD = 1.0
PNL_MISS_USD = 0.5


def pnl_proxy(result: RunResult) -> float:
    """Deterministic P&L stand-in computed from a run's outcome counts."""
    misses = result.completed_late + result.dropped
    return result.responded * PNL_EDGE_USD - misses * PNL_MISS_USD


def degradation_plan(
    duration_s: float,
    n_accelerators: int,
    n_ticks: int,
    fault_rate_hz: float,
    seed: int,
) -> FaultPlan | None:
    """One knob → a full fault mix, scaled off ``fault_rate_hz``.

    The composite rate spreads across hard device failures (with a
    bounded downtime so short benchmark runs still see recoveries),
    query corruption, thermal throttling, DMA stalls, and per-tick feed
    perturbations.  ``fault_rate_hz <= 0`` returns None — the
    bit-transparent fault-free path.
    """
    if fault_rate_hz <= 0:
        return None
    return seeded_plan(
        duration_s=duration_s,
        n_accelerators=n_accelerators,
        n_ticks=n_ticks,
        seed=seed,
        device_failure_rate_hz=fault_rate_hz * 0.25,
        failure_downtime_s=min(2.0, duration_s / 4),
        corruption_rate_hz=fault_rate_hz,
        throttle_rate_hz=fault_rate_hz * 0.5,
        throttle_duration_s=min(0.8, duration_s / 8),
        stall_rate_hz=fault_rate_hz * 0.5,
        packet_loss_prob=min(0.01 * fault_rate_hz, 0.2),
        duplicate_prob=min(0.005 * fault_rate_hz, 0.1),
        reorder_prob=min(0.005 * fault_rate_hz, 0.1),
    )


@dataclass(frozen=True)
class DegradationResult:
    """Graceful-degradation sweep: outcome vs fault rate, per scheme."""

    fault_rates: tuple[float, ...]
    miss: dict[str, dict[float, float]]  # scheme -> fault rate -> miss rate
    pnl: dict[str, dict[float, float]]  # scheme -> fault rate -> P&L proxy
    failures: int  # worker-level RunFailures (should be 0)

    def degradation(self, scheme: str, rate: float) -> float:
        """Miss-rate increase at ``rate`` relative to the fault-free run."""
        series = self.miss[scheme]
        return series[rate] - series[self.fault_rates[0]]

    def table(self) -> str:
        rows = []
        for scheme in self.miss:
            for rate in self.fault_rates:
                rows.append(
                    [
                        scheme,
                        f"{rate:.2f}",
                        f"{self.miss[scheme][rate]:.3f}",
                        f"{self.degradation(scheme, rate):+.3f}",
                        f"{self.pnl[scheme][rate]:+.0f}",
                    ]
                )
        note = "proactive scheduling should degrade more slowly than fixed DVFS"
        if self.failures:
            note += f"; WARNING: {self.failures} runs failed"
        return render_table(
            "Degradation: deadline misses and P&L proxy vs fault rate",
            ["scheme", "fault rate (Hz)", "miss rate", "Δ vs fault-free", "P&L proxy"],
            rows,
            note=note,
        )


def run_degradation(
    duration_s: float | None = None,
    seed: int = 1,
    model: str = "deeplob",
    n_accelerators: int = 8,
    fault_rates: tuple[float, ...] = DEGRADATION_FAULT_RATES,
    schemes: tuple[str, ...] = DEGRADATION_SCHEMES,
    trace_dir=None,
    jobs: int | None = None,
) -> DegradationResult:
    """Sweep the composite fault rate for each scheduling scheme.

    Every scheme at a given fault rate runs under the *identical*
    :class:`FaultPlan` (same seed, same events), so the comparison
    isolates the scheduler's resilience rather than fault-plan luck.
    """
    workload_spec = _headline_spec(duration_s, seed)
    n_ticks = len(workload_spec.build())
    specs = []
    grid = []
    for rate in fault_rates:
        plan = degradation_plan(
            workload_spec.duration_s, n_accelerators, n_ticks, rate, seed
        )
        for scheme in schemes:
            ws, ds = _SCHEME_FLAGS[scheme]
            grid.append((scheme, rate))
            specs.append(
                RunSpec(
                    profile="lighttrader",
                    config=SimConfig(
                        model=model,
                        n_accelerators=n_accelerators,
                        workload_scheduling=ws,
                        dvfs_scheduling=ds,
                    ),
                    workload=workload_spec,
                    run_name=f"degradation-{scheme}-r{rate:g}",
                    trace_dir=trace_dir,
                    faults=plan,
                )
            )
    miss: dict[str, dict[float, float]] = {}
    pnl: dict[str, dict[float, float]] = {}
    failures = 0
    for (scheme, rate), result in zip(grid, run_many(specs, jobs=jobs)):
        if isinstance(result, RunFailure):
            failures += 1
            miss.setdefault(scheme, {})[rate] = float("nan")
            pnl.setdefault(scheme, {})[rate] = float("nan")
            continue
        miss.setdefault(scheme, {})[rate] = result.miss_rate
        pnl.setdefault(scheme, {})[rate] = pnl_proxy(result)
    return DegradationResult(
        fault_rates=tuple(fault_rates), miss=miss, pnl=pnl, failures=failures
    )
