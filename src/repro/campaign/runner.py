"""Campaign execution: fan scenarios over the bench pool, gate on invariants.

One campaign = a set of named scenarios × a base seed (× an optional
repeat count for determinism auditing), each lowered to a bench
:class:`~repro.bench.runner.RunSpec` and executed through
:func:`repro.bench.runner.run_many` — the same pool, crash containment,
retries and per-run timeout the figure drivers use.  Every run returns
an **evidence** dict (result digest, metric snapshot, trace pointer,
probe outputs); the parent parses each trace once, evaluates the
built-in invariants (:mod:`repro.campaign.invariants`) and aggregates
per-scenario verdicts into ``campaign_report.json``.

The report is schema'd like the metrics run manifest and deliberately
wall-clock-free: for a fixed (scenario, seed) the report bytes are
identical across invocations and job counts, so a campaign can be
committed as a baseline or diffed like any other manifest.  Worker
crashes and timeouts surface as failed ``run_completed`` verdicts naming
the scenario and seed — never as a missing row.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro import envcfg
from repro.bench.runner import RunFailure, WorkloadSpec, profile_for, run_many
from repro.campaign import scenarios as scenario_registry
from repro.campaign.invariants import (
    BUILTIN_INVARIANTS,
    Invariant,
    Violation,
    evaluate_run,
    invariant_names,
)
from repro.campaign.probes import book_integrity_probe, feed_sequence_probe
from repro.errors import SimulationError
from repro.metrics import MetricRegistry
from repro.sim.backtest import Backtester
from repro.telemetry import run_telemetry
from repro.telemetry.report import trace_error
from repro.telemetry.writer import read_events

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CampaignOutcome",
    "CampaignRunSpec",
    "execute_campaign_run",
    "plan_runs",
    "run_campaign",
    "write_report",
]

CAMPAIGN_SCHEMA = "repro.campaign.report/v1"

# The determinism audit (--repeat > 1) reports under this pseudo-invariant.
DETERMINISM = "determinism"


@dataclass(frozen=True)
class CampaignRunSpec:
    """One (scenario, seed, pass) work item for the process pool.

    Carries the pre-resolved seed and workload spec so the parent can
    warm the workload cache before forking (``run_many`` reads the
    ``workload`` attribute), and the worker lowers the scenario to the
    byte-identical run.
    """

    scenario: str
    seed: int
    duration_s: float
    trace_dir: str | None
    run_name: str
    pass_index: int = 0
    workload: WorkloadSpec | None = None


def plan_runs(
    names: "tuple[str, ...]",
    duration_s: float,
    base_seed: int,
    trace_dir: str | None,
    repeat: int = 1,
) -> "list[CampaignRunSpec]":
    """The deterministic work list for one campaign invocation."""
    specs: list[CampaignRunSpec] = []
    for name in names:
        spec = scenario_registry.scenario(name)
        seed = int(base_seed) + spec.seed_offset
        for pass_index in range(max(1, int(repeat))):
            suffix = f"-p{pass_index}" if repeat > 1 else ""
            specs.append(
                CampaignRunSpec(
                    scenario=name,
                    seed=seed,
                    duration_s=float(duration_s),
                    trace_dir=trace_dir,
                    run_name=f"{name}-s{seed}{suffix}",
                    pass_index=pass_index,
                    workload=spec.workload_spec(duration_s, seed),
                )
            )
    return specs


def execute_campaign_run(spec: CampaignRunSpec) -> dict:
    """Run one scenario pass and return its evidence (pool work item).

    Ordinary exceptions are contained *here* (``run_many`` deliberately
    propagates them for bench grids): a failing run becomes evidence
    with an ``error`` field, so the ``run_completed`` invariant — not a
    stack trace in the pool — names the scenario and seed.
    """
    scenario = scenario_registry.scenario(spec.scenario)
    evidence: dict = {
        "scenario": spec.scenario,
        "seed": spec.seed,
        "pass": spec.pass_index,
        "profile": scenario.profile,
        "params": {
            "max_miss_rate": scenario.max_miss_rate,
            "power_epsilon_w": scenario.power_epsilon_w,
        },
        "error": None,
        "trace": f"{spec.run_name}.jsonl" if spec.trace_dir else None,
    }
    try:
        run_spec, seed = scenario.lower(
            spec.duration_s,
            spec.seed - scenario.seed_offset,
            trace_dir=spec.trace_dir,
            run_name=spec.run_name,
        )
        assert seed == spec.seed
        config = run_spec.config
        evidence["config"] = dict(
            dataclasses.asdict(config),
            scheme=config.scheme,
            budget_w=config.budget_w,
        )
        evidence["fault_plan"] = (
            run_spec.faults.counts() if run_spec.faults is not None else {}
        )
        workload = run_spec.workload.build()
        evidence["workload"] = {
            "name": workload.name,
            "ticks": len(workload),
            "scored": workload.scored_count,
        }
        registry = MetricRegistry(enabled=True)
        telemetry = (
            run_telemetry(run_spec.run_name, run_spec.trace_dir)
            if run_spec.trace_dir
            else None
        )
        try:
            result = Backtester(
                workload,
                profile_for(run_spec.profile),
                config,
                telemetry=telemetry,
                faults=run_spec.faults,
                metrics=registry,
            ).run()
        finally:
            if telemetry is not None:
                telemetry.close()
        evidence["result"] = dict(
            dataclasses.asdict(result),
            response_rate=result.response_rate,
            miss_rate=result.miss_rate,
        )
        evidence["metrics"] = registry.public_snapshot()
        feed_faults = {
            "loss_prob": sum(t.packet_loss_prob for t in scenario.faults),
            "duplicate_prob": sum(t.duplicate_prob for t in scenario.faults),
            "reorder_prob": sum(t.reorder_prob for t in scenario.faults),
        }
        evidence["probes"] = {
            "book": book_integrity_probe(seed=spec.seed),
            "feed": feed_sequence_probe(
                seed=spec.seed,
                loss_prob=feed_faults["loss_prob"],
                duplicate_prob=feed_faults["duplicate_prob"],
                reorder_prob=feed_faults["reorder_prob"],
            ),
        }
    except Exception as exc:  # noqa: BLE001 — per-run containment is the point
        evidence["error"] = f"{type(exc).__name__}: {exc}"
    return evidence


def _failure_evidence(spec: CampaignRunSpec, failure: RunFailure) -> dict:
    """Evidence for a run whose worker died or timed out."""
    return {
        "scenario": spec.scenario,
        "seed": spec.seed,
        "pass": spec.pass_index,
        "profile": scenario_registry.scenario(spec.scenario).profile,
        "params": {},
        "error": f"{failure.error} (after {failure.attempts} attempt(s))",
        "trace": None,
    }


def _attach_trace(evidence: dict, spec: CampaignRunSpec) -> list[dict] | None:
    """Parse the run's trace once; classify failures into the evidence."""
    evidence.setdefault("trace_error", None)
    if evidence.get("error") or not spec.trace_dir or not evidence.get("trace"):
        return None
    path = Path(spec.trace_dir) / evidence["trace"]
    error = trace_error(path)
    if error is not None:
        # Strip the absolute path so the report stays location-independent;
        # the trace filename in the evidence already identifies the file.
        evidence["trace_error"] = {
            key: value for key, value in error.items() if key != "path"
        }
        return None
    return read_events(path)


def _comparable(evidence: dict) -> str:
    """The canonical form the determinism audit compares across passes."""
    stripped = {
        key: value for key, value in evidence.items() if key not in ("trace", "pass")
    }
    return json.dumps(stripped, sort_keys=True)


def _env_snapshot() -> dict:
    """Non-path REPRO_* values: path vars (trace dirs, cache dirs) vary by
    invocation without affecting results, and would break the report's
    byte-reproducibility."""
    return {
        var.name: envcfg.raw(var.name)
        for var in envcfg.declared()
        if var.kind != "path"
    }


@dataclass
class CampaignOutcome:
    """Everything a caller (CLI, test, CI gate) needs from one campaign."""

    report: dict
    violations: "list[Violation]"
    report_path: Path | None = None

    @property
    def passed(self) -> bool:
        return not self.violations


def write_report(report: dict, out_dir: "str | Path") -> Path:
    """Write ``campaign_report.json`` (pretty, sorted, trailing newline)."""
    path = Path(out_dir) / "campaign_report.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def run_campaign(
    campaign: str | None = None,
    scenario_names: "tuple[str, ...] | None" = None,
    duration_s: float | None = None,
    base_seed: int | None = None,
    jobs: int | None = None,
    out_dir: "str | Path | None" = None,
    repeat: int = 1,
    invariants: "tuple[Invariant, ...]" = BUILTIN_INVARIANTS,
) -> CampaignOutcome:
    """Execute one campaign and evaluate every invariant.

    ``campaign`` names a registered scenario set; ``scenario_names``
    selects ad hoc.  ``duration_s``/``base_seed`` default to the
    ``REPRO_CAMPAIGN_DURATION``/``REPRO_CAMPAIGN_SEED`` registry values,
    ``out_dir`` to ``REPRO_CAMPAIGN_DIR``.  With neither, the traces go
    to a temporary directory that is removed before returning, and no
    report is written (``report_path`` is None).  ``repeat > 1`` runs
    every (scenario, seed) that many times and audits the passes for
    byte-identical evidence — the determinism guarantee the old chaos
    smoke asserted by hand.
    """
    if campaign is not None and scenario_names:
        raise SimulationError("pass either a campaign name or scenario names")
    if campaign is not None:
        names = tuple(s.name for s in scenario_registry.campaign_scenarios(campaign))
    elif scenario_names:
        names = tuple(scenario_names)
        for name in names:
            scenario_registry.scenario(name)
    else:
        raise SimulationError("a campaign needs a campaign name or scenario names")
    duration = (
        envcfg.get_float(envcfg.CAMPAIGN_DURATION.name)
        if duration_s is None
        else float(duration_s)
    )
    seed = (
        envcfg.get_int(envcfg.CAMPAIGN_SEED.name)
        if base_seed is None
        else int(base_seed)
    )
    if out_dir is None:
        out_dir = envcfg.get_path(envcfg.CAMPAIGN_DIR.name)
    if out_dir is not None:
        report, violations = _execute(
            campaign, names, duration, seed, jobs, repeat, invariants, Path(out_dir)
        )
        report_path = write_report(report, out_dir)
        return CampaignOutcome(report=report, violations=violations, report_path=report_path)
    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as scratch:
        report, violations = _execute(
            campaign, names, duration, seed, jobs, repeat, invariants, Path(scratch)
        )
    return CampaignOutcome(report=report, violations=violations)


def _execute(
    campaign: str | None,
    names: "tuple[str, ...]",
    duration: float,
    seed: int,
    jobs: int | None,
    repeat: int,
    invariants: "tuple[Invariant, ...]",
    out_path: Path,
) -> "tuple[dict, list[Violation]]":
    """Run the campaign with its traces under ``out_path``; returns the
    report and the violations."""
    trace_dir = out_path / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    specs = plan_runs(names, duration, seed, str(trace_dir), repeat=repeat)
    raw_results = run_many(specs, jobs=jobs, worker=execute_campaign_run)

    runs: list[dict] = []
    violations: list[Violation] = []
    comparisons: dict[tuple[str, int], str] = {}
    for spec, outcome in zip(specs, raw_results):
        if isinstance(outcome, RunFailure):
            evidence = _failure_evidence(spec, outcome)
        else:
            evidence = outcome
        events = _attach_trace(evidence, spec)
        verdicts, run_violations = evaluate_run(evidence, events, invariants)
        if repeat > 1:
            key = (spec.scenario, spec.seed)
            canonical = _comparable(evidence)
            baseline = comparisons.setdefault(key, canonical)
            if canonical == baseline:
                verdicts[DETERMINISM] = "pass"
            else:
                verdicts[DETERMINISM] = "fail"
                run_violations.append(
                    Violation(
                        spec.scenario,
                        spec.seed,
                        DETERMINISM,
                        f"pass {spec.pass_index} evidence diverges from pass 0 "
                        "(run is not bit-deterministic)",
                    )
                )
        violations.extend(run_violations)
        runs.append(
            {
                "scenario": spec.scenario,
                "seed": spec.seed,
                "pass": spec.pass_index,
                "verdicts": verdicts,
                "violations": [v.detail for v in run_violations],
                "evidence": evidence,
            }
        )

    checked = list(invariant_names(invariants))
    if repeat > 1:
        checked.append(DETERMINISM)
    report = {
        "schema": CAMPAIGN_SCHEMA,
        "campaign": campaign or "custom",
        "scenarios": list(names),
        "duration_s": duration,
        "base_seed": seed,
        "repeat": max(1, int(repeat)),
        "invariants": checked,
        "env": _env_snapshot(),
        "runs": runs,
        "violations": [v.diagnosis() for v in violations],
        "passed": not violations,
    }
    return report, violations
