"""Scenario campaign engine: registry, invariants, runner, CLI gate."""

import dataclasses
import json
import tempfile

import pytest

from repro.campaign import __main__ as campaign_cli
from repro.campaign.invariants import (
    BUILTIN_INVARIANTS,
    BookIntegrity,
    BoundedMissRate,
    MonotoneSequenceAfterResync,
    NoNegativeQueueDepth,
    OffloadConservation,
    PowerBudget,
    QuarantineIsolation,
    RunCompleted,
    TraceReadable,
    Violation,
    evaluate_run,
    invariant_names,
)
from repro.campaign.probes import book_integrity_probe, feed_sequence_probe
from repro.campaign.runner import run_campaign
from repro.campaign.scenarios import (
    CAMPAIGNS,
    campaign_scenarios,
    register_scenario,
    scenario,
    scenario_names,
)
from repro.errors import SimulationError
from repro.faults.plan import FaultEvent, FaultPlan, merge_plans
from repro.units import sec_to_ns

DURATION = 0.8  # simulated seconds: enough queries to score, fast in CI


# --- merge_plans -----------------------------------------------------------------


def test_merge_plans_orders_by_time_then_kind_then_position():
    t = sec_to_ns(0.5)
    a = FaultPlan(
        events=(
            FaultEvent(t_ns=t, kind="thermal_throttle", accel_id=0),
            FaultEvent(t_ns=t, kind="device_failure", accel_id=1),
        ),
        seed=7,
    )
    b = FaultPlan(
        events=(
            FaultEvent(t_ns=t, kind="device_failure", accel_id=2),
            FaultEvent(t_ns=sec_to_ns(0.1), kind="dma_stall", accel_id=None),
        ),
        seed=7,
    )
    merged = merge_plans(a, b)
    assert [e.kind for e in merged.events] == [
        "dma_stall",  # earliest time wins outright
        "device_failure",  # same t: kind breaks the tie alphabetically
        "device_failure",  # same (t, kind): concatenation position (a before b)
        "thermal_throttle",
    ]
    # Same (t, kind): plan a's event precedes plan b's.
    assert merged.events[1].accel_id == 1
    assert merged.events[2].accel_id == 2
    assert merged.seed == 7


def test_merge_plans_empty_and_seed_handling():
    assert merge_plans().empty
    assert merge_plans(FaultPlan(), FaultPlan()).empty
    only = FaultPlan(
        events=(FaultEvent(t_ns=1, kind="device_failure", accel_id=0),), seed=3
    )
    assert merge_plans(FaultPlan(), only).seed == 3
    mixed = merge_plans(
        only, FaultPlan(events=only.events, seed=4)
    )
    assert mixed.seed is None  # no single seed describes the merge
    assert len(mixed.events) == 2


# --- scenario registry and lowering ----------------------------------------------


def test_registry_knows_builtin_scenarios_and_campaigns():
    assert "nominal" in scenario_names()
    assert "flash_crash" in scenario_names()
    assert set(CAMPAIGNS["smoke"]) <= set(scenario_names())
    assert [s.name for s in campaign_scenarios("smoke")][0] == "nominal"
    with pytest.raises(SimulationError):
        scenario("no_such_scenario")


def test_scenario_lowering_is_deterministic():
    spec_a, seed_a = scenario("flash_crash").lower(DURATION, 5)
    spec_b, seed_b = scenario("flash_crash").lower(DURATION, 5)
    assert seed_a == seed_b == 5 + scenario("flash_crash").seed_offset
    assert spec_a == spec_b  # frozen dataclasses all the way down
    other, _ = scenario("flash_crash").lower(DURATION, 6)
    assert other.workload != spec_a.workload


def test_scenario_seed_offsets_are_distinct():
    offsets = [scenario(name).seed_offset for name in scenario_names()]
    assert len(offsets) == len(set(offsets))


# --- probes ----------------------------------------------------------------------


def test_book_probe_reproduces_and_finds_no_violations():
    probe = book_integrity_probe(seed=11, duration_s=0.2)
    assert probe["checksum"] == probe["checksum_repeat"]
    assert probe["ticks"] == probe["ticks_repeat"] > 0
    assert probe["violations"] == []


def test_feed_probe_accounting_is_exact_under_perturbation():
    probe = feed_sequence_probe(
        seed=3, loss_prob=0.05, duplicate_prob=0.04, reorder_prob=0.04
    )
    assert probe["accepted_monotone"]
    assert probe["duplicates_ordered"]
    assert probe["lost_packets"] == probe["expected_lost"]
    assert probe["duplicates"] == probe["expected_duplicates"]
    assert probe["planned"]["loss"] > 0  # the perturbation actually sampled


# --- invariants fire on synthetic violations -------------------------------------


def _passing_evidence() -> dict:
    return {
        "scenario": "synthetic",
        "seed": 9,
        "profile": "lighttrader",
        "params": {"max_miss_rate": 0.5, "power_epsilon_w": 1e-6},
        "config": {"max_pending": 128, "budget_w": 55.0},
        "result": {"responded": 100, "miss_rate": 0.1},
        "metrics": {
            "counters": {
                "offload.admitted": 10,
                "queries.responded": 6,
                "queries.completed_late": 2,
                "queries.dropped": 1,
                "queries.unscored": 1,
            },
            "gauges": {"offload.queue_depth_high_water": {"value": 128.0}},
        },
        "probes": {
            "book": {
                "checksum": "ab",
                "checksum_repeat": "ab",
                "ticks": 5,
                "violations": [],
            },
            "feed": {
                "accepted_monotone": True,
                "duplicates_ordered": True,
                "lost_packets": 3,
                "expected_lost": 3,
                "duplicates": 2,
                "expected_duplicates": 2,
            },
        },
        "error": None,
        "trace_error": None,
    }


def test_synthetic_evidence_passes_every_builtin():
    verdicts, violations = evaluate_run(_passing_evidence(), events=[])
    assert violations == []
    assert set(verdicts) == set(invariant_names())
    assert set(verdicts.values()) == {"pass"}


def test_run_completed_fires_on_error():
    evidence = _passing_evidence()
    evidence["error"] = "RuntimeError: boom"
    assert RunCompleted().check(evidence, None)


def test_trace_readable_fires_on_trace_error():
    evidence = _passing_evidence()
    evidence["trace_error"] = {"error": "corrupt_trace", "line": 3}
    (detail,) = TraceReadable().check(evidence, None)
    assert "corrupt_trace" in detail


def test_bounded_miss_rate_fires_on_breach_and_wedge():
    evidence = _passing_evidence()
    evidence["result"] = {"responded": 100, "miss_rate": 0.51}
    assert "exceeds" in BoundedMissRate().check(evidence, None)[0]
    evidence["result"] = {"responded": 0, "miss_rate": 1.0}
    details = BoundedMissRate().check(evidence, None)
    assert any("zero queries" in d for d in details)


def test_negative_queue_depth_fires_and_cap_equality_passes():
    evidence = _passing_evidence()
    evidence["metrics"]["counters"]["offload.rejected"] = -1
    details = NoNegativeQueueDepth().check(evidence, None)
    assert any("negative" in d for d in details)
    evidence = _passing_evidence()
    # High-water EQUAL to max_pending is legal (cap reached, not breached)…
    assert NoNegativeQueueDepth().check(evidence, None) == []
    # …one past it is not.
    evidence["metrics"]["gauges"]["offload.queue_depth_high_water"]["value"] = 129.0
    assert NoNegativeQueueDepth().check(evidence, None)


def test_offload_conservation_fires_on_leak():
    evidence = _passing_evidence()
    evidence["metrics"]["counters"]["queries.dropped"] = 0  # one query vanishes
    (detail,) = OffloadConservation().check(evidence, None)
    assert "offload.admitted 10" in detail


def test_book_integrity_fires_on_checksum_mismatch_and_structure():
    evidence = _passing_evidence()
    evidence["probes"]["book"]["checksum_repeat"] = "cd"
    assert any(
        "checksum diverged" in d for d in BookIntegrity().check(evidence, None)
    )
    evidence = _passing_evidence()
    evidence["probes"]["book"]["violations"] = ["seq 4: crossed book"]
    assert any("crossed book" in d for d in BookIntegrity().check(evidence, None))


def test_quarantine_isolation_fires_on_issue_inside_window():
    evidence = _passing_evidence()
    events = [
        {"type": "fault", "kind": "device_failure", "accel_id": 0, "t_ns": 1_000},
        {"type": "fault", "kind": "device_recovery", "accel_id": 0, "t_ns": 9_000},
        {
            "type": "query",
            "query_id": 42,
            "outcome": "in_time",
            "accel_id": 0,
            "arrival_ns": 2_000,
            "stages": {"queue_wait": 100},
        },
    ]
    (detail,) = QuarantineIsolation().check(evidence, events)
    assert "query 42" in detail and "quarantine" in detail
    # The same query on a healthy device is fine.
    events[2]["accel_id"] = 1
    assert QuarantineIsolation().check(evidence, events) == []


def test_power_budget_fires_on_over_budget_sample():
    evidence = _passing_evidence()
    events = [{"type": "power", "t_ns": 5, "watts": 55.2}]
    (detail,) = PowerBudget().check(evidence, events)
    assert "55.2" in detail
    # Non-LightTrader profiles have no budget to enforce.
    evidence["profile"] = "gpu"
    assert PowerBudget().check(evidence, events) == []


def test_sequence_invariant_fires_on_accounting_mismatch():
    evidence = _passing_evidence()
    evidence["probes"]["feed"]["lost_packets"] = 4
    assert any(
        "lost-packet accounting" in d
        for d in MonotoneSequenceAfterResync().check(evidence, None)
    )
    evidence = _passing_evidence()
    evidence["probes"]["feed"]["accepted_monotone"] = False
    assert MonotoneSequenceAfterResync().check(evidence, None)


def test_evaluate_run_names_scenario_seed_invariant():
    evidence = _passing_evidence()
    evidence["error"] = "Boom"
    verdicts, violations = evaluate_run(evidence, None)
    assert verdicts["run_completed"] == "fail"
    violation = violations[0]
    assert isinstance(violation, Violation)
    assert violation.scenario == "synthetic" and violation.seed == 9
    diagnosis = violation.diagnosis()
    assert "scenario=synthetic" in diagnosis
    assert "seed=9" in diagnosis
    assert "invariant=run_completed" in diagnosis


# --- end-to-end campaign ---------------------------------------------------------


def test_mini_campaign_passes_and_report_is_byte_reproducible(tmp_path):
    first = run_campaign(
        scenario_names=("nominal", "feed_outage_storm"),
        duration_s=DURATION,
        base_seed=1,
        jobs=1,
        out_dir=tmp_path / "a",
    )
    assert first.passed
    assert first.report["schema"] == "repro.campaign.report/v1"
    assert len(first.report["runs"]) == 2
    for run in first.report["runs"]:
        assert set(run["verdicts"].values()) == {"pass"}
    second = run_campaign(
        scenario_names=("nominal", "feed_outage_storm"),
        duration_s=DURATION,
        base_seed=1,
        jobs=1,
        out_dir=tmp_path / "b",
    )
    # Different output directories, byte-identical reports.
    assert first.report_path.read_bytes() == second.report_path.read_bytes()


def test_campaign_without_a_directory_leaves_nothing_behind(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CAMPAIGN_DIR", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    outcome = run_campaign(
        scenario_names=("nominal",), duration_s=DURATION, base_seed=1, jobs=1
    )
    assert outcome.passed and outcome.report["runs"]
    assert outcome.report_path is None
    assert list(tmp_path.iterdir()) == []


def test_campaign_repeat_audits_determinism(tmp_path):
    outcome = run_campaign(
        scenario_names=("nominal",),
        duration_s=DURATION,
        base_seed=1,
        jobs=1,
        repeat=2,
        out_dir=tmp_path,
    )
    assert outcome.passed
    assert "determinism" in outcome.report["invariants"]
    assert all(
        run["verdicts"]["determinism"] == "pass" for run in outcome.report["runs"]
    )


def test_broken_scenario_fails_with_one_line_diagnosis(tmp_path, capsys):
    # A deliberately impossible bound: any miss rate (even 0) breaches it.
    register_scenario(
        dataclasses.replace(
            scenario("nominal"), name="broken_nominal", max_miss_rate=-1.0
        ),
        replace=True,
    )
    status = campaign_cli.main(
        [
            "run",
            "--scenario",
            "broken_nominal",
            "--duration",
            str(DURATION),
            "--jobs",
            "1",
            "--seed",
            "4",
            "--dir",
            str(tmp_path),
        ]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert "FAIL scenario=broken_nominal seed=4 invariant=bounded_miss_rate" in err
    report = json.loads((tmp_path / "campaign_report.json").read_text())
    assert report["passed"] is False
    assert report["runs"][0]["verdicts"]["bounded_miss_rate"] == "fail"


def test_cli_list_shows_registry(capsys):
    assert campaign_cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "smoke:" in out
    assert "flash_crash" in out
    for invariant in BUILTIN_INVARIANTS:
        assert invariant.name in out


def test_worker_failure_is_contained_as_run_completed_violation(tmp_path):
    # An unknown model makes the backtest raise inside the worker; the
    # campaign must contain it as a failed run_completed verdict naming
    # the scenario, never an unhandled exception.
    register_scenario(
        dataclasses.replace(
            scenario("nominal"), name="doomed_nominal", model="no_such_model"
        ),
        replace=True,
    )
    outcome = run_campaign(
        scenario_names=("doomed_nominal",),
        duration_s=DURATION,
        base_seed=1,
        jobs=1,
        out_dir=tmp_path,
    )
    assert not outcome.passed
    assert any(
        v.invariant == "run_completed" and v.scenario == "doomed_nominal"
        for v in outcome.violations
    )
