"""Chaos smoke: a seeded fault storm must degrade the system, not crash it.

Thin CI wrapper over the scenario campaign engine: runs the ``chaos``
campaign (the layered fault storm, the device-failure cascade and the
feed-outage storm) twice per seed (``--repeat 2``), so every built-in
invariant — crash containment, bounded miss rate, queue/offload
conservation, book integrity, quarantine isolation, power budget, feed
resync accounting — plus the cross-pass determinism audit gates the
storm.  The bespoke grid asserts this script used to carry now live in
:mod:`repro.campaign.invariants`; the one check that stays here is that
the storm actually *bit*: the chaos run's counters must record applied
faults, quarantines and feed perturbations, otherwise the campaign
passed vacuously.

Exit code 0 on success; CI runs this as the ``campaign-smoke`` job:

    PYTHONPATH=src python scripts/chaos_smoke.py [duration_s] [seed]
"""

import sys

from repro.campaign.runner import run_campaign


def check_storm_observed(report: dict) -> int:
    """The chaos_storm run's counters must show the storm actually bit."""
    evidence = next(
        (
            run["evidence"]
            for run in report["runs"]
            if run["scenario"] == "chaos_storm" and run["pass"] == 0
        ),
        None,
    )
    if evidence is None:
        print("FAIL: chaos campaign produced no chaos_storm evidence")
        return 1
    counters = evidence.get("metrics", {}).get("counters", {})
    status = 0
    applied = {
        name: count
        for name, count in counters.items()
        if name.startswith("faults.applied.")
    }
    if not applied or sum(applied.values()) == 0:
        print("FAIL: fault storm ran but faults.applied.* counters are empty")
        status = 1
    if counters.get("device.quarantines", 0) == 0:
        print("FAIL: device failures injected but device.quarantines == 0")
        status = 1
    feed_observed = (
        counters.get("faults.feed_dropped", 0)
        + counters.get("faults.feed_duplicates_suppressed", 0)
        + counters.get("faults.feed_reordered", 0)
        + counters.get("faults.stalled_arrivals", 0)
    )
    if feed_observed == 0:
        print("FAIL: feed faults injected but no feed perturbation counters")
        status = 1
    if status == 0:
        summary = ", ".join(
            f"{k.split('.')[-1]}={v}" for k, v in sorted(applied.items())
        )
        print(
            f"fault counters OK: {summary}; "
            f"quarantines={counters.get('device.quarantines', 0)}, "
            f"feed perturbations={feed_observed}"
        )
    return status


def main() -> int:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 3.0
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    outcome = run_campaign(
        campaign="chaos", duration_s=duration, base_seed=seed, repeat=2
    )
    for violation in outcome.violations:
        print(f"FAIL {violation.diagnosis()}")
    status = 0 if outcome.passed else 1
    status |= check_storm_observed(outcome.report)
    if status == 0:
        report = outcome.report
        print(
            f"chaos smoke OK: {len(report['runs'])} runs "
            f"({len(report['scenarios'])} scenarios x {report['repeat']} passes), "
            f"{len(report['invariants'])} invariants, deterministic"
        )
    print(f"report: {outcome.report_path or 'discarded (REPRO_CAMPAIGN_DIR unset)'}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
