"""Scenario campaign CLI: run named seeded campaigns and gate on invariants.

Usage::

    python -m repro.campaign run --campaign smoke --jobs 2
    python -m repro.campaign run --scenario flash_crash --seed 7 --repeat 2
    python -m repro.campaign list

``run`` executes every selected scenario through the bench process pool,
writes ``campaign_report.json`` under ``--dir`` (or
``REPRO_CAMPAIGN_DIR``; with neither, traces go to a temporary
directory that is removed, and no report is kept) and exits nonzero on
any invariant violation, printing one grep-able
``FAIL scenario=… seed=… invariant=…`` line per violation.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign import scenarios as scenario_registry
from repro.campaign.invariants import BUILTIN_INVARIANTS
from repro.campaign.runner import run_campaign
from repro.errors import SimulationError


def _cmd_list(args: argparse.Namespace) -> int:
    print("campaigns:")
    for name in scenario_registry.campaign_names():
        members = ", ".join(
            spec.name for spec in scenario_registry.campaign_scenarios(name)
        )
        print(f"  {name}: {members}")
    print("scenarios:")
    for name in scenario_registry.scenario_names():
        spec = scenario_registry.scenario(name)
        print(f"  {name} (seed offset +{spec.seed_offset}): {spec.description}")
    print("invariants:")
    for invariant in BUILTIN_INVARIANTS:
        print(f"  {invariant.name}: {invariant.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    outcome = run_campaign(
        campaign=args.campaign,
        scenario_names=tuple(args.scenario),
        duration_s=args.duration,
        base_seed=args.seed,
        jobs=args.jobs,
        out_dir=args.dir,
        repeat=args.repeat,
    )
    report = outcome.report
    for run in report["runs"]:
        failed = sorted(
            name for name, verdict in run["verdicts"].items() if verdict == "fail"
        )
        status = "FAIL" if failed else "ok  "
        suffix = f" [{', '.join(failed)}]" if failed else ""
        print(
            f"{status} scenario={run['scenario']} seed={run['seed']} "
            f"pass={run['pass']}{suffix}"
        )
    print(f"report: {outcome.report_path or 'discarded (no --dir or REPRO_CAMPAIGN_DIR)'}")
    if outcome.violations:
        for violation in outcome.violations:
            print(f"FAIL {violation.diagnosis()}", file=sys.stderr)
        print(
            f"campaign failed: {len(outcome.violations)} invariant violation(s) "
            f"across {len(report['runs'])} run(s)",
            file=sys.stderr,
        )
        return 1
    print(
        f"campaign passed: {len(report['runs'])} run(s), "
        f"{len(report['invariants'])} invariants"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a campaign and gate on invariants")
    run_parser.add_argument(
        "--campaign",
        default=None,
        help="named campaign to run (see `list`); mutually exclusive with --scenario",
    )
    run_parser.add_argument(
        "--scenario",
        action="append",
        default=[],
        help="individual scenario to run (repeatable)",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="pool workers (default REPRO_BENCH_JOBS; 1 = inline)",
    )
    run_parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="per-run simulated seconds (default REPRO_CAMPAIGN_DURATION)",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="campaign base seed (default REPRO_CAMPAIGN_SEED); each "
        "scenario adds its own fixed offset",
    )
    run_parser.add_argument(
        "--dir",
        default=None,
        help="output directory for traces and campaign_report.json "
        "(default REPRO_CAMPAIGN_DIR, else a temporary directory that is "
        "removed, and no report is kept)",
    )
    run_parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run each (scenario, seed) N times and audit determinism",
    )
    run_parser.set_defaults(func=_cmd_run)

    list_parser = sub.add_parser(
        "list", help="show registered campaigns, scenarios and invariants"
    )
    list_parser.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
