"""CLI for run-manifest inspection and regression diffing.

``python -m repro.metrics diff BASELINE CANDIDATE`` compares two run
manifests and exits 1 when any gated metric regressed beyond its
threshold (0 clean, 2 on usage/IO errors), so CI can gate perf-smoke
and chaos-smoke on metric deltas against committed baselines.

``python -m repro.metrics show MANIFEST`` prints a human summary of one
manifest (identity, result digest, metric snapshot).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import SimulationError
from repro.metrics.diff import (
    DEFAULT_REL_TOL,
    diff_manifests,
    render_diff,
)
from repro.metrics.manifest import load_manifest

__all__ = ["main"]


def _parse_threshold(spec: str) -> tuple[str, float]:
    pattern, sep, rel = spec.partition("=")
    if not sep or not pattern:
        raise argparse.ArgumentTypeError(
            f"threshold must be PATTERN=REL, got {spec!r}"
        )
    try:
        value = float(rel)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"threshold value must be a number, got {rel!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("threshold must be >= 0")
    return pattern, value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics",
        description="Run-manifest tooling: regression diff and inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser(
        "diff", help="compare two run manifests; exit 1 on regression"
    )
    diff.add_argument("baseline", help="baseline run_manifest.json")
    diff.add_argument("candidate", help="candidate run_manifest.json")
    diff.add_argument(
        "--rel-tol",
        type=float,
        default=DEFAULT_REL_TOL,
        # argparse %-formats help text, so the rendered "5%" needs a second %.
        help=f"default relative threshold (default {DEFAULT_REL_TOL:.0%}%)",
    )
    diff.add_argument(
        "--threshold",
        action="append",
        default=[],
        type=_parse_threshold,
        metavar="PATTERN=REL",
        help="per-metric override, glob over flattened paths like "
        "'hist:tick_to_trade_ns:p99=0.02' (repeatable, last match wins)",
    )
    diff.add_argument(
        "--format",
        choices=("text", "json", "markdown"),
        default="text",
        help="output format (default text)",
    )

    show = sub.add_parser("show", help="print a summary of one manifest")
    show.add_argument("manifest", help="run_manifest.json to inspect")
    show.add_argument(
        "--json", action="store_true", help="dump the raw manifest as JSON"
    )
    return parser


def _cmd_diff(args: argparse.Namespace) -> int:
    baseline = load_manifest(args.baseline)
    candidate = load_manifest(args.candidate)
    entries = diff_manifests(
        baseline,
        candidate,
        rel_tol=args.rel_tol,
        thresholds=args.threshold,
    )
    print(
        render_diff(
            entries,
            fmt=args.format,
            baseline_name=args.baseline,
            candidate_name=args.candidate,
        )
    )
    regressed = any(e["status"] == "regression" for e in entries)
    return 1 if regressed else 0


def _cmd_show(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    run = manifest.get("run", {})
    print(f"manifest: {args.manifest}")
    for key in sorted(run):
        print(f"  run.{key}: {run[key]}")
    result = manifest.get("result", {})
    for key in sorted(result):
        print(f"  result.{key}: {result[key]}")
    metrics = manifest.get("metrics", {})
    for name, value in sorted(metrics.get("counters", {}).items()):
        print(f"  counter {name}: {value}")
    for name, gauge in sorted(metrics.get("gauges", {}).items()):
        print(f"  gauge {name}: {gauge['value']} (max {gauge['max']})")
    for name, hist in sorted(metrics.get("histograms", {}).items()):
        if hist.get("count"):
            print(
                f"  hist {name}: count={hist['count']} mean={hist['mean']:.1f}"
                f" p50={hist['p50']:.0f} p90={hist['p90']:.0f}"
                f" p99={hist['p99']:.0f}"
            )
        else:
            print(f"  hist {name}: empty")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "diff":
            return _cmd_diff(args)
        return _cmd_show(args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
