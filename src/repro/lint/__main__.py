"""Command-line driver: ``python -m repro.lint``.

Runs the per-file rules (RL001–RL005) over the requested paths and the
whole-program rules (RL007–RL009) over the project model, which is
always built from the full ``src/`` tree so cross-module findings are
caught even when only one file is being linted.  The incremental cache
(``REPRO_LINT_CACHE`` / ``--cache``) makes that full-model build cheap
on warm runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from repro import envcfg
from repro.lint import Finding, all_rules, iter_python_files
from repro.lint.cache import (
    LintCache,
    analyze_paths,
    project_findings_for,
    stale_suppression_findings,
)
from repro.lint.project_rules import all_project_rules

DEFAULT_PATHS = ("src", "scripts", "benchmarks", "examples", "tests")

_EPILOG = """\
exit codes:
  0   clean — no unsuppressed findings (stale suppressions only count
      under --strict-suppressions)
  1   unsuppressed findings remain (or stale suppressions with
      --strict-suppressions)
  2   usage error — a requested path does not exist, or --changed was
      used outside a git checkout
"""


def _stats_payload(findings: list[Finding], files_scanned: int) -> dict[str, object]:
    codes = sorted(all_rules()) + sorted(all_project_rules())
    per_rule: dict[str, dict[str, int]] = {
        code: {"unsuppressed": 0, "suppressed": 0} for code in codes
    }
    for finding in findings:
        bucket = per_rule.setdefault(
            finding.rule, {"unsuppressed": 0, "suppressed": 0}
        )
        bucket["suppressed" if finding.suppressed else "unsuppressed"] += 1
    return {
        "generated_by": "python -m repro.lint --stats",
        "files_scanned": files_scanned,
        "rules": per_rule,
        "total_unsuppressed": sum(r["unsuppressed"] for r in per_rule.values()),
        "total_suppressed": sum(r["suppressed"] for r in per_rule.values()),
    }


def _changed_paths() -> list[Path] | None:
    """Python files touched vs HEAD plus untracked ones, or None when
    not inside a git checkout."""
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", "HEAD", "--"],
            capture_output=True,
            text=True,
            check=True,
        )
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    names = set(diff.stdout.splitlines()) | set(untracked.stdout.splitlines())
    return sorted(
        Path(name) for name in names if name.endswith(".py") and Path(name).exists()
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based checker for the project's determinism, "
        "unit-safety, env-config, hot-path, RNG-stream and fork-safety "
        "invariants. Per-file rules run on the requested paths; "
        "project rules (RL007-RL009) always see the whole src/ tree.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed vs HEAD (git diff + untracked) — "
        "fast pre-commit mode; project rules still see the full tree",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by repro-lint directives",
    )
    parser.add_argument(
        "--strict-suppressions",
        action="store_true",
        help="report suppression directives that match no finding as "
        "RL000 findings (exit 1)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="incremental cache directory (overrides REPRO_LINT_CACHE); "
        "unchanged files skip parsing and rules entirely",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="analyse uncached files in N processes (default 1)",
    )
    parser.add_argument(
        "--stats",
        metavar="FILE",
        help="write per-rule finding/suppression counts as JSON "
        "(benchmarks/results/lint_baseline.json tracks drift across PRs)",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="print wall time and cache hit counts to stderr",
    )
    parser.add_argument(
        "--env-table",
        action="store_true",
        help="print the generated REPRO_* table for EXPERIMENTS.md and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.env_table:
        print(envcfg.env_table_markdown())
        return 0
    if args.list_rules:
        for code, rule_cls in sorted(all_rules().items()):
            print(f"{code} [{rule_cls.name}] (per-file)")
            print(f"    {rule_cls.rationale}")
        for code, project_cls in sorted(all_project_rules().items()):
            print(f"{code} [{project_cls.name}] (whole-program)")
            print(f"    {project_cls.rationale}")
        return 0

    started = time.perf_counter()
    if args.changed:
        changed = _changed_paths()
        if changed is None:
            print("error: --changed requires a git checkout", file=sys.stderr)
            return 2
        roots = changed
    else:
        roots = [Path(p) for p in (args.paths or DEFAULT_PATHS)]
        missing = [p for p in roots if not p.exists()]
        if missing:
            print(
                f"error: no such path: {', '.join(map(str, missing))}",
                file=sys.stderr,
            )
            return 2

    cache: LintCache | None = None
    cache_dir = Path(args.cache) if args.cache else envcfg.get_path("REPRO_LINT_CACHE")
    if cache_dir is not None:
        cache = LintCache(cache_dir)

    result = analyze_paths(roots, cache=cache, jobs=max(1, args.jobs))
    findings = list(result.findings)
    facts = list(result.facts)
    requested_facts = list(result.facts)
    files = result.files_scanned

    # Project rules follow calls across modules: widen the facts to the
    # full src tree (cheap when cached) unless it is already covered by
    # the requested paths.
    src_root = Path("src")
    covered = {f.path for f in facts}
    if src_root.is_dir():
        extra_paths = [
            p
            for p in iter_python_files([src_root])
            if p.as_posix() not in covered
        ]
        if extra_paths:
            extra = analyze_paths(extra_paths, cache=cache, jobs=max(1, args.jobs))
            facts.extend(extra.facts)
    findings.extend(project_findings_for(facts))

    from repro.lint import project_findings as repo_level_findings

    findings.extend(repo_level_findings())
    if args.strict_suppressions:
        # Only the explicitly requested files: the widened project facts
        # would drag the whole tree into a targeted pre-commit run.
        findings.extend(stale_suppression_findings(requested_facts, findings))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))

    unsuppressed = [f for f in findings if not f.suppressed]
    visible = findings if args.show_suppressed else unsuppressed

    if args.format == "json":
        print(json.dumps([f.to_dict() for f in visible], indent=2))
    else:
        for finding in visible:
            print(finding.render())
        suppressed_count = len(findings) - len(unsuppressed)
        print(
            f"{len(unsuppressed)} finding(s), {suppressed_count} suppressed, "
            f"{files} file(s) scanned"
        )

    if args.stats:
        stats_path = Path(args.stats)
        stats_path.parent.mkdir(parents=True, exist_ok=True)
        stats_path.write_text(json.dumps(_stats_payload(findings, files), indent=2))

    if args.timing:
        elapsed = time.perf_counter() - started
        hits = cache.hits if cache is not None else 0
        print(
            f"lint: {elapsed:.3f}s, {files} file(s), {hits} cache hit(s)",
            file=sys.stderr,
        )

    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
