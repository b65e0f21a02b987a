"""Maintain the committed static-analysis baseline.

``benchmarks/results/lint_baseline.json`` records, per rule, how many
findings the repo carries (unsuppressed — must be zero — and suppressed,
which measure accumulated ``repro-lint: disable`` debt).  Two modes:

    PYTHONPATH=src python scripts/lint_baseline.py            # regenerate
    PYTHONPATH=src python scripts/lint_baseline.py --check    # CI gate

``--check`` fails (exit 1) when the current tree has any unsuppressed
finding or carries *more* suppressions than the committed baseline — new
suppression debt must be taken deliberately, by regenerating the file in
the same PR that adds the directive.  Fewer suppressions than baseline
only prints a hint to regenerate.

Exit code 0 on success; CI runs this in the ``static-analysis`` job.
"""

import json
import sys
from pathlib import Path

from repro.lint.__main__ import DEFAULT_PATHS, _stats_payload
from repro.lint import analyze, project_findings, project_findings_for

BASELINE = Path("benchmarks/results/lint_baseline.json")


def current_stats() -> dict:
    roots = [Path(p) for p in DEFAULT_PATHS if Path(p).exists()]
    # DEFAULT_PATHS covers src/, so the project rules (RL007–RL009)
    # see the whole tree.
    findings, facts = analyze(roots)
    findings.extend(project_findings_for(facts))
    findings.extend(project_findings())
    return _stats_payload(findings, len(facts))


def main() -> int:
    check = "--check" in sys.argv[1:]
    stats = current_stats()

    if not check:
        BASELINE.parent.mkdir(parents=True, exist_ok=True)
        BASELINE.write_text(json.dumps(stats, indent=2) + "\n")
        print(
            f"wrote {BASELINE}: {stats['total_unsuppressed']} finding(s), "
            f"{stats['total_suppressed']} suppression(s), "
            f"{stats['files_scanned']} file(s)"
        )
        return 0

    failures = []
    if stats["total_unsuppressed"]:
        failures.append(
            f"{stats['total_unsuppressed']} unsuppressed finding(s) — "
            "run `PYTHONPATH=src python -m repro.lint` for locations"
        )
    if not BASELINE.exists():
        failures.append(f"missing {BASELINE} — regenerate it and commit")
    else:
        committed = json.loads(BASELINE.read_text())
        before = committed.get("total_suppressed", 0)
        after = stats["total_suppressed"]
        if after > before:
            failures.append(
                f"suppression debt grew {before} -> {after}; if deliberate, "
                f"regenerate {BASELINE} in this PR"
            )
        elif after < before:
            print(
                f"note: suppressions shrank {before} -> {after}; "
                f"consider regenerating {BASELINE}"
            )

    for failure in failures:
        print(f"lint-baseline: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"lint baseline OK: 0 findings, {stats['total_suppressed']} "
            f"suppression(s) (baseline allows "
            f"{json.loads(BASELINE.read_text()).get('total_suppressed', 0)})"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
