"""Figure-driver CLI: ``python -m repro.bench fig13 --jobs 4``.

Runs one (or every) figure reproduction and prints its rendered table.
``--jobs`` fans the figure's independent back-tests across a process
pool (``REPRO_BENCH_JOBS`` sets the default); ``--duration`` overrides
the simulated market time the same way ``REPRO_BENCH_DURATION`` does.
"""

from __future__ import annotations

import argparse

from repro.bench.experiments import (
    bench_duration_s,
    run_degradation,
    run_fig8,
    run_fig11,
    run_fig12,
    run_fig13,
)
from repro.bench.runner import default_jobs

_FIGURES = {
    "fig8": run_fig8,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "degradation": run_degradation,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument(
        "figure",
        choices=[*_FIGURES, "all"],
        help="which figure reproduction to run",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=f"parallel back-test workers (default: REPRO_BENCH_JOBS or {default_jobs()})",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help=f"simulated seconds per run (default: {bench_duration_s():g})",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload seed (default: 1)"
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="write per-run JSONL telemetry traces into this directory",
    )
    args = parser.parse_args(argv)

    names = list(_FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        result = _FIGURES[name](
            duration_s=args.duration,
            seed=args.seed,
            trace_dir=args.trace_dir,
            jobs=args.jobs,
        )
        print(result.table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
