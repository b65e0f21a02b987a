"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload feed-to-order --seed 7 --seconds 20 --trace 0

Everything runs in this one process: set-up (repeated, median reported),
a timed phase of ``--seconds``, output checks, then a report whose last
line is the JSON result.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run and writes
its spans to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("backtest-wsds", "backtest-fifo", "feed-to-order")
SETUP_REPEATS = 5
TRACE_DIR = ROOT / ".perfbench"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _pin_environment() -> list[str]:
    """Drop every ``REPRO_*`` variable so the default code path runs:
    they select reference twins, caches, tracing and metric export.  The
    process runs one thread, so BLAS is held to one as well."""
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    return names


def _workload(name: str):
    """(set-up, measure) for a workload name."""
    from perfbench import backtests, feed

    if name == "feed-to-order":
        return feed.setup, feed.measure
    variant = name.split("-", 1)[1]
    return (
        lambda seed: backtests.setup(seed, variant),
        lambda inputs, seconds, traced: backtests.measure(inputs, seconds, traced, ROOT),
    )


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    dropped = _pin_environment()
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: repro comes from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import common
    from perfbench.layers import END_TO_END, PER_LAYER, describe_layers
    from perfbench.tracing import write_spans

    setup, measure = _workload(args.workload)
    host_setup_s = []
    setup_s = []  # reference seconds
    setup_ms: dict[str, list[float]] = {}
    for __ in range(SETUP_REPEATS):
        common.clear_package_caches()
        inputs = None  # release the previous repetition's inputs first
        before = common.time_kernel()
        start = perf_counter()
        inputs = setup(args.seed)
        took = perf_counter() - start
        factor = common.scale(before, common.time_kernel())
        host_setup_s.append(took)
        setup_s.append(took * factor)
        for name, value in inputs.setup_ms.items():
            setup_ms.setdefault(name, []).append(value * factor)
    outcome = measure(inputs, args.seconds, bool(args.trace))

    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}"
    )
    if dropped:
        print(f"environment: ignored {', '.join(dropped)}")
    print(
        f"set-up: {', '.join(f'{s:.3f}' for s in setup_s)} reference s "
        f"({', '.join(f'{s:.3f}' for s in host_setup_s)} host s)"
    )
    for line in outcome.report:
        print(line)
    print(f"digest {outcome.digest}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")

    if args.trace:
        values = {name: common.median(v) for name, v in setup_ms.items()}
        values.update(outcome.layers)
        table = [(name, unit) for name, unit, *__ in PER_LAYER]
        if outcome.spans:
            path = TRACE_DIR / f"trace-{args.workload}.jsonl"
            write_spans(path, outcome.spans)
            print(f"spans: {len(outcome.spans)} rows in {path.relative_to(ROOT)}")
        print("layer predictions:")
        print("\n".join(describe_layers()))
    else:
        values = {
            "setup_s": common.median(setup_s),
            "peak_rss_mb": common.peak_rss_mb(),
            **outcome.e2e,
        }
        table = [(name, unit) for name, unit, __ in END_TO_END]
    # Layers that do not run on this workload report 0.
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in table
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": outcome.failed == 0 and bool(outcome.digest),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
