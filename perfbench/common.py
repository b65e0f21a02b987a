"""Helpers shared by the workloads: statistics, digests, process state."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Host speed drifts: a fixed pure-Python loop swings by up to +-25% in
# phases lasting seconds, numpy kernels by more, and medians of separate
# processes differ by as much.  Every timed interval is therefore
# bracketed by timings of a fixed reference kernel, half interpreter
# loop and half small float32 matrix products (the two kinds of work the
# workloads do), and times are reported in reference seconds: host
# seconds scaled by REFERENCE_KERNEL_S over the kernel's time around
# that interval.  Both the raw and the scaled figures are printed.
REFERENCE_KERNEL_S = 0.003
_LOOP_ITERATIONS = 20_000
_PRODUCTS = 200
_A = np.random.default_rng(1).standard_normal((97, 64)).astype(np.float32)
_B = np.random.default_rng(2).standard_normal((64, 16)).astype(np.float32)


@dataclass
class Outcome:
    """What one workload's measured phase produced.

    ``e2e`` and ``layers`` map metric names (as in ``BENCHMARK.json``) to
    values; ``report`` holds human-readable lines printed before the
    result, every simulated number labelled as such.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)

    def fail(self, problem: str, count: int = 1) -> None:
        """Count ``count`` failed operations and keep the first problems."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def time_kernel() -> float:
    """Seconds the fixed reference kernel takes right now."""
    start = perf_counter()
    total = 0
    for i in range(_LOOP_ITERATIONS):
        total += i * i % 7
    for __ in range(_PRODUCTS):
        np.maximum(_A @ _B, 0.0)
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor turning host seconds into reference seconds for an interval
    bracketed by kernel timings ``before`` and ``after``."""
    return 2 * REFERENCE_KERNEL_S / (before + after)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def _canonical(value):
    """JSON-able form in which every float is exact and NaN is comparable."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(value) -> str:
    """sha256 of a canonical, hash-seed-independent JSON rendering."""
    text = json.dumps(
        _canonical(value), sort_keys=True, allow_nan=False, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clear_package_caches() -> None:
    """Empty every ``functools`` cache defined in the ``repro`` package.

    Set-up is repeated within one process; clearing first makes every
    repetition pay the cold-start work (model compilation, calibration)
    that a fresh process pays.
    """
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", "").startswith(
                "repro."
            ):
                clear()
