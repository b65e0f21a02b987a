"""Shared fixtures for the figure and table drivers.

Each driver regenerates one paper table/figure (or one ablation) via
:mod:`repro.bench.experiments`, runs it under pytest-benchmark,
prints the rendered table, and writes it to ``benchmarks/results/`` so
EXPERIMENTS.md can be assembled from the same artifacts.  The drivers
reproduce results, not speed: wall-clock speed is measured by
``python3 perfbench/run.py`` against the bounds in ``BENCHMARK.json``.

Workload sizing: REPRO_BENCH_DURATION (seconds of simulated market time,
default 60) controls simulation length; the calibration targets in
EXPERIMENTS.md were measured at 300 s.

Observability: set REPRO_TRACE_DIR to make every back-test a benchmark
drives write a per-run JSONL telemetry trace there (rendered with
``python -m repro.telemetry.report <dir>``).
"""

import pathlib

import pytest

from repro import envcfg
from repro.telemetry import TRACE_DIR_ENV, configure_logging

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _logging_and_trace_note():
    log = configure_logging()
    trace_dir = envcfg.get_path(TRACE_DIR_ENV)
    if trace_dir:
        log.info("telemetry enabled: JSONL traces land in %s", trace_dir)
    yield


@pytest.fixture
def record_table(request):
    """Return a callable that prints + persists a rendered table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        print("\n" + text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _record
