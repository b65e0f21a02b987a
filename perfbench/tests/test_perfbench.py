"""Self-tests for the benchmark: metric names, output checks, digests.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
Inputs are kept small; the checks themselves are the benchmark's.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import backtests, feed
from perfbench.layers import END_TO_END, PER_LAYER
from perfbench.tracing import SpanLog
from repro.metrics import MetricRegistry
from repro import Backtester
from repro.pipeline import TradingEngine

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def feed_inputs():
    return feed.setup(seed=3, session_s=1.5)


@pytest.fixture(scope="module")
def fifo_inputs():
    return backtests.setup(seed=3, variant="fifo", traffic_s=20.0)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]


@pytest.mark.parametrize("trace, table", [(0, END_TO_END), (1, PER_LAYER)])
def test_printed_metrics_match_benchmark_json(trace, table, tmp_path):
    env = dict(os.environ, REPRO_FAST_LOOP="0", REPRO_TRACE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "feed-to-order", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, env=env, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [r[:2] for r in table]
    assert "environment: ignored REPRO_FAST_LOOP, REPRO_TRACE_DIR" in lines
    assert not any(tmp_path.iterdir())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "backtest-wsds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_backtest_checks_pass_and_fire_on_perturbed_counts(fifo_inputs):
    block = fifo_inputs.blocks[1]
    for profile, config in fifo_inputs.systems:
        result = Backtester(block, profile, config, metrics=MetricRegistry()).run()
        assert backtests.check_result(result, block, profile, config) == []
        for field in ("responded", "completed_late", "dropped", "n_queries"):
            bad = dataclasses.replace(result, **{field: getattr(result, field) + 1})
            assert backtests.check_result(bad, block, profile, config)
        peak = max(result.peak_power_w, config.budget_w * 1.01)
        over = dataclasses.replace(result, peak_power_w=peak)
        # The rail budget binds LightTrader only; GPU and FPGA draw more.
        assert bool(backtests.check_result(over, block, profile, config)) == (
            profile.name == "lighttrader"
        )


def test_backtest_traced_digest_equals_untraced(fifo_inputs):
    small = dataclasses.replace(fifo_inputs, blocks=fifo_inputs.blocks[:2])
    plain = backtests.measure(small, 0.01, traced=False, root=ROOT)
    traced = backtests.measure(small, 0.5, traced=True, root=ROOT)
    assert plain.failed == traced.failed == 0
    assert plain.digest and plain.digest == traced.digest
    assert traced.layers["trace.attributed_ratio"] > 0.9
    assert traced.layers["pipeline.offload.self_us_per_query"] > 0


def test_feed_pass_checks_out_and_digest_repeats(feed_inputs):
    first = feed.replay(feed_inputs)
    assert first.failed == 0, first.problems
    assert first.queries == first.snapshots - (feed.WINDOW - 1)
    assert first.accepted > 0
    spans = SpanLog()
    traced = feed.replay(feed_inputs, spans)
    assert traced.failed == 0 and traced.digest == first.digest
    self_ns = spans.self_ns(traced.first_filled, traced.factors)
    layers = sum(self_ns[name] for name in feed.LAYERS)
    assert layers / (layers + self_ns[feed.TICK]) > 0.9


def test_feed_checks_fire_on_a_dropped_frame(feed_inputs):
    frames = list(feed_inputs.frames)
    lost = next(i for i in range(len(frames) // 2, len(frames)) if feed_inputs.event_counts[i])
    del frames[lost]
    result = feed.replay(dataclasses.replace(feed_inputs, frames=frames))
    assert result.failed > 0


def test_order_check_fires_on_every_flipped_byte(feed_inputs):
    engine = TradingEngine()
    tick = feed_inputs.tape[-1]
    decision = engine.on_inference(np.array([0.0, 0.1, 0.9]), tick.snapshot, tick.timestamp)
    assert decision.acted
    assert feed.check_order(decision, 1, tick.timestamp, engine) is None
    for position in range(len(decision.encoded)):
        flipped = bytearray(decision.encoded)
        flipped[position] ^= 0x01
        bad = dataclasses.replace(decision, encoded=bytes(flipped))
        assert feed.check_order(bad, 1, tick.timestamp, engine), position


def test_digests_independent_of_hash_seed():
    script = (
        "from perfbench import backtests, feed; from pathlib import Path;"
        "f = feed.setup(seed=4, session_s=1.0); print(feed.replay(f).digest);"
        "b = backtests.setup(seed=4, variant='wsds', traffic_s=10.0);"
        "print(backtests.measure(b, 0.01, traced=False, root=Path('.')).digest)"
    )
    digests = set()
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1
