"""Metric tables: the names the benchmark prints and what each should move.

``BENCHMARK.json`` carries the same names, units and directions (the
self-tests hold the two equal).  Each per-layer row also records, before
any optimisation is measured, which end-to-end metric it should move on
which workload and where it is predicted flat; traced runs print this
beside the values.  A layer that does not run on a workload reports 0.
"""

from __future__ import annotations

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("op_host_p50_us", "us", "lower"),
    ("op_host_p90_us", "us", "lower"),
)

_WSDS = "queries_per_s on backtest-wsds"
_FIFO = "queries_per_s on backtest-fifo"
_FEED = "op_host_p50_us, queries_per_s on feed-to-order"

# (name, unit, better, should move, predicted flat on)
PER_LAYER = (
    ("core.scheduler.self_us_per_query", "us", "lower",
     _WSDS, "backtest-fifo, feed-to-order"),
    ("core.scheduler.sweeps_per_query", "count", "lower",
     _WSDS, "backtest-fifo, feed-to-order"),
    ("core.scheduler.memo_hit_ratio", "ratio", "higher",
     _WSDS, "backtest-fifo, feed-to-order"),
    ("core.dvfs.self_us_per_query", "us", "lower",
     _WSDS, "backtest-fifo, feed-to-order"),
    ("core.dvfs.redistribute_per_query", "count", "lower",
     _WSDS, "backtest-fifo, feed-to-order"),
    ("core.dvfs.boosts_per_redistribute", "ratio", "higher",
     _WSDS, "backtest-fifo, feed-to-order"),
    ("accelerator.self_us_per_query", "us", "lower",
     _WSDS + " (little on backtest-fifo)", "feed-to-order"),
    ("accelerator.calls_per_query", "count", "lower",
     _WSDS + " (little on backtest-fifo)", "feed-to-order"),
    ("sim.self_us_per_query", "us", "lower",
     _FIFO + " (largest share), then backtest-wsds", "feed-to-order"),
    ("pipeline.offload.self_us_per_query", "us", "lower",
     _FIFO, "feed-to-order"),
    ("pipeline.offload.stale_drop_ratio", "ratio", "lower",
     _FIFO, "feed-to-order"),
    ("pipeline.offload.queue_high_water", "count", "lower",
     _FIFO, "feed-to-order"),
    ("metrics.self_us_per_query", "us", "lower",
     "queries_per_s on both back-tests", "feed-to-order"),
    ("protocol.self_us_per_tick", "us", "lower",
     _FEED, "back-tests"),
    ("protocol.events_per_frame", "count", "lower",
     _FEED, "back-tests"),
    ("pipeline.feed_handler.self_us_per_tick", "us", "lower",
     _FEED, "back-tests"),
    ("pipeline.feed_handler.snapshots_per_frame", "ratio", "higher",
     _FEED, "back-tests"),
    ("pipeline.offload.self_us_per_tick", "us", "lower",
     _FEED, "back-tests"),
    ("pipeline.offload.queries_per_snapshot", "ratio", "higher",
     _FEED, "back-tests"),
    ("nn.self_us_per_tick", "us", "lower",
     _FEED + " (about 70% of a tick)", "back-tests"),
    ("nn.inferences", "count", "higher",
     _FEED, "back-tests"),
    ("pipeline.trading_engine.self_us_per_tick", "us", "lower",
     _FEED, "back-tests"),
    ("pipeline.trading_engine.accept_ratio", "ratio", "higher",
     _FEED, "back-tests"),
    ("market.generate_ms", "ms", "lower",
     "setup_s on feed-to-order", "back-tests"),
    ("sim.workload.generate_ms", "ms", "lower",
     "setup_s on the back-tests", "feed-to-order"),
    ("baselines.profile_ms", "ms", "lower",
     "setup_s on the back-tests", "feed-to-order"),
    ("trace.overhead_ratio", "ratio", "lower",
     "-", "-"),
    ("trace.attributed_ratio", "ratio", "higher",
     "-", "-"),
)

# Module prefix -> layer, first match wins.  The back-test children are
# folded from a deterministic profile by these rules; the feed layers are
# timed by spans around their entry points instead (see feed.py).
MODULE_LAYERS = (
    ("repro.core.scheduler", "core.scheduler"),
    ("repro.core.sweepgrid", "core.scheduler"),
    ("repro.core.dvfs", "core.dvfs"),
    ("repro.core.ppw", "core.dvfs"),
    ("repro.accelerator", "accelerator"),
    ("repro.sim.metrics", "metrics"),
    ("repro.metrics", "metrics"),
    ("repro.sim", "sim"),
    ("repro.pipeline.offload", "pipeline.offload"),
)
BACKTEST_LAYERS = (
    "core.scheduler",
    "core.dvfs",
    "accelerator",
    "sim",
    "pipeline.offload",
    "metrics",
)
OTHER = "other"


def layer_of_module(module: str) -> str:
    """The back-test layer a ``repro`` module belongs to."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


def describe_layers() -> list[str]:
    """The per-layer predictions, one printable line each."""
    return [
        f"  {name}: should move {moves}; predicted flat on {flat}"
        for name, __, __, moves, flat in PER_LAYER
        if moves != "-"
    ]
