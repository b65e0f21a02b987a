"""Unit tests for the repro.metrics layer.

Covers the log2 histogram's bucket geometry and quantile accuracy, the
registry's get-or-create / disabled-null semantics, the impl. namespace
exclusion, Prometheus exposition, manifest round-trips, and the
regression-diff engine + CLI — including the acceptance scenario: a
synthetic 10% tick-to-trade p99 inflation must exit nonzero while two
identical runs diff clean.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.metrics import (
    IMPL_PREFIX,
    Counter,
    Gauge,
    Log2Histogram,
    MetricRegistry,
    NULL_METRICS,
    bucket_bounds,
    bucket_index,
    exposition,
)
from repro.metrics.__main__ import main as metrics_main
from repro.metrics.diff import (
    diff_manifests,
    flatten_manifest,
    metric_direction,
    render_diff,
)
from repro.metrics.manifest import (
    SCHEMA,
    build_manifest,
    env_snapshot,
    load_manifest,
    write_manifest,
)


class TestBucketGeometry:
    def test_roundtrip_small_values_exact(self):
        for v in range(64):
            idx = bucket_index(v)
            lo, hi = bucket_bounds(idx)
            assert lo == v and hi == v + 1

    def test_roundtrip_large_values(self):
        probes = [64, 65, 127, 128, 1000, 2**20, 2**20 + 17, 2**40, 2**62]
        probes += [2**e + d for e in range(7, 63, 5) for d in (-1, 0, 1)]
        probes.append(2**63 - 1)
        for v in probes:
            idx = bucket_index(v)
            lo, hi = bucket_bounds(idx)
            assert lo <= v < hi, (v, idx, lo, hi)

    def test_buckets_are_contiguous(self):
        prev_hi = 0
        for idx in range(1888):
            lo, hi = bucket_bounds(idx)
            assert lo == prev_hi
            assert hi > lo
            prev_hi = hi
        assert prev_hi > 2**63 - 1

    def test_worst_case_relative_resolution(self):
        # 32 sub-buckets per octave: bucket width / lower bound <= 1/32,
        # so any quantile estimate is within ~3.2% of the true value.
        for idx in range(64, 1888):
            lo, hi = bucket_bounds(idx)
            assert (hi - lo) / lo <= 1 / 32 + 1e-12

    def test_negative_values_clamp_to_zero_bin(self):
        hist = Log2Histogram("h")
        hist.record(-5)
        assert hist.count == 1
        assert hist.min == -5  # true min retained even though binned at 0


class TestHistogram:
    def test_percentiles_track_exact_within_resolution(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=11.0, sigma=0.6, size=20_000).astype(np.int64)
        hist = Log2Histogram("t2t")
        for v in samples:
            hist.record(int(v))
        for q in (50.0, 90.0, 99.0):
            exact = float(np.percentile(samples, q))
            est = hist.percentile(q)
            assert abs(est - exact) / exact < 0.04, (q, exact, est)

    def test_to_dict_empty_and_populated(self):
        hist = Log2Histogram("h")
        assert hist.to_dict() == {"count": 0}
        hist.record(100)
        hist.record(300)
        d = hist.to_dict()
        assert d["count"] == 2
        assert d["min"] == 100 and d["max"] == 300
        assert 100 <= d["p50"] <= 300

    def test_percentile_clamped_to_observed_range(self):
        hist = Log2Histogram("h")
        hist.record(1000)
        assert hist.percentile(1.0) == 1000
        assert hist.percentile(99.9) == 1000


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricRegistry()
        c = reg.counter("a")
        assert reg.counter("a") is c
        assert isinstance(c, Counter)
        g = reg.gauge("b")
        assert reg.gauge("b") is g
        assert isinstance(g, Gauge)
        h = reg.histogram("c")
        assert reg.histogram("c") is h
        assert isinstance(h, Log2Histogram)

    def test_disabled_registry_hands_out_shared_null(self):
        reg = MetricRegistry(enabled=False)
        null = reg.counter("a")
        assert reg.gauge("b") is null
        assert reg.histogram("c") is null
        assert NULL_METRICS.counter("x") is null
        null.inc()
        null.set(3.0)
        null.record(10)
        assert null.to_dict() == {}
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_public_snapshot_excludes_impl_namespace(self):
        reg = MetricRegistry()
        reg.counter("queries.responded").inc(5)
        reg.counter(IMPL_PREFIX + "memo.hits").inc(100)
        reg.histogram(IMPL_PREFIX + "probe").record(1)
        full = reg.snapshot()
        public = reg.public_snapshot()
        assert IMPL_PREFIX + "memo.hits" in full["counters"]
        assert IMPL_PREFIX + "memo.hits" not in public["counters"]
        assert IMPL_PREFIX + "probe" not in public["histograms"]
        assert public["counters"]["queries.responded"] == 5

    def test_gauge_tracks_max(self):
        reg = MetricRegistry()
        g = reg.gauge("power.rail_w")
        g.set(3.0)
        g.set(12.5)
        g.set(1.0)
        snap = reg.snapshot()["gauges"]["power.rail_w"]
        assert snap == {"value": 1.0, "max": 12.5}

    def test_flush_emits_on_sim_time_cadence(self):
        reg = MetricRegistry()
        events: list[dict] = []
        reg.bind_flush(events.append, interval_ns=1000, start_ns=0)
        reg.counter("ticks").inc()
        reg.maybe_flush(500)
        assert not events
        reg.maybe_flush(1000)
        assert len(events) == 1
        assert events[0]["type"] == "metrics"
        assert events[0]["t_ns"] == 1000 and events[0]["seq"] == 0
        assert events[0]["counters"]["ticks"] == 1
        # A large sim-time jump emits one catch-up event, not a backlog.
        reg.maybe_flush(10_000)
        assert len(events) == 2
        assert events[1]["seq"] == 1
        reg.maybe_flush(10_001)
        assert len(events) == 2

    def test_exposition_format(self):
        reg = MetricRegistry()
        reg.counter("feed.ticks").inc(3)
        reg.gauge("power.rail_w").set(7.5)
        reg.histogram("tick_to_trade_ns").record(1000)
        text = exposition(reg)
        assert "# TYPE repro_feed_ticks_total counter" in text
        assert "repro_feed_ticks_total 3" in text
        assert "repro_power_rail_w 7.5" in text
        assert "repro_tick_to_trade_ns_count 1" in text
        assert 'quantile="0.99"' in text
        assert text.endswith("\n")


def _sample_registry(p99_scale: float = 1.0) -> MetricRegistry:
    reg = MetricRegistry()
    reg.counter("queries.responded").inc(950)
    reg.counter("deadline.missed").inc(50)
    hist = reg.histogram("tick_to_trade_ns")
    rng = np.random.default_rng(3)
    base = rng.lognormal(mean=11.5, sigma=0.4, size=5000)
    # Inflate only the tail so p50 stays put and p99 moves.
    cut = np.percentile(base, 95)
    scaled = np.where(base > cut, base * p99_scale, base)
    for v in scaled:
        hist.record(int(v))
    reg.counter(IMPL_PREFIX + "memo.hits").inc(123)
    return reg


def _manifest(p99_scale: float = 1.0, responded: int | None = None) -> dict:
    reg = _sample_registry(p99_scale)
    if responded is not None:
        reg.counter("queries.responded").value = responded
    return build_manifest(
        run={"system": "lighttrader[ws+ds]", "model": "deeplob"},
        registry=reg,
        config={"n_accelerators": 3},
        seeds={"workload": 42},
        perf={"queries_per_s": 100_000.0},
    )


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = _manifest()
        path = tmp_path / "m.json"
        write_manifest(path, manifest)
        loaded = load_manifest(path)
        assert loaded == manifest
        assert loaded["schema"] == SCHEMA
        assert loaded["metrics"]["counters"]["queries.responded"] == 950
        # impl. metrics ARE in the manifest (debugging) ...
        assert IMPL_PREFIX + "memo.hits" in loaded["metrics"]["counters"]
        # ... and the env snapshot names every registered variable.
        assert "REPRO_METRICS" in loaded["env"]
        assert loaded["env"] == env_snapshot()

    def test_load_rejects_missing_and_corrupt(self, tmp_path):
        with pytest.raises(SimulationError):
            load_manifest(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SimulationError):
            load_manifest(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "other/v9", "metrics": {}}))
        with pytest.raises(SimulationError):
            load_manifest(wrong)


class TestDiff:
    def test_identical_manifests_diff_clean(self):
        manifest = _manifest()
        entries = diff_manifests(manifest, copy.deepcopy(manifest))
        assert entries == []

    def test_impl_metrics_never_gate(self):
        base, cand = _manifest(), _manifest()
        cand["metrics"]["counters"][IMPL_PREFIX + "memo.hits"] = 999_999
        assert diff_manifests(base, cand) == []

    def test_ten_percent_p99_regression_detected(self):
        base, cand = _manifest(), _manifest(p99_scale=1.10)
        entries = diff_manifests(base, cand)
        regressions = [e for e in entries if e["status"] == "regression"]
        assert any(e["metric"] == "hist:tick_to_trade_ns:p99" for e in regressions)

    def test_direction_inference(self):
        assert metric_direction("counter:deadline.missed") == "up_bad"
        assert metric_direction("hist:tick_to_trade_ns:p99") == "up_bad"
        assert metric_direction("counter:queries.responded") == "down_bad"
        assert metric_direction("result:response_rate") == "down_bad"
        assert metric_direction("perf:queries_per_s") == "neutral"
        assert metric_direction("counter:batch.size") == "neutral"

    def test_improvement_and_neutral_do_not_gate(self):
        base, cand = _manifest(), _manifest()
        cand["metrics"]["counters"]["deadline.missed"] = 10  # fewer misses
        cand["perf"]["queries_per_s"] = 1.0  # perf: is informational
        entries = diff_manifests(base, cand)
        statuses = {e["metric"]: e["status"] for e in entries}
        assert statuses["counter:deadline.missed"] == "improvement"
        assert statuses["perf:queries_per_s"] == "change"
        assert not any(e["status"] == "regression" for e in entries)

    def test_threshold_overrides_fnmatch_last_wins(self):
        base, cand = _manifest(), _manifest()
        cand["metrics"]["counters"]["deadline.missed"] = 52  # +4%: under default
        assert diff_manifests(base, cand) == []
        entries = diff_manifests(
            base, cand, thresholds=[("counter:deadline.*", 0.01)]
        )
        assert [e["metric"] for e in entries] == ["counter:deadline.missed"]
        # A later, more specific pattern overrides the earlier one.
        entries = diff_manifests(
            base,
            cand,
            thresholds=[("counter:*", 0.01), ("counter:deadline.missed", 0.5)],
        )
        assert entries == []

    def test_missing_metric_is_reported(self):
        base, cand = _manifest(), _manifest()
        del cand["metrics"]["counters"]["deadline.missed"]
        entries = diff_manifests(base, cand)
        missing = [e for e in entries if e.get("missing_side")]
        assert len(missing) == 1
        assert missing[0]["metric"] == "counter:deadline.missed"

    def test_render_formats(self):
        base, cand = _manifest(), _manifest(p99_scale=1.10)
        entries = diff_manifests(base, cand)
        text = render_diff(entries, "text", "base", "cand")
        assert "[REGRESSION]" in text
        md = render_diff(entries, "markdown", "base", "cand")
        assert md.startswith("|") or "|" in md
        payload = json.loads(render_diff(entries, "json", "base", "cand"))
        assert payload["baseline"] == "base"
        assert payload["regressions"] >= 1
        assert payload["entries"] == entries

    def test_flatten_skips_impl_and_keeps_sections(self):
        flat = flatten_manifest(_manifest())
        assert "counter:queries.responded" in flat
        assert "hist:tick_to_trade_ns:p99" in flat
        assert "perf:queries_per_s" in flat
        assert not any(IMPL_PREFIX in k for k in flat)


class TestCli:
    def _write(self, tmp_path, name, manifest):
        path = tmp_path / name
        write_manifest(path, manifest)
        return str(path)

    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _manifest())
        b = self._write(tmp_path, "b.json", _manifest())
        assert metrics_main(["diff", a, b]) == 0
        assert "clean" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _manifest())
        b = self._write(tmp_path, "b.json", _manifest(p99_scale=1.10))
        assert metrics_main(["diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "[REGRESSION]" in out and "tick_to_trade_ns:p99" in out

    def test_missing_manifest_exits_two(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _manifest())
        assert metrics_main(["diff", a, str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_threshold_flag(self, tmp_path):
        a = self._write(tmp_path, "a.json", _manifest())
        b = self._write(tmp_path, "b.json", _manifest(responded=920))  # -3.2%
        assert metrics_main(["diff", a, b]) == 0
        assert (
            metrics_main(
                ["diff", a, b, "--threshold", "counter:queries.responded=0.01"]
            )
            == 1
        )

    def test_json_format(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _manifest())
        b = self._write(tmp_path, "b.json", _manifest(p99_scale=1.10))
        assert metrics_main(["diff", a, b, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] >= 1

    def test_diff_help_exits_zero_and_prints_the_default(self, capsys):
        with pytest.raises(SystemExit) as exited:
            metrics_main(["diff", "--help"])
        assert exited.value.code == 0
        assert "(default 5%)" in " ".join(capsys.readouterr().out.split())

    def test_show_subcommand(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _manifest())
        assert metrics_main(["show", a]) == 0
        assert "tick_to_trade_ns" in capsys.readouterr().out
