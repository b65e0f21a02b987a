"""Unified metrics layer: allocation-free counters, gauges, histograms.

Where :mod:`repro.telemetry` captures *traces* (per-query spans, decision
logs, power timelines), this package captures *aggregates*: one
:class:`MetricRegistry` per run holds every counter, gauge and latency
histogram the stack records — feed-handler gaps and resyncs, offload
admissions and queue high-water, scheduler memo statistics, DVFS and
quarantine events, fault injections by kind, and the tick-to-trade
distribution — and renders them as a ``run_manifest.json`` plus a
Prometheus-style text exposition.  ``python -m repro.metrics diff A B``
compares two manifests and exits nonzero on regression (see
:mod:`repro.metrics.diff`).

Hot-path discipline mirrors :mod:`repro.telemetry.registry`: a disabled
registry hands out one shared :class:`_NullMetric`, so instrumented code
costs an attribute load and a no-op call; enabled instruments mutate
preallocated state only (RL004-clean — no comprehensions, no container
construction, no f-strings on the recording paths).  Histograms use
fixed log2 buckets with 32 linear sub-buckets per octave (HDR style):
recording is two shifts and an index, worst-case relative resolution is
~3.1%, so a 10% tail shift always lands in a different bucket.

Snapshots flush on *simulation time* (never wall clock — RL001-clean):
bind a sink with :meth:`MetricRegistry.bind_flush`, and each sim-time
interval that ``maybe_flush(now_ns)`` (or a caller comparing
``next_flush_ns``) sees pass emits one snapshot event through the run's
existing JSONL trace writer.

Metric names under the ``impl.`` prefix are implementation diagnostics
(memo hit ratios, redistribution call counts) that legitimately differ
between the fast and reference event pumps; they are excluded from
:meth:`MetricRegistry.public_snapshot`, from flush events, and from the
regression gate, so loop parity and CI baselines only ever compare
semantically pinned quantities.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from repro.hotpath import hot_path

__all__ = [
    "Counter",
    "Gauge",
    "IMPL_PREFIX",
    "Log2Histogram",
    "MetricRegistry",
    "NULL_METRICS",
    "bucket_bounds",
    "bucket_index",
    "exposition",
]

# Implementation-diagnostic namespace: excluded from public snapshots,
# flush events and the regression diff (values may differ between the
# fast and reference event pumps by design).
IMPL_PREFIX = "impl."

# Log2 histogram geometry: values < _EXACT_LIMIT get one bucket each;
# larger values share an octave split into _SUBBUCKETS linear bins.
_EXACT_LIMIT = 64
_SUBBUCKETS = 32
# Largest index an int64 value can produce (v = 2**63 - 1 -> e = 56,
# sub = 31), plus one for the array size.
_N_BUCKETS = _EXACT_LIMIT + 57 * _SUBBUCKETS  # 1888
# 2**0 .. 2**62: a value's bit length is the count of these at or below it.
_POWERS_OF_TWO = np.left_shift(1, np.arange(63, dtype=np.int64))
# Sentinel "never" for the flush deadline: one integer compare on the
# hot path decides that flushing is off.
_NEVER_NS = 1 << 62


def bucket_index(value: int) -> int:
    """The histogram bucket for a non-negative integer ``value``.

    Values below 64 are exact (one bucket per integer).  Above, each
    power-of-two octave is split into 32 linear sub-buckets, giving a
    worst-case relative bucket width of 1/32 (~3.1%).
    """
    if value < _EXACT_LIMIT:
        return value if value > 0 else 0
    e = value.bit_length() - 7
    return _EXACT_LIMIT - _SUBBUCKETS + (e << 5) + (value >> (e + 1))


def bucket_bounds(index: int) -> tuple[int, int]:
    """The ``[lower, upper)`` integer range of bucket ``index``."""
    if not 0 <= index < _N_BUCKETS:
        raise ValueError(f"bucket index out of range: {index}")
    if index < _EXACT_LIMIT:
        return (index, index + 1)
    e = (index - _EXACT_LIMIT) >> 5
    sub = (index - _EXACT_LIMIT) & (_SUBBUCKETS - 1)
    shift = e + 1
    lower = (_SUBBUCKETS + sub) << shift
    return (lower, lower + (1 << shift))


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    @hot_path
    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-written value plus the maximum ever written (high-water)."""

    __slots__ = ("name", "value", "max_value", "written")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0
        self.written = False

    @hot_path
    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value or not self.written:
            self.max_value = value
        self.written = True


class Log2Histogram:
    """Fixed-bucket log2 histogram over non-negative integers.

    ``record`` is O(1) and allocation-free (array index from two shifts;
    negative inputs clamp into bucket 0).  Quantiles are recovered from
    the bucket populations with linear interpolation inside the winning
    bucket; the 32 sub-buckets per octave bound the quantile error at
    ~3.1%, tight enough that the regression diff's default 5% threshold
    is meaningful on histogram-derived percentiles.
    """

    __slots__ = ("name", "counts", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts = [0] * _N_BUCKETS
        self.count = 0
        self.total = 0
        self.min = 0
        self.max = 0

    @hot_path
    def record(self, value: int) -> None:
        if value < _EXACT_LIMIT:
            index = value if value > 0 else 0
        else:
            e = value.bit_length() - 7
            index = _EXACT_LIMIT - _SUBBUCKETS + (e << 5) + (value >> (e + 1))
        self.counts[index] += 1
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += 1
        self.total += value

    def record_many(self, values: np.ndarray) -> None:
        """:meth:`record` each int64 of ``values`` in one pass: the same
        buckets, count, total, min and max as per-value calls, in any
        order.  Bit lengths come from a search over the powers of two,
        exact for every int64 (a float ``frexp`` is not above 2**53)."""
        if not len(values):
            return
        values = np.asarray(values, dtype=np.int64)
        index = np.where(values > 0, values, 0)
        big = values >= _EXACT_LIMIT
        v = values[big]
        e = np.searchsorted(_POWERS_OF_TWO, v, side="right") - 7
        index[big] = _EXACT_LIMIT - _SUBBUCKETS + (e << 5) + (v >> (e + 1))
        hits = np.bincount(index, minlength=_N_BUCKETS)
        buckets = np.flatnonzero(hits)
        for bucket, n in zip(buckets.tolist(), hits[buckets].tolist()):
            self.counts[bucket] += n
        low, high = int(values.min()), int(values.max())
        self.min = low if self.count == 0 else min(self.min, low)
        self.max = high if self.count == 0 else max(self.max, high)
        self.count += len(values)
        self.total += sum(values.tolist())  # Python ints: an int64 sum can wrap

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]) from the buckets."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        if self.count == 0:
            return float("nan")
        rank = max(1, ceil(q / 100.0 * self.count))
        cumulative = 0
        for index, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lower, upper = bucket_bounds(index)
                inside = (rank - cumulative) / n
                value = lower + (upper - lower) * inside
                # Never report outside the observed range.
                return min(max(value, self.min), self.max)
            cumulative += n
        return float(self.max)  # unreachable: counts sum to count

    def to_dict(self) -> dict:
        """Summary with the percentiles the manifests and diffs consume."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class _NullMetric:
    """Shared do-nothing counter/gauge/histogram for disabled registries."""

    __slots__ = ()

    name = "null"
    value = 0
    max_value = 0.0
    written = False
    count = 0
    total = 0
    mean = float("nan")

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def record(self, value: int) -> None:
        pass

    def percentile(self, q: float) -> float:
        return float("nan")

    def to_dict(self) -> dict:
        return {}


_NULL = _NullMetric()


class MetricRegistry:
    """Named metric instruments, get-or-create; disabled is a no-op.

    A disabled registry returns the single shared :class:`_NullMetric`
    for every name — no instrument dict growth, no per-sample state — so
    permanently instrumented hot paths are free when metrics are off.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Log2Histogram] = {}
        # Sim-time flush state: one comparison on the hot path decides
        # whether a snapshot is due (``_NEVER_NS`` = flushing off).
        # ``next_flush_ns`` is public so a recorder that batches its
        # updates can fold them in just before a due snapshot.
        self._flush_sink = None
        self._flush_interval_ns = 0
        self.next_flush_ns = _NEVER_NS
        self.flushes = 0

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Log2Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Log2Histogram(name)
        return instrument

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every instrument (including ``impl.``) as one JSON-able dict."""
        return self._snapshot(include_impl=True)

    def public_snapshot(self) -> dict:
        """The snapshot minus ``impl.``-prefixed diagnostics.

        This is the view the loop-parity tests compare between the fast
        and reference pumps, the view flush events emit, and the view
        the regression diff gates on.
        """
        return self._snapshot(include_impl=False)

    def _snapshot(self, include_impl: bool) -> dict:
        counters = {}
        for name, c in sorted(self._counters.items()):
            if include_impl or not name.startswith(IMPL_PREFIX):
                counters[name] = c.value
        gauges = {}
        for name, g in sorted(self._gauges.items()):
            if include_impl or not name.startswith(IMPL_PREFIX):
                gauges[name] = {"value": g.value, "max": g.max_value}
        histograms = {}
        for name, h in sorted(self._histograms.items()):
            if include_impl or not name.startswith(IMPL_PREFIX):
                histograms[name] = h.to_dict()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    # -- sim-time flushing ------------------------------------------------------

    def bind_flush(self, sink, interval_ns: int, start_ns: int = 0) -> None:
        """Emit a snapshot event through ``sink`` every ``interval_ns``
        of simulation time (as observed by ``maybe_flush`` calls).

        ``sink`` is any callable taking one JSON-able dict — typically
        ``TraceWriter.write`` of the run's telemetry trace.  A
        non-positive interval leaves flushing off.
        """
        if sink is None or interval_ns <= 0 or not self.enabled:
            return
        self._flush_sink = sink
        self._flush_interval_ns = interval_ns
        self.next_flush_ns = start_ns + interval_ns

    @hot_path
    def maybe_flush(self, now_ns: int) -> None:
        if now_ns < self.next_flush_ns:
            return
        self.flush(now_ns)

    def flush(self, now_ns: int) -> None:
        """Write one ``{"type": "metrics", ...}`` snapshot event now."""
        if self._flush_sink is None:
            return
        event = {"type": "metrics", "t_ns": now_ns, "seq": self.flushes}
        event.update(self.public_snapshot())
        self._flush_sink(event)
        self.flushes += 1
        next_ns = self.next_flush_ns + self._flush_interval_ns
        if next_ns <= now_ns:
            # The sim jumped several intervals at once: emit one snapshot
            # for the jump, not a burst of identical stale ones.
            next_ns = now_ns + self._flush_interval_ns
        self.next_flush_ns = next_ns


NULL_METRICS = MetricRegistry(enabled=False)


def _prom_name(name: str) -> str:
    """A metric name sanitised to the Prometheus grammar."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return "repro_" + text


def exposition(registry: MetricRegistry) -> str:
    """Prometheus-style text exposition of every public instrument.

    Counters render as ``repro_<name>_total``, gauges as two series
    (value and high-water max), histograms as count/sum plus one gauge
    per published quantile — greppable, scrape-compatible text that
    needs nothing from this package to consume.
    """
    lines: list[str] = []
    snap = registry.public_snapshot()
    for name, value in snap["counters"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom}_total counter")
        lines.append(f"{prom}_total {value}")
    for name, g in snap["gauges"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {g['value']}")
        lines.append(f"{prom}_max {g['max']}")
    for name, h in snap["histograms"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        lines.append(f"{prom}_count {h.get('count', 0)}")
        if h.get("count"):
            lines.append(f"{prom}_sum {h['count'] * h['mean']}")
            for q, key in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
                lines.append(f'{prom}{{quantile="{q}"}} {h[key]}')
    return "\n".join(lines) + "\n"
