"""Micro-benchmarks of the functional pipeline stages (wall-clock of our
Python implementations — useful for harness health, not paper numbers).

The LOB section additionally persists ``benchmarks/results/
BENCH_lob_speed.json`` — a run manifest whose deterministic ``lob.*``
metric counters and ``result`` checksums come from a pinned replay (CI
diffs it against the committed baseline) and whose ``perf`` section
records the measured single-book per-op ops/s (reference vs array).

The market-generation section persists ``BENCH_market_gen.json`` the
same way: deterministic ``lob.*`` counters from a pinned session of the
shipping generator (CI-diffed against its committed baseline), plus
measured ticks/s for the shipping vs reference generation loops, per-op
book ops/s and the depth-snapshot capture cost.  Gates: shipping >= 3x
reference ticks/s, array per-op >= 1x reference per-op.

The references are the golden models in ``tests/oracles/``: the
object-per-order matching engine and the per-op generation loop.
"""

import time

import numpy as np
import pytest

from conftest import RESULTS_DIR
from repro.errors import MatchingError, OrderBookError
from repro.lob import (
    ArrayMatchingEngine,
    Order,
    OrderType,
    Side,
    TimeInForce,
)
from repro.market import MarketConfig, MarketSimulator, generate_session
from repro.metrics import MetricRegistry
from repro.metrics.manifest import build_manifest, write_manifest
from repro.nn import build_model
from repro.pipeline import NormalizationStats, OffloadEngine
from repro.protocol import (
    PacketParser,
    SecurityDirectory,
    encode_market_events,
    encode_udp_frame,
)
from repro.lob.events import BookUpdate, UpdateAction
from tests.oracles.book import capture
from tests.oracles.market import ReferenceMarketSimulator, reference_session
from tests.oracles.matching import MatchingEngine


@pytest.fixture(scope="module")
def tape():
    return generate_session(duration_s=2.0, seed=13)


def test_bench_matching_engine(benchmark):
    def run():
        engine = ArrayMatchingEngine()
        rng = np.random.default_rng(0)
        for i in range(2_000):
            side = Side.BID if rng.uniform() < 0.5 else Side.ASK
            price = 18_000 + int(rng.integers(-5, 6))
            engine.submit("ES", Order(side=side, price=price, quantity=3), i)
        return engine

    engine = benchmark(run)
    assert engine.book("ES").mid_price is not None


def test_bench_sbe_decode(benchmark):
    directory = SecurityDirectory()
    directory.register("ESU6")
    events = [
        BookUpdate("ESU6", 1, UpdateAction.NEW, Side.BID, 18_000 - i, 5, i)
        for i in range(8)
    ]
    frame = encode_udp_frame(encode_market_events(events, directory, 1))
    parser = PacketParser(directory)

    packet = benchmark(parser.parse_frame, frame)
    assert packet is not None
    assert len(packet.events) == 8


def test_bench_offload_engine(benchmark, tape):
    stats = NormalizationStats.fit(tape)

    def run():
        engine = OffloadEngine(stats=stats, window=100, store_tensors=True)
        query = None
        for i, tick in enumerate(tape[:300]):
            query = engine.on_tick(tick.snapshot, tick.timestamp, tick.timestamp + 10**9, i) or query
        return query

    query = benchmark(run)
    assert query is not None
    assert query.tensor.shape == (100, 40)


@pytest.mark.parametrize("name", ["vanilla_cnn", "translob", "deeplob"])
def test_bench_model_inference(benchmark, name):
    model = build_model(name)
    x = np.random.default_rng(0).standard_normal((1, *model.input_shape)).astype(np.float32)
    out = benchmark(model.forward, x)
    assert out.shape == (1, 3)


def test_bench_compiler(benchmark):
    from repro.compiler import compile_model
    from repro.nn import build_vanilla_cnn

    program = benchmark(lambda: compile_model(build_vanilla_cnn()))
    assert program.per_sample_cycles > 0


# ---------------------------------------------------------------------------
# LOB engines: reference vs struct-of-arrays, single book
# ---------------------------------------------------------------------------

# Pinned stream for BENCH_lob_speed.json: seed and size fixed so the
# deterministic sections (lob.* metric counters, replay stats) are
# byte-stable across machines and the CI diff can gate on them.
LOB_STREAM_SEED = 1
LOB_STREAM_OPS = 20_000

# Stream row kinds.
OP_SUBMIT = 0
OP_CANCEL = 1

# Pinned session for BENCH_market_gen.json (same discipline: the tape
# digest and lob.* counters are deterministic, CI diffs them).
MARKET_GEN_SEED = 3
MARKET_GEN_DURATION_S = 6.0

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def _fold_tape(tape) -> int:
    """Order-sensitive FNV fold of every snapshot checksum in ``tape``."""
    digest = _FNV_OFFSET
    for tick in tape:
        value = tick.snapshot.checksum()
        for _ in range(8):
            digest = ((digest ^ (value & 0xFF)) * _FNV_PRIME) & _U64
            value >>= 8
    return digest


def _lob_stream(seed: int, n_ops: int) -> list[tuple[int, ...]]:
    """A legal seeded submit/cancel stream, pre-filtered by the reference."""
    rng = np.random.default_rng(seed)
    rows = []
    live = []
    oid = 0
    for _ in range(n_ops):
        if rng.uniform() < 0.8 or not live:
            oid += 1
            tif = int(rng.choice([0, 1], p=[0.7, 0.3]))
            rows.append(
                (
                    OP_SUBMIT,
                    int(rng.integers(0, 2)),
                    0,
                    tif,
                    int(rng.integers(95, 106)),
                    int(rng.integers(1, 10)),
                    oid,
                )
            )
            if tif == int(TimeInForce.DAY):
                live.append(oid)
        else:
            victim = live.pop(int(rng.integers(0, len(live))))
            rows.append((OP_CANCEL, 0, 0, 0, 0, 0, victim))
    engine = MatchingEngine()
    kept = []
    for row in rows:
        try:
            _lob_apply(engine, row)
        except (OrderBookError, MatchingError):
            continue
        kept.append(row)
    return kept


def _lob_apply(engine, row):
    kind, side, otype, tif, price, qty, order_id = row
    if kind == OP_SUBMIT:
        return engine.submit(
            "ES",
            Order(
                side=Side(side),
                price=price,
                quantity=qty,
                order_id=order_id,
                order_type=OrderType(otype),
                tif=TimeInForce(tif),
                owner="bench",
            ),
            0,
        )
    return engine.cancel("ES", order_id, 0)


def _lob_per_op_rate(engine_factory, rows) -> float:
    best = 0.0
    for _ in range(3):
        engine = engine_factory()
        t0 = time.perf_counter()
        for row in rows:
            _lob_apply(engine, row)
        best = max(best, len(rows) / (time.perf_counter() - t0))
    return best


def test_bench_lob_single_book(benchmark, record_table):
    """Reference per-op vs array per-op ops/s on the pinned stream.

    The manifest's ``result`` checksums come from the matching kernel's
    integer ops over the same stream, re-asserted against the per-op
    replay's sequence and book.
    """
    rows = _lob_stream(LOB_STREAM_SEED, LOB_STREAM_OPS)
    rates = {}

    def measure():
        rates["reference_per_op"] = _lob_per_op_rate(MatchingEngine, rows)
        rates["array_per_op"] = _lob_per_op_rate(ArrayMatchingEngine, rows)
        return rates

    benchmark.pedantic(measure, rounds=1, iterations=1)

    # Deterministic manifest run: the array engine's lob.* counters over
    # the pinned stream (per-op, so the high-water gauges see every op).
    registry = MetricRegistry()
    per_op = ArrayMatchingEngine(metrics=registry)
    for row in rows:
        _lob_apply(per_op, row)
    replayed = ArrayMatchingEngine()
    kernel = replayed.kernel("ES")
    owner_id = kernel.book.owners.intern("replay")
    for kind, side, otype, tif, price, qty, order_id in rows:
        if kind == OP_SUBMIT:
            kernel.submit(side, otype, tif, price, qty, order_id, 0, owner_id)
        else:
            kernel.cancel(order_id)
    assert replayed._sequence == per_op._sequence
    assert replayed.book("ES").bids.top(25) == per_op.book("ES").bids.top(25)
    assert replayed.book("ES").asks.top(25) == per_op.book("ES").asks.top(25)

    speedup_per_op = rates["array_per_op"] / rates["reference_per_op"]
    record_table(
        "lob_speed",
        "Single-book LOB ops/s (20k-op seeded submit/cancel stream)\n"
        f"  reference per-op: {rates['reference_per_op']:,.0f}\n"
        f"  array per-op:     {rates['array_per_op']:,.0f}"
        f"  ({speedup_per_op:.1f}x)",
    )
    manifest = build_manifest(
        run={
            "system": "lob",
            "bench": "lob_speed",
            "stream_seed": LOB_STREAM_SEED,
            "stream_ops": len(rows),
        },
        registry=registry,
        config={"engine": "array", "symbol": "ES"},
        seeds={"stream": LOB_STREAM_SEED},
        perf={
            "reference_ops_per_s": rates["reference_per_op"],
            "array_per_op_ops_per_s": rates["array_per_op"],
        },
    )
    manifest["result"] = {
        "n_ops": len(rows),
        "n_fills": kernel.n_fills,
        "traded_quantity": kernel.traded_quantity,
        "notional": kernel.notional,
        "rejected": kernel.rejected,
        "final_sequence": replayed._sequence,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    write_manifest(RESULTS_DIR / "BENCH_lob_speed.json", manifest)


def test_bench_market_gen(benchmark, record_table):
    """Market generation: shipping vs reference loop, plus book hot paths.

    Gates (calibrated on the reference container): the shipping
    generation loop must clear 3x the reference loop's ticks/s
    (measured ~3.9x), and the list-backed array book's per-op rate must
    at least match the object-per-order reference (measured ~1.1x; it
    was 0.67x before the scalar-tax removal).  Byte-identity of the two
    loops' tapes and metric registries is re-asserted here on the pinned
    session before anything is persisted.
    """
    rows = _lob_stream(LOB_STREAM_SEED, LOB_STREAM_OPS)
    rates = {}

    def measure():
        # Interleave fast/reference rounds and gate on the best *paired*
        # ratio: a container-wide load spike slows both halves of a pair
        # about equally, so the ratio survives noise that would sink a
        # best-of-phase comparison.
        gen = {"fast": [], "reference": []}
        for _ in range(5):
            for generate, key in (
                (generate_session, "fast"),
                (reference_session, "reference"),
            ):
                t0 = time.perf_counter()
                tape = generate(duration_s=MARKET_GEN_DURATION_S, seed=MARKET_GEN_SEED)
                gen[key].append(len(tape) / (time.perf_counter() - t0))
        rates["fast_ticks_per_s"] = max(gen["fast"])
        rates["reference_ticks_per_s"] = max(gen["reference"])
        rates["gen_speedup"] = max(
            fast / ref for fast, ref in zip(gen["fast"], gen["reference"])
        )
        per_op = {"reference": [], "array": []}
        for _ in range(3):
            per_op["reference"].append(_lob_per_op_rate(MatchingEngine, rows))
            per_op["array"].append(_lob_per_op_rate(ArrayMatchingEngine, rows))
        rates["reference_per_op"] = max(per_op["reference"])
        rates["array_per_op"] = max(per_op["array"])
        rates["per_op_ratio"] = max(
            arr / ref for arr, ref in zip(per_op["array"], per_op["reference"])
        )
        # Depth-snapshot capture over a populated array book.
        engine = ArrayMatchingEngine()
        for row in rows[:2000]:
            _lob_apply(engine, row)
        book = engine.book("ES")
        t0 = time.perf_counter()
        for _ in range(5_000):
            capture(book, timestamp=0)
        rates["snapshot_capture_us"] = (time.perf_counter() - t0) / 5_000 * 1e6
        return rates

    benchmark.pedantic(measure, rounds=1, iterations=1)

    # Deterministic manifest run: the pinned session under both loops
    # must agree checksum-for-checksum and metric-for-metric.
    registry = MetricRegistry()
    tape_fast = MarketSimulator(
        MarketConfig(), seed=MARKET_GEN_SEED, metrics=registry
    ).generate(MARKET_GEN_DURATION_S)
    reference_registry = MetricRegistry()
    tape_reference = ReferenceMarketSimulator(
        MarketConfig(), seed=MARKET_GEN_SEED, metrics=reference_registry
    ).generate(MARKET_GEN_DURATION_S)
    digest = _fold_tape(tape_fast)
    assert digest == _fold_tape(tape_reference)
    assert registry.public_snapshot() == reference_registry.public_snapshot()

    speedup = rates["gen_speedup"]
    per_op_ratio = rates["per_op_ratio"]
    record_table(
        "market_gen",
        f"Market generation ({MARKET_GEN_DURATION_S:.0f}s session, "
        f"seed {MARKET_GEN_SEED}, {len(tape_fast)} ticks)\n"
        f"  reference loop: {rates['reference_ticks_per_s']:,.0f} ticks/s\n"
        f"  shipping path:  {rates['fast_ticks_per_s']:,.0f} ticks/s"
        f"  ({speedup:.1f}x)\n"
        f"  per-op book:    array {rates['array_per_op']:,.0f} vs "
        f"reference {rates['reference_per_op']:,.0f} ops/s"
        f"  ({per_op_ratio:.2f}x)\n"
        f"  snapshot capture: {rates['snapshot_capture_us']:.1f} us",
    )
    manifest = build_manifest(
        run={
            "system": "market",
            "bench": "market_gen",
            "seed": MARKET_GEN_SEED,
            "duration_s": MARKET_GEN_DURATION_S,
        },
        registry=registry,
        config={"engine": "array", "symbol": "ESU6"},
        seeds={"session": MARKET_GEN_SEED, "lob_stream": LOB_STREAM_SEED},
        perf={
            "fast_ticks_per_s": rates["fast_ticks_per_s"],
            "reference_ticks_per_s": rates["reference_ticks_per_s"],
            "fast_speedup_vs_reference": speedup,
            "array_per_op_ops_per_s": rates["array_per_op"],
            "reference_per_op_ops_per_s": rates["reference_per_op"],
            "per_op_ratio_vs_reference": per_op_ratio,
            "snapshot_capture_us": rates["snapshot_capture_us"],
        },
    )
    manifest["result"] = {"ticks": len(tape_fast), "tape_digest": f"{digest:016x}"}
    RESULTS_DIR.mkdir(exist_ok=True)
    write_manifest(RESULTS_DIR / "BENCH_market_gen.json", manifest)
    # Calibrated gates; see the docstring for measured headroom.
    assert speedup >= 3.0, rates
    assert per_op_ratio >= 1.0, rates
