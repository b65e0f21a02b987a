"""Feed-to-order workload: the functional Fig. 4 tick-to-trade pipeline.

Set-up turns a seeded ``generate_session`` tape into one UDP frame per
tick, each an SBE incremental refresh: NEW, CHANGE or DELETE for every
changed level of the published depth, plus the tick's trade print.  The
timed phase is a closed loop with one client: each frame goes through
``FeedHandler.on_frame`` -> ``OffloadEngine.on_tick`` -> VanillaCNN
``forward`` at batch 1 -> ``TradingEngine.on_inference`` before the next
frame is handed over.  An operation is one tick; a pass replays the
whole tape through a fresh pipeline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import traceback
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from repro import (
    NormalizationStats,
    OffloadEngine,
    TickTape,
    TradingEngine,
    build_vanilla_cnn,
    generate_session,
    lighttrader_profile,
)
from repro.baselines.profiles import nominal_point
from repro.errors import ProtocolError
from repro.lob.events import BookUpdate, TradeTick, UpdateAction
from repro.lob.order import Side
from repro.nn import Model
from repro.pipeline import DEFAULT_STAGES, FeedHandler, TradeDecision
from repro.protocol.framing import encode_udp_frame
from repro.protocol.ilink3 import ILink3Order
from repro.protocol.parser import PacketParser
from repro.protocol.sbe import SecurityDirectory, encode_market_events

from perfbench import common
from perfbench.tracing import ParserSpans, SpanLog, direct_call

SESSION_S = 10.0  # simulated market seconds, about 3.8k ticks
WINDOW = 100  # ticks per model input, the paper's 100 x 40 map
WARMUP_TICKS = 2 * WINDOW
KERNEL_EVERY = 100  # ticks between reference-kernel timings (about 70 ms)
LAYERS = (
    "protocol",
    "pipeline.feed_handler",
    "pipeline.offload",
    "nn",
    "pipeline.trading_engine",
)
TICK = "tick"
HANDLER = "pipeline.feed_handler"


@dataclass
class Inputs:
    tape: TickTape
    frames: list[bytes]
    event_counts: list[int]  # market events carried by each frame
    directory: SecurityDirectory
    stats: NormalizationStats
    model: Model
    setup_ms: dict[str, float]


def _level_updates(symbol, side, before, after, ts, seq) -> list[BookUpdate]:
    """NEW/CHANGE/DELETE events turning one published ladder into the next."""
    old = dict(before)
    new = dict(after)
    events = []
    for price, volume in after:
        if price not in old:
            action = UpdateAction.NEW
        elif old[price] != volume:
            action = UpdateAction.CHANGE
        else:
            continue
        events.append(BookUpdate(symbol, ts, action, side, price, volume, seq))
    for price, __ in before:
        if price not in new:
            events.append(BookUpdate(symbol, ts, UpdateAction.DELETE, side, price, 0, seq))
    return events


def build_frames(
    tape: TickTape, directory: SecurityDirectory
) -> tuple[list[bytes], list[int]]:
    """One UDP frame per tick carrying the tick's incremental refresh."""
    frames = []
    counts = []
    bids: tuple = ()
    asks: tuple = ()
    for tick in tape:
        snap = tick.snapshot
        ts, seq = tick.timestamp, snap.sequence
        events: list = _level_updates(snap.symbol, Side.BID, bids, snap.bids, ts, seq)
        events += _level_updates(snap.symbol, Side.ASK, asks, snap.asks, ts, seq)
        if snap.last_trade_price is not None:
            price, quantity = snap.last_trade_price, snap.last_trade_quantity
            events.append(TradeTick(snap.symbol, ts, price, quantity, Side.BID, seq))
        frames.append(encode_udp_frame(encode_market_events(events, directory, ts)))
        counts.append(len(events))
        bids, asks = snap.bids, snap.asks
    return frames, counts


def setup(seed: int, session_s: float = SESSION_S) -> Inputs:
    """Generate the session, frame it, fit normalisation, build the model."""
    t0 = perf_counter()
    tape = generate_session(duration_s=session_s, seed=seed)
    t1 = perf_counter()
    directory = SecurityDirectory()
    directory.register(tape[0].snapshot.symbol)
    frames, counts = build_frames(tape, directory)
    inputs = Inputs(
        tape=tape,
        frames=frames,
        event_counts=counts,
        directory=directory,
        stats=NormalizationStats.fit(tape),
        model=build_vanilla_cnn(),
        setup_ms={"market.generate_ms": (t1 - t0) * 1e3},
    )
    replay(dataclasses.replace(inputs, tape=tape[:WARMUP_TICKS]))
    return inputs


@dataclass
class Pass:
    """One replay of the tape: timings, counts, checks and digest."""

    ticks: int = 0
    snapshots: int = 0
    queries: int = 0
    accepted: int = 0
    events_decoded: int = 0
    first_filled: int | None = None  # first tick whose snapshot made a query
    tick_ns: list[int] = field(default_factory=list)  # host time per tick
    factors: list[float] = field(default_factory=list)  # host -> reference
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)

    def latencies_us(self) -> list[float]:
        """Reference-time tick latencies once the offload window filled."""
        first = self.ticks if self.first_filled is None else self.first_filled
        pairs = zip(self.tick_ns[first:], self.factors[first:])
        return [ns * factor / 1e3 for ns, factor in pairs]

    def seconds(self) -> float:
        """Reference seconds the chain spent on all ticks of the pass."""
        return sum(ns * f for ns, f in zip(self.tick_ns, self.factors)) / 1e9


def _offload_step(offload: OffloadEngine, snapshot, arrival: int, index: int):
    """Admit one snapshot and issue its query at once (batch 1)."""
    if offload.on_tick(snapshot, arrival, arrival, index) is None:
        return None
    (query,) = offload.pop_batch(1)
    return query


def replay(inputs: Inputs, spans: SpanLog | None = None) -> Pass:
    """Carry every frame through the pipeline, then check what came out."""
    parser = PacketParser(inputs.directory)
    handler = FeedHandler(parser)
    offload = OffloadEngine(stats=inputs.stats, window=WINDOW, store_tensors=True)
    engine = TradingEngine()
    forward = inputs.model.forward
    call = direct_call
    parser_spans = None
    if spans is not None:
        call = spans.call
        parser_spans = ParserSpans(parser, spans, HANDLER)
        handler.parser = parser_spans
    out = Pass()
    outputs = []  # per tick: [(snapshot, decision or None)]
    ticks = inputs.tape
    kernels = []
    for index, (tick, frame) in enumerate(zip(ticks, inputs.frames)):
        if index % KERNEL_EVERY == 0:
            kernels.append(common.time_kernel())
        now = tick.timestamp
        t0 = perf_counter_ns()
        if parser_spans is not None:
            parser_spans.request = index
        emitted = []
        try:
            for snapshot in call(index, HANDLER, TICK, handler.on_frame, frame):
                query = call(
                    index, "pipeline.offload", TICK, _offload_step, offload, snapshot, now, index
                )
                decision = None
                if query is not None:
                    tensor = query.tensor[None, None]
                    probabilities = call(index, "nn", TICK, forward, tensor)
                    decision = call(
                        index, "pipeline.trading_engine", TICK,
                        engine.on_inference, probabilities[0], snapshot, now,
                    )
                emitted.append((snapshot, decision))
        except Exception:
            out.fail(f"tick {index}: {traceback.format_exc(limit=3)}")
        t1 = perf_counter_ns()
        if spans is not None:
            spans.add(index, TICK, None, t0, t1)
        if out.first_filled is None and any(d is not None for __, d in emitted):
            out.first_filled = index
        out.tick_ns.append(t1 - t0)
        outputs.append(emitted)
    kernels.append(common.time_kernel())
    out.factors = [
        common.scale(kernels[i // KERNEL_EVERY], kernels[i // KERNEL_EVERY + 1])
        for i in range(len(outputs))
    ]
    out.ticks = len(outputs)
    out.events_decoded = parser.stats.events_decoded
    _check(inputs, ticks, outputs, engine, out)
    return out


def _check(inputs: Inputs, ticks, outputs: list, engine: TradingEngine, out: Pass) -> None:
    """Output checks that hold for any seed; digest of what left the chain.

    The mirror's ladders must equal the tape's on every tick, and its
    last trade on every tick that printed one (the mirror carries the
    last trade forward and stamps sequence 0, so whole-snapshot
    checksums would differ).  Queries are counted against snapshots
    emitted: a frame whose changes all lie below the published depth
    carries no event and yields no snapshot.
    """
    if len(outputs) != len(ticks):
        missing = len(ticks) - len(outputs)
        out.fail(f"{len(outputs)} frames replayed for {len(ticks)} ticks", abs(missing))
    fold = hashlib.sha256()
    accepted = 0
    decisions = 0
    for index, (tick, emitted) in enumerate(zip(ticks, outputs)):
        expected = tick.snapshot
        events = inputs.event_counts[index]
        problem = None
        if len(emitted) != (1 if events else 0):
            problem = f"{len(emitted)} snapshots for a frame of {events} events"
        for snapshot, decision in emitted:
            out.snapshots += 1
            trade = (snapshot.last_trade_price, snapshot.last_trade_quantity)
            fold.update(repr((snapshot.bids, snapshot.asks, trade)).encode())
            if snapshot.bids != expected.bids or snapshot.asks != expected.asks:
                problem = "mirror ladders differ from the tape"
            elif expected.last_trade_price is not None and trade != (
                expected.last_trade_price,
                expected.last_trade_quantity,
            ):
                problem = "last trade differs from the tape"
            if decision is None:
                continue
            decisions += 1
            if decision.acted:
                accepted += 1
                fold.update(decision.encoded)
                problem = problem or check_order(decision, accepted, tick.timestamp, engine)
        if problem is not None:
            out.fail(f"tick {index}: {problem}")
    out.queries = decisions
    want = max(0, out.snapshots - (WINDOW - 1))
    if decisions != want:
        out.fail(
            f"{decisions} decisions for {out.snapshots} snapshots (want {want})",
            abs(want - decisions),
        )
    if accepted != engine.counters.accepted:
        out.fail(f"{accepted} orders seen, engine counted {engine.counters.accepted}")
    out.accepted = accepted
    out.digest = fold.hexdigest()


def check_order(
    decision: TradeDecision, sequence: int, now: int, engine: TradingEngine
) -> str | None:
    """An accepted order must decode to exactly the order decided, and
    re-encode to the same bytes."""
    want = ILink3Order(
        seq_num=sequence,
        sending_time=now,
        cl_ord_id=sequence,
        security_id=engine.security_id,
        side=decision.side,
        order_qty=decision.quantity,
        price=decision.price,
        ioc=True,
    )
    try:
        got = ILink3Order.decode(decision.encoded)
    except ProtocolError as exc:
        return f"order {sequence} does not decode: {exc}"
    if got != want or got.encode() != decision.encoded:
        return f"order {sequence} decodes to {got}, decided {want}"
    return None


def measure(inputs: Inputs, seconds: float, traced: bool) -> common.Outcome:
    """Replay passes until ``seconds`` have passed (at least one pass).

    Traced, passes alternate between untraced and spanned, so the
    overhead ratio compares neighbours.
    """
    out = common.Outcome()
    untraced: list[Pass] = []
    spanned: list[tuple[Pass, SpanLog]] = []
    deadline = perf_counter() + seconds
    count = 0
    while count < (2 if traced else 1) or perf_counter() < deadline:
        log = SpanLog() if traced and count % 2 == 1 else None
        result = replay(inputs, log)
        if log is None:
            untraced.append(result)
        else:
            spanned.append((result, log))
        out.attempted += result.ticks
        if result.failed:
            out.fail("; ".join(result.problems), result.failed)
        if not out.digest:
            out.digest = result.digest
        elif result.digest != out.digest:
            out.fail(f"pass {count}: outputs differ from the first pass")
        count += 1

    first = untraced[0]
    latencies_us = [us for p in untraced for us in p.latencies_us()]
    ref_s = sum(p.seconds() for p in untraced)
    host_s = sum(sum(p.tick_ns) for p in untraced) / 1e9
    ticks = sum(p.ticks for p in untraced)
    out.e2e = {
        "queries_per_s": common.ratio(sum(p.queries for p in untraced), ref_s),
        "op_host_p50_us": common.percentile(latencies_us, 50),
        "op_host_p90_us": common.percentile(latencies_us, 90),
    }
    out.report.append(
        f"host: {len(untraced)} untraced passes of {first.ticks} ticks, "
        f"{len(latencies_us)} tick latencies after the window filled (p99 "
        f"{common.percentile(latencies_us, 99):.1f} us); "
        f"{common.ratio(ticks, ref_s):.1f} ticks per reference second, "
        f"{common.ratio(ticks, host_s):.1f} per host second (unscaled)"
    )
    out.report.append(
        f"pipeline: {first.snapshots} snapshots, {first.queries} inferences, "
        f"{first.accepted} orders accepted"
    )
    if traced:
        out.layers, lines = _layer_metrics(first, spanned)
        out.layers["trace.overhead_ratio"] = common.ratio(
            common.median([p.seconds() for p, __ in spanned]),
            common.median([p.seconds() for p in untraced]),
        )
        out.report.extend(lines)
        for number, (__, log) in enumerate(spanned):
            out.spans.extend(dict(row, passno=number) for row in log.rows())
    return out


def _layer_metrics(
    counted: Pass, spanned: list[tuple[Pass, SpanLog]]
) -> tuple[dict[str, float], list[str]]:
    """Per-tick layer self times over the ticks after the window filled;
    counts from one untraced pass."""
    self_ns: dict[str, float] = {}
    ticks = 0
    for result, log in spanned:
        first = result.first_filled or 0
        for name, value in log.self_ns(first, result.factors).items():
            self_ns[name] = self_ns.get(name, 0.0) + value
        ticks += result.ticks - first
    per_tick = {
        name: common.ratio(self_ns.get(name, 0.0) / 1e3, ticks) for name in (*LAYERS, TICK)
    }
    tick_total = sum(per_tick.values())
    layers = {f"{name}.self_us_per_tick": per_tick[name] for name in LAYERS}
    layers.update(
        {
            "protocol.events_per_frame": common.ratio(counted.events_decoded, counted.ticks),
            "pipeline.feed_handler.snapshots_per_frame": common.ratio(
                counted.snapshots, counted.ticks
            ),
            "pipeline.offload.queries_per_snapshot": common.ratio(
                counted.queries, counted.snapshots
            ),
            "nn.inferences": float(counted.queries),
            "pipeline.trading_engine.accept_ratio": common.ratio(
                counted.accepted, counted.queries
            ),
            "trace.attributed_ratio": common.ratio(tick_total - per_tick[TICK], tick_total),
        }
    )
    return layers, _modelled_report(per_tick, ticks)


def _modelled_report(per_tick: dict[str, float], ticks: int) -> list[str]:
    """Host self time per layer beside its modelled Fig. 4(b) stage cost."""
    s = DEFAULT_STAGES
    infer_ns = lighttrader_profile().t_infer_ns("vanilla_cnn", nominal_point(), 1)
    modelled = {
        "protocol": (s.ethernet_udp_ns + s.packet_parse_ns, "Ethernet/UDP + parse"),
        "pipeline.feed_handler": (s.book_update_ns, "book update"),
        "pipeline.offload": (s.offload_ns, "offload"),
        "nn": (infer_ns, "t_infer VanillaCNN, batch 1, 2 GHz"),
        "pipeline.trading_engine": (
            s.order_generation_ns + s.order_encode_ns,
            "order generation + encode",
        ),
    }
    lines = [
        f"per tick over {ticks} traced ticks: self time in reference us (host) "
        f"beside the modelled Fig. 4(b) stage in ns (simulated)"
    ]
    for name in LAYERS:
        ns, label = modelled[name]
        lines.append(
            f"  {name:24s} {per_tick[name]:9.2f} us host  {ns:8d} ns simulated ({label})"
        )
    lines.append(f"  {'benchmark glue':24s} {per_tick[TICK]:9.2f} us host")
    return lines
