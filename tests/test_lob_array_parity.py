"""Differential property tests: array engine vs the golden reference.

The struct-of-arrays engine (``repro.lob.array_book`` /
``repro.lob.array_matching``) is only allowed to exist because it is
bit-exact against the object-per-order reference in ``tests/oracles/``:
same fills (prices, quantities, maker ids and owners), same
:class:`MarketEvent` stream with the same sequence numbers, same books
afterwards.  These tests drive seeded randomized op streams
(submit/cancel/replace across order types and TIFs, and replaces to a
non-positive price) through both engines per-op, through the
:class:`MatchingKernel`'s integer ops on the live book, and through both
surfaces interleaved on one engine; they check that every raising or
rejected op leaves the book, the sequence and the metrics as they were,
pin the results of one 20k-op stream as literals, and check that the
reference market generator writes byte-identical tapes on either engine
— the same checks the lob-parity CI gate runs.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np
import pytest

from repro.errors import MatchingError, OrderBookError
from repro.lob import (
    ArrayMatchingEngine,
    Order,
    OrderType,
    Side,
    TimeInForce,
)
from repro.metrics import MetricRegistry
from tests.oracles.market import reference_session
from tests.oracles.matching import MatchingEngine

SYMBOL = "ES"

# Stream row kinds.
OP_SUBMIT = 0
OP_CANCEL = 1
OP_REPLACE = 2
# A replace to the non-positive price in the row's price field: it
# raises, and the order stays resting.
OP_BAD_REPLACE = 3


def make_stream(seed: int, n_ops: int = 2500) -> list[tuple[int, ...]]:
    """A seeded randomized op stream as (kind, side, otype, tif, price, qty, id).

    Order ids are assigned explicitly so both engines see identical ids.
    Roughly 70% submits (a mix of LIMIT and MARKET across DAY/IOC/FOK),
    15% cancels and 15% replaces of orders that may still be resting,
    one in ten of those to a non-positive price.
    """
    rng = np.random.default_rng(seed)
    rows: list[tuple[int, ...]] = []
    live: list[int] = []
    oid = 0
    for _ in range(n_ops):
        r = rng.uniform()
        if r < 0.70 or not live:
            oid += 1
            side = int(rng.integers(0, 2))
            otype = (
                int(OrderType.MARKET)
                if rng.uniform() < 0.12
                else int(OrderType.LIMIT)
            )
            tif = int(rng.choice([0, 1, 2], p=[0.6, 0.3, 0.1]))
            price = int(rng.integers(95, 106)) if otype == int(OrderType.LIMIT) else 1
            qty = int(rng.integers(1, 12))
            rows.append((OP_SUBMIT, side, otype, tif, price, qty, oid))
            if otype == int(OrderType.LIMIT) and tif == int(TimeInForce.DAY):
                live.append(oid)
        elif r < 0.85:
            victim = live.pop(int(rng.integers(0, len(live))))
            rows.append((OP_CANCEL, 0, 0, 0, 0, 0, victim))
        else:
            target = live[int(rng.integers(0, len(live)))]
            if rng.uniform() < 0.1:
                bad_price = -int(rng.integers(0, 2))
                rows.append((OP_BAD_REPLACE, 0, 0, 0, bad_price, 0, target))
                continue
            new_price = int(rng.integers(95, 106)) if rng.uniform() < 0.7 else 0
            new_qty = (
                int(rng.integers(1, 12))
                if new_price == 0 or rng.uniform() < 0.5
                else 0
            )
            if new_price == 0 and new_qty == 0:
                new_qty = 1
            rows.append((OP_REPLACE, 0, 0, 0, new_price, new_qty, target))
    return rows


def apply_op(engine, row, timestamp=0):
    """Play one stream row into ``engine``; returns its MatchResult."""
    kind, side, otype, tif, price, qty, order_id = row
    if kind == OP_SUBMIT:
        order = Order(
            side=Side(side),
            price=price,
            quantity=qty,
            order_id=order_id,
            order_type=OrderType(otype),
            tif=TimeInForce(tif),
            owner="replay",
        )
        return engine.submit(SYMBOL, order, timestamp)
    if kind == OP_CANCEL:
        return engine.cancel(SYMBOL, order_id, timestamp)
    if kind == OP_BAD_REPLACE:
        return engine.replace(SYMBOL, order_id, timestamp, new_price=price)
    return engine.replace(
        SYMBOL,
        order_id,
        timestamp,
        new_price=price if price > 0 else None,
        new_quantity=qty if qty > 0 else None,
    )


def valid_rows(rows):
    """Filter ``rows`` to the ops the reference engine accepts as legal.

    Cancels/replaces of orders that already traded away and replaces to
    a non-positive price raise — drop those rows so every remaining op
    is applied by both engines.
    """
    engine = MatchingEngine()
    kept = []
    for row in rows:
        try:
            apply_op(engine, row)
        except (OrderBookError, MatchingError):
            continue
        kept.append(row)
    return kept


def outcome(engine, row):
    """``row``'s result (accepted, fills, events), or the type it raised."""
    try:
        result = apply_op(engine, row)
    except (OrderBookError, MatchingError) as exc:
        return type(exc)
    return result.accepted, result.fills, result.events


@pytest.mark.parametrize("seed", [7, 11, 42])
def test_per_op_differential_parity(seed):
    # The unfiltered stream: ops on orders that traded away and replaces
    # to a non-positive price raise in both engines and write nothing.
    rows = make_stream(seed)
    assert any(row[0] == OP_BAD_REPLACE for row in rows)
    reference = MatchingEngine()
    array = ArrayMatchingEngine()
    for i, row in enumerate(rows):
        # Events carry their sequence numbers.
        assert outcome(array, row) == outcome(reference, row), (i, row)
        assert array._sequence == reference._sequence, (i, row)
        assert not array.book(SYMBOL).is_crossed()
        if i % 100 == 0:
            ref_book = reference.book(SYMBOL)
            arr_book = array.book(SYMBOL)
            for depth in (10, 0, -1):
                assert arr_book.bids.top(depth) == ref_book.bids.top(depth)
                assert arr_book.asks.top(depth) == ref_book.asks.top(depth)
    assert array._sequence == reference._sequence
    assert len(array.book(SYMBOL)) == len(reference.book(SYMBOL))
    assert array.book(SYMBOL).bids.top(25) == reference.book(SYMBOL).bids.top(25)
    assert array.book(SYMBOL).asks.top(25) == reference.book(SYMBOL).asks.top(25)


def play(kernel, rows, timestamp=0, owner="replay"):
    """Play stream rows through ``kernel``'s integer ops.

    Replacement price/quantity <= 0 keeps the old value, as ``None``
    does in the per-op API.
    """
    owner_id = kernel.book.owners.intern(owner)
    for kind, side, otype, tif, price, qty, order_id in rows:
        if kind == OP_SUBMIT:
            kernel.submit(side, otype, tif, price, qty, order_id, timestamp, owner_id)
        elif kind == OP_CANCEL:
            kernel.cancel(order_id)
        else:
            kernel.replace(order_id, price, qty, timestamp)


def per_op_totals(engine, rows):
    """(fills, traded quantity, notional, rejected) of a per-op replay."""
    n_fills = traded = notional = rejected = 0
    for row in rows:
        result = apply_op(engine, row)
        if not result.accepted:
            rejected += 1
        for fill in result.fills:
            n_fills += 1
            traded += fill.quantity
            notional += fill.price * fill.quantity
    return n_fills, traded, notional, rejected


@pytest.mark.parametrize("seed", [3, 19])
def test_batch_replay_matches_per_op(seed):
    rows = valid_rows(make_stream(seed))
    per_op_registry = MetricRegistry()
    per_op = ArrayMatchingEngine(metrics=per_op_registry)
    reference = MatchingEngine()
    totals = per_op_totals(per_op, rows)
    assert per_op_totals(reference, rows) == totals

    batch_registry = MetricRegistry()
    batch = ArrayMatchingEngine(metrics=batch_registry)
    kernel = batch.kernel(SYMBOL)
    play(kernel, rows)
    assert batch_registry.public_snapshot() == per_op_registry.public_snapshot()
    assert (
        kernel.n_fills,
        kernel.traded_quantity,
        kernel.notional,
        kernel.rejected,
    ) == totals
    assert batch._sequence == per_op._sequence == reference._sequence
    for engine in (per_op, reference):
        assert batch.book(SYMBOL).bids.top(25) == engine.book(SYMBOL).bids.top(25)
        assert batch.book(SYMBOL).asks.top(25) == engine.book(SYMBOL).asks.top(25)
    assert not batch.book(SYMBOL).is_crossed()


def submit_cancel_stream(seed: int, n_ops: int) -> list[tuple[int, ...]]:
    """A seeded stream of 80% LIMIT DAY/IOC submits and 20% cancels."""
    rng = np.random.default_rng(seed)
    rows: list[tuple[int, ...]] = []
    live: list[int] = []
    oid = 0
    for _ in range(n_ops):
        if rng.uniform() < 0.8 or not live:
            oid += 1
            tif = int(rng.choice([0, 1], p=[0.7, 0.3]))
            side = int(rng.integers(0, 2))
            price = int(rng.integers(95, 106))
            qty = int(rng.integers(1, 10))
            rows.append((OP_SUBMIT, side, 0, tif, price, qty, oid))
            if tif == int(TimeInForce.DAY):
                live.append(oid)
        else:
            victim = live.pop(int(rng.integers(0, len(live))))
            rows.append((OP_CANCEL, 0, 0, 0, 0, 0, victim))
    return rows


def test_pinned_stream_results():
    # Seed 1, 20,000 ops before filtering: the book's metrics and the
    # kernel's totals are literals, so any change in what the book does
    # on this stream fails here.
    rows = valid_rows(submit_cancel_stream(seed=1, n_ops=20_000))
    registry = MetricRegistry()
    per_op = ArrayMatchingEngine(metrics=registry)
    for row in rows:
        apply_op(per_op, row)
    assert registry.public_snapshot() == {
        "counters": {
            "lob.cancels": 537,
            "lob.fills": 10_372,
            "lob.orders": 15_999,
            "lob.replaces": 0,
        },
        "gauges": {
            "lob.levels_high_water": {"value": 9, "max": 11},
            "lob.slab_occupancy_high_water": {"value": 834, "max": 836},
        },
        "histograms": {},
    }
    replayed = ArrayMatchingEngine()
    kernel = replayed.kernel(SYMBOL)
    play(kernel, rows)
    totals = (
        len(rows),
        kernel.n_fills,
        kernel.traded_quantity,
        kernel.notional,
        kernel.rejected,
        replayed._sequence,
    )
    assert totals == (16_536, 10_372, 28_960, 2_895_479, 0, 24_703)
    assert per_op._sequence == replayed._sequence
    assert replayed.book(SYMBOL).bids.top(25) == per_op.book(SYMBOL).bids.top(25)
    assert replayed.book(SYMBOL).asks.top(25) == per_op.book(SYMBOL).asks.top(25)


@pytest.mark.parametrize("seed", [5, 13])
def test_interleaved_per_op_and_int_ops_match_oracle(seed):
    # One engine takes each op through a randomly chosen surface; the
    # oracle replays the same stream per op.  Per-op results after int
    # ops must still number their events from the shared sequence.
    rows = valid_rows(make_stream(seed))
    rng = np.random.default_rng(seed)
    registry = MetricRegistry()
    engine = ArrayMatchingEngine(metrics=registry)
    kernel = engine.kernel(SYMBOL)
    reference_registry = MetricRegistry()
    reference = MatchingEngine(metrics=reference_registry)
    for i, row in enumerate(rows):
        ref = apply_op(reference, row, timestamp=i)
        if rng.uniform() < 0.5:
            play(kernel, [row], timestamp=i)
        else:
            arr = apply_op(engine, row, timestamp=i)
            assert (arr.accepted, arr.fills, arr.events) == (
                ref.accepted,
                ref.fills,
                ref.events,
            ), (i, row)
        assert engine._sequence == reference._sequence, (i, row)
    assert registry.public_snapshot() == reference_registry.public_snapshot()
    assert len(engine.book(SYMBOL)) == len(reference.book(SYMBOL))
    assert engine.book(SYMBOL).bids.top(25) == reference.book(SYMBOL).bids.top(25)
    assert engine.book(SYMBOL).asks.top(25) == reference.book(SYMBOL).asks.top(25)


def book_state(engine):
    """A deep copy of the book's columns, id map and level lists, plus
    the engine's sequence."""
    book = engine.book(SYMBOL)
    slab = book.slab
    columns = (
        slab.order_id,
        slab.price,
        slab.qty,
        slab.qty_orig,
        slab.side,
        slab.owner,
        slab.entry_time,
        slab.otype,
        slab.tif,
        slab.nxt,
        slab.prv,
        slab._free,
    )
    levels = [
        getattr(side, name)
        for side in (book.bids, book.asks)
        for name in ("prices", "volume", "head", "tail", "count")
    ]
    return copy.deepcopy(
        (columns, slab.in_use, slab.capacity, book._id_slot, levels, engine._sequence)
    )


class _Surface:
    """The per-op API or the kernel's int ops, behind one call shape."""

    def __init__(self, engine, per_op):
        self.engine = engine
        self.per_op = per_op
        self.kernel = engine.kernel(SYMBOL)

    def cancel(self, order_id):
        if self.per_op:
            self.engine.cancel(SYMBOL, order_id, 1)
        else:
            self.kernel.cancel(order_id)

    def replace(self, order_id, price, qty):
        if self.per_op:
            self.engine.replace(
                SYMBOL, order_id, 1, new_price=price or None, new_quantity=qty or None
            )
        else:
            self.kernel.replace(order_id, price, qty, 1)

    def submit_fok(self, side, otype, price, qty):
        """Submit an FOK order; True when it was rejected."""
        row = (OP_SUBMIT, side, otype, int(TimeInForce.FOK), price, qty, 10**9)
        if self.per_op:
            result = apply_op(self.engine, row, timestamp=1)
            assert not result.fills and not result.events
            return not result.accepted
        rejected = self.kernel.rejected
        play(self.kernel, [row], timestamp=1)
        assert self.kernel.op_filled == 0 and not self.kernel.op_rested
        return self.kernel.rejected == rejected + 1


@pytest.mark.parametrize("per_op", [True, False], ids=["per_op", "int_ops"])
@pytest.mark.parametrize("seed", [7, 29])
def test_raising_and_rejected_ops_leave_the_book_untouched(seed, per_op):
    # Every raising case and an FOK shortfall are checked before any
    # write, so each op is atomic on its own, on either surface.
    rows = valid_rows(make_stream(seed, n_ops=1200))
    rng = np.random.default_rng(seed)
    registry = MetricRegistry()
    engine = ArrayMatchingEngine(metrics=registry)
    surface = _Surface(engine, per_op)
    probes = 0
    for row in rows:
        if per_op:
            apply_op(engine, row)
        else:
            play(surface.kernel, [row])
        if rng.uniform() >= 0.05:
            continue
        probes += 1
        book = engine.book(SYMBOL)
        before = book_state(engine)
        snapshot = registry.public_snapshot()
        unknown = 10**9 + probes
        with pytest.raises(OrderBookError):
            surface.cancel(unknown)
        with pytest.raises(OrderBookError):
            surface.replace(unknown, 100, 1)
        if len(book):
            live = next(iter(book._id_slot))
            with pytest.raises(MatchingError):
                surface.replace(live, 0, 0)
            if per_op:  # an invalid replacement is refused before the cancel
                with pytest.raises(OrderBookError):
                    engine.replace(SYMBOL, live, 1, new_price=-1)
        assert book_state(engine) == before
        assert registry.public_snapshot() == snapshot

        # An FOK order for more than the whole opposite side.
        side = int(rng.integers(0, 2))
        opposite = book.asks if side == int(Side.BID) else book.bids
        otype = int(rng.integers(0, 2))
        price = 105 if side == int(Side.BID) else 95
        assert surface.submit_fok(side, otype, price, opposite.total_volume() + 1)
        assert book_state(engine) == before
        expected = copy.deepcopy(snapshot)
        expected["counters"]["lob.orders"] += 1
        assert registry.public_snapshot() == expected
    assert probes >= 10


def _tape_digest(tmp_path, engine):
    tape = reference_session(duration_s=1.5, seed=3, engine=engine)
    path = tmp_path / f"tape_{engine.__name__}.npz"
    tape.save(path)
    return len(tape), hashlib.sha256(path.read_bytes()).hexdigest()


def test_generator_tape_byte_identical_across_engines(tmp_path):
    n_ref, ref_digest = _tape_digest(tmp_path, MatchingEngine)
    n_arr, arr_digest = _tape_digest(tmp_path, ArrayMatchingEngine)
    assert n_ref == n_arr > 0
    assert ref_digest == arr_digest
