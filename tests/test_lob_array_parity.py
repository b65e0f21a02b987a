"""Differential property tests: array engine vs the golden reference.

The struct-of-arrays engine (``repro.lob.array_book`` /
``repro.lob.array_matching``) is only allowed to exist because it is
bit-exact against the object-per-order reference in ``tests/oracles/``:
same fills (prices, quantities, maker ids and owners), same
:class:`MarketEvent` stream with the same sequence numbers, same books
afterwards.  These tests drive seeded randomized op streams
(submit/cancel/replace across order types and TIFs) through both
engines per-op, through one :class:`ReplaySession` as a batch, and
through the reference market generator on either engine end-to-end
(byte-identical tapes) — the same checks the lob-parity CI gate runs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import MatchingError, OrderBookError
from repro.lob import (
    ArrayMatchingEngine,
    Order,
    OrderType,
    ReplaySession,
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


def make_stream(seed: int, n_ops: int = 2500) -> list[tuple[int, ...]]:
    """A seeded randomized op stream as (kind, side, otype, tif, price, qty, id).

    Order ids are assigned explicitly so both engines see identical ids.
    Roughly 70% submits (a mix of LIMIT and MARKET across DAY/IOC/FOK),
    15% cancels and 15% replaces of orders that may still be resting.
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
    return engine.replace(
        SYMBOL,
        order_id,
        timestamp,
        new_price=price if price > 0 else None,
        new_quantity=qty if qty > 0 else None,
    )


def valid_rows(rows):
    """Filter ``rows`` to the ops the reference engine accepts as legal.

    Cancels/replaces of orders that already traded away raise — drop
    those rows so every remaining op is applied by both engines.
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


@pytest.mark.parametrize("seed", [7, 11, 42])
def test_per_op_differential_parity(seed):
    rows = valid_rows(make_stream(seed))
    reference = MatchingEngine()
    array = ArrayMatchingEngine()
    for i, row in enumerate(rows):
        ref = apply_op(reference, row)
        arr = apply_op(array, row)
        assert arr.accepted == ref.accepted, (i, row)
        assert arr.fills == ref.fills, (i, row)
        assert arr.events == ref.events, (i, row)  # includes sequences
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


def play(session, rows, timestamp=0, owner="replay"):
    """Play stream rows onto ``session`` without committing it.

    Replacement price/quantity <= 0 keeps the old value, as ``None``
    does in the per-op API.
    """
    owner_id = session.intern(owner)
    for kind, side, otype, tif, price, qty, order_id in rows:
        if kind == OP_SUBMIT:
            session.submit(side, otype, tif, price, qty, order_id, timestamp, owner_id)
        elif kind == OP_CANCEL:
            session.cancel(order_id)
        else:
            session.replace(order_id, price, qty, timestamp)


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
    session = ReplaySession(batch, SYMBOL)
    play(session, rows)
    session.commit()
    assert batch_registry.public_snapshot() == per_op_registry.public_snapshot()
    assert (
        session.n_fills,
        session.traded_quantity,
        session.notional,
        session.rejected,
    ) == totals
    assert batch._sequence == per_op._sequence == reference._sequence
    for engine in (per_op, reference):
        assert batch.book(SYMBOL).bids.top(25) == engine.book(SYMBOL).bids.top(25)
        assert batch.book(SYMBOL).asks.top(25) == engine.book(SYMBOL).asks.top(25)
    assert not batch.book(SYMBOL).is_crossed()


def test_per_op_calls_work_after_a_batch():
    # The session checks arrays out into plain lists and commits them
    # back; per-op calls on the same book must keep working.
    engine = ArrayMatchingEngine()
    session = ReplaySession(engine, SYMBOL)
    play(session, valid_rows(make_stream(5)))
    session.commit()
    probe = Order(side=Side.BID, price=2, quantity=3, order_id=10**9, owner="after")
    engine.submit(SYMBOL, probe, 1)
    assert probe.order_id in engine.book(SYMBOL)
    engine.cancel(SYMBOL, probe.order_id, 2)
    assert probe.order_id not in engine.book(SYMBOL)


def test_failed_batch_leaves_book_untouched():
    engine = ArrayMatchingEngine()
    engine.submit(
        SYMBOL, Order(side=Side.BID, price=100, quantity=5, order_id=1), 0
    )
    before_bids = engine.book(SYMBOL).bids.top(5)
    bad = [
        (OP_SUBMIT, int(Side.ASK), 0, 0, 105, 5, 2),
        (OP_CANCEL, 0, 0, 0, 0, 0, 999),  # unknown order: raises
    ]
    with pytest.raises(OrderBookError):
        play(ReplaySession(engine, SYMBOL), bad)  # never committed
    assert engine.book(SYMBOL).bids.top(5) == before_bids
    assert engine.book(SYMBOL).asks.top(5) == []  # ask from op 1 rolled back
    assert 2 not in engine.book(SYMBOL)


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
