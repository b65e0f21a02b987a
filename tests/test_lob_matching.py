"""Unit tests for the matching engine semantics.

Every test runs against both book engines — the object-per-order
reference in ``tests/oracles/`` and the shipping struct-of-arrays
engine — so the semantics pinned here are pinned for the pair.
"""

import pytest

from repro.errors import MatchingError
from repro.lob import (
    ArrayMatchingEngine,
    Order,
    OrderType,
    Side,
    TimeInForce,
    TradeTick,
    UpdateAction,
    BookUpdate,
)
from tests.oracles.matching import MatchingEngine


@pytest.fixture(params=["reference", "array"])
def engine(request):
    if request.param == "reference":
        return MatchingEngine()
    return ArrayMatchingEngine()


def limit(side, price, quantity, **kwargs):
    return Order(side=side, price=price, quantity=quantity, **kwargs)


def volume_at(side_obj, price):
    """Resting volume at ``price`` on either engine's book side."""
    if hasattr(side_obj, "level_at"):  # reference BookSide
        level = side_obj.level_at(price)
        return 0 if level is None else level.volume
    idx = side_obj.find(price)
    return 0 if idx < 0 else int(side_obj.volume[idx])


def seed_book(engine, symbol="ES"):
    """Asks at 102(5), 103(5); bids at 100(5), 99(5)."""
    engine.submit(symbol, limit(Side.ASK, 102, 5), 0)
    engine.submit(symbol, limit(Side.ASK, 103, 5), 0)
    engine.submit(symbol, limit(Side.BID, 100, 5), 0)
    engine.submit(symbol, limit(Side.BID, 99, 5), 0)


class TestBasicMatching:
    def test_resting_order_publishes_new_level(self, engine):
        result = engine.submit("ES", limit(Side.BID, 100, 5), 10)
        assert result.accepted
        assert not result.fills
        updates = [e for e in result.events if isinstance(e, BookUpdate)]
        assert len(updates) == 1
        assert updates[0].action is UpdateAction.NEW
        assert updates[0].volume == 5

    def test_crossing_order_fills_at_maker_price(self, engine):
        seed_book(engine)
        result = engine.submit("ES", limit(Side.BID, 103, 3), 20)
        assert result.filled_quantity == 3
        assert result.fills[0].price == 102  # maker's price, not 103

    def test_fill_walks_levels_best_first(self, engine):
        seed_book(engine)
        result = engine.submit("ES", limit(Side.BID, 103, 8), 20)
        assert [f.price for f in result.fills] == [102, 103]
        assert [f.quantity for f in result.fills] == [5, 3]

    def test_time_priority_within_level(self, engine):
        first = limit(Side.ASK, 102, 2, owner="first")
        second = limit(Side.ASK, 102, 2, owner="second")
        engine.submit("ES", first, 0)
        engine.submit("ES", second, 1)
        result = engine.submit("ES", limit(Side.BID, 102, 3), 2)
        assert result.fills[0].maker_owner == "first"
        assert result.fills[0].quantity == 2
        assert result.fills[1].maker_owner == "second"
        assert result.fills[1].quantity == 1

    def test_partial_fill_rests_remainder(self, engine):
        seed_book(engine)
        result = engine.submit("ES", limit(Side.BID, 102, 8), 20)
        assert result.filled_quantity == 5
        book = engine.book("ES")
        assert book.best_bid == 102
        assert volume_at(book.bids, 102) == 3

    def test_book_never_crossed_after_matching(self, engine):
        seed_book(engine)
        engine.submit("ES", limit(Side.BID, 103, 12), 20)
        assert not engine.book("ES").is_crossed()

    def test_trade_tick_emitted_per_level(self, engine):
        seed_book(engine)
        result = engine.submit("ES", limit(Side.BID, 103, 8), 20)
        trades = [e for e in result.events if isinstance(e, TradeTick)]
        assert [(t.price, t.quantity) for t in trades] == [(102, 5), (103, 3)]
        assert all(t.aggressor_side is Side.BID for t in trades)

    def test_volume_conserved(self, engine):
        seed_book(engine)
        book = engine.book("ES")
        before = book.asks.total_volume()
        result = engine.submit("ES", limit(Side.BID, 103, 7), 20)
        after = book.asks.total_volume()
        assert before - after == result.filled_quantity == 7


class TestMarketOrders:
    def test_market_order_sweeps(self, engine):
        seed_book(engine)
        order = Order(side=Side.BID, price=1, quantity=10, order_type=OrderType.MARKET)
        result = engine.submit("ES", order, 5)
        assert result.filled_quantity == 10
        assert engine.book("ES").asks.is_empty

    def test_market_remainder_discarded(self, engine):
        seed_book(engine)
        order = Order(side=Side.BID, price=1, quantity=99, order_type=OrderType.MARKET)
        result = engine.submit("ES", order, 5)
        assert result.filled_quantity == 10
        assert order.remaining == 89
        # Nothing rests on the bid side beyond the seeded orders.
        assert engine.book("ES").best_bid == 100


class TestTimeInForce:
    def test_ioc_remainder_not_rested(self, engine):
        seed_book(engine)
        order = limit(Side.BID, 102, 9, tif=TimeInForce.IOC)
        result = engine.submit("ES", order, 5)
        assert result.filled_quantity == 5
        assert engine.book("ES").best_bid == 100  # remainder discarded

    def test_fok_rejected_when_unfillable(self, engine):
        seed_book(engine)
        order = limit(Side.BID, 102, 9, tif=TimeInForce.FOK)
        result = engine.submit("ES", order, 5)
        assert not result.accepted
        assert not result.fills
        # Book untouched.
        assert volume_at(engine.book("ES").asks, 102) == 5

    def test_fok_fills_when_fully_fillable(self, engine):
        seed_book(engine)
        order = limit(Side.BID, 103, 9, tif=TimeInForce.FOK)
        result = engine.submit("ES", order, 5)
        assert result.accepted
        assert result.filled_quantity == 9

    def test_market_fok_rejected_when_book_too_thin(self, engine):
        # Regression: MARKET+FOK used to degrade silently to IOC and
        # partial-fill.  A market FOK for more than the whole opposite
        # side must reject and leave the book untouched.
        seed_book(engine)
        order = Order(
            side=Side.BID,
            price=1,
            quantity=11,  # asks hold 10 in total
            order_type=OrderType.MARKET,
            tif=TimeInForce.FOK,
        )
        result = engine.submit("ES", order, 5)
        assert not result.accepted
        assert not result.fills
        assert order.remaining == 11
        assert engine.book("ES").asks.total_volume() == 10

    def test_market_fok_sweeps_when_fully_fillable(self, engine):
        seed_book(engine)
        order = Order(
            side=Side.BID,
            price=1,
            quantity=10,
            order_type=OrderType.MARKET,
            tif=TimeInForce.FOK,
        )
        result = engine.submit("ES", order, 5)
        assert result.accepted
        assert result.filled_quantity == 10
        assert engine.book("ES").asks.is_empty


class TestCancelReplace:
    def test_cancel_removes_and_publishes_delete(self, engine):
        order = limit(Side.BID, 100, 5)
        engine.submit("ES", order, 0)
        result = engine.cancel("ES", order.order_id, 1)
        assert order.order_id not in engine.book("ES")
        updates = [e for e in result.events if isinstance(e, BookUpdate)]
        assert updates[0].action is UpdateAction.DELETE

    def test_cancel_partial_level_publishes_change(self, engine):
        a = limit(Side.BID, 100, 5)
        b = limit(Side.BID, 100, 3)
        engine.submit("ES", a, 0)
        engine.submit("ES", b, 0)
        result = engine.cancel("ES", a.order_id, 1)
        updates = [e for e in result.events if isinstance(e, BookUpdate)]
        assert updates[0].action is UpdateAction.CHANGE
        assert updates[0].volume == 3

    def test_replace_price_loses_priority(self, engine):
        a = limit(Side.ASK, 102, 5, owner="a")
        b = limit(Side.ASK, 102, 5, owner="b")
        engine.submit("ES", a, 0)
        engine.submit("ES", b, 1)
        # Move a away and back: a should now queue behind b.
        engine.replace("ES", a.order_id, 2, new_price=103)
        engine.replace("ES", a.order_id, 3, new_price=102)
        result = engine.submit("ES", limit(Side.BID, 102, 5), 4)
        assert result.fills[0].maker_owner == "b"

    def test_replace_can_cross(self, engine):
        seed_book(engine)
        order = limit(Side.BID, 100, 5)
        engine.submit("ES", order, 0)
        result = engine.replace("ES", order.order_id, 1, new_price=102)
        assert result.filled_quantity == 5

    def test_replace_nothing_raises(self, engine):
        order = limit(Side.BID, 100, 5)
        engine.submit("ES", order, 0)
        with pytest.raises(MatchingError):
            engine.replace("ES", order.order_id, 1)

    def test_replace_quantity_only(self, engine):
        order = limit(Side.BID, 100, 5)
        engine.submit("ES", order, 0)
        engine.replace("ES", order.order_id, 1, new_quantity=9)
        assert volume_at(engine.book("ES").bids, 100) == 9

    def test_replace_of_fok_order_fills_when_fillable(self, engine):
        seed_book(engine)
        fok = limit(Side.BID, 98, 4, tif=TimeInForce.FOK, owner="planted")
        engine.book("ES").insert(fok)
        # Asks hold 10 through 103, so 9 at 103 fills completely.
        result = engine.replace("ES", fok.order_id, 1, new_price=103, new_quantity=9)
        assert result.accepted
        assert result.filled_quantity == 9

    def test_replace_of_fok_order_rejects_when_unfillable(self, engine):
        # FOK orders never rest via submit, so plant one directly on the
        # book (both books expose insert()) and replace it through the
        # engine: the resubmission re-runs the full-fill check and
        # rejects, leaving the order cancelled and the asks untouched.
        seed_book(engine)
        fok = limit(Side.BID, 98, 4, tif=TimeInForce.FOK, owner="planted")
        engine.book("ES").insert(fok)
        result = engine.replace("ES", fok.order_id, 1, new_price=102, new_quantity=9)
        assert not result.accepted
        assert not result.fills
        assert fok.order_id not in engine.book("ES")
        assert engine.book("ES").asks.total_volume() == 10


class TestSequencing:
    def test_event_sequence_monotone(self, engine):
        seed_book(engine)
        result = engine.submit("ES", limit(Side.BID, 103, 8), 20)
        seqs = [e.sequence for e in result.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_multiple_symbols_isolated(self, engine):
        engine.submit("ES", limit(Side.BID, 100, 5), 0)
        engine.submit("NQ", limit(Side.ASK, 200, 5), 0)
        assert engine.book("ES").best_ask is None
        assert engine.book("NQ").best_bid is None
        assert set(engine.symbols) == {"ES", "NQ"}
