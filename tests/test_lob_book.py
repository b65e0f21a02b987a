"""Unit tests for the limit order book container."""

import pytest

from repro.errors import OrderBookError
from repro.lob import Order, Side
from tests.oracles.book import LimitOrderBook, PriceLevel


def make_order(side=Side.BID, price=100, quantity=5, **kwargs):
    return Order(side=side, price=price, quantity=quantity, **kwargs)


class TestPriceLevel:
    def test_append_accumulates_volume(self):
        level = PriceLevel(100)
        level.append(make_order(quantity=5))
        level.append(make_order(quantity=7))
        assert level.volume == 12
        assert len(level) == 2

    def test_fifo_order(self):
        level = PriceLevel(100)
        first = make_order()
        second = make_order()
        level.append(first)
        level.append(second)
        assert level.peek() is first

    def test_duplicate_id_rejected(self):
        level = PriceLevel(100)
        order = make_order()
        level.append(order)
        with pytest.raises(OrderBookError):
            level.append(order)

    def test_reduce_pops_exhausted_order(self):
        level = PriceLevel(100)
        order = make_order(quantity=5)
        level.append(order)
        level.reduce(order, 5)
        assert level.is_empty
        assert level.volume == 0

    def test_reduce_partial_keeps_order(self):
        level = PriceLevel(100)
        order = make_order(quantity=5)
        level.append(order)
        level.reduce(order, 2)
        assert order.remaining == 3
        assert level.volume == 3
        assert level.peek() is order

    def test_reduce_beyond_remaining_rejected(self):
        level = PriceLevel(100)
        order = make_order(quantity=5)
        level.append(order)
        with pytest.raises(OrderBookError):
            level.reduce(order, 6)

    def test_peek_empty_raises(self):
        with pytest.raises(OrderBookError):
            PriceLevel(100).peek()

    def test_remove_credits_volume(self):
        level = PriceLevel(100)
        a, b = make_order(quantity=5), make_order(quantity=3)
        level.append(a)
        level.append(b)
        level.remove(a)
        assert level.volume == 3
        assert level.peek() is b


class TestBookSide:
    def test_best_price_bid_is_highest(self):
        book = LimitOrderBook("ES")
        book.insert(make_order(price=100))
        book.insert(make_order(price=102))
        book.insert(make_order(price=101))
        assert book.best_bid == 102

    def test_best_price_ask_is_lowest(self):
        book = LimitOrderBook("ES")
        book.insert(make_order(side=Side.ASK, price=105))
        book.insert(make_order(side=Side.ASK, price=103))
        assert book.best_ask == 103

    def test_top_depth_ordering(self):
        book = LimitOrderBook("ES")
        for price, qty in [(100, 1), (99, 2), (101, 3)]:
            book.insert(make_order(price=price, quantity=qty))
        top = book.bids.top(2)
        assert top == [(101, 3), (100, 1)]

    def test_empty_side(self):
        book = LimitOrderBook("ES")
        assert book.bids.best_price() is None
        assert book.bids.top(5) == []
        assert book.bids.is_empty

    def test_crosses(self):
        book = LimitOrderBook("ES")
        book.insert(make_order(price=100))
        assert book.bids.crosses(100)  # ask at 100 hits bid 100
        assert book.bids.crosses(99)
        assert not book.bids.crosses(101)


class TestLimitOrderBook:
    def test_insert_find_remove(self):
        book = LimitOrderBook("ES")
        order = make_order()
        book.insert(order)
        assert order.order_id in book
        assert book.find(order.order_id) is order
        removed = book.remove(order.order_id)
        assert removed is order
        assert order.order_id not in book
        assert book.bids.is_empty

    def test_find_missing_raises(self):
        with pytest.raises(OrderBookError):
            LimitOrderBook("ES").find(12345)

    def test_double_insert_rejected(self):
        book = LimitOrderBook("ES")
        order = make_order()
        book.insert(order)
        with pytest.raises(OrderBookError):
            book.insert(order)

    def test_reduce_exhausts_and_drops_level(self):
        book = LimitOrderBook("ES")
        order = make_order(quantity=4)
        book.insert(order)
        book.reduce(order.order_id, 4)
        assert order.order_id not in book
        assert book.bids.is_empty

    def test_mid_and_spread(self):
        book = LimitOrderBook("ES")
        book.insert(make_order(side=Side.BID, price=100))
        book.insert(make_order(side=Side.ASK, price=104))
        assert book.mid_price == 102
        assert book.spread == 4
        assert not book.is_crossed()

    def test_mid_none_when_one_sided(self):
        book = LimitOrderBook("ES")
        book.insert(make_order(price=100))
        assert book.mid_price is None
        assert book.spread is None

    def test_len_counts_resting_orders(self):
        book = LimitOrderBook("ES")
        book.insert(make_order())
        book.insert(make_order(side=Side.ASK, price=105))
        assert len(book) == 2


class TestOrderValidation:
    def test_nonpositive_quantity_rejected(self):
        with pytest.raises(OrderBookError):
            Order(side=Side.BID, price=100, quantity=0)

    def test_nonpositive_limit_price_rejected(self):
        with pytest.raises(OrderBookError):
            Order(side=Side.BID, price=0, quantity=1)

    def test_side_opposite_and_sign(self):
        assert Side.BID.opposite is Side.ASK
        assert Side.ASK.opposite is Side.BID
        assert Side.BID.sign == 1
        assert Side.ASK.sign == -1

    def test_remaining_defaults_to_quantity(self):
        order = make_order(quantity=9)
        assert order.remaining == 9
        assert order.filled == 0
        assert not order.is_done
