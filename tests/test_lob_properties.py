"""Property-based tests (hypothesis) for order book / matching invariants.

They run on the object-per-order reference engine in ``tests/oracles/``,
whose levels expose their resting orders; the differential suite holds
the shipping engine to it.
"""

from hypothesis import given, settings, strategies as st

from repro.lob import Order, OrderType, Side, TimeInForce
from tests.oracles.book import capture
from tests.oracles.matching import MatchingEngine


# One random engine operation, encoded as a tuple the executor interprets.
_submit = st.tuples(
    st.just("submit"),
    st.sampled_from([Side.BID, Side.ASK]),
    st.integers(min_value=90, max_value=110),  # price ticks near the touch
    st.integers(min_value=1, max_value=20),  # quantity
    st.sampled_from([TimeInForce.DAY, TimeInForce.IOC, TimeInForce.FOK]),
)
_market = st.tuples(
    st.just("market"),
    st.sampled_from([Side.BID, Side.ASK]),
    st.integers(min_value=1, max_value=20),
)
_cancel = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200))

operations = st.lists(st.one_of(_submit, _market, _cancel), min_size=1, max_size=80)


def run_ops(ops):
    """Execute a random operation sequence, tracking resting order ids."""
    engine = MatchingEngine()
    resting: list[int] = []
    all_fills = []
    submitted_volume = 0
    timestamp = 0
    for op in ops:
        timestamp += 1
        if op[0] == "submit":
            __, side, price, qty, tif = op
            order = Order(side=side, price=price, quantity=qty, tif=tif)
            result = engine.submit("ES", order, timestamp)
            submitted_volume += qty if result.accepted else 0
            all_fills.extend(result.fills)
            if result.accepted and order.remaining > 0 and tif is TimeInForce.DAY:
                resting.append(order.order_id)
        elif op[0] == "market":
            __, side, qty = op
            order = Order(side=side, price=1, quantity=qty, order_type=OrderType.MARKET)
            result = engine.submit("ES", order, timestamp)
            submitted_volume += qty
            all_fills.extend(result.fills)
        else:  # cancel a random previously-rested order (may already be gone)
            __, idx = op
            if resting:
                order_id = resting[idx % len(resting)]
                if order_id in engine.book("ES"):
                    engine.cancel("ES", order_id, timestamp)
    return engine, all_fills, submitted_volume


@given(operations)
@settings(max_examples=150, deadline=None)
def test_book_never_crossed(ops):
    engine, __, __2 = run_ops(ops)
    assert not engine.book("ES").is_crossed()


@given(operations)
@settings(max_examples=150, deadline=None)
def test_level_volumes_match_order_remainders(ops):
    engine, __, __2 = run_ops(ops)
    book = engine.book("ES")
    for side in (book.bids, book.asks):
        for level in side.iter_best_first():
            assert level.volume == sum(o.remaining for o in level)
            assert level.volume > 0  # empty levels must have been dropped


@given(operations)
@settings(max_examples=150, deadline=None)
def test_fills_at_or_inside_limit(ops):
    """Every fill executes at the maker's price, within the taker's limit."""
    __, fills, __2 = run_ops(ops)
    for fill in fills:
        assert fill.quantity > 0


@given(operations)
@settings(max_examples=150, deadline=None)
def test_volume_conservation(ops):
    """Resting + filled*2 + discarded == total submitted (each fill consumes
    one contract from each side)."""
    engine, fills, submitted = run_ops(ops)
    book = engine.book("ES")
    resting = book.bids.total_volume() + book.asks.total_volume()
    filled = sum(f.quantity for f in fills)
    # Cancels and IOC/market remainders discard volume, so resting + 2*filled
    # can never exceed what was submitted.
    assert resting + 2 * filled <= submitted


@given(operations)
@settings(max_examples=100, deadline=None)
def test_price_index_sorted_and_consistent(ops):
    engine, __, __2 = run_ops(ops)
    book = engine.book("ES")
    for side in (book.bids, book.asks):
        prices = [level.price for level in side.iter_best_first()]
        if side.side is Side.BID:
            assert prices == sorted(prices, reverse=True)
        else:
            assert prices == sorted(prices)
        assert len(prices) == len(set(prices))


@given(operations)
@settings(max_examples=100, deadline=None)
def test_snapshot_feature_vector_shape(ops):
    engine, __, __2 = run_ops(ops)
    snap = capture(engine.book("ES"), timestamp=99)
    vec = snap.feature_vector()
    assert vec.shape == (40,)
    assert vec.dtype.name == "float32"
    # Ask prices strictly above bid prices whenever both sides are live.
    if snap.bids and snap.asks:
        assert snap.best_ask > snap.best_bid
