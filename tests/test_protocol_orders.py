"""Tests for FIX and iLink3 order-entry codecs and the packet parser."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ChecksumError, ProtocolError
from repro.lob import BookUpdate, Side, UpdateAction
from repro.protocol import (
    ILink3Cancel,
    ILink3Order,
    NewOrderSingle,
    OrderCancelRequest,
    PacketParser,
    SecurityDirectory,
    decode_fields,
    encode_fields,
    encode_market_events,
    encode_udp_frame,
    frame_sofh,
    unframe_sofh,
)
from repro.protocol.ilink3 import SOFH_LEN


class TestFixFraming:
    def test_encode_decode_roundtrip(self):
        fields = [(35, "D"), (49, "ME"), (56, "CME"), (11, "abc-1")]
        decoded = decode_fields(encode_fields(fields))
        assert decoded[0] == (8, "FIX.4.4")
        assert (35, "D") in decoded
        assert decoded[-1][0] == 10

    def test_checksum_validated(self):
        message = bytearray(encode_fields([(35, "D"), (11, "x")]))
        message[-3] = ord("9")  # corrupt checksum digits
        with pytest.raises((ChecksumError, ProtocolError)):
            decode_fields(bytes(message))

    def test_body_tampering_detected(self):
        message = bytearray(encode_fields([(35, "D"), (11, "x")]))
        idx = message.find(b"11=x")
        message[idx + 3] = ord("y")
        with pytest.raises(ChecksumError):
            decode_fields(bytes(message))

    def test_managed_tags_rejected(self):
        with pytest.raises(ProtocolError):
            encode_fields([(8, "FIX.4.4")])
        with pytest.raises(ProtocolError):
            encode_fields([(9, "10")])
        with pytest.raises(ProtocolError):
            encode_fields([(10, "000")])

    def test_missing_soh_rejected(self):
        with pytest.raises(ProtocolError):
            decode_fields(b"8=FIX.4.4")


class TestFixOrders:
    def test_new_order_roundtrip(self):
        order = NewOrderSingle(
            cl_ord_id="LT-42",
            symbol="ESU6",
            side=Side.BID,
            quantity=3,
            price=4500.25,
            sending_time_ns=1_000_000,
            seq_num=17,
        )
        assert NewOrderSingle.decode(order.encode()) == order

    def test_market_order_has_no_price(self):
        order = NewOrderSingle(
            cl_ord_id="LT-1",
            symbol="ESU6",
            side=Side.ASK,
            quantity=1,
            price=None,
            sending_time_ns=5,
        )
        decoded = NewOrderSingle.decode(order.encode())
        assert decoded.price is None
        assert b"40=1" in order.encode()

    def test_cancel_roundtrip(self):
        cancel = OrderCancelRequest(
            cl_ord_id="LT-2",
            orig_cl_ord_id="LT-1",
            symbol="ESU6",
            side=Side.BID,
            sending_time_ns=9,
        )
        assert OrderCancelRequest.decode(cancel.encode()) == cancel

    def test_wrong_msg_type_rejected(self):
        order = NewOrderSingle("a", "ES", Side.BID, 1, 1.0, 0)
        with pytest.raises(ProtocolError):
            OrderCancelRequest.decode(order.encode())

    @given(
        qty=st.integers(min_value=1, max_value=10_000),
        price=st.one_of(st.none(), st.floats(1.0, 99_999.0, allow_nan=False)),
        side=st.sampled_from([Side.BID, Side.ASK]),
    )
    @settings(max_examples=60, deadline=None)
    def test_new_order_roundtrip_property(self, qty, price, side):
        order = NewOrderSingle("id", "ESU6", side, qty, price, 123)
        decoded = NewOrderSingle.decode(order.encode())
        assert decoded.quantity == qty
        assert decoded.side is side
        if price is None:
            assert decoded.price is None
        else:
            assert decoded.price == pytest.approx(price)


class TestILink3:
    def test_order_roundtrip(self):
        order = ILink3Order(
            seq_num=1,
            sending_time=123,
            cl_ord_id=777,
            security_id=1,
            side=Side.ASK,
            order_qty=4,
            price=18_002,
        )
        assert ILink3Order.decode(order.encode()) == order

    def test_market_order_roundtrip(self):
        order = ILink3Order(
            seq_num=2,
            sending_time=5,
            cl_ord_id=8,
            security_id=1,
            side=Side.BID,
            order_qty=1,
            price=None,
            ioc=True,
        )
        decoded = ILink3Order.decode(order.encode())
        assert decoded.price is None
        assert decoded.ioc

    def test_cancel_roundtrip(self):
        cancel = ILink3Cancel(
            seq_num=3,
            sending_time=6,
            cl_ord_id=9,
            orig_cl_ord_id=8,
            security_id=1,
            side=Side.BID,
        )
        assert ILink3Cancel.decode(cancel.encode()) == cancel

    def test_sofh_length_validated(self):
        framed = frame_sofh(b"abcdef")
        with pytest.raises(ProtocolError):
            unframe_sofh(framed + b"extra")
        with pytest.raises(ProtocolError):
            unframe_sofh(framed[:-1])

    def test_sofh_roundtrip(self):
        assert unframe_sofh(frame_sofh(b"payload")) == b"payload"

    def test_cross_decode_rejected(self):
        order = ILink3Order(1, 2, 3, 4, Side.BID, 1, 10)
        with pytest.raises(ProtocolError):
            ILink3Cancel.decode(order.encode())

    def test_short_declared_root_block_rejected(self):
        # The root block still has all its bytes, but a block length one
        # short of the layout must not be read past.
        data = bytearray(ILink3Order(1, 2, 3, 4, Side.BID, 1, 10).encode())
        (block_length,) = struct.unpack_from("<H", data, SOFH_LEN)
        struct.pack_into("<H", data, SOFH_LEN, block_length - 1)
        with pytest.raises(ProtocolError, match="root block length"):
            ILink3Order.decode(bytes(data))


class TestPacketParser:
    @pytest.fixture
    def setup(self):
        directory = SecurityDirectory()
        directory.register("ESU6")
        directory.register("NQU6")
        parser = PacketParser(directory, subscribed_symbols={"ESU6"})
        return directory, parser

    def _frame(self, directory, symbol="ESU6"):
        events = [BookUpdate(symbol, 10, UpdateAction.NEW, Side.BID, 18_000, 5, 1)]
        return encode_udp_frame(encode_market_events(events, directory, 10))

    def test_parses_subscribed_symbol(self, setup):
        directory, parser = setup
        packet = parser.parse_frame(self._frame(directory))
        assert packet is not None
        assert packet.transact_time == 10
        assert packet.events[0].symbol == "ESU6"
        assert parser.stats.events_decoded == 1

    def test_filters_unsubscribed_symbol(self, setup):
        directory, parser = setup
        assert parser.parse_frame(self._frame(directory, "NQU6")) is None
        assert parser.stats.messages_filtered == 1

    def test_malformed_frame_counted_not_raised(self, setup):
        __, parser = setup
        assert parser.parse_frame(b"garbage") is None
        assert parser.stats.frames_malformed == 1

    @staticmethod
    def _payload(directory, count=1):
        events = [
            BookUpdate("ESU6", 10, UpdateAction.NEW, Side.BID, 18_000 - i, 5, i)
            for i in range(count)
        ]
        return bytearray(encode_market_events(events, directory, 10))

    @staticmethod
    def _assert_counted_malformed(parser, payload):
        assert parser.parse_frame(encode_udp_frame(bytes(payload))) is None
        assert parser.stats.frames_malformed == 1
        assert parser.stats.events_decoded == 0

    @pytest.mark.parametrize("length", [20, 16])
    def test_short_root_block_counted_malformed(self, setup, length):
        # Root block declared 8 bytes against the layout's 9.  With the
        # whole message present the group header would be read one byte
        # early; cut after the declared 8 the layout overruns the payload.
        directory, parser = setup
        payload = self._payload(directory, count=0)
        struct.pack_into("<H", payload, 0, 8)
        self._assert_counted_malformed(parser, payload[:length])

    @pytest.mark.parametrize("trailing", [b"", b"\x00"])
    def test_short_group_entry_counted_malformed(self, setup, trailing):
        # Entries declared one byte short of the 23-byte layout; with a
        # trailing byte the last one would silently borrow it.
        directory, parser = setup
        payload = self._payload(directory, count=2)
        entries_at = 8 + 9 + 3
        for i in (1, 0):
            del payload[entries_at + 23 * i + 22]
        struct.pack_into("<H", payload, entries_at - 3, 22)
        self._assert_counted_malformed(parser, payload + trailing)

    def test_unknown_update_action_counted_malformed(self, setup):
        directory, parser = setup
        payload = self._payload(directory)
        payload[8 + 9 + 3 + 20] = 7  # md_update_action of the first entry
        self._assert_counted_malformed(parser, payload)

    def test_unknown_entry_type_counted_malformed(self, setup):
        directory, parser = setup
        payload = self._payload(directory)
        payload[8 + 9 + 3 + 21] = ord("9")  # md_entry_type of the first entry
        self._assert_counted_malformed(parser, payload)

    def test_no_subscription_filter_passes_all(self):
        directory = SecurityDirectory()
        directory.register("ESU6")
        parser = PacketParser(directory)
        packet = parser.parse_frame(self._frame(directory))
        assert packet is not None
