"""Parity of the feed path around the model against its earlier code.

The oracles are the implementations the shipping code replaced: the
UDP unframer that decoded every address into a ``FrameInfo`` and
checksummed a zeroed copy of the IPv4 header, the dict-per-entry SBE
decoder, a book mirror that keeps one synthetic order per level in a
:class:`LimitOrderBook`, the feature vector written one numpy element at
a time, and BF16 rounding through temporaries and a final copy.  On
valid input the shipping code must give the same payloads, events,
snapshots and float32 bits (compared as ``uint32``); on truncated or
corrupt input the same exception.
"""

import random
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from perfbench.feed import SESSION_S, build_frames
from repro.errors import ChecksumError, ProtocolError
from repro.market import generate_session
from repro.lob.events import BookUpdate, TradeTick, UpdateAction
from repro.lob.order import Order, Side
from repro.lob.snapshot import CANONICAL_DEPTH, DepthSnapshot
from repro.nn.precision import to_bf16
from repro.pipeline.feed_handler import LocalBookMirror
from repro.protocol.framing import (
    ETH_HEADER_LEN,
    ETHERTYPE_IPV4,
    IP_HEADER_LEN,
    IP_PROTO_UDP,
    TOTAL_HEADER_LEN,
    UDP_HEADER_LEN,
    decode_udp_frame,
    ipv4_checksum,
)
from repro.protocol.ilink3 import CANCEL_ORDER_516, NEW_ORDER_SINGLE_514
from repro.protocol.sbe import (
    ENTRY_BID,
    ENTRY_OFFER,
    ENTRY_TRADE,
    GROUP_HEADER_LEN,
    MD_INCREMENTAL_REFRESH_BOOK,
    MESSAGE_HEADER_LEN,
    SCHEMA_ID,
    FieldSpec,
    GroupSpec,
    MessageSchema,
    SecurityDirectory,
    decode_market_events,
    decode_message,
    encode_message,
)
from tests.oracles.book import LimitOrderBook, capture

_MESSAGE_HEADER = struct.Struct("<HHHH")
_GROUP_HEADER = struct.Struct("<HB")

# --- oracles ------------------------------------------------------------------


@dataclass(frozen=True)
class FrameInfo:
    src_mac: bytes
    dst_mac: bytes
    src_ip: bytes
    dst_ip: bytes
    src_port: int
    dst_port: int


def oracle_decode_udp_frame(frame):
    """The unframer returning ``(FrameInfo, payload)``, checksumming a
    zeroed copy of the header through ``ipv4_checksum``."""
    if len(frame) < TOTAL_HEADER_LEN:
        raise ProtocolError(f"frame too short: {len(frame)} bytes")
    dst_mac, src_mac, ethertype = struct.unpack_from("!6s6sH", frame, 0)
    if ethertype != ETHERTYPE_IPV4:
        raise ProtocolError(f"unexpected ethertype 0x{ethertype:04x}")
    ip_bytes = frame[ETH_HEADER_LEN : ETH_HEADER_LEN + IP_HEADER_LEN]
    (ver_ihl, __, __, __, __, __, proto, __, src_ip, dst_ip) = struct.unpack(
        "!BBHHHBBH4s4s", ip_bytes
    )
    if ver_ihl != 0x45:
        raise ProtocolError(f"unsupported IP version/IHL 0x{ver_ihl:02x}")
    if proto != IP_PROTO_UDP:
        raise ProtocolError(f"not UDP (protocol {proto})")
    zeroed = ip_bytes[:10] + b"\x00\x00" + ip_bytes[12:]
    if ipv4_checksum(zeroed) != struct.unpack("!H", ip_bytes[10:12])[0]:
        raise ChecksumError("IPv4 header checksum mismatch")
    udp_off = ETH_HEADER_LEN + IP_HEADER_LEN
    src_port, dst_port, udp_len, __ = struct.unpack_from("!HHHH", frame, udp_off)
    if udp_len - UDP_HEADER_LEN < 0 or udp_off + udp_len > len(frame):
        raise ProtocolError(f"UDP length {udp_len} inconsistent with frame")
    payload = frame[udp_off + UDP_HEADER_LEN : udp_off + udp_len]
    return FrameInfo(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port), payload


def oracle_decode_message(schema, payload):
    """The dict decoder, building its structs on every call."""
    if len(payload) < MESSAGE_HEADER_LEN:
        raise ProtocolError(f"payload shorter than message header: {len(payload)}")
    block_length, template_id, schema_id, __ = _MESSAGE_HEADER.unpack_from(payload, 0)
    if template_id != schema.template_id:
        raise ProtocolError(
            f"template id {template_id} does not match {schema.name} "
            f"({schema.template_id})"
        )
    if schema_id != SCHEMA_ID:
        raise ProtocolError(f"unknown schema id {schema_id}")
    offset = MESSAGE_HEADER_LEN
    if offset + block_length > len(payload):
        raise ProtocolError("truncated root block")
    root_packer = struct.Struct("<" + "".join(f.code for f in schema.root_fields))
    message = dict(
        zip(
            (f.name for f in schema.root_fields),
            root_packer.unpack_from(payload, offset),
        )
    )
    offset += block_length
    for group in schema.groups:
        if offset + GROUP_HEADER_LEN > len(payload):
            raise ProtocolError(f"truncated group header for {group.name}")
        entry_size, count = _GROUP_HEADER.unpack_from(payload, offset)
        offset += GROUP_HEADER_LEN
        packer = struct.Struct("<" + "".join(f.code for f in group.fields))
        entries = []
        for __ in range(count):
            if offset + entry_size > len(payload):
                raise ProtocolError(f"truncated entry in group {group.name}")
            values = packer.unpack_from(payload, offset)
            entries.append(dict(zip((f.name for f in group.fields), values)))
            offset += entry_size
        message[group.name] = entries
    return message


def oracle_decode_market_events(payload, directory):
    """Events built from the dict decoder's entries."""
    message = oracle_decode_message(MD_INCREMENTAL_REFRESH_BOOK, payload)
    events = []
    transact_time = message["transact_time"]
    for entry in message["md_entries"]:
        symbol = directory.symbol_of(entry["security_id"])
        if entry["md_entry_type"] == ENTRY_TRADE:
            events.append(
                TradeTick(
                    symbol=symbol,
                    timestamp=transact_time,
                    price=entry["md_entry_px"],
                    quantity=entry["md_entry_size"],
                    aggressor_side=Side.BID,
                    sequence=entry["rpt_seq"],
                )
            )
        else:
            side = Side.BID if entry["md_entry_type"] == ENTRY_BID else Side.ASK
            events.append(
                BookUpdate(
                    symbol=symbol,
                    timestamp=transact_time,
                    action=UpdateAction(entry["md_update_action"]),
                    side=side,
                    price=entry["md_entry_px"],
                    volume=entry["md_entry_size"],
                    sequence=entry["rpt_seq"],
                )
            )
    return transact_time, events


class OracleMirror:
    """The book mirror as one synthetic order per level in a book."""

    def __init__(self, symbol):
        self.symbol = symbol
        self.book = LimitOrderBook(symbol)
        self.level_orders = {}
        self.last_trade_price = None
        self.last_trade_quantity = 0
        self.stale = False

    def resync(self, snapshot):
        self.book = LimitOrderBook(self.symbol)
        self.level_orders.clear()
        for side, levels in ((Side.BID, snapshot.bids), (Side.ASK, snapshot.asks)):
            for price, volume in levels:
                if volume <= 0:
                    continue
                order = Order(side=side, price=price, quantity=volume)
                self.book.insert(order)
                self.level_orders[(side, price)] = order.order_id
        if snapshot.last_trade_price is not None:
            self.last_trade_price = snapshot.last_trade_price
            self.last_trade_quantity = snapshot.last_trade_quantity
        self.stale = False

    def apply(self, event):
        if isinstance(event, TradeTick):
            self.last_trade_price = event.price
            self.last_trade_quantity = event.quantity
            return
        key = (event.side, event.price)
        existing = self.level_orders.pop(key, None)
        if existing is not None and existing in self.book:
            self.book.remove(existing)
        if event.action is UpdateAction.DELETE or event.volume <= 0:
            return
        order = Order(side=event.side, price=event.price, quantity=event.volume)
        self.book.insert(order)
        self.level_orders[key] = order.order_id

    def snapshot(self, timestamp, depth=CANONICAL_DEPTH):
        return capture(
            self.book,
            timestamp=timestamp,
            depth=depth,
            last_trade_price=self.last_trade_price,
            last_trade_quantity=self.last_trade_quantity,
        )


def oracle_feature_vector(snapshot):
    """The feature vector written one float32 element at a time."""
    vec = np.empty(4 * snapshot.depth, dtype=np.float32)
    pad_ask = snapshot.asks[-1][0] if snapshot.asks else (snapshot.best_bid or 0) + 1
    pad_bid = snapshot.bids[-1][0] if snapshot.bids else (snapshot.best_ask or 2) - 1
    for lvl in range(snapshot.depth):
        if lvl < len(snapshot.asks):
            ask_price, ask_vol = snapshot.asks[lvl]
        else:
            ask_price, ask_vol = pad_ask + (lvl - len(snapshot.asks) + 1), 0
        if lvl < len(snapshot.bids):
            bid_price, bid_vol = snapshot.bids[lvl]
        else:
            bid_price, bid_vol = pad_bid - (lvl - len(snapshot.bids) + 1), 0
        base = 4 * lvl
        vec[base + 0] = ask_price
        vec[base + 1] = ask_vol
        vec[base + 2] = bid_price
        vec[base + 3] = bid_vol
    return vec


def oracle_to_bf16(x):
    """BF16 rounding through temporaries, then a copy."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    bits = x.view(np.uint32)
    rounded = bits + 0x7FFF + ((bits >> 16) & 1)
    out = (rounded & np.uint32(0xFFFF0000)).view(np.float32).copy()
    nan_mask = np.isnan(x)
    if nan_mask.any():
        out[nan_mask] = np.nan
    return out


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float32
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception is the result
        return ("raised", type(exc), str(exc))


# --- UDP framing -----------------------------------------------------------------


def oracle_payload(frame):
    return oracle_decode_udp_frame(frame)[1]


@pytest.fixture(scope="module")
def tape_frames():
    """The feed-to-order benchmark's frames for its seed-5 session."""
    tape = generate_session(duration_s=SESSION_S, seed=5)
    directory = SecurityDirectory()
    directory.register(tape[0].snapshot.symbol)
    frames, __ = build_frames(tape, directory)
    return frames


def corruptions(frame):
    """Every single-bit flip of the IPv4 header (its checksum word
    included), a wrong ethertype, IHL and protocol (checksum fixed up,
    so the field check is what rejects them) and every UDP length."""
    ip = ETH_HEADER_LEN
    for bit in range(8 * IP_HEADER_LEN):
        out = bytearray(frame)
        out[ip + bit // 8] ^= 0x80 >> (bit % 8)
        yield bytes(out)
    for offset, value in ((12, b"\x86\xdd"), (ip, b"\x46"), (ip, b"\x55"), (ip + 9, b"\x06")):
        out = bytearray(frame)
        out[offset : offset + len(value)] = value
        out[ip + 10 : ip + 12] = b"\x00\x00"
        checksum = ipv4_checksum(bytes(out[ip : ip + IP_HEADER_LEN]))
        out[ip + 10 : ip + 12] = checksum.to_bytes(2, "big")
        yield bytes(out)
    udp_len = ip + IP_HEADER_LEN + 4
    for length in range(len(frame) - udp_len + 4):
        out = bytearray(frame)
        out[udp_len : udp_len + 2] = length.to_bytes(2, "big")
        yield bytes(out)


def test_unframer_matches_frame_info_oracle_on_tape_frames(tape_frames):
    for frame in tape_frames:
        assert decode_udp_frame(frame) == oracle_payload(frame)


def test_unframer_matches_oracle_on_every_truncation_and_corruption(tape_frames):
    messages = set()
    for frame in tape_frames[::20]:
        cases = [frame[:cut] for cut in range(len(frame))] + list(corruptions(frame))
        for case in cases:
            got = outcome(decode_udp_frame, case)
            assert got == outcome(oracle_payload, case)
            if got[0] == "raised":
                messages.add(got[2])
    for rejection in (
        "frame too short",
        "unexpected ethertype",
        "unsupported IP version/IHL",
        "not UDP",
        "checksum mismatch",
        "inconsistent with frame",
    ):
        assert any(rejection in message for message in messages), rejection


# --- SBE decode ------------------------------------------------------------------

SYMBOLS = ("ESU6", "NQU6", "CLX6")


@pytest.fixture(scope="module")
def directory():
    d = SecurityDirectory()
    for symbol in SYMBOLS:
        d.register(symbol)
    return d


def random_book_payload(rng, directory):
    entries = [
        {
            "md_entry_px": rng.randint(-(2**63), 2**63 - 1)
            if rng.random() < 0.1
            else rng.randint(17_900, 18_100),
            "md_entry_size": rng.randint(-(2**31), 2**31 - 1)
            if rng.random() < 0.1
            else rng.randint(0, 500),
            "security_id": directory.id_of(rng.choice(SYMBOLS)),
            "rpt_seq": rng.randint(0, 2**32 - 1),
            "md_update_action": rng.randint(0, 2),
            "md_entry_type": rng.choice((ENTRY_BID, ENTRY_OFFER, ENTRY_TRADE)),
            "md_price_level": rng.randint(0, 255),
        }
        for __ in range(rng.choice((0, 1, 2, 3, 7, 40)))
    ]
    root = {
        "transact_time": rng.randint(0, 2**64 - 1),
        "match_event_indicator": rng.randint(0, 255),
    }
    return encode_message(MD_INCREMENTAL_REFRESH_BOOK, {**root, "md_entries": entries})


TOY = MessageSchema(
    name="Toy",
    template_id=7,
    root_fields=(FieldSpec("a", "I"), FieldSpec("b", "h")),
    groups=(
        GroupSpec("items", (FieldSpec("x", "q"), FieldSpec("y", "B"))),
        GroupSpec("flags", (FieldSpec("f", "H"),)),
    ),
)


def random_toy_payload(rng):
    message = {
        "a": rng.randint(0, 2**32 - 1),
        "b": rng.randint(-(2**15), 2**15 - 1),
        "items": [
            {"x": rng.randint(-(2**63), 2**63 - 1), "y": rng.randint(0, 255)}
            for __ in range(rng.randint(0, 5))
        ],
        "flags": [{"f": rng.randint(0, 2**16 - 1)} for __ in range(rng.randint(0, 3))],
    }
    return encode_message(TOY, message)


def random_order_payloads(rng):
    order = {
        "seq_num": rng.randint(0, 2**32 - 1),
        "sending_time": rng.randint(0, 2**64 - 1),
        "cl_ord_id": rng.randint(0, 2**64 - 1),
        "security_id": rng.randint(-(2**31), 2**31 - 1),
        "price": rng.randint(-(2**63), 2**63 - 1),
        "order_qty": rng.randint(1, 2**31 - 1),
        "side": rng.choice((1, 2)),
        "ord_type": rng.choice((1, 2)),
        "time_in_force": rng.choice((0, 3)),
    }
    cancel = {
        "seq_num": order["seq_num"],
        "sending_time": order["sending_time"],
        "cl_ord_id": order["cl_ord_id"],
        "orig_cl_ord_id": rng.randint(0, 2**64 - 1),
        "security_id": order["security_id"],
        "side": order["side"],
    }
    return [
        (NEW_ORDER_SINGLE_514, encode_message(NEW_ORDER_SINGLE_514, order)),
        (CANCEL_ORDER_516, encode_message(CANCEL_ORDER_516, cancel)),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_market_events_match_dict_decoder_on_every_truncation(seed, directory):
    rng = random.Random(seed)
    for __ in range(25):
        payload = random_book_payload(rng, directory)
        got = decode_market_events(payload, directory)
        assert got == oracle_decode_market_events(payload, directory)
        assert all(type(e.side) is Side for e in got[1] if isinstance(e, BookUpdate))
        for cut in range(len(payload)):
            truncated = payload[:cut]
            want = outcome(oracle_decode_market_events, truncated, directory)
            assert want[0] == "raised"
            assert outcome(decode_market_events, truncated, directory) == want


@pytest.mark.parametrize("seed", range(4))
def test_message_dicts_match_dict_decoder_on_every_truncation(seed, directory):
    rng = random.Random(100 + seed)
    for __ in range(20):
        cases = [
            (MD_INCREMENTAL_REFRESH_BOOK, random_book_payload(rng, directory)),
            (TOY, random_toy_payload(rng)),
            *random_order_payloads(rng),
        ]
        for schema, payload in cases:
            got = decode_message(schema, payload)
            want = oracle_decode_message(schema, payload)
            assert got == want and list(got) == list(want)  # same keys, same order
            for cut in range(len(payload)):
                want = outcome(oracle_decode_message, schema, payload[:cut])
                assert outcome(decode_message, schema, payload[:cut]) == want


def pad_declared_sizes(schema, payload, root_pad, entry_pad):
    """``payload`` with its root block and every group entry declared
    longer than the layout and padded with filler bytes."""
    block_length, *rest = _MESSAGE_HEADER.unpack_from(payload, 0)
    offset = MESSAGE_HEADER_LEN + block_length
    parts = [
        _MESSAGE_HEADER.pack(block_length + root_pad, *rest),
        payload[MESSAGE_HEADER_LEN:offset],
        b"\xee" * root_pad,
    ]
    for __ in schema.groups:
        entry_size, count = _GROUP_HEADER.unpack_from(payload, offset)
        offset += GROUP_HEADER_LEN
        parts.append(_GROUP_HEADER.pack(entry_size + entry_pad, count))
        for __ in range(count):
            parts.append(payload[offset : offset + entry_size] + b"\xab" * entry_pad)
            offset += entry_size
    return b"".join(parts)


def test_longer_declared_sizes_are_skipped_like_the_dict_decoder(directory):
    # Forward compatibility: a block or entry declared longer than the
    # schema's layout is read up to the layout and the rest skipped.
    rng = random.Random(9)
    for __ in range(10):
        cases = [
            (MD_INCREMENTAL_REFRESH_BOOK, random_book_payload(rng, directory)),
            (TOY, random_toy_payload(rng)),
        ]
        for schema, payload in cases:
            padded = pad_declared_sizes(schema, payload, 3, 2)
            want = oracle_decode_message(schema, padded)
            assert decode_message(schema, padded) == want == decode_message(schema, payload)
            for cut in range(len(padded)):
                want = outcome(oracle_decode_message, schema, padded[:cut])
                assert outcome(decode_message, schema, padded[:cut]) == want
        padded = pad_declared_sizes(MD_INCREMENTAL_REFRESH_BOOK, cases[0][1], 1, 5)
        want = oracle_decode_market_events(padded, directory)
        assert decode_market_events(padded, directory) == want


# --- book mirror --------------------------------------------------------------


def random_resync_snapshot(rng, symbol, timestamp):
    """A valid snapshot: distinct prices per side, some empty levels (the
    only ones allowed at a non-positive price)."""

    def side():
        prices = rng.sample(range(-3, 40), rng.randint(0, 12))
        return tuple(
            (price, rng.randint(-1, 0 if price <= 0 else 9)) for price in prices
        )

    trade = rng.choice((None, rng.randint(1, 40)))
    return DepthSnapshot(
        symbol=symbol,
        timestamp=timestamp,
        depth=12,
        bids=side(),
        asks=side(),
        last_trade_price=trade,
        last_trade_quantity=0 if trade is None else rng.randint(1, 9),
    )


def random_mirror_event(rng, symbol, timestamp):
    if rng.random() < 0.1:
        return TradeTick(symbol, timestamp, rng.randint(1, 40), rng.randint(1, 9), Side.BID)
    action = rng.choice(tuple(UpdateAction))
    price = rng.randint(-2, 40)  # about one in fifteen is not positive
    volume = rng.choice((0, -3)) if rng.random() < 0.15 else rng.randint(1, 50)
    side = rng.choice((Side.BID, Side.ASK))
    return BookUpdate(symbol, timestamp, action, side, price, volume, timestamp)


def assert_same_mirror(mirror, oracle, timestamp):
    assert mirror.stale == oracle.stale
    for depth in (1, CANONICAL_DEPTH, 64):
        assert mirror.snapshot(timestamp, depth) == oracle.snapshot(timestamp, depth)


@pytest.mark.parametrize("seed", range(4))
def test_ladder_mirror_matches_order_book_mirror(seed):
    rng = random.Random(seed)
    mirror, oracle = LocalBookMirror("ESU6"), OracleMirror("ESU6")
    raised = 0
    for timestamp in range(1, 1_200):
        if rng.random() < 0.01:
            mirror.invalidate()
            oracle.stale = True
        if rng.random() < 0.01:
            snapshot = random_resync_snapshot(rng, "ESU6", timestamp)
            mirror.resync(snapshot)
            oracle.resync(snapshot)
        else:
            event = random_mirror_event(rng, "ESU6", timestamp)
            got = outcome(mirror.apply, event)
            want = outcome(oracle.apply, event)
            assert got == want
            raised += got[0] == "raised"
        assert_same_mirror(mirror, oracle, timestamp)
    assert raised  # the stream did reach the non-positive price rule
    got, want = mirror.snapshot(0), oracle.snapshot(0)
    assert (hash(got), got.checksum()) == (hash(want), want.checksum())


# --- feature vector and BF16 rounding ---------------------------------------


def random_ladder(rng, best, step, n):
    price = best
    levels = []
    for __ in range(n):
        levels.append((price, rng.randint(0, 10**6)))
        price += step * rng.randint(1, 3)
    return tuple(levels)


@pytest.mark.parametrize("seed", range(4))
def test_feature_vector_matches_elementwise_writes(seed):
    rng = random.Random(seed)
    for __ in range(300):
        depth = rng.choice((1, 2, 5, CANONICAL_DEPTH))
        best = rng.choice(
            (1, 2, 18_000, 2**24 + 1, 2**31 - 3, 2**53 + 1, 2**62, 123_456_789)
        )
        n_bids = rng.choice((0, 0, 1, depth - 1, depth, depth + 2))
        n_asks = rng.choice((0, 0, 1, depth - 1, depth, depth + 2))
        snapshot = DepthSnapshot(
            symbol="ESU6",
            timestamp=0,
            depth=depth,
            bids=random_ladder(rng, best, -1, n_bids),
            asks=random_ladder(rng, best + rng.randint(1, 4), 1, n_asks),
        )
        assert_same_bits(snapshot.feature_vector(), oracle_feature_vector(snapshot))


def test_feature_vector_of_empty_and_one_sided_books():
    for bids, asks in [((), ()), (((5, 1),), ()), ((), ((1, 2),)), (((1, 3),), ())]:
        for depth in (1, 4, CANONICAL_DEPTH):
            snapshot = DepthSnapshot("ESU6", 0, depth, bids, asks)
            assert_same_bits(snapshot.feature_vector(), oracle_feature_vector(snapshot))


def bf16_cases():
    f32 = np.finfo(np.float32)
    special = np.array(
        [
            np.nan,
            -np.nan,
            np.inf,
            -np.inf,
            0.0,
            -0.0,
            f32.tiny,
            -f32.tiny,
            f32.smallest_subnormal,
            -f32.smallest_subnormal,
            f32.max,
            -f32.max,
            1.0,
            -1.0,
        ],
        dtype=np.float32,
    )
    bits = np.array(
        [
            0x3F808000,  # exact tie, even upper half: rounds down
            0x3F818000,  # exact tie, odd upper half: rounds up
            0x3F807FFF,
            0x3F808001,
            0x7F7F8000,  # tie just below the largest finite: rounds to inf
            0x7F7F7FFF,
            0xFF7F8000,
            0x00008000,  # subnormal ties
            0x00018000,
            0x807FFFFF,
            0x7FC00001,  # NaN payloads
            0x7F800001,
            0xFFFFFFFF,
        ],
        dtype=np.uint32,
    ).view(np.float32)
    rng = np.random.default_rng(0)
    random_bits = rng.integers(0, 2**32, size=4096, dtype=np.uint64).astype(np.uint32)
    return [special, bits, random_bits.view(np.float32)]


def test_to_bf16_matches_temporaries_and_copy():
    rng = np.random.default_rng(1)
    cases = bf16_cases()
    cases += [
        rng.standard_normal(1000) * 1e30,  # float64 input
        np.array([1.0 + 2**-9, 3.4e38, 3.5e38, -1e-45, 1e-46], dtype=np.float64),
        cases[2].reshape(64, 64)[:, ::3],  # non-contiguous input
        cases[2].reshape(64, 64).T,
        np.float32(1.00390625),  # 0-d input
    ]
    with np.errstate(over="ignore", under="ignore"):
        for x in cases:
            before = np.array(x, copy=True)
            assert_same_bits(to_bf16(x), oracle_to_bf16(x))
            np.testing.assert_array_equal(np.asarray(x), before)  # input untouched
