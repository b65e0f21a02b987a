"""Ethernet / IPv4 / UDP framing for the simulated market-data feed.

The trading pipeline's first stage strips network headers from raw frames
(paper Fig. 2(b), "Ethernet/UDP module").  We implement real header
packing/unpacking, including the IPv4 header checksum, so the feed handler
exercises the same parsing work a hardware pipeline performs.
"""

from __future__ import annotations

import struct

from repro.errors import ChecksumError, ProtocolError

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_UDP = 17

_ETH_HEADER = struct.Struct("!6s6sH")
_IP_HEADER = struct.Struct("!BBHHHBBH4s4s")
_UDP_HEADER = struct.Struct("!HHHH")
_IP_WORDS = struct.Struct("!10H")  # the IPv4 header as checksummed words
# Market-data feeds number every datagram so receivers can detect loss;
# the 4-byte big-endian counter leads the UDP payload.
_SEQ_PREFIX = struct.Struct("!I")

ETH_HEADER_LEN = _ETH_HEADER.size  # 14
IP_HEADER_LEN = _IP_HEADER.size  # 20
UDP_HEADER_LEN = _UDP_HEADER.size  # 8
TOTAL_HEADER_LEN = ETH_HEADER_LEN + IP_HEADER_LEN + UDP_HEADER_LEN
SEQ_PREFIX_LEN = _SEQ_PREFIX.size  # 4


def ipv4_checksum(header: bytes) -> int:
    """RFC 791 ones'-complement checksum over a (checksum-zeroed) header."""
    if len(header) % 2:
        header += b"\x00"
    return _fold(sum(struct.unpack(f"!{len(header) // 2}H", header)))


def _fold(total: int) -> int:
    """Ones'-complement of a 16-bit word sum, carries folded back in."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def encode_udp_frame(
    payload: bytes,
    src_port: int = 14_310,
    dst_port: int = 14_310,
    src_ip: bytes = b"\xc0\xa8\x01\x01",
    dst_ip: bytes = b"\xe0\x00\x01\x01",
    src_mac: bytes = b"\x02\x00\x00\x00\x00\x01",
    dst_mac: bytes = b"\x01\x00\x5e\x00\x01\x01",
) -> bytes:
    """Wrap ``payload`` into an Ethernet+IPv4+UDP frame (defaults mimic a
    multicast market-data feed)."""
    if len(payload) > 0xFFFF - IP_HEADER_LEN - UDP_HEADER_LEN:
        raise ProtocolError(f"payload too large for one frame: {len(payload)} bytes")
    udp_len = UDP_HEADER_LEN + len(payload)
    udp = _UDP_HEADER.pack(src_port, dst_port, udp_len, 0)  # checksum 0 = unused
    ip_total = IP_HEADER_LEN + udp_len
    ip_no_sum = _IP_HEADER.pack(
        0x45, 0, ip_total, 0, 0, 64, IP_PROTO_UDP, 0, src_ip, dst_ip
    )
    checksum = ipv4_checksum(ip_no_sum)
    ip = _IP_HEADER.pack(
        0x45, 0, ip_total, 0, 0, 64, IP_PROTO_UDP, checksum, src_ip, dst_ip
    )
    eth = _ETH_HEADER.pack(dst_mac, src_mac, ETHERTYPE_IPV4)
    return eth + ip + udp + payload


def encode_sequenced_payload(sequence: int, payload: bytes) -> bytes:
    """Prefix a market-data payload with its feed sequence number."""
    if not 0 <= sequence <= 0xFFFFFFFF:
        raise ProtocolError(f"sequence number out of range: {sequence}")
    return _SEQ_PREFIX.pack(sequence) + payload


def decode_sequenced_payload(payload: bytes) -> tuple[int, bytes]:
    """Split a UDP payload into (sequence number, market-data bytes)."""
    if len(payload) < SEQ_PREFIX_LEN:
        raise ProtocolError(
            f"payload too short for a sequence prefix: {len(payload)} bytes"
        )
    (sequence,) = _SEQ_PREFIX.unpack_from(payload, 0)
    return sequence, payload[SEQ_PREFIX_LEN:]


def decode_udp_frame(frame: bytes) -> bytes:
    """Strip Ethernet/IPv4/UDP headers, validating lengths and checksum.

    Returns:
        The UDP payload bytes.  Addressing is not decoded: the feed
        takes every frame that passes these checks.

    Raises:
        ProtocolError: on malformed frames.
        ChecksumError: when the IPv4 header checksum does not verify.
    """
    if len(frame) < TOTAL_HEADER_LEN:
        raise ProtocolError(f"frame too short: {len(frame)} bytes")
    __, __, ethertype = _ETH_HEADER.unpack_from(frame, 0)
    if ethertype != ETHERTYPE_IPV4:
        raise ProtocolError(f"unexpected ethertype 0x{ethertype:04x}")

    words = _IP_WORDS.unpack_from(frame, ETH_HEADER_LEN)
    ver_ihl = words[0] >> 8  # header byte 0
    if ver_ihl != 0x45:
        raise ProtocolError(f"unsupported IP version/IHL 0x{ver_ihl:02x}")
    proto = words[4] & 0xFF  # header byte 9
    if proto != IP_PROTO_UDP:
        raise ProtocolError(f"not UDP (protocol {proto})")
    stored = words[5]  # header bytes 10-11, summed as zero
    if _fold(sum(words) - stored) != stored:
        raise ChecksumError("IPv4 header checksum mismatch")

    udp_off = ETH_HEADER_LEN + IP_HEADER_LEN
    __, __, udp_len, __ = _UDP_HEADER.unpack_from(frame, udp_off)
    if udp_len < UDP_HEADER_LEN or udp_off + udp_len > len(frame):
        raise ProtocolError(f"UDP length {udp_len} inconsistent with frame")
    return frame[udp_off + UDP_HEADER_LEN : udp_off + udp_len]
