"""Tests for Ethernet/IPv4/UDP framing."""

import pytest

from repro.errors import ChecksumError, ProtocolError
from repro.protocol import decode_udp_frame, encode_udp_frame, ipv4_checksum
from repro.protocol.framing import ETH_HEADER_LEN, IP_HEADER_LEN, TOTAL_HEADER_LEN


class TestRoundtrip:
    def test_payload_roundtrip(self):
        payload = b"hello market data"
        frame = encode_udp_frame(payload)
        assert decode_udp_frame(frame) == payload

    def test_addressing_preserved(self):
        frame = encode_udp_frame(b"x", src_port=1234, dst_port=5678)
        assert decode_udp_frame(frame) == b"x"
        udp = frame[ETH_HEADER_LEN + IP_HEADER_LEN :]
        assert int.from_bytes(udp[0:2], "big") == 1234
        assert int.from_bytes(udp[2:4], "big") == 5678

    def test_empty_payload(self):
        frame = encode_udp_frame(b"")
        assert decode_udp_frame(frame) == b""

    def test_frame_length(self):
        payload = b"q" * 100
        frame = encode_udp_frame(payload)
        assert len(frame) == TOTAL_HEADER_LEN + 100


class TestValidation:
    def test_short_frame_rejected(self):
        with pytest.raises(ProtocolError):
            decode_udp_frame(b"tooshort")

    def test_corrupt_ip_checksum_detected(self):
        frame = bytearray(encode_udp_frame(b"payload"))
        frame[30] ^= 0xFF  # flip a bit inside the destination IP
        with pytest.raises(ChecksumError):
            decode_udp_frame(bytes(frame))

    def test_wrong_ethertype_rejected(self):
        frame = bytearray(encode_udp_frame(b"payload"))
        frame[12] = 0x86  # pretend IPv6
        frame[13] = 0xDD
        with pytest.raises(ProtocolError):
            decode_udp_frame(bytes(frame))

    def test_oversized_payload_rejected(self):
        with pytest.raises(ProtocolError):
            encode_udp_frame(b"z" * 70_000)

    def test_truncated_udp_rejected(self):
        frame = encode_udp_frame(b"0123456789")
        with pytest.raises(ProtocolError):
            decode_udp_frame(frame[:-5])


class TestChecksum:
    def test_checksum_zero_header_is_ffff(self):
        assert ipv4_checksum(b"\x00" * 20) == 0xFFFF

    def test_checksum_involutive(self):
        # Re-inserting the checksum makes the full-header sum fold to zero.
        import struct

        header = bytearray(20)
        header[0] = 0x45
        header[9] = 17
        csum = ipv4_checksum(bytes(header))
        header[10:12] = struct.pack("!H", csum)
        assert ipv4_checksum(bytes(header)) == 0

    def test_odd_length_padding(self):
        assert isinstance(ipv4_checksum(b"\x01\x02\x03"), int)


class TestSequencedPayload:
    def test_roundtrip(self):
        from repro.protocol.framing import (
            decode_sequenced_payload,
            encode_sequenced_payload,
        )

        body = b"market data bytes"
        for sequence in (0, 1, 7_842, 0xFFFFFFFF):
            payload = encode_sequenced_payload(sequence, body)
            assert decode_sequenced_payload(payload) == (sequence, body)

    def test_out_of_range_sequence_rejected(self):
        from repro.protocol.framing import encode_sequenced_payload

        with pytest.raises(ProtocolError):
            encode_sequenced_payload(-1, b"x")
        with pytest.raises(ProtocolError):
            encode_sequenced_payload(0x1_0000_0000, b"x")

    def test_truncated_payload_rejected(self):
        from repro.protocol.framing import decode_sequenced_payload

        with pytest.raises(ProtocolError):
            decode_sequenced_payload(b"\x00\x01")

    def test_rides_inside_udp_frame(self):
        from repro.protocol.framing import (
            decode_sequenced_payload,
            encode_sequenced_payload,
        )

        frame = encode_udp_frame(encode_sequenced_payload(42, b"body"))
        payload = decode_udp_frame(frame)
        assert decode_sequenced_payload(payload) == (42, b"body")
