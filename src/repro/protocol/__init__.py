"""Wire protocols: UDP framing, SBE market data, FIX and iLink3 order entry."""

from repro.protocol.framing import (
    decode_udp_frame,
    encode_udp_frame,
    ipv4_checksum,
)
from repro.protocol.fix import (
    NewOrderSingle,
    OrderCancelRequest,
    compute_checksum,
    decode_fields,
    encode_fields,
)
from repro.protocol.ilink3 import (
    ILink3Cancel,
    ILink3Order,
    frame_sofh,
    unframe_sofh,
)
from repro.protocol.parser import PacketParser, ParsedPacket, ParserStats
from repro.protocol.sbe import (
    MD_INCREMENTAL_REFRESH_BOOK,
    FieldSpec,
    GroupSpec,
    MessageSchema,
    SecurityDirectory,
    decode_market_events,
    decode_message,
    encode_market_events,
    encode_message,
    peek_template_id,
)

__all__ = [
    "FieldSpec",
    "GroupSpec",
    "ILink3Cancel",
    "ILink3Order",
    "MD_INCREMENTAL_REFRESH_BOOK",
    "MessageSchema",
    "NewOrderSingle",
    "OrderCancelRequest",
    "PacketParser",
    "ParsedPacket",
    "ParserStats",
    "SecurityDirectory",
    "compute_checksum",
    "decode_fields",
    "decode_market_events",
    "decode_message",
    "decode_udp_frame",
    "encode_fields",
    "encode_market_events",
    "encode_message",
    "encode_udp_frame",
    "frame_sofh",
    "ipv4_checksum",
    "peek_template_id",
    "unframe_sofh",
]
