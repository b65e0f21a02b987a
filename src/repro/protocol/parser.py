"""Packet parser: the trading pipeline's filter + decode stage.

Mirrors the paper's packet parser (Fig. 4(b)): it takes raw UDP frames
from the feed, filters messages of interest (template id and subscribed
security ids) and decodes them into market events for the book-update
stage.  Unsubscribed or foreign messages are counted and skipped, not
errors — a real feed multiplexes many instruments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.lob.events import MarketEvent
from repro.protocol.framing import decode_udp_frame
from repro.protocol.sbe import (
    MD_INCREMENTAL_REFRESH_BOOK,
    SecurityDirectory,
    decode_market_events,
    peek_template_id,
)


@dataclass
class ParserStats:
    """Counters the parser maintains while consuming the feed."""

    frames_seen: int = 0
    frames_malformed: int = 0
    messages_filtered: int = 0
    events_decoded: int = 0


@dataclass
class ParsedPacket:
    """Result of parsing one frame: transact time + decoded events."""

    transact_time: int
    events: list[MarketEvent] = field(default_factory=list)


class PacketParser:
    """Filters and decodes market-data frames for subscribed symbols."""

    def __init__(
        self,
        directory: SecurityDirectory,
        subscribed_symbols: set[str] | None = None,
    ) -> None:
        self.directory = directory
        self.subscribed_symbols = subscribed_symbols
        self.stats = ParserStats()

    def parse_frame(self, frame: bytes) -> ParsedPacket | None:
        """Parse one raw Ethernet frame.

        Returns None when the frame carries nothing of interest (wrong
        template, unsubscribed symbols) or is malformed — the pipeline
        just moves to the next frame, as hardware does.
        """
        self.stats.frames_seen += 1
        try:
            payload = decode_udp_frame(frame)
            return self.parse_payload(payload)
        except ProtocolError:
            self.stats.frames_malformed += 1
            return None

    def parse_payload(self, payload: bytes) -> ParsedPacket | None:
        """Parse a UDP payload that is already unframed."""
        if peek_template_id(payload) != MD_INCREMENTAL_REFRESH_BOOK.template_id:
            self.stats.messages_filtered += 1
            return None
        transact_time, events = decode_market_events(payload, self.directory)
        if self.subscribed_symbols is not None:
            events = [e for e in events if e.symbol in self.subscribed_symbols]
            if not events:
                self.stats.messages_filtered += 1
                return None
        self.stats.events_decoded += len(events)
        return ParsedPacket(transact_time=transact_time, events=events)
