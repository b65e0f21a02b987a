"""Simple Binary Encoding (SBE) lite: the CME market-data wire format.

CME distributes market data as SBE messages: a little-endian fixed-layout
message header (block length, template id, schema id, version), a fixed
root block, then repeating groups each with their own dimension header.
This module implements a small but real subset — schema-driven encode /
decode with repeating groups — plus the concrete
``MDIncrementalRefreshBook`` schema used by the feed, mirroring CME
template 46.

The codec is deliberately schema-generic: a :class:`MessageSchema` is a
declarative description, and :func:`encode_message` / :func:`decode_message`
work for any schema, which is what makes the packet parser testable
against malformed and truncated inputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from repro.errors import ProtocolError
from repro.lob.events import BookUpdate, MarketEvent, TradeTick, UpdateAction
from repro.lob.order import Side

SCHEMA_ID = 1
SCHEMA_VERSION = 9

_MESSAGE_HEADER = struct.Struct("<HHHH")  # blockLength, templateId, schemaId, version
_GROUP_HEADER = struct.Struct("<HB")  # blockLength, numInGroup

MESSAGE_HEADER_LEN = _MESSAGE_HEADER.size
GROUP_HEADER_LEN = _GROUP_HEADER.size


@dataclass(frozen=True)
class FieldSpec:
    """One fixed-width field: ``name`` encoded with struct ``code``."""

    name: str
    code: str  # single struct format character, little-endian applied later


@dataclass(frozen=True)
class GroupSpec:
    """A repeating group: a dimension header then ``fields`` per entry."""

    name: str
    fields: tuple[FieldSpec, ...]

    @property
    def entry_size(self) -> int:
        """Encoded width of one group entry."""
        return self.packer.size

    @cached_property
    def packer(self) -> struct.Struct:
        """Struct for one entry, built on first use."""
        return struct.Struct("<" + "".join(f.code for f in self.fields))

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Field names of one entry, in wire order."""
        return tuple(f.name for f in self.fields)


@dataclass(frozen=True)
class MessageSchema:
    """Declarative SBE message layout."""

    name: str
    template_id: int
    root_fields: tuple[FieldSpec, ...]
    groups: tuple[GroupSpec, ...] = ()

    @property
    def block_length(self) -> int:
        """Size of the root block in bytes."""
        return self.root_packer.size

    @cached_property
    def root_packer(self) -> struct.Struct:
        """Struct for the root block, built on first use."""
        return struct.Struct("<" + "".join(f.code for f in self.root_fields))

    @cached_property
    def root_names(self) -> tuple[str, ...]:
        """Root field names, in wire order."""
        return tuple(f.name for f in self.root_fields)


def encode_message(schema: MessageSchema, message: dict) -> bytes:
    """Encode ``message`` (root fields + one list per group) under ``schema``."""
    parts = [
        _MESSAGE_HEADER.pack(
            schema.block_length, schema.template_id, SCHEMA_ID, SCHEMA_VERSION
        )
    ]
    try:
        root_values = [message[f.name] for f in schema.root_fields]
    except KeyError as exc:
        raise ProtocolError(f"missing root field {exc} for {schema.name}") from None
    parts.append(schema.root_packer.pack(*root_values))
    for group in schema.groups:
        entries = message.get(group.name, [])
        if len(entries) > 0xFF:
            raise ProtocolError(f"group {group.name} too large: {len(entries)}")
        parts.append(_GROUP_HEADER.pack(group.entry_size, len(entries)))
        packer = group.packer
        for entry in entries:
            try:
                parts.append(packer.pack(*[entry[f.name] for f in group.fields]))
            except KeyError as exc:
                raise ProtocolError(
                    f"missing group field {exc} in {schema.name}.{group.name}"
                ) from None
    return b"".join(parts)


def peek_template_id(payload: bytes) -> int:
    """Read the template id without decoding the body (for filtering)."""
    if len(payload) < MESSAGE_HEADER_LEN:
        raise ProtocolError(f"payload shorter than message header: {len(payload)}")
    return _MESSAGE_HEADER.unpack_from(payload, 0)[1]


def decode_rows(
    schema: MessageSchema, payload: bytes
) -> tuple[tuple, list[list[tuple]]]:
    """Decode ``payload`` into its root block and group entries as tuples.

    Returns the root block's values, then per group of ``schema`` one
    tuple per entry, all in wire order.  ``payload`` must carry
    ``schema``'s template id.  A declared root block length or group
    entry size shorter than the schema's layout is malformed: reading it
    would take the next field's bytes.
    """
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
    if block_length < schema.block_length:
        raise ProtocolError(
            f"root block length {block_length} shorter than {schema.name}'s "
            f"{schema.block_length}"
        )
    offset = MESSAGE_HEADER_LEN
    if offset + block_length > len(payload):
        raise ProtocolError("truncated root block")
    root = schema.root_packer.unpack_from(payload, offset)
    # Per SBE, skip the *declared* block length (forward compatibility).
    offset += block_length
    groups = []
    for group in schema.groups:
        if offset + GROUP_HEADER_LEN > len(payload):
            raise ProtocolError(f"truncated group header for {group.name}")
        entry_size, count = _GROUP_HEADER.unpack_from(payload, offset)
        offset += GROUP_HEADER_LEN
        packer = group.packer
        if entry_size < packer.size:
            raise ProtocolError(
                f"entry size {entry_size} in group {group.name} shorter than "
                f"its layout's {packer.size}"
            )
        end = offset + entry_size * count
        if end > len(payload):
            raise ProtocolError(f"truncated entry in group {group.name}")
        unpack_from = packer.unpack_from
        groups.append(
            [unpack_from(payload, offset + i * entry_size) for i in range(count)]
        )
        offset = end
    return root, groups


def decode_message(schema: MessageSchema, payload: bytes) -> dict:
    """Decode ``payload`` (which must carry ``schema``'s template id) into
    a dict: root fields by name, then one list of entry dicts per group."""
    root, groups = decode_rows(schema, payload)
    message: dict = dict(zip(schema.root_names, root))
    for group, entries in zip(schema.groups, groups):
        names = group.names
        message[group.name] = [dict(zip(names, entry)) for entry in entries]
    return message


# --- concrete CME-like schema -------------------------------------------------

# MDEntryType codes (single byte, matching FIX/CME conventions).
ENTRY_BID = ord("0")
ENTRY_OFFER = ord("1")
ENTRY_TRADE = ord("2")

MD_INCREMENTAL_REFRESH_BOOK = MessageSchema(
    name="MDIncrementalRefreshBook",
    template_id=46,
    root_fields=(
        FieldSpec("transact_time", "Q"),  # ns since epoch
        FieldSpec("match_event_indicator", "B"),
    ),
    groups=(
        GroupSpec(
            name="md_entries",
            fields=(
                FieldSpec("md_entry_px", "q"),  # price in integer ticks
                FieldSpec("md_entry_size", "i"),
                FieldSpec("security_id", "i"),
                FieldSpec("rpt_seq", "I"),
                FieldSpec("md_update_action", "B"),
                FieldSpec("md_entry_type", "B"),
                FieldSpec("md_price_level", "B"),
            ),
        ),
    ),
)


class SecurityDirectory:
    """Bidirectional symbol ↔ integer security-id registry."""

    def __init__(self) -> None:
        self._by_symbol: dict[str, int] = {}
        self._by_id: dict[int, str] = {}

    def register(self, symbol: str, security_id: int | None = None) -> int:
        """Register ``symbol`` (idempotent), returning its security id."""
        if symbol in self._by_symbol:
            return self._by_symbol[symbol]
        if security_id is None:
            security_id = len(self._by_symbol) + 1
        if security_id in self._by_id:
            raise ProtocolError(f"security id {security_id} already registered")
        self._by_symbol[symbol] = security_id
        self._by_id[security_id] = symbol
        return security_id

    def id_of(self, symbol: str) -> int:
        """Security id of ``symbol``; raises if unknown."""
        try:
            return self._by_symbol[symbol]
        except KeyError:
            raise ProtocolError(f"unknown symbol {symbol!r}") from None

    def symbol_of(self, security_id: int) -> str:
        """Symbol of ``security_id``; raises if unknown."""
        try:
            return self._by_id[security_id]
        except KeyError:
            raise ProtocolError(f"unknown security id {security_id}") from None


def encode_market_events(
    events: list[MarketEvent],
    directory: SecurityDirectory,
    transact_time: int,
) -> bytes:
    """Encode book/trade events as one MDIncrementalRefreshBook payload."""
    entries = []
    for event in events:
        if isinstance(event, BookUpdate):
            entries.append(
                {
                    "md_entry_px": event.price,
                    "md_entry_size": event.volume,
                    "security_id": directory.id_of(event.symbol),
                    "rpt_seq": event.sequence,
                    "md_update_action": int(event.action),
                    "md_entry_type": ENTRY_BID if event.side is Side.BID else ENTRY_OFFER,
                    "md_price_level": 0,
                }
            )
        elif isinstance(event, TradeTick):
            entries.append(
                {
                    "md_entry_px": event.price,
                    "md_entry_size": event.quantity,
                    "security_id": directory.id_of(event.symbol),
                    "rpt_seq": event.sequence,
                    "md_update_action": int(UpdateAction.NEW),
                    "md_entry_type": ENTRY_TRADE,
                    "md_price_level": 0,
                }
            )
        else:
            raise ProtocolError(f"cannot encode event type {type(event).__name__}")
    return encode_message(
        MD_INCREMENTAL_REFRESH_BOOK,
        {"transact_time": transact_time, "match_event_indicator": 0, "md_entries": entries},
    )


_UPDATE_ACTIONS = {int(action): action for action in UpdateAction}
_BOOK_SIDES = {ENTRY_BID: Side.BID, ENTRY_OFFER: Side.ASK}


def decode_market_events(
    payload: bytes, directory: SecurityDirectory
) -> tuple[int, list[MarketEvent]]:
    """Decode a MDIncrementalRefreshBook payload back into events.

    An entry with an unknown ``md_entry_type``, or a book entry with an
    unknown ``md_update_action``, makes the payload malformed.
    """
    (transact_time, __), (entries,) = decode_rows(MD_INCREMENTAL_REFRESH_BOOK, payload)
    symbol_of = directory.symbol_of
    events: list[MarketEvent] = []
    for price, size, security_id, rpt_seq, action, entry_type, __ in entries:
        symbol = symbol_of(security_id)
        if entry_type == ENTRY_TRADE:
            # The aggressor is not carried on the wire.
            events.append(
                TradeTick(symbol, transact_time, price, size, Side.BID, rpt_seq)
            )
            continue
        side = _BOOK_SIDES.get(entry_type)
        if side is None:
            raise ProtocolError(f"unknown md_entry_type {entry_type}")
        update = _UPDATE_ACTIONS.get(action)
        if update is None:
            raise ProtocolError(f"unknown md_update_action {action}")
        events.append(
            BookUpdate(symbol, transact_time, update, side, price, size, rpt_seq)
        )
    return transact_time, events
