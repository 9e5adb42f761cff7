"""Binary wire codec for the MLG protocol.

Frames the session/transport traffic (:mod:`repro.mlg.transport`) for a
real socket: each message is ``varint(length) + body``, where the body
starts with a one-byte message type and all fixed-width fields are
little-endian.  Every :class:`~repro.mlg.protocol.PacketCategory` and
``ActionKind`` has a payload schema here, so the asyncio front end
(:mod:`repro.net`) can materialize the simulation's *counted* traffic as
real bytes.

Size contract (Table 8): category and action frames are zero-padded up
to the ``PACKET_SIZES`` / ``PlayerAction._SIZES`` model, so bytes on the
wire reconcile with the modeled bytes the simulation accounts.  The
documented tolerance: a frame may exceed its model size only when its
varint fields outgrow the padding budget (huge timestamps/ids), and
batched entity moves (``ENTITY_BATCH``) deliberately undercut the
per-packet model — that saving is the point of batching.  The
relationship is pinned by ``tests/mlg/test_wirecodec.py``.

Two things keep the codec off the host-time profile of a served cell.
Entity batches run on array kernels (:func:`encode_varints`,
:func:`decode_varints`, :func:`zigzag_array`): LEB128 over a whole
``uint64`` column in a handful of numpy operations, with the
all-single-byte case — which is what small deltas are — a plain
``astype``.  Every padded frame type has a layout built
once at import (length prefix, head bytes, padded body length, one codec
per field), and bodies are dispatched on their type byte through a
table.  The ``append_*`` functions write frames into a caller's
``bytearray`` in place; each ``encode_*`` is its ``append_*`` on an empty
buffer.

Bytes that arrive from a peer are not trusted: :class:`FrameDecoder`
raises :class:`ProtocolError` — and never anything else — for a stream
that is not this protocol, and refuses a frame longer than
``MAX_FRAME_BYTES`` before buffering it.

Message types flow one way: ``HELLO``, ``ACTION``, ``RESPONSE_SAMPLE``
and ``BYE`` to the server, the rest to the client.  A decoder told what
its owner reads (``FrameDecoder(reads)``) returns those messages, puts
the other types of that flow — a client's ``STATE`` and ``ENTITY_BATCH``
traffic — through the same parse without building anything, and refuses
the opposite flow.  Told nothing, it returns one message per frame.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import getitem

import numpy as np

from repro.mlg.protocol import (
    ActionKind,
    PACKET_SIZES,
    PacketCategory,
    PlayerAction,
)

__all__ = [
    "ACTION_SCHEMAS",
    "CATEGORY_IDS",
    "CATEGORY_SCHEMAS",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "MSG_ACTION",
    "MSG_BYE",
    "MSG_DELIVERY",
    "MSG_ENTITY_BATCH",
    "MSG_HELLO",
    "MSG_RESPONSE_SAMPLE",
    "MSG_STATE",
    "MSG_TICK",
    "MSG_WELCOME",
    "ProtocolError",
    "WireAction",
    "WireBye",
    "WireDelivery",
    "WireEntityBatch",
    "WireHello",
    "WireResponseSample",
    "WireState",
    "WireTick",
    "WireWelcome",
    "append_batch_frame",
    "append_delivery",
    "append_entity_batch",
    "append_state",
    "decode_frame",
    "decode_varints",
    "encode_action",
    "encode_batch_fields",
    "encode_bye",
    "encode_delivery",
    "encode_entity_batch",
    "encode_hello",
    "encode_response_sample",
    "encode_state",
    "encode_tick",
    "encode_varints",
    "encode_welcome",
    "unzigzag_array",
    "zigzag_array",
]

# -- message types ------------------------------------------------------------

MSG_HELLO = 1
MSG_WELCOME = 2
MSG_ACTION = 3
MSG_DELIVERY = 4
MSG_STATE = 5
MSG_ENTITY_BATCH = 6
MSG_TICK = 7
MSG_RESPONSE_SAMPLE = 8
MSG_BYE = 9

#: Stable one-byte category ids, in ``PacketCategory.ALL`` order.
CATEGORY_IDS: dict[str, int] = {
    category: index for index, category in enumerate(PacketCategory.ALL)
}

ACTION_IDS: dict[str, int] = {
    ActionKind.MOVE: 0,
    ActionKind.BUILD: 1,
    ActionKind.DIG: 2,
    ActionKind.CHAT: 3,
}

#: Payload schemas: one codec tag per tuple element.  Tags: ``uv``
#: unsigned varint, ``sv`` zigzag varint, ``u8`` byte, ``f32``/``f64``
#: little-endian IEEE floats.
CATEGORY_SCHEMAS: dict[str, tuple[str, ...]] = {
    PacketCategory.ENTITY_SPAWN: ("uv", "u8", "f32", "f32", "f32"),
    PacketCategory.ENTITY_MOVE: ("uv", "sv", "sv", "sv"),
    PacketCategory.ENTITY_VELOCITY: ("uv", "sv", "sv", "sv"),
    PacketCategory.ENTITY_DESTROY: ("uv",),
    PacketCategory.BLOCK_CHANGE: ("sv", "uv", "sv", "u8"),
    PacketCategory.CHUNK_DATA: ("sv", "sv"),
    PacketCategory.CHUNK_SECTION: ("sv", "sv", "u8"),
    PacketCategory.LIGHT_UPDATE: ("sv", "sv"),
    PacketCategory.SOUND_EFFECT: ("u8", "sv", "uv", "sv"),
    PacketCategory.BLOCK_ENTITY_DATA: ("sv", "uv", "sv"),
    PacketCategory.CHAT: ("uv", "uv"),
    PacketCategory.KEEPALIVE: ("uv",),
    PacketCategory.TIME_UPDATE: ("uv", "uv"),
    PacketCategory.PLAYER_INFO: ("uv", "u8"),
}

ACTION_SCHEMAS: dict[str, tuple[str, ...]] = {
    ActionKind.MOVE: ("f32", "f32", "f32"),
    ActionKind.BUILD: ("sv", "uv", "sv", "u8"),
    ActionKind.DIG: ("sv", "uv", "sv"),
    ActionKind.CHAT: ("uv", "uv"),
}

#: Largest entity batch a peer may declare, in moves.  The simulation's
#: worst case is the TNT cuboid (3 584 primed blocks at scale 1); this
#: leaves an order of magnitude above it.
_MAX_BATCH_MOVES = 1 << 16

#: Longest frame body the decoder buffers.  It must admit the largest
#: padded packet of the Table 8 model and an entity batch of
#: ``_MAX_BATCH_MOVES`` moves at 16 bytes each (four varints of 28-bit
#: magnitude; the flush's small deltas take four bytes a move).  A
#: constant: a peer that declares more is refused, whatever the cell.
MAX_FRAME_BYTES = max(max(PACKET_SIZES.values()), 16 * _MAX_BATCH_MOVES)

_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")

_INT64_MAX = (1 << 63) - 1


class ProtocolError(ValueError):
    """The peer's bytes are not this protocol.

    A length-prefixed stream cannot resynchronise after one, so the only
    sound reaction is to close that connection.
    """


# -- scalar primitives --------------------------------------------------------

def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    if value < 0:
        raise ValueError(f"varint must be >= 0: {value!r}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(buf, offset: int = 0) -> tuple[int, int]:
    """Returns ``(value, next_offset)``; raises on truncation.

    At most ten bytes, and the tenth may carry only bit 63: the value
    fits ``uint64``, like every value :func:`decode_varints` returns.
    """
    result = 0
    shift = 0
    while True:
        if offset >= len(buf):
            raise ValueError("truncated varint")
        byte = buf[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if shift == 63 and byte > 1:
                raise ValueError("varint exceeds 64 bits")
            return result, offset
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# -- array kernels ------------------------------------------------------------

#: Shift of each of a varint's ten 7-bit groups, and the smallest value
#: that needs the group at all (group 0 is always written).
_GROUP_SHIFTS = np.arange(0, 70, 7, dtype=np.uint64)
_GROUP_FLOORS = np.array(
    [0] + [1 << shift for shift in range(7, 70, 7)], dtype=np.uint64
)


def zigzag_array(values: np.ndarray) -> np.ndarray:
    """:func:`zigzag` over an ``int64`` array; returns ``uint64``."""
    return ((values << 1) ^ (values >> 63)).view(np.uint64)


def unzigzag_array(values: np.ndarray) -> np.ndarray:
    """:func:`unzigzag` over a ``uint64`` array; returns ``int64``."""
    return ((values >> 1) ^ -(values & 1)).view(np.int64)


def encode_varints(values: np.ndarray) -> bytes:
    """The LEB128 varints of a ``uint64`` array, concatenated in order.

    Which path runs depends on the data alone: values that all fit seven
    bits are their own encoding; otherwise every value is split into as
    many 7-bit groups as the largest needs and the groups each value
    does not reach are masked out.
    """
    if values.dtype != np.uint64:
        raise ValueError(f"varint column must be uint64, not {values.dtype}")
    if not values.size:
        return b""
    top = int(values.max())
    if top < 0x80:
        return values.astype(np.uint8).tobytes()
    width = (top.bit_length() + 6) // 7
    column = values[:, None]
    keep = column >= _GROUP_FLOORS[:width]
    groups = ((column >> _GROUP_SHIFTS[:width]) & np.uint64(0x7F)).astype(
        np.uint8
    )
    # A group carries the continuation bit when the next one is kept.
    groups[:, :-1] |= keep[:, 1:].view(np.uint8) << 7
    return groups[keep].tobytes()


def decode_varints(buf, offset: int, count: int) -> tuple[np.ndarray, int]:
    """``count`` consecutive varints of ``buf`` from ``offset``, as a
    ``uint64`` array; returns ``(values, next_offset)``.

    ``buf`` is ``bytes`` or ``bytearray``.  Raises what ``count`` calls
    of :func:`decode_varint` would, for the same first offending varint.
    Nothing is sized by ``count``: every array here is bounded by the
    bytes actually present.
    """
    head = buf[offset : offset + count]
    if len(head) == count and head.isascii():
        # Every byte ends a varint: the bytes are the values.
        return np.frombuffer(head, dtype=np.uint8).astype(np.uint64), (
            offset + count
        )
    data = np.frombuffer(buf, dtype=np.uint8)[offset:]
    ends = np.flatnonzero(data < 0x80)
    complete = min(count, ends.size)
    ends = ends[:complete]
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    # Ten bytes with bits above the 64th, or more than ten: the first
    # such varint is the error a sequential decoder stops at.
    bad = np.flatnonzero(
        (lengths > 10) | ((lengths == 10) & (data[ends] > 1))
    )
    if bad.size:
        if lengths[bad[0]] > 10:
            raise ValueError("varint too long")
        raise ValueError("varint exceeds 64 bits")
    consumed = int(ends[-1]) + 1 if complete else 0
    if complete < count:
        # The bytes ran out inside a varint (or before one began).
        if data.size - consumed >= 10:
            raise ValueError("varint too long")
        raise ValueError("truncated varint")
    position = np.arange(consumed) - np.repeat(starts, lengths)
    bits = (data[:consumed] & 0x7F).astype(np.uint64) << (
        position * 7
    ).astype(np.uint64)
    return np.bitwise_or.reduceat(bits, starts), offset + consumed


# -- per-field codecs ---------------------------------------------------------

def _put_uv(out: bytearray, value) -> None:
    value = int(value)
    if 0 <= value < 0x80:
        out.append(value)
    else:
        out += encode_varint(value)


def _put_sv(out: bytearray, value) -> None:
    value = int(value)
    if -0x40 <= value < 0x40:
        out.append((value << 1) ^ (value >> 63))
    else:
        out += encode_varint(zigzag(value))


def _put_u8(out: bytearray, value) -> None:
    out.append(int(value) & 0xFF)


def _put_f32(out: bytearray, value) -> None:
    out += _F32.pack(float(value))


def _put_f64(out: bytearray, value) -> None:
    out += _F64.pack(float(value))


def _get_sv(body: bytes, offset: int) -> tuple[int, int]:
    raw, offset = decode_varint(body, offset)
    return (raw >> 1) ^ -(raw & 1), offset


def _get_u8(body: bytes, offset: int) -> tuple[int, int]:
    if offset >= len(body):
        raise ValueError("truncated byte field")
    return body[offset], offset + 1


def _get_f32(body: bytes, offset: int) -> tuple[float, int]:
    if offset + 4 > len(body):
        raise ValueError("truncated float field")
    return _F32.unpack_from(body, offset)[0], offset + 4


def _get_f64(body: bytes, offset: int) -> tuple[float, int]:
    if offset + 8 > len(body):
        raise ValueError("truncated float field")
    return _F64.unpack_from(body, offset)[0], offset + 8


_SEVEN_BIT_UNSIGNED = range(0x80)
_SEVEN_BIT_SIGNED = tuple(unzigzag(byte) for byte in range(0x80))

#: tag -> (append the field to a bytearray, read it from a body, what a
#: lone byte below 0x80 decodes to — integer tags only).
_FIELD_CODECS = {
    "uv": (_put_uv, decode_varint, _SEVEN_BIT_UNSIGNED),
    "sv": (_put_sv, _get_sv, _SEVEN_BIT_SIGNED),
    "u8": (_put_u8, _get_u8, _SEVEN_BIT_UNSIGNED),
    "f32": (_put_f32, _get_f32, None),
    "f64": (_put_f64, _get_f64, None),
}


def _encode_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return encode_varint(len(raw)) + raw


def _decode_str(body: bytes, offset: int) -> tuple[str, int]:
    length, offset = decode_varint(body, offset)
    if offset + length > len(body):
        raise ValueError("truncated string")
    return body[offset : offset + length].decode("utf-8"), offset + length


def _frame(body: bytes) -> bytes:
    """Wrap an unpadded body in its length-varint frame."""
    return encode_varint(len(body)) + body


# -- frame layouts ------------------------------------------------------------

@cache
def _padded_body_len(pad_to: int) -> int:
    """The largest body whose frame — length varint included, and the
    varint lengthens as the body grows — still fits ``pad_to`` bytes.
    Searched once per distinct model size, at import."""
    target = pad_to - 1
    while len(encode_varint(target)) + target > pad_to:
        target -= 1
    return target


class _FrameLayout:
    """What one padded frame type knows before it sees a payload.

    One per (message type, category / action kind), built at import:
    the bytes every such frame starts with (the length prefix of the
    padded body, the type byte, the id byte), the padded body length,
    and one put/get codec per payload field.
    """

    __slots__ = (
        "name", "schema", "lead", "body_len", "puts", "gets", "narrow",
    )

    def __init__(
        self, msg_type: int, ident: int, name: str,
        schema: tuple[str, ...], pad_to: int,
    ) -> None:
        #: The category or action kind.
        self.name = name
        self.schema = schema
        self.body_len = _padded_body_len(pad_to)
        self.lead = encode_varint(self.body_len) + bytes((msg_type, ident))
        self.puts, self.gets, narrow = zip(
            *(_FIELD_CODECS[tag] for tag in schema)
        )
        #: Per field, the value of each byte below 0x80 — for schemas of
        #: integers only, whose fields can all be single bytes.
        self.narrow = None if None in narrow else narrow

    def decode(self, body: bytes, offset: int) -> tuple:
        """The payload that starts at ``offset`` of a body of this
        layout; the padding behind it is ignored."""
        narrow = self.narrow
        if narrow is not None:
            fields = body[offset : offset + len(narrow)]
            if len(fields) == len(narrow) and fields.isascii():
                # Every byte ends a field: look the values up, parse nothing.
                return tuple(map(getitem, narrow, fields))
        values = []
        for get in self.gets:
            value, offset = get(body, offset)
            values.append(value)
        return tuple(values)

    def check(self, body: bytes, offset: int) -> None:
        """Raise what :meth:`decode` would; build nothing when every
        field is a single byte."""
        narrow = self.narrow
        if narrow is not None:
            fields = body[offset : offset + len(narrow)]
            if len(fields) == len(narrow) and fields.isascii():
                return
        self.decode(body, offset)


def _append_frame(
    out: bytearray, layout: _FrameLayout, payload, *lead: int
) -> None:
    """Append one frame of ``layout`` to ``out``: the ``lead`` varints a
    delivery or an action carries ahead of its payload, the payload, and
    zero padding up to the layout's model size when the fields leave
    room for any."""
    if len(payload) != len(layout.puts):
        raise ValueError(
            f"payload arity mismatch: schema {layout.schema!r} vs {payload!r}"
        )
    mark = len(out)
    out += layout.lead
    try:
        for value in lead:
            _put_uv(out, value)
        for put, value in zip(layout.puts, payload):
            put(out, value)
    except BaseException:
        del out[mark:]  # leave the caller's buffer on a frame boundary
        raise
    prefix_len = len(layout.lead) - 2
    used = len(out) - mark - prefix_len
    if used <= layout.body_len:
        out += bytes(layout.body_len - used)
    else:
        # The fields outgrew the padding budget: the frame runs over its
        # model size and the length prefix is the body's own.
        out[mark : mark + prefix_len] = encode_varint(used)


def _layouts(msg_type, ids, schemas, sizes):
    """(by name, by id byte) layout tables of one message type."""
    by_name = {
        name: _FrameLayout(msg_type, ident, name, schemas[name], sizes[name])
        for name, ident in ids.items()
    }
    return by_name, {ids[name]: layout for name, layout in by_name.items()}


_STATE_LAYOUTS, _STATE_BY_ID = _layouts(
    MSG_STATE, CATEGORY_IDS, CATEGORY_SCHEMAS, PACKET_SIZES
)
_DELIVERY_LAYOUTS, _DELIVERY_BY_ID = _layouts(
    MSG_DELIVERY, CATEGORY_IDS, CATEGORY_SCHEMAS, PACKET_SIZES
)
_ACTION_LAYOUTS, _ACTION_BY_ID = _layouts(
    MSG_ACTION, ACTION_IDS, ACTION_SCHEMAS, PlayerAction._SIZES
)


# -- decoded message objects --------------------------------------------------

@dataclass(frozen=True)
class WireHello:
    name: str
    spawn_x: float
    spawn_z: float
    latency_up_us: int
    latency_down_us: int
    view_distance: int | None


@dataclass(frozen=True)
class WireWelcome:
    client_id: int
    x: float
    y: float
    z: float
    now_us: int


@dataclass(frozen=True)
class WireAction:
    action: PlayerAction
    sent_at_us: int


@dataclass(frozen=True)
class WireDelivery:
    category: str
    payload: tuple
    delivered_at_us: int


@dataclass(frozen=True)
class WireState:
    category: str
    payload: tuple


@dataclass(frozen=True)
class WireEntityBatch:
    #: (entity_id, dx, dy, dz) quantized move deltas.
    moves: tuple


@dataclass(frozen=True)
class WireTick:
    now_us: int
    tick_index: int


@dataclass(frozen=True)
class WireResponseSample:
    response_ms: float


@dataclass(frozen=True)
class WireBye:
    reason: str


# -- encoders -----------------------------------------------------------------

def encode_hello(
    name: str,
    spawn_x: float,
    spawn_z: float,
    latency_up_us: int,
    latency_down_us: int,
    view_distance: int | None = None,
) -> bytes:
    body = (
        bytes((MSG_HELLO,))
        + _encode_str(name)
        + _F32.pack(spawn_x)
        + _F32.pack(spawn_z)
        + encode_varint(latency_up_us)
        + encode_varint(latency_down_us)
        + encode_varint(0 if view_distance is None else view_distance + 1)
    )
    return _frame(body)


def encode_welcome(
    client_id: int, x: float, y: float, z: float, now_us: int
) -> bytes:
    body = (
        bytes((MSG_WELCOME,))
        + encode_varint(client_id)
        + _F64.pack(x)
        + _F64.pack(y)
        + _F64.pack(z)
        + encode_varint(now_us)
    )
    return _frame(body)


def encode_action(action: PlayerAction, sent_at_us: int) -> bytes:
    """Client→server action, padded to the modeled uplink size."""
    out = bytearray()
    _append_frame(
        out,
        _ACTION_LAYOUTS[action.kind],
        tuple(action.payload),
        action.client_id,
        sent_at_us,
    )
    return bytes(out)


def append_delivery(
    out: bytearray, category: str, payload: tuple, delivered_at_us: int
) -> None:
    """Append one ``DELIVERY`` frame to ``out``; see
    :func:`encode_delivery`."""
    _append_frame(out, _DELIVERY_LAYOUTS[category], payload, delivered_at_us)


def encode_delivery(
    category: str, payload: tuple, delivered_at_us: int
) -> bytes:
    """Materialized server→client delivery, padded to the Table 8 model."""
    out = bytearray()
    append_delivery(out, category, payload, delivered_at_us)
    return bytes(out)


def append_state(out: bytearray, category: str, payload: tuple) -> None:
    """Append one ``STATE`` frame to ``out``; see :func:`encode_state`."""
    _append_frame(out, _STATE_LAYOUTS[category], payload)


def encode_state(category: str, payload: tuple) -> bytes:
    """Counted server→client state packet, padded to the Table 8 model."""
    out = bytearray()
    append_state(out, category, payload)
    return bytes(out)


def _batch_rows(moves) -> np.ndarray:
    """``moves`` as an ``(n, 4)`` ``int64`` array, or ``ValueError``."""
    rows = moves if isinstance(moves, np.ndarray) else np.asarray(tuple(moves))
    if not rows.size:
        return np.empty((0, 4), dtype=np.int64)
    # Python ints beyond int64 make a uint64, float or object array.
    if rows.dtype.kind not in "iu" or (
        rows.dtype == np.uint64 and int(rows.max()) > _INT64_MAX
    ):
        raise ValueError("entity batch ids and deltas must be int64 integers")
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(
            f"entity batch moves must be (n, 4), not {rows.shape}"
        )
    return rows.astype(np.int64, copy=False)


def _batch_fields(rows: np.ndarray) -> bytes:
    if not len(rows):
        return b""
    eids = rows[:, 0]
    previous = np.empty_like(eids)
    previous[0] = 0
    previous[1:] = eids[:-1]
    deltas = eids - previous
    # int64 subtraction wraps; it overflowed where the operands'
    # signs differ and the result's sign is not the minuend's.
    if (((eids ^ previous) & (eids ^ deltas)) < 0).any():
        raise ValueError("entity batch id deltas must fit int64")
    columns = rows.copy()
    columns[:, 0] = deltas
    return encode_varints(zigzag_array(columns).ravel())


def encode_batch_fields(moves) -> bytes:
    """What an ``ENTITY_BATCH`` frame carries behind its move count:
    four zigzag varints a move, ids as deltas in the order given.  The
    fields of the first ``n`` of these moves are a prefix of it."""
    return _batch_fields(_batch_rows(moves))


def append_batch_frame(out: bytearray, count: int, fields) -> None:
    """Append the ``ENTITY_BATCH`` frame of ``count`` moves whose
    :func:`encode_batch_fields` bytes are ``fields``."""
    head = encode_varint(count)
    out += encode_varint(1 + len(head) + len(fields))
    out.append(MSG_ENTITY_BATCH)
    out += head
    out += fields


def append_entity_batch(out: bytearray, moves) -> None:
    """Append one ``ENTITY_BATCH`` frame to ``out``; see
    :func:`encode_entity_batch`."""
    rows = _batch_rows(moves)
    append_batch_frame(out, len(rows), _batch_fields(rows))


def encode_entity_batch(moves) -> bytes:
    """Batched entity moves: one frame for ``n`` modeled move packets.

    ``moves`` is a sequence of ``(entity_id, dx, dy, dz)`` integer
    tuples or an ``(n, 4)`` integer array.  Entity ids are delta-encoded
    in the order given; positions are the schema's quantized deltas.
    The frame costs well under the ``n * PACKET_SIZES[entity_move]`` the
    per-packet model charges — the documented saving behind batching.
    """
    out = bytearray()
    append_entity_batch(out, moves)
    return bytes(out)


def encode_tick(now_us: int, tick_index: int) -> bytes:
    body = (
        bytes((MSG_TICK,))
        + encode_varint(now_us)
        + encode_varint(tick_index)
    )
    return _frame(body)


def encode_response_sample(response_ms: float) -> bytes:
    body = bytes((MSG_RESPONSE_SAMPLE,)) + _F64.pack(response_ms)
    return _frame(body)


def encode_bye(reason: str = "client quit") -> bytes:
    body = bytes((MSG_BYE,)) + _encode_str(reason)
    return _frame(body)


# -- decoder ------------------------------------------------------------------

def _decode_hello(body: bytes) -> WireHello:
    name, offset = _decode_str(body, 1)
    spawn_x, offset = _get_f32(body, offset)
    spawn_z, offset = _get_f32(body, offset)
    latency_up_us, offset = decode_varint(body, offset)
    latency_down_us, offset = decode_varint(body, offset)
    view_raw, offset = decode_varint(body, offset)
    return WireHello(
        name,
        spawn_x,
        spawn_z,
        latency_up_us,
        latency_down_us,
        None if view_raw == 0 else view_raw - 1,
    )


def _decode_welcome(body: bytes) -> WireWelcome:
    client_id, offset = decode_varint(body, 1)
    x, offset = _get_f64(body, offset)
    y, offset = _get_f64(body, offset)
    z, offset = _get_f64(body, offset)
    now_us, offset = decode_varint(body, offset)
    return WireWelcome(client_id, x, y, z, now_us)


def _layout_of(by_id: dict[int, _FrameLayout], body: bytes) -> _FrameLayout:
    try:
        return by_id[body[1]]
    except (IndexError, KeyError):
        raise ProtocolError(
            f"unknown id {body[1:2]!r} in wire message type {body[0]}"
        ) from None


def _decode_action(body: bytes) -> WireAction:
    layout = _layout_of(_ACTION_BY_ID, body)
    client_id, offset = decode_varint(body, 2)
    sent_at_us, offset = decode_varint(body, offset)
    return WireAction(
        PlayerAction(layout.name, client_id, layout.decode(body, offset)),
        sent_at_us,
    )


def _decode_delivery(body: bytes) -> WireDelivery:
    layout = _layout_of(_DELIVERY_BY_ID, body)
    delivered_at_us, offset = decode_varint(body, 2)
    return WireDelivery(
        layout.name, layout.decode(body, offset), delivered_at_us
    )


def _decode_state(body: bytes) -> WireState:
    layout = _layout_of(_STATE_BY_ID, body)
    return WireState(layout.name, layout.decode(body, 2))


def _decode_entity_batch(body: bytes) -> WireEntityBatch:
    count, offset = decode_varint(body, 1)
    raw, _ = decode_varints(body, offset, 4 * count)
    eids, dx, dy, dz = unzigzag_array(raw).reshape(-1, 4).T.tolist()
    # Ids accumulate as Python ints: a sum of 64-bit deltas need not
    # fit 64 bits, and the decoded ids are exact either way.
    return WireEntityBatch(tuple(zip(accumulate(eids), dx, dy, dz)))


def _check_state(body: bytes) -> None:
    _layout_of(_STATE_BY_ID, body).check(body, 2)


def _check_entity_batch(body: bytes) -> None:
    count, offset = decode_varint(body, 1)
    fields = body[offset : offset + 4 * count]
    if len(fields) != 4 * count or not fields.isascii():
        # Not all single bytes: the array parse finds what is wrong, if
        # anything is.
        decode_varints(body, offset, 4 * count)


def _decode_tick(body: bytes) -> WireTick:
    now_us, offset = decode_varint(body, 1)
    tick_index, offset = decode_varint(body, offset)
    return WireTick(now_us, tick_index)


def _decode_response_sample(body: bytes) -> WireResponseSample:
    return WireResponseSample(_get_f64(body, 1)[0])


def _decode_bye(body: bytes) -> WireBye:
    return WireBye(_decode_str(body, 1)[0])


#: type byte -> body decoder.
_BODY_DECODERS = {
    MSG_HELLO: _decode_hello,
    MSG_WELCOME: _decode_welcome,
    MSG_ACTION: _decode_action,
    MSG_DELIVERY: _decode_delivery,
    MSG_STATE: _decode_state,
    MSG_ENTITY_BATCH: _decode_entity_batch,
    MSG_TICK: _decode_tick,
    MSG_RESPONSE_SAMPLE: _decode_response_sample,
    MSG_BYE: _decode_bye,
}

#: type byte -> the same parse with nothing built (returns ``None``),
#: for the world traffic an end is sent but does not read.
_BODY_CHECKS = {
    MSG_STATE: _check_state,
    MSG_ENTITY_BATCH: _check_entity_batch,
}

#: The message types that flow each way over a connection.
_FLOWS = (
    frozenset((MSG_HELLO, MSG_ACTION, MSG_RESPONSE_SAMPLE, MSG_BYE)),
    frozenset(
        (MSG_WELCOME, MSG_DELIVERY, MSG_STATE, MSG_ENTITY_BATCH, MSG_TICK)
    ),
)


def _body_handlers(reads: Iterable[int]) -> dict:
    """type byte -> body handler of an end that reads ``reads``: the
    decoder of each type it reads and the check of each other type that
    flows the same way.  A type of the opposite flow has no entry."""
    reads = frozenset(reads)
    for flow in _FLOWS:
        if reads <= flow and flow - reads <= _BODY_CHECKS.keys():
            return {
                kind: (_BODY_DECODERS if kind in reads else _BODY_CHECKS)[kind]
                for kind in flow
            }
    raise ValueError(
        f"no end of a connection reads exactly the types {sorted(reads)}"
    )


def _decode_body(body: bytes, handlers: dict = _BODY_DECODERS):
    """The message of one frame body, or ``None`` for a body that
    ``handlers`` only checks."""
    if not body:
        raise ProtocolError("zero-length frame body")
    handle = handlers.get(body[0])
    if handle is None:
        if body[0] in _BODY_DECODERS:
            raise ProtocolError(
                f"wire message type {body[0]} does not flow to this end"
            )
        raise ProtocolError(f"unknown wire message type {body[0]}")
    return handle(body)


def decode_frame(buf: bytes, offset: int = 0):
    """Decode one frame; returns ``(message, next_offset)``."""
    length, body_start = decode_varint(buf, offset)
    end = body_start + length
    if end > len(buf):
        raise ValueError("truncated frame")
    return _decode_body(bytes(buf[body_start:end])), end


def _decode_stream(buf: bytearray, handlers: dict) -> tuple[list, int]:
    """The messages of every complete frame at the front of ``buf`` that
    ``handlers`` decodes (the frames it checks yield none) and the bytes
    the frames took; raises :class:`ProtocolError` only."""
    messages = []
    offset = 0
    available = len(buf)
    frames = None
    while offset < available:
        length = buf[offset]
        body_start = offset + 1
        if length >= 0x80:
            prefix = bytes(buf[offset : offset + 10])
            if len(prefix) < 10 and min(prefix) >= 0x80:
                break  # the length varint is still arriving
            try:
                length, used = decode_varint(prefix)
            except ValueError as exc:
                raise ProtocolError(f"bad frame length prefix: {exc}") from exc
            body_start = offset + used
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"declared frame of {length} bytes exceeds "
                f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
            )
        end = body_start + length
        if end > available:
            break  # partial body
        if frames is None:
            # One immutable copy per feed that completes a frame, so each
            # body below is a single slice of it.
            frames = bytes(buf)
        try:
            message = _decode_body(frames[body_start:end], handlers)
        except ProtocolError:
            raise
        except ValueError as exc:
            raise ProtocolError(f"malformed frame body: {exc}") from exc
        if message is not None:
            messages.append(message)
        offset = end
    return messages, offset


class FrameDecoder:
    """Incremental stream decoder: feed socket chunks, get messages.

    Fails closed: whatever the peer sends, :meth:`feed` returns messages
    or raises :class:`ProtocolError`, and it never holds more than one
    frame of at most ``MAX_FRAME_BYTES`` plus the chunk just fed.

    ``reads`` names the message types the owner acts on, all flowing one
    way (to the server or to the client).  Their frames come back as
    messages; the other types that flow that way (``STATE`` and
    ``ENTITY_BATCH`` at a client) go through the same parse and fail
    with the same :class:`ProtocolError`, but no message is built for
    them; a type that flows the other way is a :class:`ProtocolError`.
    Without ``reads`` every frame comes back as a message.
    """

    def __init__(self, reads: Iterable[int] | None = None) -> None:
        self._buf = bytearray()
        self._handlers = (
            _BODY_DECODERS if reads is None else _body_handlers(reads)
        )

    def feed(self, data: bytes) -> list:
        """Append ``data``; returns every complete message now decodable."""
        buf = self._buf
        buf += data
        try:
            messages, consumed = _decode_stream(buf, self._handlers)
        except ProtocolError:
            buf.clear()  # a length-prefixed stream does not resynchronise
            raise
        if consumed:
            del buf[:consumed]
        return messages

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
