"""The scalar wire codec as it stood before the kernels and the layout
tables, verbatim: the oracle of ``test_wirecodec_kernels.py`` and of
``tests/net/test_flush_bytes.py``.

Only what those tests compare against is kept — the varint primitives,
the string-tag field loop, the per-frame padding search, the padded
state / delivery encoders, the entity-batch encode loop and the
``MSG_ENTITY_BATCH`` decode loop; the schema and id tables are data and
are shared with the live codec.  Nothing here is imported by ``src/``.
"""

import struct

from repro.mlg.protocol import PACKET_SIZES
from repro.mlg.wirecodec import CATEGORY_IDS, CATEGORY_SCHEMAS

MSG_DELIVERY = 4
MSG_STATE = 5
MSG_ENTITY_BATCH = 6
MSG_TICK = 7

_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")


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
    """Returns ``(value, next_offset)``; raises on truncation."""
    result = 0
    shift = 0
    while True:
        if offset >= len(buf):
            raise ValueError("truncated varint")
        byte = buf[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _encode_fields(schema: tuple[str, ...], values: tuple) -> bytes:
    if len(schema) != len(values):
        raise ValueError(
            f"payload arity mismatch: schema {schema!r} vs {values!r}"
        )
    out = bytearray()
    for tag, value in zip(schema, values):
        if tag == "uv":
            out += encode_varint(int(value))
        elif tag == "sv":
            out += encode_varint(zigzag(int(value)))
        elif tag == "u8":
            out.append(int(value) & 0xFF)
        elif tag == "f32":
            out += _F32.pack(float(value))
        elif tag == "f64":
            out += _F64.pack(float(value))
        else:  # pragma: no cover - schema tables are static
            raise ValueError(f"unknown field tag {tag!r}")
    return bytes(out)


def _frame(body: bytes, pad_to: int | None = None) -> bytes:
    """Wrap a body in a length-varint frame, zero-padding the body so the
    whole frame hits ``pad_to`` bytes when there is room."""
    if pad_to is not None and len(encode_varint(len(body))) + len(body) < pad_to:
        # Frame length = varint(len(body)) + len(body); find the largest
        # body length whose framed size still fits the target (the
        # length varint itself lengthens as the body grows).
        target = pad_to - 1
        while len(encode_varint(target)) + target > pad_to:
            target -= 1
        if target > len(body):
            body = body + b"\x00" * (target - len(body))
    return encode_varint(len(body)) + body


def encode_delivery(
    category: str, payload: tuple, delivered_at_us: int
) -> bytes:
    """Materialized server→client delivery, padded to the Table 8 model."""
    body = (
        bytes((MSG_DELIVERY, CATEGORY_IDS[category]))
        + encode_varint(delivered_at_us)
        + _encode_fields(CATEGORY_SCHEMAS[category], tuple(payload))
    )
    return _frame(body, pad_to=PACKET_SIZES[category])


def encode_state(category: str, payload: tuple) -> bytes:
    """Counted server→client state packet, padded to the Table 8 model."""
    body = bytes((MSG_STATE, CATEGORY_IDS[category])) + _encode_fields(
        CATEGORY_SCHEMAS[category], tuple(payload)
    )
    return _frame(body, pad_to=PACKET_SIZES[category])


def encode_entity_batch(moves) -> bytes:
    """Batched entity moves: one frame for ``n`` modeled move packets."""
    moves = tuple(moves)
    body = bytearray((MSG_ENTITY_BATCH,))
    body += encode_varint(len(moves))
    last_eid = 0
    for eid, dx, dy, dz in moves:
        body += encode_varint(zigzag(int(eid) - last_eid))
        last_eid = int(eid)
        body += encode_varint(zigzag(int(dx)))
        body += encode_varint(zigzag(int(dy)))
        body += encode_varint(zigzag(int(dz)))
    return _frame(bytes(body))


def encode_tick(now_us: int, tick_index: int) -> bytes:
    body = (
        bytes((MSG_TICK,))
        + encode_varint(now_us)
        + encode_varint(tick_index)
    )
    return _frame(body)


def decode_entity_batch_body(body: bytes) -> tuple:
    """The ``MSG_ENTITY_BATCH`` branch of the old ``_decode_body``;
    returns the ``moves`` tuple."""
    offset = 1
    count, offset = decode_varint(body, offset)
    moves = []
    last_eid = 0
    for _ in range(count):
        delta, offset = decode_varint(body, offset)
        eid = last_eid + unzigzag(delta)
        last_eid = eid
        raw_dx, offset = decode_varint(body, offset)
        raw_dy, offset = decode_varint(body, offset)
        raw_dz, offset = decode_varint(body, offset)
        moves.append(
            (eid, unzigzag(raw_dx), unzigzag(raw_dy), unzigzag(raw_dz))
        )
    return tuple(moves)


def decode_entity_batch_frame(buf: bytes) -> tuple:
    """The old ``decode_frame`` on a buffer holding one batch frame."""
    length, body_start = decode_varint(buf, 0)
    end = body_start + length
    if end > len(buf):
        raise ValueError("truncated frame")
    body = bytes(buf[body_start:end])
    assert body[0] == MSG_ENTITY_BATCH
    return decode_entity_batch_body(body)
