"""Kernel-vs-scalar parity for the wire codec's array paths.

Entity batches are encoded and decoded by array kernels (LEB128 and
zigzag over whole columns).  The scalar loops they replaced live on in
``wire_oracle.py``, verbatim, as the oracle: on every input both accept,
the kernels must produce the same bytes, the same decoded moves and —
for a frame cut short anywhere — the same exception with the same
message.  Where the kernels are *stricter* than the old loops (values
that do not fit 64 bits) the live scalar ``decode_varint`` is the
reference instead, because the two paths must agree with each other.
"""

import numpy as np
import pytest
import wire_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mlg import wirecodec as wc
from repro.mlg.protocol import PacketCategory

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Every 7-bit boundary of an unsigned 64-bit varint, and its neighbours.
UNSIGNED_EDGES = sorted(
    {0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1}
    | {
        (1 << shift) + nudge
        for shift in range(7, 64, 7)
        for nudge in (-1, 0, 1)
    }
)
#: The signed values whose zigzag lands on those boundaries.
SIGNED_EDGES = sorted(
    {INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX}
    | {
        sign * ((1 << shift) + nudge)
        for shift in range(6, 63, 7)
        for nudge in (-1, 0, 1)
        for sign in (-1, 1)
    }
    | {0, -1, 1, -64, 63, -65, 64}
)

unsigned64 = st.one_of(
    st.sampled_from(UNSIGNED_EDGES), st.integers(0, (1 << 64) - 1)
)
signed64 = st.one_of(
    st.sampled_from(SIGNED_EDGES), st.integers(INT64_MIN, INT64_MAX)
)
#: Deltas of ids drawn from this range always fit ``int64``.
entity_ids = st.one_of(
    st.integers(0, 1 << 20), st.integers(-(1 << 62), (1 << 62) - 1)
)
moves_lists = st.lists(
    st.tuples(entity_ids, signed64, signed64, signed64), max_size=40
)


def outcome(call):
    """What ``call`` did: its result, or the exception's type and text."""
    try:
        return ("ok", call())
    except Exception as exc:
        return (type(exc), str(exc))


def scalar_varints(buf: bytes, count: int) -> tuple[list[int], int]:
    """``count`` sequential calls of the live scalar ``decode_varint``."""
    values, offset = [], 0
    for _ in range(count):
        value, offset = wc.decode_varint(buf, offset)
        values.append(value)
    return values, offset


class TestVarintKernels:
    @given(st.lists(unsigned64, max_size=60))
    @example([0, 1, 127])  # the all-single-byte branch
    @example([127, 128, (1 << 64) - 1])  # the mixed-width branch
    @settings(max_examples=200, deadline=None)
    def test_encode_matches_scalar_concatenation(self, values):
        column = np.array(values, dtype=np.uint64)
        expected = b"".join(oracle.encode_varint(v) for v in values)
        assert wc.encode_varints(column) == expected

    def test_every_boundary_value_in_one_column(self):
        column = np.array(UNSIGNED_EDGES, dtype=np.uint64)
        wire = wc.encode_varints(column)
        assert wire == b"".join(oracle.encode_varint(v) for v in UNSIGNED_EDGES)
        decoded, end = wc.decode_varints(wire, 0, len(UNSIGNED_EDGES))
        assert decoded.dtype == np.uint64
        assert decoded.tolist() == UNSIGNED_EDGES
        assert end == len(wire)

    def test_both_branches_run_and_agree(self):
        # Which branch runs is a property of the data, never a flag: the
        # same values take the single-byte path alone and the general
        # path once a wide value joins them.
        narrow = np.arange(128, dtype=np.uint64)
        assert wc.encode_varints(narrow) == bytes(range(128))
        mixed = np.append(narrow, np.uint64(1 << 40))
        wire = wc.encode_varints(mixed)
        assert wire[:128] == bytes(range(128))
        assert wire[128:] == oracle.encode_varint(1 << 40)
        for column, blob in ((narrow, bytes(range(128))), (mixed, wire)):
            decoded, end = wc.decode_varints(blob, 0, len(column))
            assert decoded.tolist() == column.tolist()
            assert end == len(blob)

    def test_encode_refuses_signed_columns(self):
        with pytest.raises(ValueError, match="uint64"):
            wc.encode_varints(np.array([-1, 2], dtype=np.int64))

    @given(st.lists(unsigned64, max_size=60), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_decode_matches_scalar_loop(self, values, lead):
        # Decoding starts at an offset and stops after ``count`` varints,
        # whatever follows them.
        blob = bytes(lead) + b"".join(map(oracle.encode_varint, values))
        blob += b"\xff\x01"
        decoded, end = wc.decode_varints(blob, lead, len(values))
        assert decoded.tolist() == values
        assert end == len(blob) - 2

    @given(st.binary(max_size=48), st.integers(0, 24))
    @example(b"\xff" * 9 + b"\x01", 1)  # 2**64 - 1: the widest value
    @example(b"\xff" * 9 + b"\x02", 1)  # bit 64 set
    @example(b"\x80" * 10 + b"\x00", 1)  # eleven bytes
    @example(b"\x05" + b"\x80" * 12, 2)  # too long, then the bytes run out
    @example(b"\x05\x80\x80", 2)  # truncated inside the second varint
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_bytes_agree_with_the_scalar_path(self, data, count):
        def kernel():
            values, end = wc.decode_varints(data, 0, count)
            return values.tolist(), end

        assert outcome(kernel) == outcome(lambda: scalar_varints(data, count))

    def test_tenth_byte_may_only_carry_bit_63(self):
        widest = b"\xff" * 9 + b"\x01"
        assert wc.decode_varint(widest) == ((1 << 64) - 1, 10)
        assert wc.decode_varints(widest, 0, 1)[0].tolist() == [(1 << 64) - 1]
        overflow = b"\xff" * 9 + b"\x02"
        with pytest.raises(ValueError, match="64 bits"):
            wc.decode_varint(overflow)
        with pytest.raises(ValueError, match="64 bits"):
            wc.decode_varints(overflow, 0, 1)

    @given(st.lists(signed64, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_zigzag_arrays_match_scalar(self, values):
        column = np.array(values, dtype=np.int64)
        zipped = wc.zigzag_array(column)
        assert zipped.dtype == np.uint64
        assert zipped.tolist() == [oracle.zigzag(v) for v in values]
        assert wc.unzigzag_array(zipped).tolist() == values

    def test_zigzag_int64_extremes(self):
        column = np.array(SIGNED_EDGES, dtype=np.int64)
        zipped = wc.zigzag_array(column)
        assert zipped.tolist() == [oracle.zigzag(v) for v in SIGNED_EDGES]
        assert int(zipped.max()) == (1 << 64) - 1  # int64 min
        assert wc.unzigzag_array(zipped).tolist() == SIGNED_EDGES


class TestEntityBatchParity:
    @given(moves_lists)
    @example([])
    @example([(7, 1, 0, -1)])
    @example([(5, 0, 0, 0), (3, 0, 0, 0), (900, 0, 0, 0)])  # unsorted ids
    @example([(INT64_MAX, INT64_MIN, INT64_MAX, 0)])
    @example([(INT64_MIN, 0, 0, 0)])
    @settings(max_examples=300, deadline=None)
    def test_encode_and_decode_match_the_scalar_loops(self, moves):
        moves = tuple(moves)
        frame = oracle.encode_entity_batch(moves)
        assert wc.encode_entity_batch(moves) == frame
        if moves:
            rows = np.array(moves, dtype=np.int64)
            assert wc.encode_entity_batch(rows) == frame
        message, end = wc.decode_frame(frame)
        assert end == len(frame)
        assert message == wc.WireEntityBatch(moves)
        assert message.moves == oracle.decode_entity_batch_frame(frame)
        # ``moves`` stays a tuple of plain-int 4-tuples.
        assert all(
            type(value) is int for move in message.moves for value in move
        )

    def test_flush_shape_from_an_array(self):
        # What the server's flush hands over: ids 0..n-1, constant deltas.
        rows = np.empty((172, 4), dtype=np.int64)
        rows[:, 0] = np.arange(172)
        rows[:, 1:] = (1, 0, -1)
        moves = tuple(map(tuple, rows.tolist()))
        frame = wc.encode_entity_batch(rows)
        assert frame == oracle.encode_entity_batch(moves)
        assert wc.decode_frame(frame)[0].moves == moves

    @given(moves_lists.filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_truncation_at_every_offset_fails_like_the_oracle(self, moves):
        frame = oracle.encode_entity_batch(moves)
        body = frame[oracle.decode_varint(frame)[1] :]
        for cut in range(len(frame)):
            # The stream ends inside the frame ...
            got = outcome(lambda: wc.decode_frame(frame[:cut])[0].moves)
            want = outcome(
                lambda: oracle.decode_entity_batch_frame(frame[:cut])
            )
            assert got == want and got[0] is ValueError
        for cut in range(1, len(body)):
            # ... or a well-framed body ends inside its declared moves.
            short = oracle.encode_varint(cut) + body[:cut]
            got = outcome(lambda: wc.decode_frame(short)[0].moves)
            want = outcome(lambda: oracle.decode_entity_batch_frame(short))
            assert got == want and got[0] is ValueError

    @pytest.mark.parametrize("chunk", (1, 7, 4096))
    def test_chunked_feeding(self, chunk):
        rng = np.random.default_rng(15)
        batches = []
        for n in (0, 1, 16, 172, 700):
            ids = rng.permutation(1 << 18)[:n]
            deltas = rng.integers(-(1 << 20), 1 << 20, (n, 3))
            batches.append(np.column_stack((ids, deltas)).reshape(n, 4))
        stream = b"".join(
            wc.encode_entity_batch(rows) + wc.encode_tick(50_000 * i, i)
            for i, rows in enumerate(batches)
        )
        decoder = wc.FrameDecoder()
        messages = []
        for start in range(0, len(stream), chunk):
            messages.extend(decoder.feed(stream[start : start + chunk]))
        assert decoder.pending_bytes == 0
        expected = []
        for i, rows in enumerate(batches):
            expected.append(
                wc.WireEntityBatch(tuple(map(tuple, rows.tolist())))
            )
            expected.append(wc.WireTick(50_000 * i, i))
        assert messages == expected


#: One value strategy per schema tag, over the tag's whole range.
FIELD_VALUES = {
    "uv": unsigned64,
    "sv": signed64,
    "u8": st.integers(0, 255),
    "f32": st.floats(width=32, allow_nan=False),
    "f64": st.floats(allow_nan=False),
}


class TestLayoutTableParity:
    """The padded frames are built from a per-type layout table; the
    string-tag field loop and per-frame padding search they replaced are
    the oracle, over single-byte and padding-busting fields alike."""

    @pytest.mark.parametrize("category", PacketCategory.ALL)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_state_and_delivery_bytes(self, category, data):
        payload = tuple(
            data.draw(FIELD_VALUES[tag])
            for tag in oracle.CATEGORY_SCHEMAS[category]
        )
        stamp = data.draw(unsigned64)
        state = oracle.encode_state(category, payload)
        delivery = oracle.encode_delivery(category, payload, stamp)
        assert wc.encode_state(category, payload) == state
        assert wc.encode_delivery(category, payload, stamp) == delivery
        # In place, behind whatever the buffer already holds.
        buf = bytearray(b"\x01\x07")
        wc.append_state(buf, category, payload)
        wc.append_delivery(buf, category, payload, stamp)
        assert bytes(buf) == b"\x01\x07" + state + delivery
        decoded = wc.FrameDecoder().feed(state + delivery)
        assert decoded == [
            wc.WireState(category, payload),
            wc.WireDelivery(category, payload, stamp),
        ]

    def test_a_refused_payload_leaves_the_buffer_on_a_frame_boundary(self):
        buf = bytearray(wc.encode_tick(1, 2))
        before = bytes(buf)
        with pytest.raises(ValueError, match="varint must be >= 0"):
            wc.append_state(buf, PacketCategory.CHAT, (3, -1))
        with pytest.raises(ValueError, match="arity"):
            wc.append_state(buf, PacketCategory.CHAT, (3,))
        assert bytes(buf) == before


class TestSixtyFourBitAgreement:
    def test_declared_count_beyond_the_bytes_present(self):
        # A peer may declare any count; nothing may be sized by it.
        body = bytes((wc.MSG_ENTITY_BATCH,)) + oracle.encode_varint(1 << 40)
        body += bytes((2, 2, 0, 1)) * 3
        frame = oracle.encode_varint(len(body)) + body
        with pytest.raises(ValueError, match="truncated varint"):
            wc.decode_frame(frame)

    @pytest.mark.parametrize(
        "moves",
        (
            [(1 << 63, 0, 0, 0)],
            [(0, INT64_MIN - 1, 0, 0)],
            [(1 << 64, 0, 0, 0)],
            [(1 << 63, 0, 0, 0), (-1, 0, 0, 0)],
            # Each id fits, their difference does not.
            [(INT64_MIN, 0, 0, 0), (INT64_MAX, 0, 0, 0)],
            [(INT64_MAX, 0, 0, 0), (-2, 0, 0, 0)],
        ),
    )
    def test_ids_and_deltas_outside_int64_are_value_errors(self, moves):
        with pytest.raises(ValueError, match="int64"):
            wc.encode_entity_batch(moves)

    def test_array_inputs_outside_the_contract_are_value_errors(self):
        wide = np.array([[1 << 63, 0, 0, 0]], dtype=np.uint64)
        with pytest.raises(ValueError, match="int64"):
            wc.encode_entity_batch(wide)
        with pytest.raises(ValueError, match="int64"):
            wc.encode_entity_batch(np.array([[0.5, 0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match=r"\(n, 4\)"):
            wc.encode_entity_batch(np.zeros((3, 3), dtype=np.int64))
        fits = np.array([[INT64_MAX, 1, 2, 3]], dtype=np.uint64)
        assert wc.encode_entity_batch(fits) == oracle.encode_entity_batch(
            ((INT64_MAX, 1, 2, 3),)
        )
