"""Wire codec properties: round-trip identity and the Table 8 size
contract.

Seeded fuzz over every ``PacketCategory`` and ``ActionKind``:
encode→decode is the identity, and frame sizes reconcile with the
``PACKET_SIZES`` / ``PlayerAction._SIZES`` model the simulation
accounts.  The documented tolerance is pinned explicitly: with
realistic field magnitudes every frame hits its model size *exactly*
(padding); with adversarially large varint fields a frame may only ever
*exceed* the model, never undercut it — except batched entity moves,
whose whole purpose is to undercut the per-packet model.
"""

import numpy as np
import pytest

from repro.mlg import wirecodec as wc
from repro.mlg.protocol import (
    ActionKind,
    PACKET_SIZES,
    PacketCategory,
    PlayerAction,
)

#: Realistic bounds per schema tag: single-varint-byte ids/coords, the
#: magnitudes the small-world simulation actually produces.  The tiny
#: packets (entity_move at 13 model bytes) only have padding room for
#: these; larger fields are the WIDE tolerance case below.
REALISTIC = {
    "uv": lambda rng: int(rng.integers(0, 128)),
    "sv": lambda rng: int(rng.integers(-64, 64)),
    "u8": lambda rng: int(rng.integers(0, 256)),
    "f32": lambda rng: float(np.float32(rng.uniform(-1e4, 1e4))),
    "f64": lambda rng: float(rng.uniform(-1e6, 1e6)),
}

#: Adversarial bounds: field values whose varints outgrow the padding
#: budget of the smallest packets.
WIDE = {
    "uv": lambda rng: int(rng.integers(0, 1 << 60)),
    "sv": lambda rng: int(rng.integers(-(1 << 59), 1 << 59)),
    "u8": lambda rng: int(rng.integers(0, 256)),
    "f32": lambda rng: float(np.float32(rng.uniform(-1e30, 1e30))),
    "f64": lambda rng: float(rng.uniform(-1e300, 1e300)),
}


def fuzz_payload(schema, rng, bounds):
    return tuple(bounds[tag](rng) for tag in schema)


class TestPrimitives:
    def test_varint_round_trip(self):
        rng = np.random.default_rng(2022)
        values = [0, 1, 127, 128, 300, (1 << 63) - 1] + [
            int(rng.integers(0, 1 << 62)) for _ in range(200)
        ]
        for value in values:
            encoded = wc.encode_varint(value)
            decoded, end = wc.decode_varint(encoded)
            assert decoded == value
            assert end == len(encoded)

    def test_varint_rejects_negative_and_truncated(self):
        with pytest.raises(ValueError):
            wc.encode_varint(-1)
        with pytest.raises(ValueError, match="truncated"):
            wc.decode_varint(wc.encode_varint(300)[:1])

    def test_zigzag_round_trip(self):
        rng = np.random.default_rng(7)
        for value in [0, -1, 1, -(1 << 62)] + [
            int(rng.integers(-(1 << 60), 1 << 60)) for _ in range(200)
        ]:
            assert wc.unzigzag(wc.zigzag(value)) == value
            assert wc.zigzag(value) >= 0


class TestCategoryFrames:
    @pytest.mark.parametrize("category", PacketCategory.ALL)
    def test_state_round_trip_and_exact_model_size(self, category):
        rng = np.random.default_rng(hash(category) % (1 << 32))
        schema = wc.CATEGORY_SCHEMAS[category]
        for _ in range(50):
            payload = fuzz_payload(schema, rng, REALISTIC)
            frame = wc.encode_state(category, payload)
            assert len(frame) == PACKET_SIZES[category]
            msg, end = wc.decode_frame(frame)
            assert end == len(frame)
            assert msg == wc.WireState(category, payload)

    @pytest.mark.parametrize("category", PacketCategory.ALL)
    def test_delivery_round_trip_and_exact_model_size(self, category):
        rng = np.random.default_rng(hash(category) % (1 << 32) + 1)
        schema = wc.CATEGORY_SCHEMAS[category]
        for _ in range(50):
            payload = fuzz_payload(schema, rng, REALISTIC)
            delivered_at = int(rng.integers(0, 1 << 20))
            frame = wc.encode_delivery(category, payload, delivered_at)
            assert len(frame) == PACKET_SIZES[category]
            msg, end = wc.decode_frame(frame)
            assert end == len(frame)
            assert msg == wc.WireDelivery(category, payload, delivered_at)

    @pytest.mark.parametrize("category", PacketCategory.ALL)
    def test_wide_fields_round_trip_never_undercut_model(self, category):
        # The documented tolerance: huge varints may overflow the pad
        # budget of tiny packets, so the frame may exceed the model —
        # but it must never come in under it.
        rng = np.random.default_rng(hash(category) % (1 << 32) + 2)
        schema = wc.CATEGORY_SCHEMAS[category]
        for _ in range(50):
            payload = fuzz_payload(schema, rng, WIDE)
            frame = wc.encode_state(category, payload)
            assert len(frame) >= PACKET_SIZES[category]
            msg, _ = wc.decode_frame(frame)
            assert msg == wc.WireState(category, payload)


class TestActionFrames:
    @pytest.mark.parametrize(
        "kind",
        (ActionKind.MOVE, ActionKind.BUILD, ActionKind.DIG, ActionKind.CHAT),
    )
    def test_round_trip_and_exact_model_size(self, kind):
        rng = np.random.default_rng(hash(kind) % (1 << 32))
        schema = wc.ACTION_SCHEMAS[kind]
        for _ in range(50):
            action = PlayerAction(
                kind,
                int(rng.integers(1, 1 << 10)),
                fuzz_payload(schema, rng, REALISTIC),
            )
            sent_at = int(rng.integers(0, 100_000_000))  # µs, ~100 sim-s
            frame = wc.encode_action(action, sent_at)
            assert len(frame) == action.size_bytes
            msg, end = wc.decode_frame(frame)
            assert end == len(frame)
            assert msg == wc.WireAction(action, sent_at)


class TestSessionFrames:
    def test_hello_round_trip_including_view_distance_none(self):
        for view in (None, 0, 2, 10):
            frame = wc.encode_hello("bot-0", 8.5, 9.25, 1000, 1500, view)
            msg, _ = wc.decode_frame(frame)
            assert msg == wc.WireHello("bot-0", 8.5, 9.25, 1000, 1500, view)

    def test_welcome_tick_response_bye_round_trip(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            cid = int(rng.integers(1, 1 << 20))
            now = int(rng.integers(0, 1 << 50))
            x, y, z = (float(rng.uniform(-1e6, 1e6)) for _ in range(3))
            buf = (
                wc.encode_welcome(cid, x, y, z, now)
                + wc.encode_tick(now, cid)
                + wc.encode_response_sample(x)
                + wc.encode_bye("done")
            )
            msgs = []
            offset = 0
            while offset < len(buf):
                msg, offset = wc.decode_frame(buf, offset)
                msgs.append(msg)
            assert msgs == [
                wc.WireWelcome(cid, x, y, z, now),
                wc.WireTick(now, cid),
                wc.WireResponseSample(x),
                wc.WireBye("done"),
            ]


class TestEntityBatch:
    def test_round_trip_and_batch_saving(self):
        rng = np.random.default_rng(4242)
        for _ in range(25):
            n = int(rng.integers(1, 64))
            eids = np.sort(rng.choice(1 << 16, size=n, replace=False))
            moves = tuple(
                (
                    int(eid),
                    int(rng.integers(-8, 9)),
                    int(rng.integers(-8, 9)),
                    int(rng.integers(-8, 9)),
                )
                for eid in eids
            )
            frame = wc.encode_entity_batch(moves)
            msg, end = wc.decode_frame(frame)
            assert end == len(frame)
            assert msg == wc.WireEntityBatch(moves)
            # The saving that motivates batching: one batch frame
            # costs well under n per-packet model frames.
            modeled = n * PACKET_SIZES[PacketCategory.ENTITY_MOVE]
            assert len(frame) < modeled or n == 1


class TestFrameDecoder:
    def _message_stream(self):
        rng = np.random.default_rng(31337)
        buf = bytearray()
        expected = []
        for category in PacketCategory.ALL:
            payload = fuzz_payload(
                wc.CATEGORY_SCHEMAS[category], rng, REALISTIC
            )
            buf += wc.encode_state(category, payload)
            expected.append(wc.WireState(category, payload))
        buf += wc.encode_tick(123456, 7)
        expected.append(wc.WireTick(123456, 7))
        return bytes(buf), expected

    @pytest.mark.parametrize("chunk", (1, 7, 13, 4096))
    def test_chunked_feeding_matches_whole_buffer(self, chunk):
        buf, expected = self._message_stream()
        decoder = wc.FrameDecoder()
        got = []
        for start in range(0, len(buf), chunk):
            got.extend(decoder.feed(buf[start : start + chunk]))
        assert got == expected
        assert decoder.pending_bytes == 0

    def test_partial_frame_stays_pending(self):
        buf, _ = self._message_stream()
        decoder = wc.FrameDecoder()
        decoder.feed(buf[:5])
        assert decoder.pending_bytes == 5
