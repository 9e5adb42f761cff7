"""Tests for the packet taxonomy and the networking queues."""

import pytest

from repro.mlg.constants import CLIENT_TIMEOUT_US, KEEPALIVE_INTERVAL_US
from repro.mlg.netqueue import NetworkQueues
from repro.mlg.protocol import (
    ActionKind,
    PACKET_SIZES,
    PacketCategory,
    PacketStats,
    PlayerAction,
)
from repro.mlg.workreport import Op, WorkReport


class TestPacketStats:
    def test_record_counts_and_bytes(self):
        stats = PacketStats()
        added = stats.record(PacketCategory.ENTITY_MOVE, 10)
        assert added == 10 * PACKET_SIZES[PacketCategory.ENTITY_MOVE]
        assert stats.total_count == 10
        assert stats.total_bytes == added

    def test_entity_share_table8_semantics(self):
        stats = PacketStats()
        stats.record(PacketCategory.ENTITY_MOVE, 90)
        stats.record(PacketCategory.CHUNK_DATA, 10)
        n_share, b_share = stats.entity_share()
        assert n_share == pytest.approx(0.9)
        # Chunk data dominates bytes despite being 10% of messages.
        assert b_share < 0.05

    def test_empty_stats_share_is_zero(self):
        assert PacketStats().entity_share() == (0.0, 0.0)

    def test_merge(self):
        a = PacketStats()
        b = PacketStats()
        a.record(PacketCategory.CHAT, 2)
        b.record(PacketCategory.CHAT, 3)
        a.merge(b)
        assert a.counts[PacketCategory.CHAT] == 5

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PacketStats().record(PacketCategory.CHAT, -1)

    def test_every_category_has_a_size(self):
        for category in PacketCategory.ALL:
            assert PACKET_SIZES[category] > 0

    def test_entity_related_set(self):
        assert PacketCategory.ENTITY_MOVE in PacketCategory.ENTITY_RELATED
        assert PacketCategory.CHAT not in PacketCategory.ENTITY_RELATED


class TestPlayerAction:
    def test_sizes_by_kind(self):
        move = PlayerAction(ActionKind.MOVE, 1, (1.0, 2.0, 3.0))
        chat = PlayerAction(ActionKind.CHAT, 1, (1, 32))
        assert move.size_bytes != chat.size_bytes
        assert move.size_bytes > 0


class TestNetworkQueues:
    def test_inbound_buffered_until_tick_start(self):
        net = NetworkQueues()
        net.register_client(1, 0, latency_up_us=5_000, latency_down_us=5_000)
        action = PlayerAction(ActionKind.MOVE, 1, (1.0, 2.0, 3.0))
        arrival = net.submit_action(action, sent_at_us=10_000)
        assert arrival == 15_000
        assert net.drain_inbound(14_999) == []
        assert net.drain_inbound(15_000) == [action]
        # Drained once: no later tick sees it again.
        assert net.drain_inbound(1 << 62) == []

    def test_inbound_sorted_by_arrival(self):
        net = NetworkQueues()
        net.register_client(1, 0, 1_000, 1_000)
        net.register_client(2, 0, 9_000, 1_000)
        early = PlayerAction(ActionKind.MOVE, 2, (0.0, 0.0, 0.0))
        late = PlayerAction(ActionKind.MOVE, 1, (1.0, 1.0, 1.0))
        net.submit_action(early, sent_at_us=0)     # arrives 9 000
        net.submit_action(late, sent_at_us=10_000)  # arrives 11 000
        assert net.drain_inbound(20_000) == [early, late]

    def test_submit_to_disconnected_client_fails(self):
        net = NetworkQueues()
        net.register_client(1, 0, 1_000, 1_000)
        net.disconnect(1, "test")
        action = PlayerAction(ActionKind.MOVE, 1, (0.0, 0.0, 0.0))
        assert net.submit_action(action, 0) == -1

    def test_broadcast_counts_per_connected_client(self):
        net = NetworkQueues()
        net.register_client(1, 0, 1_000, 1_000)
        net.register_client(2, 0, 1_000, 1_000)
        net.disconnect(2, "gone")
        report = WorkReport()
        net.broadcast_counted(PacketCategory.ENTITY_MOVE, 5, report)
        assert net.stats.counts[PacketCategory.ENTITY_MOVE] == 5  # one client
        assert report.get(Op.PACKET) == 5

    @pytest.mark.parametrize("k", [0, 1, 3, 25])
    def test_broadcast_equals_one_send_per_client(self, k):
        """One tally of ``n × k`` is what ``k`` per-client sends add up
        to: counts, bytes and the report's counts, key order included."""
        nets, reports = [], []
        for _ in range(2):
            net = NetworkQueues()
            for client_id in range(k + 1):
                net.register_client(client_id, 0, 1_000, 1_000)
            net.disconnect(k, "gone")
            report = WorkReport()
            report.add(Op.CHUNK_LOAD, 2)
            nets.append(net)
            reports.append(report)
        for category, n in ((PacketCategory.ENTITY_MOVE, 7),
                            (PacketCategory.CHAT, 3),
                            (PacketCategory.TIME_UPDATE, 1)):
            nets[0].broadcast_counted(category, n, reports[0])
            for client_id in range(k):
                nets[1].send_counted(client_id, category, n, reports[1])
        broadcast, sends = nets
        assert list(broadcast.stats.counts.items()) == list(
            sends.stats.counts.items()
        )
        assert list(broadcast.stats.bytes_.items()) == list(
            sends.stats.bytes_.items()
        )
        assert list(reports[0].counts.items()) == list(
            reports[1].counts.items()
        )

    def test_deliveries_carry_downlink_latency(self):
        net = NetworkQueues()
        net.register_client(1, 0, 1_000, 7_000)
        report = WorkReport()
        delivery = net.deliver(
            1, PacketCategory.CHAT, (1, 1), flush_us=100_000, report=report
        )
        assert delivery.delivered_at_us == 107_000

    def test_keepalives_sent_on_interval(self):
        net = NetworkQueues()
        net.register_client(1, 0, 1_000, 1_000)
        report = WorkReport()
        assert net.flush_keepalives(KEEPALIVE_INTERVAL_US - 1, report) == []
        net.flush_keepalives(KEEPALIVE_INTERVAL_US, report)
        assert net.stats.counts.get(PacketCategory.KEEPALIVE, 0) == 1
        # Not resent until the next interval.
        net.flush_keepalives(KEEPALIVE_INTERVAL_US + 1, report)
        assert net.stats.counts[PacketCategory.KEEPALIVE] == 1

    def test_timeout_after_silence(self):
        net = NetworkQueues()
        net.register_client(1, 0, 1_000, 1_000)
        report = WorkReport()
        timed_out = net.flush_keepalives(CLIENT_TIMEOUT_US, report)
        assert timed_out == [1]
        assert net.client(1).disconnected
        assert net.client(1).disconnect_reason == "keepalive timeout"

    def test_check_timeouts_without_sending(self):
        net = NetworkQueues()
        net.register_client(1, 0, 1_000, 1_000)
        assert net.check_timeouts(CLIENT_TIMEOUT_US - 1) == []
        assert net.check_timeouts(CLIENT_TIMEOUT_US) == [1]

    def test_regular_flushes_prevent_timeout(self):
        net = NetworkQueues()
        net.register_client(1, 0, 1_000, 1_000)
        report = WorkReport()
        t = 0
        for _ in range(100):
            t += KEEPALIVE_INTERVAL_US
            assert net.flush_keepalives(t, report) == []
        assert not net.client(1).disconnected

    def test_connected_count(self):
        net = NetworkQueues()
        net.register_client(1, 0, 1, 1)
        net.register_client(2, 0, 1, 1)
        assert net.connected_count == 2
        net.disconnect(1, "bye")
        assert net.connected_count == 1
