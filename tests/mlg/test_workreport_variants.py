"""Tests for work accounting and the server variant profiles."""

import pytest

from repro.mlg.variants import (
    FORGE,
    PAPERMC,
    VANILLA,
    VARIANTS,
    get_variant,
)
from repro.mlg.workreport import (
    FIGURE11_BUCKETS,
    OP_TABLE,
    Op,
    WorkReport,
    bucket_of,
)


class TestWorkReport:
    def test_add_and_get(self):
        report = WorkReport()
        report.add(Op.ENTITY_UPDATE, 5)
        report.add(Op.ENTITY_UPDATE, 3)
        assert report.get(Op.ENTITY_UPDATE) == 8
        assert report.get(Op.CHAT) == 0

    def test_zero_add_is_noop(self):
        report = WorkReport()
        report.add(Op.CHAT, 0)
        assert Op.CHAT not in report.counts

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            WorkReport().add(Op.CHAT, -1)

    def test_merge(self):
        a = WorkReport()
        b = WorkReport()
        a.add(Op.CHAT, 1)
        b.add(Op.CHAT, 2)
        b.add(Op.PACKET, 4)
        a.merge(b)
        assert a.get(Op.CHAT) == 3
        assert a.get(Op.PACKET) == 4

    def test_cost_application(self):
        report = WorkReport()
        report.add(Op.ENTITY_UPDATE, 10)
        report.add(Op.PACKET, 100)
        table = {Op.ENTITY_UPDATE: 2.0, Op.PACKET: 0.5}
        costs = report.cost_us(table)
        assert costs[Op.ENTITY_UPDATE] == 20.0
        assert costs[Op.PACKET] == 50.0
        assert report.total_cost_us(table) == 70.0

    def test_missing_op_costs_nothing(self):
        report = WorkReport()
        report.add(Op.CHAT, 100)
        assert report.total_cost_us({}) == 0.0

    def test_bucketing_matches_figure11(self):
        assert bucket_of(Op.ENTITY_UPDATE) == "Entities"
        assert bucket_of(Op.TNT_UPDATE) == "Entities"
        assert bucket_of(Op.PATHFIND_NODE) == "Entities"
        assert bucket_of(Op.REDSTONE) == "Block Update"
        assert bucket_of(Op.LIGHTING) == "Block Update"
        assert bucket_of(Op.FLUID) == "Fluids"
        assert bucket_of(Op.BLOCK_ADD_REMOVE) == "Block Add/Remove"
        assert bucket_of(Op.CHAT) == "Other"
        # Chunk IO is attributable since the persistence extension: all
        # three ways a chunk enters play share the "Chunk Load" bucket,
        # and autosave write-back gets its own.
        assert bucket_of(Op.CHUNK_GEN) == "Chunk Load"
        assert bucket_of(Op.CHUNK_LOAD) == "Chunk Load"
        assert bucket_of(Op.CHUNK_VIEW) == "Chunk Load"
        assert bucket_of(Op.CHUNK_SAVE) == "Autosave"

    def test_bucketed_cost(self):
        report = WorkReport()
        report.add(Op.ENTITY_UPDATE, 10)
        report.add(Op.COLLISION_PAIR, 10)
        report.add(Op.CHAT, 10)
        table = {Op.ENTITY_UPDATE: 1.0, Op.COLLISION_PAIR: 1.0, Op.CHAT: 1.0}
        buckets = report.bucketed_cost_us(table)
        assert buckets["Entities"] == 20.0
        assert buckets["Other"] == 10.0

    def test_every_op_has_a_bucket(self):
        for op, _, _ in OP_TABLE:
            assert bucket_of(op) in FIGURE11_BUCKETS

    def test_copy_is_independent(self):
        a = WorkReport()
        a.add(Op.CHAT, 1)
        b = a.copy()
        b.add(Op.CHAT, 1)
        assert a.get(Op.CHAT) == 1


class TestVariants:
    def test_registry_aliases(self):
        assert get_variant("minecraft") is VANILLA
        assert get_variant("VANILLA") is VANILLA
        assert get_variant("paper") is PAPERMC
        assert get_variant("Forge") is FORGE

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError, match="unknown MLG variant"):
            get_variant("spigot")

    def test_forge_is_slower_than_vanilla(self):
        for op in (Op.ENTITY_UPDATE, Op.CHUNK_TICK, Op.BLOCK_UPDATE):
            assert FORGE.cost_table[op] > VANILLA.cost_table[op]

    def test_papermc_optimizes_entities_and_tnt(self):
        paper, vanilla = PAPERMC.cost_table, VANILLA.cost_table
        assert paper[Op.ENTITY_UPDATE] < vanilla[Op.ENTITY_UPDATE]
        assert paper[Op.EXPLOSION_RAY] < 0.3 * vanilla[Op.EXPLOSION_RAY]
        assert paper[Op.REDSTONE] < vanilla[Op.REDSTONE]

    def test_papermc_feature_flags(self):
        assert PAPERMC.async_chat
        assert PAPERMC.merge_items
        assert PAPERMC.entity_broadcast_interval == 2
        assert not VANILLA.async_chat
        assert not FORGE.merge_items

    def test_papermc_threading_profile(self):
        assert PAPERMC.parallel_fraction > VANILLA.parallel_fraction
        assert PAPERMC.thread_count > VANILLA.thread_count
        assert PAPERMC.background_cpu_fraction > VANILLA.background_cpu_fraction
        assert PAPERMC.gc_factor < VANILLA.gc_factor

    def test_cost_tables_are_readonly(self):
        with pytest.raises(TypeError):
            VANILLA.cost_table[Op.CHAT] = 0.0

    def test_variant_names_unique_in_registry(self):
        canonical = {v.name for v in VARIANTS.values()}
        assert canonical == {"vanilla", "forge", "papermc"}
