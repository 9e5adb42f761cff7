"""The recency grid evicts exactly what the set and the dict did.

``ChunkLifecycle`` keeps the last tick each chunk coordinate was in a view
in a growable 2-D grid; ``lifecycle_oracle.OracleLifecycle`` is the
set-of-tuples / dict code it replaced.  Both are driven by the same random
anchor walk and must unload the same chunks in the same order.
"""

import numpy as np
import pytest
from lifecycle_oracle import OracleLifecycle

from repro.core import run_iteration
from repro.mlg.workreport import WorkReport
from repro.mlg.world import World
from repro.persistence.lifecycle import ChunkLifecycle
from repro.persistence.store import RegionStore

VIEW = 1
CAP = 40


def _rig(cls, store_dir, pinned_box):
    world = World(generator=lambda chunk: None)
    evicted = []
    unload = world.unload_chunk

    def recording_unload(cx, cz):
        evicted.append((cx, cz))
        return unload(cx, cz)

    world.unload_chunk = recording_unload
    lifecycle = cls(
        world,
        store=RegionStore(store_dir) if store_dir is not None else None,
        autosave_interval_ticks=7,
        full_flush_every=3,
        max_loaded_chunks=CAP,
        pinned=lambda: set(pinned_box),
    )
    return world, lifecycle, evicted


def _walk(seed, ticks):
    """Per tick: three view anchors, chunks touched outside any view,
    chunks to dirty, and the pinned set.  The players start around the
    origin (so they cross into negative coordinates), drift a chunk or two
    a tick, and now and then jump far away, which the grid must grow for.
    """
    rng = np.random.default_rng(seed)
    players = rng.integers(-2, 3, size=(3, 2))
    for tick in range(ticks):
        players = players + rng.integers(-2, 3, size=(3, 2))
        if tick % 37 == 36:
            players[rng.integers(3)] += rng.integers(-60, 61, size=2)
        anchors = [((int(x), int(z)), VIEW) for x, z in players]
        # One ring beyond the eviction margin is stamped by nobody; the
        # margin ring itself is stamped while not loaded.
        strays = [
            (int(x + dx), int(z + dz))
            for x, z in players[:2]
            for dx, dz in [rng.integers(-3, 4, size=2)]
        ]
        dirty = strays[:1] if tick % 5 == 0 else []
        pinned = {anchors[2][0]} if tick % 11 < 6 else set()
        yield tick, anchors, strays, dirty, pinned


@pytest.mark.parametrize("with_store", [False, True])
def test_grid_evicts_what_the_set_and_dict_did(tmp_path, with_store):
    pins = [set(), set()]
    rigs = [
        _rig(cls, tmp_path / name if with_store else None, pin)
        for cls, name, pin in (
            (ChunkLifecycle, "grid", pins[0]),
            (OracleLifecycle, "oracle", pins[1]),
        )
    ]
    shapes = set()
    for tick, anchors, strays, dirty, pinned in _walk(seed=5, ticks=400):
        for (world, lifecycle, _), pin in zip(rigs, pins):
            pin.clear()
            pin.update(pinned)
            for (ccx, ccz), view in anchors:
                world.ensure_chunks(
                    (cx, cz)
                    for cx in range(ccx - view, ccx + view + 1)
                    for cz in range(ccz - view, ccz + view + 1)
                )
            world.ensure_chunks(strays)
            for key in dirty:
                world.get_chunk(*key).dirty = True
            lifecycle.tick(tick, WorkReport(), anchors)
        (world, grid, evicted), (expected, oracle, expected_evicted) = rigs
        assert evicted == expected_evicted, tick
        assert list(world.loaded_keys()) == list(expected.loaded_keys()), tick
        shapes.add((grid._seen.shape, grid._seen_origin))
    assert grid.chunks_evicted == oracle.chunks_evicted == len(evicted) > 100
    assert grid.stats() == oracle.stats()
    # The walk left the grid several times, towards negative coordinates
    # too, and each regrowth kept what the grid held.
    assert len(shapes) >= 4
    assert min(x0 for _, (x0, _) in shapes) < -30
    assert min(z0 for _, (_, z0) in shapes) < -30


def test_coordinates_outside_the_grid_have_never_been_seen():
    world = World(generator=lambda chunk: None)
    lifecycle = ChunkLifecycle(world, max_loaded_chunks=1)
    far = [(5000, -5000), (-7, 3), (0, 0), (1, 1)]
    world.ensure_chunks(far)
    # No anchors at all: the grid is still empty when eviction runs.
    lifecycle.tick(0, WorkReport(), [])
    assert lifecycle._seen.size == 0
    # Never-seen chunks go in key order.
    assert list(world.loaded_keys()) == [(5000, -5000)]
    world.ensure_chunks(far)
    lifecycle.max_loaded_chunks = 3
    lifecycle.tick(1, WorkReport(), [((0, 0), 0)])
    # (0, 0) and (1, 1) are inside view + margin; of the other two the
    # lower key goes, and the grid did not stretch out to the far one.
    assert list(world.loaded_keys()) == [(5000, -5000), (0, 0), (1, 1)]
    assert max(lifecycle._seen.shape) < 100


def test_eviction_resets_recency():
    world = World(generator=lambda chunk: None)
    lifecycle = ChunkLifecycle(world, max_loaded_chunks=2)
    world.ensure_chunks([(0, 0), (9, 9), (20, 20)])
    lifecycle.tick(3, WorkReport(), [((9, 9), 0), ((20, 20), 0)])
    assert not world.has_chunk(0, 0)  # never seen: first to go
    # (9, 9) was seen at tick 3; evicted at tick 4, it forgets that.
    world.ensure_chunks([(0, 0)])
    lifecycle.tick(4, WorkReport(), [((0, 0), 0), ((20, 20), 0)])
    assert not world.has_chunk(9, 9)
    assert lifecycle._last_seen([(9, 9), (20, 20), (8, 8)]) == [-1, 4, 3]


def test_a_tick_with_every_chunk_in_view_skips_the_walk():
    world = World(generator=lambda chunk: None)
    refreshes = []
    lifecycle = ChunkLifecycle(
        world, max_loaded_chunks=4, pinned=lambda: refreshes.append(1) or set()
    )
    walks = []
    dirty_keys = world.dirty_keys
    world.dirty_keys = lambda: walks.append(1) or dirty_keys()
    world.ensure_chunks((cx, cz) for cx in range(3) for cz in range(3))
    lifecycle.tick(0, WorkReport(), [((1, 1), 1)])
    # Over the cap, but all nine chunks are in view: no walk, and the
    # pinned set still refreshes on its own schedule.
    assert world.loaded_chunk_count == 9 and lifecycle.chunks_evicted == 0
    assert walks == [] and refreshes == [1]
    world.ensure_chunks([(9, 9)])
    lifecycle.tick(1, WorkReport(), [((1, 1), 1)])
    assert walks == [1] and not world.has_chunk(9, 9)


@pytest.mark.parametrize("seed", [1, 2])
def test_an_evicting_cell_evicts_what_the_oracle_did(monkeypatch, seed):
    """An ``exploration`` cell over its cap: most over-cap ticks have every
    chunk in view, and returning early on them changes nothing."""
    runs = []
    for cls in (ChunkLifecycle, OracleLifecycle):
        monkeypatch.setattr("repro.mlg.server.ChunkLifecycle", cls)
        evicted = []
        unload = World.unload_chunk

        def recording_unload(self, cx, cz, evicted=evicted, unload=unload):
            evicted.append((cx, cz))
            return unload(self, cx, cz)

        monkeypatch.setattr(World, "unload_chunk", recording_unload)
        it = run_iteration(
            "exploration", "vanilla", "aws-t3.large", 5.0, seed=seed,
            max_loaded_chunks=120,
        )
        monkeypatch.undo()
        runs.append(
            (
                evicted,
                it.telemetry["world"],
                it.tick_durations_ms,
                it.response_times_ms,
                it.packet_counts,
            )
        )
    (evicted, world, *rest), expected = runs
    assert evicted and world["chunks_evicted"] == len(evicted)
    assert (evicted, world, *rest) == expected
