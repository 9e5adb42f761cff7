"""The Farm world built in batches against its cell-by-cell build.

``FarmWorkload.install`` generates each construct group's chunks in one
pass and writes each construct in one bulk write.  It must leave the world
and the server exactly as the scalar builders in ``farm_oracle.py`` do:
same blocks, aux, heightmaps and light, the chunks loaded in the same
order (which fixes the random-tick pairing), the same runtime pieces, and
the RNG advanced by the same draws.
"""

import numpy as np
import pytest
from farm_oracle import ScalarFarmWorkload
from test_workloads import _setup as _install

from repro.mlg.blocks import Block
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.store import world_hash
from repro.workloads import FarmWorkload


def _clock_state(clock):
    return (clock.period_ticks, clock.phase_ticks, clock.gate_count,
            clock.sources, clock.pistons)


@pytest.mark.parametrize("scale", [0.5, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_install_matches_scalar_builders(seed, scale):
    bulk, _ = _install(FarmWorkload(scale=scale), seed)
    oracle, _ = _install(ScalarFarmWorkload(scale=scale), seed)
    assert world_hash(bulk.world) == world_hash(oracle.world)
    assert list(bulk.world.loaded_keys()) == list(oracle.world.loaded_keys())
    for key in oracle.world.loaded_keys():
        a, b = bulk.world.get_chunk(*key), oracle.world.get_chunk(*key)
        for field in ("heightmap", "skylit", "blocklight"):
            np.testing.assert_array_equal(
                getattr(a, field), getattr(b, field), err_msg=f"{key} {field}"
            )
    assert bulk.spawning.platforms == oracle.spawning.platforms
    np.testing.assert_array_equal(
        bulk.redstone._observers, oracle.redstone._observers
    )
    assert [_clock_state(c) for c in bulk.redstone.clocks] == [
        _clock_state(c) for c in oracle.redstone.clocks
    ]
    assert len(bulk.tick_hooks) == len(oracle.tick_hooks)
    assert (bulk.rng.bit_generator.state
            == oracle.rng.bit_generator.state)


def test_farm_install_generates_in_few_passes(monkeypatch):
    """One generate call for the entity farms, one per stone farm, one
    for the kelp farms, one for the sorter, then the observer's spawn
    chunk and its view: a build that generates chunk by chunk again (43
    calls at seed 1) fails here."""
    calls = []
    generate = TerrainGenerator.generate

    def counted(self, chunks):
        calls.append(len(chunks))
        return generate(self, chunks)

    monkeypatch.setattr(TerrainGenerator, "generate", counted)
    _install(FarmWorkload(), seed=1)
    assert len(calls) == 9, calls


def _surface(seed, x, z):
    """The column height of freshly generated terrain at ``(x, z)``."""
    world = FarmWorkload().create_world(seed)
    world.ensure_chunk(x >> 4, z >> 4)
    return world.column_height(x, z)


@pytest.mark.xfail(
    strict=True,
    reason="stone farms and the item sorter read column_height before "
    "their chunk is loaded, read 0 and build on the bedrock layer",
)
def test_stone_farms_and_sorter_sit_on_the_surface():
    seed = 1
    workload = FarmWorkload()
    server, _ = _install(workload, seed)
    counts = workload.counts()
    positions = workload._ring_positions(
        sum(counts.values()), radius=56, center=(8, 8)
    )
    first = counts["entity_farm"]
    stones = positions[first:first + counts["stone_farm"]]
    (sorter,) = positions[-counts["item_sorter"]:]
    beds = [clock.sources[0][1] - 1 for clock in server.redstone.clocks]
    assert beds == [_surface(seed, x, z) for x, z in stones]
    x, z = sorter
    hoppers = [
        y for y in range(128)
        if server.world.get_block(x, y, z) == Block.HOPPER
    ]
    assert hoppers == [_surface(seed, x, z)]
