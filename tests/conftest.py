"""Fixtures shared by every test package."""

import pytest

from repro.mlg.blocks import Block
from repro.mlg.constants import WORLD_HEIGHT


@pytest.fixture
def count_blocks():
    """``count_blocks(world, block_id)``: the cells holding ``block_id``
    (not AIR) in ``world``'s loaded chunks, read through one
    ``World.blocks_cuboid`` over their bounding box (which reads AIR
    wherever no chunk is loaded)."""

    def count(world, block_id) -> int:
        assert block_id != Block.AIR
        coords = world.loaded_coords()
        if not len(coords):
            return 0
        (x0, z0), (x1, z1) = coords.min(axis=0) << 4, coords.max(axis=0) << 4
        cuboid = world.blocks_cuboid(
            x0, 0, z0, x1 + 15, WORLD_HEIGHT - 1, z1 + 15
        )
        return int((cuboid == block_id).sum())

    return count
