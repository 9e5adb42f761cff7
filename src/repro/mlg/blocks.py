"""Block registry: the vocabulary of the voxel world.

Block ids are small ints stored in numpy ``uint8`` chunk arrays.  The
registry maps each id to its static properties (solidity, opacity, light
emission, gravity, redstone role) used by the terrain-simulation engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Block",
    "BlockSpec",
    "spec",
    "is_solid",
    "BLOCK_SPECS",
    "SOLID_LUT",
    "OPAQUE_LUT",
    "LIGHT_EMISSION_LUT",
]


class Block:
    """Block id constants."""

    AIR = 0
    STONE = 1
    DIRT = 2
    GRASS = 3
    SAND = 4
    GRAVEL = 5
    BEDROCK = 6
    WATER_SOURCE = 7
    WATER_FLOW = 8
    LAVA = 9
    WOOD = 10
    LEAVES = 11
    COBBLESTONE = 12
    GLASS = 13
    OBSIDIAN = 14
    TNT = 15
    KELP = 16
    CROP = 17
    SAPLING = 18
    TORCH = 19
    REDSTONE_WIRE = 20
    REDSTONE_TORCH = 21
    REDSTONE_BLOCK = 22
    REPEATER = 23
    OBSERVER = 24
    PISTON = 25
    PISTON_HEAD = 26
    LEVER = 27
    HOPPER = 28
    CHEST = 29
    SLAB = 30
    ICE = 31
    MAGMA = 32

    ALL = tuple(range(33))


@dataclass(frozen=True)
class BlockSpec:
    """Static properties of one block type."""

    name: str
    solid: bool = True
    opaque: bool = True
    light_emission: int = 0
    gravity: bool = False
    fluid: bool = False
    redstone_component: bool = False
    blast_resistance: float = 5.0
    drops_item: bool = True


BLOCK_SPECS: dict[int, BlockSpec] = {
    Block.AIR: BlockSpec("air", solid=False, opaque=False, drops_item=False),
    Block.STONE: BlockSpec("stone", blast_resistance=6.0),
    Block.DIRT: BlockSpec("dirt", blast_resistance=2.5),
    Block.GRASS: BlockSpec("grass", blast_resistance=2.5),
    Block.SAND: BlockSpec("sand", gravity=True, blast_resistance=2.5),
    Block.GRAVEL: BlockSpec("gravel", gravity=True, blast_resistance=2.5),
    Block.BEDROCK: BlockSpec(
        "bedrock", blast_resistance=3_600_000.0, drops_item=False
    ),
    Block.WATER_SOURCE: BlockSpec(
        "water_source",
        solid=False,
        opaque=False,
        fluid=True,
        blast_resistance=500.0,
        drops_item=False,
    ),
    Block.WATER_FLOW: BlockSpec(
        "water_flow",
        solid=False,
        opaque=False,
        fluid=True,
        blast_resistance=500.0,
        drops_item=False,
    ),
    Block.LAVA: BlockSpec(
        "lava",
        solid=False,
        opaque=False,
        fluid=True,
        light_emission=15,
        blast_resistance=500.0,
        drops_item=False,
    ),
    Block.WOOD: BlockSpec("wood", blast_resistance=10.0),
    Block.LEAVES: BlockSpec("leaves", opaque=False, blast_resistance=0.2),
    Block.COBBLESTONE: BlockSpec("cobblestone", blast_resistance=6.0),
    Block.GLASS: BlockSpec(
        "glass", opaque=False, blast_resistance=0.3, drops_item=False
    ),
    Block.OBSIDIAN: BlockSpec("obsidian", blast_resistance=1200.0),
    Block.TNT: BlockSpec("tnt", blast_resistance=0.0),
    Block.KELP: BlockSpec(
        "kelp", solid=False, opaque=False, blast_resistance=0.0
    ),
    Block.CROP: BlockSpec(
        "crop", solid=False, opaque=False, blast_resistance=0.0
    ),
    Block.SAPLING: BlockSpec(
        "sapling", solid=False, opaque=False, blast_resistance=0.0
    ),
    Block.TORCH: BlockSpec(
        "torch", solid=False, opaque=False, light_emission=14,
        blast_resistance=0.0,
    ),
    Block.REDSTONE_WIRE: BlockSpec(
        "redstone_wire",
        solid=False,
        opaque=False,
        redstone_component=True,
        blast_resistance=0.0,
    ),
    Block.REDSTONE_TORCH: BlockSpec(
        "redstone_torch",
        solid=False,
        opaque=False,
        light_emission=7,
        redstone_component=True,
        blast_resistance=0.0,
    ),
    Block.REDSTONE_BLOCK: BlockSpec(
        "redstone_block", redstone_component=True, blast_resistance=6.0
    ),
    Block.REPEATER: BlockSpec(
        "repeater",
        solid=False,
        opaque=False,
        redstone_component=True,
        blast_resistance=0.0,
    ),
    Block.OBSERVER: BlockSpec(
        "observer", redstone_component=True, blast_resistance=3.0
    ),
    Block.PISTON: BlockSpec(
        "piston", redstone_component=True, blast_resistance=1.5
    ),
    Block.PISTON_HEAD: BlockSpec(
        "piston_head",
        redstone_component=True,
        blast_resistance=1.5,
        drops_item=False,
    ),
    Block.LEVER: BlockSpec(
        "lever",
        solid=False,
        opaque=False,
        redstone_component=True,
        blast_resistance=0.5,
    ),
    Block.HOPPER: BlockSpec(
        "hopper", opaque=False, redstone_component=True, blast_resistance=4.8
    ),
    Block.CHEST: BlockSpec("chest", opaque=False, blast_resistance=2.5),
    Block.SLAB: BlockSpec("slab", opaque=False, blast_resistance=6.0),
    Block.ICE: BlockSpec("ice", opaque=False, blast_resistance=0.5),
    Block.MAGMA: BlockSpec("magma", light_emission=3, blast_resistance=0.5),
}


def spec(block_id: int) -> BlockSpec:
    """Look up the :class:`BlockSpec` for ``block_id``."""
    try:
        return BLOCK_SPECS[int(block_id)]
    except KeyError:
        raise ValueError(f"unknown block id {block_id!r}") from None


#: Solidity lookup table indexed by block id — lets bulk world queries
#: (entity ground resolution) test whole id arrays at once.
SOLID_LUT = np.array(
    [BLOCK_SPECS[block_id].solid for block_id in Block.ALL], dtype=np.bool_
)

#: Opacity lookup table indexed by block id — turns the lighting engine's
#: per-id mask loops into a single fancy index over a chunk array.
OPAQUE_LUT = np.array(
    [BLOCK_SPECS[block_id].opaque for block_id in Block.ALL], dtype=np.bool_
)

#: Light emission per block id (0 for non-emitters), for vectorized
#: emitter scans.
LIGHT_EMISSION_LUT = np.array(
    [BLOCK_SPECS[block_id].light_emission for block_id in Block.ALL],
    dtype=np.uint8,
)


def is_solid(block_id: int) -> bool:
    """True if entities collide with this block."""
    return spec(block_id).solid
