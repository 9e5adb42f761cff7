"""True-negative twin of determinism_bad: every hazard made safe via an
order-insensitive sink or a seeded generator."""

import os
import random
from pathlib import Path

from repro.mlg.world import World  # mlg files import each other freely


def safe(world_dir):
    names = sorted(os.listdir(world_dir))
    for path in sorted(Path(world_dir).iterdir()):
        print(path)
    stems = {path.stem for path in Path(world_dir).glob("*.json")}
    if "spawn" in os.listdir(world_dir):
        print("present")
    for cell in sorted({(0, 0), (1, 1)}):
        print(cell)
    count = len(os.listdir(world_dir))
    walked = sorted(n for _, _, ns in os.walk(world_dir) for n in ns)
    return names, stems, count, walked


def seeded_stdlib(seed):
    return random.Random(seed)
