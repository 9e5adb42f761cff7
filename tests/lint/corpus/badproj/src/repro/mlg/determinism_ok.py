"""True-negative twin of determinism_bad: every hazard made safe, one
via pragma, the rest via order-insensitive sinks."""

import os
import time
from pathlib import Path

from repro.mlg.world import World  # mlg files import each other freely


def safe(world_dir):
    started = time.time()  # lint: allow[MSL001] operator-log wall stamp, never enters simulation
    names = sorted(os.listdir(world_dir))
    for path in sorted(Path(world_dir).iterdir()):
        print(path)
    stems = {path.stem for path in Path(world_dir).glob("*.json")}
    if "spawn" in os.listdir(world_dir):
        print("present")
    for cell in sorted({(0, 0), (1, 1)}):
        print(cell)
    count = len(os.listdir(world_dir))
    return started, names, stems, count
