"""Known-bad MSL001 corpus: every hazard class, one per statement."""

import glob
import os
import random
import time
from datetime import datetime
from pathlib import Path

import numpy as np


def hazards(world_dir):
    started = time.time()
    stamp = datetime.now()
    roll = random.random()
    jitter = np.random.normal()
    names = os.listdir(world_dir)
    for path in Path(world_dir).iterdir():
        print(path)
    regions = glob.glob("r.*.msr")
    for cell in {(0, 0), (1, 1)}:
        print(cell)
    order = [name for name in set(names)]
    walked = [n for _, _, ns in os.walk(world_dir) for n in ns]
    return started, stamp, roll, jitter, names, regions, order, walked
