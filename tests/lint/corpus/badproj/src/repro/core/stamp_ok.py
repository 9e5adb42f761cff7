"""A wall-clock read outside the simulation paths: MSL001 does not police
src/repro/core/, where provenance metadata is stamped."""

import time


def provenance_stamp():
    return time.time()
