"""The Flood world built one cuboid per terrace run against its
column-by-column build.

``FloodWorkload.create_world`` fills each run of x with one floor height
as one cuboid.  It must leave the world and the server exactly as the
builder in ``flood_oracle.py`` does: same blocks, aux and heightmaps, the
chunks loaded in the same order (which fixes the random-tick pairing) and
dirtied alike, the same gates and spawn point, and the same sky light
once installed.
"""

import numpy as np
import pytest
from flood_oracle import ScalarFloodWorkload
from test_workloads import _setup as _install

from repro.mlg.world import World
from repro.persistence.store import world_hash
from repro.workloads import FloodWorkload


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_terrace_runs_match_column_builder(seed, scale):
    bulk_workload = FloodWorkload(scale=scale)
    oracle_workload = ScalarFloodWorkload(scale=scale)
    bulk, oracle = (
        w.create_world(seed) for w in (bulk_workload, oracle_workload)
    )
    assert world_hash(bulk) == world_hash(oracle)
    assert list(bulk.loaded_keys()) == list(oracle.loaded_keys())
    assert bulk.dirty_keys() == oracle.dirty_keys()
    assert bulk_workload._gates == oracle_workload._gates
    assert bulk_workload._spawn == oracle_workload._spawn

    bulk_server, _ = _install(bulk_workload, seed)
    oracle_server, _ = _install(oracle_workload, seed)
    a, b = bulk_server.world, oracle_server.world
    assert world_hash(a) == world_hash(b)
    assert list(a.loaded_keys()) == list(b.loaded_keys())
    for key in b.loaded_keys():
        for field in ("heightmap", "skylit"):
            np.testing.assert_array_equal(
                getattr(a.get_chunk(*key), field),
                getattr(b.get_chunk(*key), field), err_msg=f"{key} {field}",
            )


def test_terrace_runs_cut_the_fill_calls(monkeypatch):
    """Two fills per terrace run (23 at scale 1) and 13 for the walls,
    gates and reservoir: a build that fills column by column again (125
    calls) fails here."""
    calls = []
    fill = World.fill

    def counted(self, *args, **kwargs):
        calls.append(args)
        return fill(self, *args, **kwargs)

    monkeypatch.setattr(World, "fill", counted)
    FloodWorkload().create_world(seed=1)
    assert len(calls) == 59, len(calls)
