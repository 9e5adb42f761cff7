"""Every world an iteration builds is freed by refcount when it returns.

An iteration's object graph is acyclic (see README, *Object lifetimes*):
the ``MLGServer`` owns its world, engines, loop and lifecycle, and every
part that calls back up holds its owner weakly.  So with the cyclic
collector off, a weak reference to each server and world an entry point
built must be dead as soon as that entry point returns.  A reference cycle
anywhere in the graph keeps the whole arena resident until some later
gen-2 collection, which is what this guards against.
"""

import gc
import json
import weakref

import pytest

from repro.campaign import CampaignSpec, JobPlanner
from repro.campaign.executor import execute_job
from repro.core import MeterstickConfig, run_iteration
from repro.core.experiment import run_server_chain
from repro.lifetimes import OwnerGone
from repro.mlg.gameloop import GameLoop
from repro.mlg.server import MLGServer
from repro.mlg.world import World
from repro.net import run_clients, serve_and_join
from repro.persistence.lifecycle import ChunkLifecycle
from repro.persistence.store import RegionStore
from repro.persistence.warmup import ensure_world_cache
from repro.workloads import WORKLOADS


@pytest.fixture
def built(monkeypatch):
    """Weak references to every server and world built under the test,
    with the cyclic collector off, so only refcounting frees anything."""
    refs = []
    init = MLGServer.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))
        refs.append(weakref.ref(self.world))

    monkeypatch.setattr(MLGServer, "__init__", tracking_init)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def alive(refs):
    return [type(obj).__name__ for obj in (ref() for ref in refs) if obj]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_iteration_frees_its_world(built, workload):
    result = run_iteration(workload, "vanilla", "aws-t3.large", 1.0, seed=3)
    assert len(built) == 2 and alive(built) == []
    assert result.tick_durations_ms


def test_a_persisted_evicting_cell_frees_its_world(built, tmp_path):
    cache, _ = ensure_world_cache(
        tmp_path / "cache", "exploration", 1.0, 3, radius=4
    )
    built.clear()  # the world the cache was made from is not this cell's
    result = run_iteration(
        "exploration",
        "vanilla",
        "aws-t3.large",
        2.0,
        seed=3,
        world_dir=str(tmp_path / "world"),
        world_cache_dir=str(cache),
        max_loaded_chunks=60,
        autosave_interval_s=0.5,
    )
    world = result.telemetry["world"]
    assert world["chunks_loaded_from_disk"] > 0 and world["chunks_evicted"] > 0
    assert len(built) == 2 and alive(built) == []


def test_a_server_chain_frees_every_iteration(built):
    config = MeterstickConfig(
        world="players",
        environment="aws-t3.large",
        duration_s=1.0,
        iterations=2,
        number_of_bots=4,
    )
    assert len(run_server_chain(config, "papermc")) == 2
    assert len(built) == 4 and alive(built) == []


def test_a_serial_job_frees_its_worlds(built, tmp_path):
    spec = CampaignSpec(
        name="lifetimes",
        servers=["vanilla"],
        workloads=["farm"],
        environments=["das5"],
        iterations=2,
        duration_s=1.0,
        trace=True,
        output_dir=str(tmp_path / "out"),
    )
    (job,) = JobPlanner(spec).plan()
    execute_job(
        {"spec": spec.to_dict(), "job": job.to_dict(), "store": spec.output_dir}
    )
    assert len(built) == 4 and alive(built) == []


def test_a_served_cell_frees_its_world(built, tmp_path):
    spec_path = tmp_path / "wire.json"
    spec_path.write_text(
        json.dumps(
            {
                "name": "lifetimes-wire",
                "servers": ["vanilla"],
                "workloads": ["players"],
                "environments": ["das5"],
                "bot_counts": [2],
                "iterations": 1,
                "duration_s": 1.0,
                "transport": "tcp",
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    # Paced, so the clients join before the 20 ticks are over.
    served, clients = serve_and_join(
        spec_path,
        lambda port: run_clients("127.0.0.1", port, 2, stagger_s=0, seed=3),
    )
    assert served["iterations"] == 1
    assert clients["connected"] == 2
    assert len(built) == 2 and alive(built) == []


def test_a_loop_outliving_its_server_names_the_error():
    loop = GameLoop(MLGServer("vanilla", machine=None))
    with pytest.raises(OwnerGone, match="server was freed"):
        loop.run_tick()


def test_a_world_outliving_its_lifecycle_names_the_error(tmp_path):
    world = World(generator=lambda chunk: None)
    ChunkLifecycle(world, store=RegionStore(tmp_path))
    with pytest.raises(OwnerGone, match="_load"):
        world.ensure_chunk(0, 0)
