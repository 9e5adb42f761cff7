"""The experiment runner: Meterstick's measurement loop.

Runs every configured server (system under test) for the configured number
of iterations of one workload in one environment, exactly as the paper's
controller sequences it: boot the server with the workload world, start
logging, connect the player emulation, run for the configured duration,
stop, collect.  Machines persist across iterations of the same server
(the deployment reuses nodes), with an idle gap between iterations during
which burstable credits accrue.

There is one iteration body, ``build -> drive -> collect``, and it reads
its knobs from the :class:`MeterstickConfig` itself.  What differs
between transports is only the *drive*: which fleet ``workload.install``
populates, how the tick loop is run, and which extra telemetry section
comes back.  :class:`SwarmDrive` (a :class:`BotSwarm` stepped in a
synchronous loop) is the in-process one; ``repro serve`` supplies a drive
that runs the same server behind real sockets (:mod:`repro.net.serve`).
"""

from __future__ import annotations

import shutil
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.cloud.providers import get_environment
from repro.core.collectors import SystemMetricsCollector, tick_distribution
from repro.core.config import MeterstickConfig
from repro.core.results import ExperimentResult, IterationResult
from repro.emulation.swarm import BotSwarm
from repro.mlg.server import MLGServer
from repro.simtime import SimClock, s_to_us
from repro.tracing.provenance import measurement_config, provenance_fingerprint
from repro.workloads import get_workload

__all__ = [
    "ExperimentRunner",
    "SwarmDrive",
    "require_transport",
    "run_iteration",
    "run_server_chain",
]

#: Per-iteration streaming callback for live campaign observability.
IterationFn = Callable[[IterationResult], None]

#: The CLI verb that drives each ``transport``.
_VERBS = {"inproc": "repro run", "tcp": "repro serve"}


def require_transport(
    config: MeterstickConfig, transport: str, cell: str = "this cell"
) -> None:
    """Refuse to drive ``config`` over a transport it does not declare.

    The ``transport`` knob is part of every shard's fingerprint, so a
    cell must be measured the way it says it was.
    """
    if config.transport != transport:
        raise ValueError(
            f"{cell} declares transport {config.transport!r}: drive it "
            f"with `{_VERBS[config.transport]}`, not `{_VERBS[transport]}`"
        )


class SwarmDrive:
    """The in-process drive: a bot swarm stepped in the tick loop.

    A drive is the transport-specific part of an iteration.  It names the
    ``transport`` it carries, builds the ``fleet`` that
    ``workload.install`` populates, and ``run``s the started server for
    the iteration's duration, returning the telemetry sections only this
    transport has.  The tick and response series are not the drive's to
    return: both transports stream them into the server's tap.
    """

    transport = "inproc"

    def fleet(self, server: MLGServer, network, seed: int) -> BotSwarm:
        return BotSwarm(server, network, np.random.default_rng(seed ^ 0x5EED))

    def run(
        self,
        server: MLGServer,
        fleet: BotSwarm,
        system: SystemMetricsCollector,
        duration_s: float,
    ) -> dict:
        clock = server.clock
        deadline = clock.now_us + s_to_us(duration_s)
        while clock.now_us < deadline and server.running:
            server.tick()
            fleet.step()
            system.maybe_sample()
            if server.crashed:
                break
        return {}


def _iterate(
    config: MeterstickConfig,
    server_name: str,
    drive,
    *,
    seed: int,
    iteration: int,
    machine,
    clock: SimClock,
    world_dir: str | None,
    world_seed: int | None,
) -> IterationResult:
    """One iteration of ``server_name`` under ``config``: build the world
    and server, let ``drive`` run the ticks, collect the measurements.

    ``config.world_dir`` is not read here: the caller passes this
    iteration's own live directory as ``world_dir``.
    """
    require_transport(config, drive.transport)
    env = get_environment(config.environment)
    workload_kwargs = {}
    if config.world.lower() == "players":
        workload_kwargs["n_bots"] = config.number_of_bots
        workload_kwargs["behavior"] = config.behavior
    workload = get_workload(config.world, scale=config.scale, **workload_kwargs)
    world = workload.create_world(seed if world_seed is None else world_seed)
    server = MLGServer(
        server_name,
        machine,
        world=world,
        clock=clock,
        seed=seed,
        world_dir=world_dir,
        world_cache_dir=config.world_cache_dir,
        autosave_interval_s=config.autosave_interval_s,
        autosave_flush_every=config.autosave_flush_every,
        max_loaded_chunks=config.max_loaded_chunks,
        trace=config.trace,
        slow_tick_factor=config.slow_tick_factor,
    )
    fleet = drive.fleet(server, env.network, seed)
    workload.install(server, fleet)
    # With persistence in play, fingerprint the post-install world: warm
    # and cold boots of the same world seed must agree bit-for-bit.  The
    # hash covers the connect-time view: every workload connects at
    # least one zero-delay player inside ``install``, whose view load is
    # exactly the chunk set a warm boot serves from disk.
    initial_world_hash = None
    if server.lifecycle is not None:
        from repro.persistence.store import world_hash

        initial_world_hash = f"{world_hash(world):08x}"

    system = SystemMetricsCollector(server)

    server.start()
    try:
        drive_telemetry = drive.run(
            server, fleet, system, config.duration_s
        )
    finally:
        server.running = False

    tap = server.telemetry
    stats = server.net.stats
    n_share, b_share = stats.entity_share()
    telemetry = {
        "tick": tap.snapshot(),
        "system": system.snapshot(),
        "response_ms": tap.response_snapshot(),
        **drive_telemetry,
    }
    if server.lifecycle is not None:
        telemetry["world"] = {
            "initial_hash": initial_world_hash,
            **server.lifecycle.stats(),
        }
    if server.tracer.enabled:
        # Span dumps use simulated time only, so the trace snapshot is
        # as deterministic as the run itself.
        telemetry["trace"] = server.tracer.snapshot()
    return IterationResult(
        server=server_name,
        workload=config.world,
        environment=config.environment,
        iteration=iteration,
        seed=seed,
        duration_s=config.duration_s,
        # The tap's series, as recorded: ticks in order, responses in
        # arrival order, on either transport.
        tick_durations_ms=tap.tick_ms.tolist(),
        response_times_ms=tap.response_ms.tolist(),
        tick_distribution=tick_distribution(tap),
        packet_counts=dict(stats.counts),
        packet_bytes=dict(stats.bytes_),
        entity_message_share=n_share,
        entity_byte_share=b_share,
        system_summary=system.summary(),
        crashed=server.crashed,
        crash_reason=server.crash_reason,
        throttled_ticks=machine.throttled_executions,
        final_credits_s=machine.credits_s,
        scale=config.scale,
        n_bots=config.number_of_bots,
        behavior=config.behavior,
        telemetry=telemetry,
    )


def run_iteration(
    workload_name: str,
    server_name: str,
    environment_name: str,
    duration_s: float = 60.0,
    seed: int = 0,
    *,
    scale: float = 1.0,
    n_bots: int = 25,
    behavior: str = "bounded-random",
    machine=None,
    clock: SimClock | None = None,
    iteration: int = 0,
    world_dir: str | None = None,
    **knobs,
) -> IterationResult:
    """Run one in-process iteration and return its measurements.

    ``server_name`` is a variant name or a ``VariantProfile`` (ablation
    studies build their own).  ``seed`` is this iteration's own seed.
    ``machine``/``clock`` may be passed in to persist node state across
    iterations; fresh ones are created when omitted.  ``world_dir`` is
    this iteration's live world directory — an existing one is booted
    from, which is how a saved world is reloaded.  ``knobs`` are
    :class:`MeterstickConfig` fields by name (``world_cache_dir``,
    ``max_loaded_chunks``, ``trace``, ...), with the
    config's defaults and checks.
    """
    config = MeterstickConfig(
        world=workload_name,
        environment=environment_name,
        scale=scale,
        number_of_bots=n_bots,
        behavior=behavior,
        **knobs,
    )
    # Assigned past the config's check: a zero-length run (set-up only)
    # is a legal single iteration, though not a legal campaign.
    config.duration_s = duration_s
    if machine is None:
        machine = get_environment(environment_name).create_machine(seed=seed)
    return _iterate(
        config,
        server_name,
        SwarmDrive(),
        seed=seed,
        iteration=iteration,
        machine=machine,
        clock=clock if clock is not None else SimClock(),
        world_dir=world_dir,
        world_seed=None,
    )


def run_server_chain(
    config: MeterstickConfig,
    server_name: str,
    on_iteration: IterationFn | None = None,
    drive=None,
) -> list[IterationResult]:
    """Run every iteration of one server on one persistent machine.

    Iterations of a server chain share a machine and clock (the deployment
    reuses nodes), so they must stay ordered; distinct chains are
    independent and may run concurrently — this is the unit of work the
    campaign executor distributes across processes.

    ``on_iteration`` is called with each :class:`IterationResult` as soon
    as it finishes — the hook the campaign executor uses to stream
    per-iteration telemetry to disk while the chain is still running.
    ``drive`` carries the chain over ``config.transport``; the default is
    the in-process :class:`SwarmDrive`.
    """
    if drive is None:
        drive = SwarmDrive()
    env = get_environment(config.environment)
    machine = env.create_machine(seed=config.iteration_seed(server_name, -1))
    if config.warm_machines:
        machine.drain_credits()
    clock = SimClock()
    # One provenance fingerprint per chain, attached to every iteration.
    # Deliberately timestamp-free and stripped of storage paths: shards
    # must stay byte-identical across serial/parallel runs and across
    # output directories (only the measurement conditions are stamped).
    provenance = provenance_fingerprint(
        measurement_config(config.to_dict()), extra={"server": server_name}
    )
    iterations: list[IterationResult] = []
    for iteration in range(config.iterations):
        # Live world directories are per (server, iteration): iterations
        # must not inherit each other's terrain mutations, and parallel
        # chains must not interleave region writes.  A leftover directory
        # from a killed attempt of this same iteration is wiped, so a
        # resumed job never boots from partially-simulated terrain.
        # (Direct `run_iteration(world_dir=...)` calls keep the opposite
        # behaviour on purpose: an existing world directory is a feature
        # — booting from a saved world.)
        world_dir = None
        if config.world_dir is not None:
            iteration_dir = (
                Path(config.world_dir) / server_name / f"iter{iteration:03d}"
            )
            if iteration_dir.exists():
                shutil.rmtree(iteration_dir)
            world_dir = str(iteration_dir)
        # Machine throttle counts are cumulative across the chain; bracket
        # the iteration to attribute only its own throttled executions.
        throttled_before = machine.throttled_executions
        iteration_result = _iterate(
            config,
            server_name,
            drive,
            seed=config.iteration_seed(server_name, iteration),
            iteration=iteration,
            machine=machine,
            clock=clock,
            world_dir=world_dir,
            # A warm cache pins the terrain seed to the campaign seed so
            # every iteration/server boots the identical on-disk world.
            world_seed=(
                config.seed if config.world_cache_dir is not None else None
            ),
        )
        iteration_result.throttled_ticks = (
            machine.throttled_executions - throttled_before
        )
        iteration_result.provenance = dict(provenance)
        iterations.append(iteration_result)
        if on_iteration is not None:
            on_iteration(iteration_result)
        # Teardown/setup gap: the node idles, credits accrue.
        clock.advance(s_to_us(config.inter_iteration_gap_s))
    return iterations


class ExperimentRunner:
    """Executes a full :class:`MeterstickConfig` campaign."""

    def __init__(self, config: MeterstickConfig) -> None:
        self.config = config

    def run(self) -> ExperimentResult:
        """Run all servers × iterations; returns the collected results."""
        config = self.config
        result = ExperimentResult(config=config.to_dict())
        for server_name in config.servers:
            result.iterations.extend(run_server_chain(config, server_name))
        return result
