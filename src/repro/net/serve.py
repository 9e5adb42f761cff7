"""``repro serve``: run one campaign cell behind the TCP front end.

The serve side owns the full measurement record: it plans the campaign
exactly like the executor (same job ids, same manifest, same provenance
fingerprints), picks one cell, and runs its server chain through the
same driver (:func:`~repro.core.experiment.run_server_chain`, with the
executor's record streaming) — only the *drive* differs: a
:class:`~repro.net.server.WireServer` paced on an event loop instead of
an in-process swarm.  Players arrive over real sockets (``repro
clients``); the manifest and the job's record (one line per iteration,
then the commit line) land in the same layout, so ``repro report``,
``repro status`` and ``repro export`` work on wire-served campaigns
unchanged.  The record's lines additionally carry the ``wire_*`` metrics
(bytes in/out, flush wall time, connects) that only exist when real
sockets are involved.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

from repro.campaign.executor import open_campaign, run_job_chain
from repro.campaign.planner import JobPlanner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import JobStore
from repro.core.experiment import require_transport
from repro.net.server import WireServer, wire_metrics_snapshot

__all__ = ["serve_cell"]


class _ExternalFleet:
    """The swarm-shaped null object handed to ``workload.install``.

    Workloads populate their player emulation through the swarm API; on
    the wire path every player comes over a socket instead, so install's
    bot requests are deliberately dropped — the workload still shapes the
    world and server, only the emulation moves out of process.
    """

    def add_bot(self, *args, **kwargs) -> None:
        pass

    def add_observer(self, *args, **kwargs) -> None:
        pass

    def add_player_workload(self, *args, **kwargs) -> None:
        pass


class _WireDrive:
    """The TCP drive of one served chain (see ``SwarmDrive`` for the
    contract): an empty fleet at install, then the server paced behind a
    :class:`WireServer` for the iteration's duration.

    Whichever port the first iteration binds is kept for the rest of the
    chain so clients can reconnect between iterations.
    """

    transport = "tcp"

    def __init__(
        self, job, config, host: str, port: int | None, realtime: bool,
        on_listen,
    ) -> None:
        self.job = job
        self.host = host
        self.port = config.wire_port if port is None else port
        self.realtime = realtime
        self.on_listen = on_listen
        #: The server the metrics endpoint scrapes, and its iteration.
        self.live_server = None
        self.iteration = -1

    def fleet(self, server, network, seed: int) -> _ExternalFleet:
        return _ExternalFleet()

    def run(self, server, fleet, system, duration_s: float):
        self.live_server = server
        self.iteration += 1
        return asyncio.run(self._serve(server, system, duration_s))

    async def _serve(self, server, system, duration_s: float):
        wire = WireServer(
            server,
            host=self.host,
            port=self.port,
            realtime=self.realtime,
            on_tick=system.maybe_sample,
        )
        await wire.start()
        self.port = wire.port
        print(
            f"serving {self.job.server} iteration {self.iteration} "
            f"on {wire.host}:{wire.port}",
            flush=True,
        )
        if self.on_listen is not None:
            self.on_listen(wire.port)
        try:
            await wire.run(duration_s)
        finally:
            await wire.close()
        return {"wire": wire_metrics_snapshot(server)}

    def obs_snapshot(self):
        """One scrape of the currently-running iteration's series.

        Builds the same telemetry mapping the job record's lines carry,
        from the *live* tap/wire/tracer state — so a mid-run scrape and
        the iteration's final record line can never
        disagree on what a metric means.  Raises until the first
        iteration has started its server; the endpoint answers 503 (or
        the last good body) for those scrapes.
        """
        from repro.obs import telemetry_obs_snapshot

        server = self.live_server
        if server is None:
            raise RuntimeError("no iteration has started yet")
        telemetry = {
            "tick": server.telemetry.snapshot(),
            "response_ms": server.telemetry.response_snapshot(),
            "wire": wire_metrics_snapshot(server),
        }
        if server.tracer.enabled:
            telemetry["trace"] = {
                "enabled": True,
                "slow_ticks": server.tracer.slow_ticks,
                "anomaly_count": len(server.tracer.anomalies),
            }
        meta = {
            "cell": self.job.cell.key(),
            "job_id": self.job.job_id,
            "iteration": self.iteration,
        }
        return telemetry_obs_snapshot(telemetry, meta=meta)


def serve_cell(
    spec_path: str | Path,
    cell: int = 0,
    host: str = "127.0.0.1",
    port: int | None = None,
    realtime: bool = True,
    on_listen=None,
    on_obs=None,
) -> dict:
    """Serve one planned cell of ``spec_path`` over TCP; returns a summary.

    ``cell`` indexes the planned job list (``repro plan`` order) and must
    declare ``transport: tcp``.  The wire port comes from ``--port``,
    else the cell's ``wire_port`` knob (0 = OS-assigned).
    ``on_listen(port)`` fires once per iteration after the socket is
    bound — scripts and tests use it to start their client fleet at the
    right moment.  With the cell's ``obs`` knob on, one metrics endpoint
    serves the whole chain (``on_obs(url)`` fires once, before the first
    iteration binds).
    """
    spec = CampaignSpec.from_file(spec_path)
    planner = JobPlanner(spec)
    plan = planner.plan()
    if not 0 <= cell < len(plan):
        raise ValueError(
            f"cell {cell} out of range: spec plans {len(plan)} job(s)"
        )
    job = plan[cell]
    config = planner.job_config(job)
    require_transport(config, "tcp", f"cell {job.cell.key()}")
    store = JobStore(spec.output_dir)
    if job.job_id in store.completed_ids():
        raise FileExistsError(
            f"{store.telemetry_path(job.job_id)} already holds this cell's "
            "measurements; choose a fresh output_dir"
        )
    # Opened like a resumed campaign: other cells of the same spec may
    # already have been served into this store.
    open_campaign(spec, store, plan, resume=True)

    drive = _WireDrive(job, config, host, port, realtime, on_listen)
    obs = None
    if config.obs:
        from repro.obs import ObsHttpServer

        obs = ObsHttpServer(
            drive.obs_snapshot,
            host=host,
            port=config.obs_port,
            scrape_grace_s=config.obs_scrape_grace,
        ).start()
        print(f"obs endpoint {obs.url}", flush=True)
        if on_obs is not None:
            on_obs(obs.url)
    try:
        iterations = run_job_chain(job, config, store, drive)
    finally:
        if obs is not None:
            obs.stop()
    record = store.save_job_payload(job, len(iterations))
    return {
        "job_id": job.job_id,
        "cell": job.cell.key(),
        "iterations": len(iterations),
        "crashed": any(it.crashed for it in iterations),
        "record": str(record),
    }
