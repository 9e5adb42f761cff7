"""Real wire serving: the asyncio TCP front end and client fleet.

Everything socket- and wall-clock-shaped lives in this package, *outside*
the deterministic simulation core: the simulation still runs on its
:class:`~repro.simtime.SimClock`, while this layer paces ticks against
real time, materializes the counted protocol traffic as real bytes
(:mod:`repro.mlg.wirecodec`), and measures the kernel/network effects the
Meterstick technical report calls out as part of benchmark variability.

- :mod:`repro.net.server` — ``WireServer``: accept loop, per-client
  reader/writer plumbing feeding ``NetworkQueues``, per-tick flushes.
- :mod:`repro.net.serve` — ``repro serve``: run one campaign cell behind
  a TCP front end, writing the standard manifest and job record;
  ``serve_and_join`` serves one in a thread while a fleet joins it.
- :mod:`repro.net.client` — ``repro clients``: ramp N emulated players
  over real sockets, streaming response telemetry back to the server.
"""

from repro.net.client import run_clients
from repro.net.serve import serve_and_join, serve_cell
from repro.net.server import WireServer

__all__ = ["WireServer", "run_clients", "serve_and_join", "serve_cell"]
