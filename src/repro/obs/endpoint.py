"""The pull-based metrics endpoint: a tiny stdlib HTTP server.

One :class:`ObsHttpServer` serves two routes from a daemon thread:

- ``GET /metrics`` — Prometheus text exposition format;
- ``GET /metrics.json`` — the JSON snapshot (schema ``repro-obs/v1``),
  which also carries run metadata (``repro top`` polls this one).

The server never touches the simulation: a scrape calls the snapshot
function the owner provided, renders, and responds.  The snapshot
function summarizes live series from another thread — a read racing
the tick can, very rarely, meet a dict the tick is growing, so a failed
build answers with the previous successful body (HTTP 200) or 503 when
none exists yet.  Scrapes therefore never crash a run and a
run never waits on a scraper.
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.registry import ObsSnapshot, render_json, render_prometheus

__all__ = ["ObsHttpServer"]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; scrapes are
    # routine, so stay silent.
    def log_message(self, format: str, *args) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        owner: "ObsHttpServer" = self.server.obs_owner  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body, status = owner.body("prometheus")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/metrics.json":
            body, status = owner.body("json")
            content_type = "application/json; charset=utf-8"
        else:
            body, status = "not found\n", 404
            content_type = "text/plain; charset=utf-8"
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class ObsHttpServer:
    """Serve scrapes of a snapshot function from a daemon thread."""

    def __init__(
        self,
        snapshot_fn,
        host: str = "127.0.0.1",
        port: int = 0,
        scrape_grace_s: float = 0.0,
    ) -> None:
        self._snapshot_fn = snapshot_fn
        self._grace_s = scrape_grace_s
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.obs_owner = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._last: dict[str, str] = {}
        self.host, self.port = self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def body(self, which: str) -> tuple[str, int]:
        """Render one scrape body; fall back to the last good one."""
        try:
            snap = self._snapshot_fn()
            if not isinstance(snap, ObsSnapshot):
                raise TypeError(f"snapshot_fn returned {type(snap).__name__}")
            self._last["prometheus"] = render_prometheus(snap)
            self._last["json"] = render_json(snap)
        except Exception:
            if which not in self._last:
                return "snapshot unavailable\n", 503
        return self._last[which], 200

    def start(self) -> "ObsHttpServer":
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"obs-endpoint:{self.port}",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self, grace_s: float | None = None) -> None:
        """Stop serving, after the configured post-run scrape grace."""
        grace = self._grace_s if grace_s is None else grace_s
        if grace > 0:
            time.sleep(grace)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
