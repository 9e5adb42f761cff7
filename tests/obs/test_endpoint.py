"""The obs HTTP endpoint: routes, fallback, and lifecycle."""

import urllib.error
import urllib.request

import pytest

from repro.obs import ObsHttpServer, ObsSnapshot, render_json, render_prometheus


def make_snapshot() -> ObsSnapshot:
    snap = ObsSnapshot(meta={"cell": "vanilla/players/das5/3"})
    snap.export("repro_ticks_total", 42)
    snap.export("repro_tick_ms_p50", 11.5)
    return snap


def get(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=5) as response:
        return (
            response.status,
            response.read().decode("utf-8"),
            response.headers.get("Content-Type", ""),
        )


@pytest.fixture
def endpoint():
    state = {"fn": make_snapshot}
    server = ObsHttpServer(lambda: state["fn"](), port=0).start()
    try:
        yield server, state
    finally:
        server.stop(grace_s=0)


class TestRoutes:
    def test_metrics_is_prometheus_text(self, endpoint):
        server, _ = endpoint
        status, body, ctype = get(server.url)
        assert status == 200
        assert ctype.startswith("text/plain")
        assert body == render_prometheus(make_snapshot())

    def test_metrics_json_carries_meta(self, endpoint):
        server, _ = endpoint
        status, body, ctype = get(server.url + ".json")
        assert status == 200
        assert ctype.startswith("application/json")
        assert body == render_json(make_snapshot())

    def test_unknown_path_404(self, endpoint):
        server, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as err:
            get(f"http://{server.host}:{server.port}/nope")
        err.value.close()  # an HTTPError holds the response's socket
        assert err.value.code == 404


class TestFallback:
    def test_503_before_first_successful_snapshot(self):
        def boom():
            raise RuntimeError("server not constructed yet")

        server = ObsHttpServer(boom, port=0).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server.url)
            err.value.close()
            assert err.value.code == 503
        finally:
            server.stop(grace_s=0)

    def test_last_good_body_survives_snapshot_failure(self, endpoint):
        server, state = endpoint
        _, good, _ = get(server.url)

        def boom():
            raise RuntimeError("racing a fold")

        state["fn"] = boom
        status, body, _ = get(server.url)
        assert status == 200
        assert body == good


class TestLifecycle:
    def test_stop_releases_the_port(self):
        server = ObsHttpServer(make_snapshot, port=0).start()
        url, port = server.url, server.port
        get(url)
        server.stop(grace_s=0)
        rebound = ObsHttpServer(make_snapshot, port=port).start()
        try:
            assert rebound.port == port
        finally:
            rebound.stop(grace_s=0)
