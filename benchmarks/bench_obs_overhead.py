"""Obs-plane overhead: the ≤5% contract, measured paired.

The live observability plane (ISSUE 10) promises that serving and
actively scraping the metrics endpoint costs at most 5% wall time over
the identical unobserved campaign.  This bench runs the same tiny
campaign both ways — interleaved A/B reps, an aggressive 20 Hz scraper
hammering the endpoint during the observed reps — and asserts the
contract on the best-of-reps pair (min filters scheduler noise; the
contract is about the plane's cost, not the machine's jitter).

The table lands in ``benchmarks/out/bench_obs_overhead.txt``.
"""

import threading
import time
import urllib.error
import urllib.request

from conftest import write_artifact

from repro.campaign import CampaignExecutor, CampaignSpec
from repro.reporting.text import format_table

#: Interleaved measurement pairs (off, on, off, on, ...).
REPS = 3

#: Scrape cadence while an observed rep runs — far harsher than any
#: real Prometheus interval, to make the contract conservative.
SCRAPE_INTERVAL_S = 0.05

#: The promised ceiling: observed wall <= 1.05 x unobserved wall.
OVERHEAD_BUDGET = 0.05

#: Absolute slack for sub-second runs where a single scheduler tick
#: would otherwise dominate the ratio.
ABS_SLACK_S = 0.15


def _spec(out_dir, rep: int, obs: bool) -> CampaignSpec:
    return CampaignSpec(
        name="obs-overhead",
        servers=["vanilla"],
        workloads=["players"],
        environments=["das5-2core"],
        iterations=2,
        duration_s=2.0,
        seed=29,
        obs=obs,
        obs_port=0,
        output_dir=str(out_dir / f"{'on' if obs else 'off'}-{rep}"),
    )


class _Scraper:
    """Poll the endpoint's Prometheus body in a tight loop."""

    def __init__(self) -> None:
        self.url: str | None = None
        self.scrapes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SCRAPE_INTERVAL_S):
            if self.url is None:
                continue
            try:
                with urllib.request.urlopen(self.url, timeout=2) as response:
                    response.read()
                self.scrapes += 1
            except (urllib.error.URLError, ConnectionError, OSError):
                continue  # endpoint between chains; keep hammering

    def start(self) -> "_Scraper":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def _timed_run(spec: CampaignSpec, scraper: _Scraper | None) -> float:
    executor = CampaignExecutor(spec)
    if scraper is not None:
        # Feed the scraper the URL as soon as the plane is up: the
        # progress callback fires after the first job, but the endpoint
        # URL is set synchronously by run(), so poll for it briefly.
        def feed():
            deadline = time.monotonic() + 10
            while executor.obs_url is None and time.monotonic() < deadline:
                time.sleep(0.01)
            scraper.url = executor.obs_url

        threading.Thread(target=feed, daemon=True).start()
    t0 = time.perf_counter()
    executor.run()
    return time.perf_counter() - t0


def test_obs_overhead_within_budget(benchmark, out_dir, tmp_path):
    scraper = _Scraper().start()

    def paired():
        off_s, on_s = [], []
        for rep in range(REPS):
            off_s.append(_timed_run(_spec(tmp_path, rep, obs=False), None))
            on_s.append(_timed_run(_spec(tmp_path, rep, obs=True), scraper))
        return off_s, on_s

    try:
        off_s, on_s = benchmark.pedantic(paired, rounds=1, iterations=1)
    finally:
        scraper.stop()

    best_off, best_on = min(off_s), min(on_s)
    overhead = (best_on - best_off) / best_off
    rows = [
        ["reps (paired, interleaved)", f"{REPS}"],
        ["unobserved wall (min)", f"{best_off:.3f} s"],
        ["observed wall (min)", f"{best_on:.3f} s"],
        ["scrapes served", f"{scraper.scrapes}"],
        ["overhead", f"{100.0 * overhead:+.1f}%"],
        ["budget", f"{100.0 * OVERHEAD_BUDGET:.0f}%"],
    ]
    text = format_table(["metric", "value"], rows)
    text += (
        "\n\npaired best-of-reps; the observed runs were scraped at"
        f" {1.0 / SCRAPE_INTERVAL_S:.0f} Hz throughout."
    )
    write_artifact("bench_obs_overhead.txt", text)

    assert scraper.scrapes > 0, "the observed runs were never scraped"
    assert best_on <= best_off * (1.0 + OVERHEAD_BUDGET) + ABS_SLACK_S, (
        f"obs plane overhead {100.0 * overhead:.1f}% exceeds the "
        f"{100.0 * OVERHEAD_BUDGET:.0f}% budget"
    )
