"""Shared benchmark configuration.

Benchmarks regenerate every table and figure from the paper's evaluation.
Checked-in defaults run reduced-scale experiments to keep the suite's
runtime sane; set ``METERSTICK_FULL=1`` for paper-scale runs (60 s
iterations, 50 iterations for Figure 10).

Artifacts (paper-vs-measured tables and series CSVs) are written to
``benchmarks/out/``.
"""

import json
import os
import statistics
from pathlib import Path

import pytest

FULL = os.environ.get("METERSTICK_FULL", "0") == "1"

#: Per-iteration duration in simulated seconds.
DURATION_S = 60.0 if FULL else 40.0
#: Figure 10 iteration count (paper: 50).
FIG10_ITERATIONS = 50 if FULL else 6
FIG10_DURATION_S = 60.0 if FULL else 30.0

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


def median_interval(values: list[float]) -> tuple[float, float, float]:
    """Median and its distribution-free 95 % interval (the order
    statistics a sign test cannot reject)."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, int((n - 1.96 * n**0.5) / 2))
    return statistics.median(ordered), ordered[k], ordered[n - 1 - k]


def write_artifact(name: str, text: str) -> Path:
    """Write a rendered figure/table artifact and echo it to stdout."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    path.write_text(text)
    print(f"\n=== {name} ===\n{text}")
    return path


# -- per-figure runtime deltas -------------------------------------------------
#
# Each session records wall time per benchmark test into
# ``benchmarks/out/bench_runtimes.json`` and, when a previous run's
# artifact exists (restored by the CI cache, or simply left over from the
# last local run), prints a delta table — so entity-kernel speedups (and
# regressions) are visible straight in PR logs.
#
# The *committed* trajectory lives in ``benchmarks/BENCH_fig11.json``:
# ``check_perf_baseline.py`` gates the recorded runtimes against it
# (machine-calibrated, >20% per-figure budget) in CI, and
# ``METERSTICK_UPDATE_BASELINE=1`` rewrites it after an intentional
# perf change.  See ``repro.tracing.perf_baseline``.

RUNTIMES_PATH = OUT_DIR / "bench_runtimes.json"

_durations: dict[str, float] = {}


def pytest_runtest_logreport(report):
    # Sum every passed phase — setup and teardown included, not just
    # call — so fixture-heavy benches (warm world cache, session-scoped
    # campaign fixtures) report their real wall time.
    if not report.passed:
        return
    name = report.nodeid.split("::", 1)[0]
    _durations[name] = _durations.get(name, 0.0) + report.duration


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _durations:
        return
    previous = {}
    if RUNTIMES_PATH.exists():
        try:
            previous = json.loads(RUNTIMES_PATH.read_text())
        except (OSError, ValueError):
            previous = {}
    write = terminalreporter.write_line
    terminalreporter.section("benchmark runtime delta (fast mode)")
    if not previous:
        write("no previous bench_runtimes.json artifact; baseline recorded")
    for name in sorted(_durations):
        current = _durations[name]
        prev = previous.get(name)
        if prev:
            delta = 100.0 * (current - prev) / prev
            write(f"{name:<55} {current:7.2f}s  prev {prev:7.2f}s  {delta:+6.1f}%")
        else:
            write(f"{name:<55} {current:7.2f}s  prev     n/a")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    RUNTIMES_PATH.write_text(
        json.dumps(_durations, indent=2, sort_keys=True) + "\n"
    )
