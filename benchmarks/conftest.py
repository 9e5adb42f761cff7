"""Shared benchmark configuration.

Benchmarks regenerate every table and figure from the paper's evaluation.
Checked-in defaults run reduced-scale experiments to keep the suite's
runtime sane; set ``METERSTICK_FULL=1`` for paper-scale runs (60 s
iterations, 50 iterations for Figure 10).

Artifacts (paper-vs-measured tables and series CSVs) are written to
``benchmarks/out/``.  Each figure and table bench runs its driver, renders
its table plus the verdict section of its findings
(``repro.analysis.findings``), and asserts every finding gated at this
scale through :func:`assert_findings`.
"""

import os
import statistics
from pathlib import Path

import pytest

FULL = os.environ.get("METERSTICK_FULL", "0") == "1"
SCALE = "full" if FULL else "fast"

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


def assert_findings(result, name: str, table: str) -> None:
    """Write ``table`` and the verdict section of ``result``'s findings to
    the artifact ``name``; then assert every finding gated at this scale."""
    # Imported here: the hostclock self-test loads this file without
    # ``src/`` on its path.
    from repro.analysis.findings import evaluate, render

    verdicts = evaluate(result.figure, result.rows)
    write_artifact(name, f"{table}\n\n{render(verdicts, SCALE)}\n")
    failed = [(f.id, measured) for f, measured, holds in verdicts
              if SCALE in f.gate and not holds]
    assert not failed, failed
