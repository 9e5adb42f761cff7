"""A run's statistics, computed from its raw series when they are read.

:func:`summarize` is the only code that turns a series into statistics:
the tap, job records, figures, exports, reports and the live
endpoint all read its keys.  Every run keeps its series, so a summary is
an exact function of one:

- ``mean`` is the naive left-to-right running sum over the count — the
  bits of ``total += value`` per value (``np.add.accumulate`` adds one at
  a time), not ``np.mean``'s pairwise sum or 3.12's compensated ``sum``;
- ``std`` is the population standard deviation, taken about the first
  value so that a constant series reads exactly 0.0; ``cov`` is
  ``std / |mean|`` (0.0 for a ~zero mean);
- ``p25`` … ``p99`` equal ``numpy.percentile(..., method="linear")``
  bit for bit;
- ``frac_over_<label>`` is the share of values strictly above a cutoff.

:func:`windows` finds the warmup→steady change point in one pass over
fixed-size windows.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QUANTILES", "percentiles", "summarize", "total", "windows"]

#: Percentiles every summary reports, as ``p<q>`` keys.
QUANTILES = (25, 50, 75, 95, 99)
#: Windows whose CoV a :func:`windows` snapshot lists, most recent last.
RECENT_WINDOWS = 64


def total(values) -> float:
    """The naive left-to-right sum of ``values`` (0.0 for none)."""
    arr = np.asarray(values, dtype=float)
    return float(np.add.accumulate(arr)[-1]) if arr.size else 0.0


def percentiles(arr: np.ndarray) -> list[float]:
    """``numpy.percentile(arr, QUANTILES, method="linear")`` term for
    term (virtual index ``(n - 1) * q / 100``, floor and next, numpy's
    lerp): ``numpy.percentile`` calls ``np.unique``, which imports
    ``numpy.ma`` (15 ms and 1.2 MiB per process) on first use."""
    n = arr.size
    points = []
    for q in QUANTILES:
        virtual = (n - 1) * (q / 100)
        lo = math.floor(virtual)
        points.append((virtual - lo, lo, min(lo + 1, n - 1)))
    part = np.partition(arr, sorted({i for p in points for i in p[1:]}))
    out = []
    for t, lo, hi in points:
        a, b = float(part[lo]), float(part[hi])
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


def _cov(std: float, mu: float) -> float:
    return 0.0 if abs(mu) < 1e-12 else std / abs(mu)


def summarize(values, thresholds: dict[str, float] | None = None) -> dict:
    """Count, moments, extremes, quantiles and exceedance of one series,
    copied by slicing: that holds the interpreter lock, which numpy may
    drop while it copies a buffer, and an append to an ``array`` that is
    exporting its buffer raises."""
    arr = np.array(values[:], dtype=float)
    count = arr.size
    thresholds = thresholds or {}
    if not count:  # every key, each zero
        return dict.fromkeys(summarize([0.0], thresholds), 0.0) | {"count": 0}
    mu = total(arr) / count
    std = float((arr - arr[0]).std())
    return {
        "count": count,
        "mean": mu,
        "std": std,
        "cov": _cov(std, mu),
        "min": float(arr.min()),
        "max": float(arr.max()),
        **{f"p{q}": p for q, p in zip(QUANTILES, percentiles(arr))},
        **{
            f"frac_over_{label}": int((arr > cutoff).sum()) / count
            for label, cutoff in thresholds.items()
        },
    }


def windows(
    values,
    window_size: int = 100,
    rel_tol: float = 0.10,
    stable_windows: int = 3,
) -> dict:
    """Per-window CoV and the warmup→steady boundary of one series:
    the first of ``stable_windows`` consecutive complete windows whose
    means each lie within ``rel_tol`` (relative) of the window before.
    ``warmup_samples`` counts the values before it (``None`` if never)."""
    arr = np.array(values[:], dtype=float)
    n_windows = arr.size // window_size
    rows = arr[: n_windows * window_size].reshape(n_windows, window_size)
    means = (np.add.accumulate(rows, axis=1)[:, -1] / window_size).tolist()
    stds = (rows - rows[:, :1]).std(axis=1).tolist()
    covs = [_cov(std, mu) for std, mu in zip(stds, means)]
    steady_since = None
    calm_run = 0
    for index in range(1, n_windows):
        prev = means[index - 1]
        calm = abs(means[index] - prev) <= rel_tol * max(abs(prev), 1e-12)
        calm_run = calm_run + 1 if calm else 0
        if calm_run >= stable_windows:
            steady_since = index - calm_run + 1
            break
    last = None
    if n_windows:
        stats = summarize(rows[-1])
        last = {"index": n_windows - 1, "start": rows.size - window_size}
        keys = ("count", "mean", "std", "cov", "min", "max")
        last |= {key: stats[key] for key in keys}
    return {
        "window_size": window_size,
        "n_samples": arr.size,
        "n_windows": n_windows,
        "steady": steady_since is not None,
        "steady_since_window": steady_since,
        "warmup_samples": (
            None if steady_since is None else steady_since * window_size
        ),
        "last_window": last,
        "recent_covs": [round(c, 6) for c in covs[-RECENT_WINDOWS:]],
    }
