#!/usr/bin/env python3
"""Compare two sets of hostclock end-to-end runs: ``compare.py A_dir B_dir``.

``A`` is the parent, ``B`` the change; each directory holds the records
``run.py --out`` wrote for interleaved runs (A, B, B, A, ... — alternate
which side goes first, same seeds on both sides).  Per workload and
end-to-end metric it prints each side's median and quartiles, the share
of pairs B won, and a verdict:

* ``unresolved`` — either side's spread (quartile distance over median) is
  wider than the metric's bound, unless every B run beats every A run;
* ``regression`` — B's median is worse than A's by more than the bound;
* ``gain`` — B won at least 9/10 of the pairs (ties count for neither) and
  the medians differ by more than A's quartile distance;
* ``no change`` — none of the above.

With A = B = the same commit this is the benchmark's self-agreement check:
every row must read ``no change``.  Exit status 1 if any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """End-to-end records per workload, ordered by seed then run number,
    so that the i-th run of a seed on one side pairs with the other's."""
    records = []
    for path in directory.glob("*-*-*.json"):
        record = json.loads(path.read_text())
        if record.get("benchmark") == "hostclock" and not record["trace"]:
            run_number = int(path.stem.rsplit("-", 1)[1])
            records.append((record["seed"], run_number, record))
    runs: dict[str, list[dict]] = {}
    for _, _, record in sorted(records, key=lambda item: item[:2]):
        runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Judge one workload x metric by the rule in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    gained = sign * (b_med - a_med)
    if spread > bound:
        every_b_better = min(sign * y for y in b) > max(sign * x for x in a)
        result = "gain" if every_b_better else "unresolved"
    elif -gained > bound * abs(a_med):
        result = "regression"
    elif wins >= 0.9 * len(pairs) and gained > a_q3 - a_q1:
        result = "gain"
    else:
        result = "no change"
    return {
        "a": (a_q1, a_med, a_q3),
        "b": (b_q1, b_med, b_q3),
        "pairs": len(pairs),
        "wins": wins,
        "spread": spread,
        "verdict": result,
    }


def compare(a_dir: Path, b_dir: Path) -> list[dict]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in a_runs or workload not in b_runs:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [r["metrics"][name]["value"] for r in a_runs[workload]],
                [r["metrics"][name]["value"] for r in b_runs[workload]],
                metric["better"],
                metric["bound"],
            )
            row.update(workload=workload, metric=name, unit=metric["unit"])
            rows.append(row)
        # failed_share has an absolute bound of zero: any failure regresses.
        a_failed = sum(r["failed"] for r in a_runs[workload])
        b_failed = sum(r["failed"] for r in b_runs[workload])
        rows.append(
            {
                "workload": workload,
                "metric": "failed",
                "unit": "count",
                "a": (a_failed,) * 3,
                "b": (b_failed,) * 3,
                "pairs": min(len(a_runs[workload]), len(b_runs[workload])),
                "wins": 0,
                "spread": 0.0,
                "verdict": "regression" if b_failed > a_failed else "no change",
            }
        )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]))
    if not rows:
        print("hostclock compare: no workload has runs on both sides",
              file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<12} {'A q1 / median / q3':<32} "
          f"{'B q1 / median / q3':<32} {'B won':<8} {'spread':<7} verdict")
    for row in rows:
        a = " / ".join(f"{v:.4g}" for v in row["a"])
        b = " / ".join(f"{v:.4g}" for v in row["b"])
        print(f"{row['workload']:<16} {row['metric']:<12} {a:<32} {b:<32} "
              f"{row['wins']:>2}/{row['pairs']:<5} {row['spread']:<7.3f} "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
