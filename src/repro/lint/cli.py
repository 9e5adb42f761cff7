"""The ``repro lint`` verb: run the invariant checkers from the CLI.

Exit codes: 0 — no findings (after baseline subtraction); 1 — findings;
2 — usage errors (bad path, corrupt baseline).  Output is
byte-deterministic across runs on an unchanged tree, which is itself
under test.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.baseline import BASELINE_FILENAME, Baseline
from repro.lint.engine import LintEngine
from repro.lint.findings import render_json, render_text
from repro.lint.rules import RULES

__all__ = ["add_lint_parser", "run_lint"]


def add_lint_parser(sub) -> argparse.ArgumentParser:
    """Attach the ``lint`` subcommand to the ``repro`` CLI."""
    lint = sub.add_parser(
        "lint",
        help="run the static invariant checkers (determinism, rng and "
        "transport discipline)",
        epilog="rules: "
        + "; ".join(f"{rule} {RULES[rule][1]}" for rule in sorted(RULES)),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format (default: text)",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="project root: paths are reported relative to it, rules are "
        "scoped by them, and the baseline lives under it (default: "
        "current directory)",
    )
    lint.add_argument(
        "--baseline",
        action="store_true",
        help=f"subtract the committed {BASELINE_FILENAME} — fail only "
        "on new findings",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"rewrite {BASELINE_FILENAME} from this run's findings "
        "and exit 0",
    )
    lint.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="additionally write the JSON findings document to FILE "
        "(CI artifact), regardless of --format",
    )
    return lint


def run_lint(args: argparse.Namespace) -> int:
    root = Path(args.root) if args.root else Path.cwd()
    engine = LintEngine(root)
    findings = engine.run([Path(p) for p in args.paths])
    baseline_path = engine.root / BASELINE_FILENAME

    if args.update_baseline:
        count = Baseline.write(baseline_path, findings)
        print(
            f"recorded {count} suppression(s) in {baseline_path}; "
            "review and commit the diff"
        )
        return 0

    suppressed = 0
    if args.baseline:
        findings, suppressed = Baseline.load(baseline_path).filter(findings)

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(render_json(findings))

    if args.format == "json":
        sys.stdout.write(render_json(findings))
    else:
        sys.stdout.write(render_text(findings))
        if suppressed:
            sys.stdout.write(
                f"({suppressed} baselined finding(s) suppressed)\n"
            )
    return 1 if findings else 0
