"""The ``repro lint`` verb: run the invariant checkers from the CLI.

Exit codes: 0 — no findings; 1 — findings; 2 — usage errors (a missing
path, a file that does not parse).  Output is byte-deterministic across
runs on an unchanged tree, which is itself under test.
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.engine import lint_paths
from repro.lint.findings import render_text
from repro.lint.rules import RULES

__all__ = ["add_lint_parser", "run_lint"]


def add_lint_parser(sub) -> argparse.ArgumentParser:
    """Attach the ``lint`` subcommand to the ``repro`` CLI."""
    lint = sub.add_parser(
        "lint",
        help="run the static invariant checkers (determinism, rng and "
        "transport discipline)",
        epilog="rules: "
        + "; ".join(f"{rule} {RULES[rule]}" for rule in sorted(RULES)),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="project root: paths are reported relative to it and rules "
        "are scoped by them (default: current directory)",
    )
    return lint


def run_lint(args: argparse.Namespace) -> int:
    findings = lint_paths(args.paths, root=args.root)
    sys.stdout.write(render_text(findings))
    return 1 if findings else 0
