"""Lint findings: the one value type every checker produces.

A finding pins a rule violation to ``path:line:col`` with a human
message; every rule is an error.  Output is byte-deterministic by
construction: findings are stable-sorted and the render carries no
timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "render_text", "sort_findings"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Stable-sort findings into the canonical output order."""
    return sorted(findings, key=Finding.sort_key)


def render_text(findings: list[Finding]) -> str:
    """One line per finding, then the count."""
    lines = [finding.to_text() for finding in sort_findings(findings)]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines) + "\n"
