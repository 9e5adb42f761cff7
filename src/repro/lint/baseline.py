"""The committed lint baseline: grandfathered findings, nothing new.

``lint-baseline.json`` at the project root records findings that existed
when a rule landed and are accepted for now.  ``repro lint --baseline``
subtracts them, so CI fails only on *new* findings; ``repro lint
--update-baseline`` rewrites the file from the current run: regenerate
deliberately, commit the diff.

Suppression keys are ``(rule, path, message)`` — line-free, so edits
above a baselined finding don't resurrect it, and a message change
(which means the violation itself changed) does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import Finding, sort_findings

__all__ = ["BASELINE_FILENAME", "Baseline"]

BASELINE_FILENAME = "lint-baseline.json"

_VERSION = 1


@dataclass
class Baseline:
    """A set of accepted findings, loaded from / saved to JSON."""

    suppressions: set[tuple[str, str, str]] = field(default_factory=set)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Load a baseline; a missing file is an empty baseline."""
        if not path.is_file():
            return cls()
        data = json.loads(path.read_text())
        version = data.get("version")
        if version != _VERSION:
            raise ValueError(
                f"unsupported lint baseline version {version!r} in {path}"
            )
        return cls(
            suppressions={
                (entry["rule"], entry["path"], entry["message"])
                for entry in data.get("suppressions", ())
            }
        )

    def filter(
        self, findings: list[Finding]
    ) -> tuple[list[Finding], int]:
        """(kept findings, suppressed count)."""
        kept = [
            finding
            for finding in findings
            if finding.suppression_key() not in self.suppressions
        ]
        return kept, len(findings) - len(kept)

    @staticmethod
    def write(path: Path, findings: list[Finding]) -> int:
        """Record ``findings`` as the new baseline; returns the count."""
        entries = sorted(
            {finding.suppression_key() for finding in sort_findings(findings)}
        )
        document = {
            "version": _VERSION,
            "suppressions": [
                {"rule": rule, "path": rel_path, "message": message}
                for rule, rel_path, message in entries
            ],
        }
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        return len(entries)
