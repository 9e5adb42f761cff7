"""Run provenance: fingerprinting the conditions a result ran under.

"When Should I Run My Application Benchmark?" (PAPERS.md) shows that
undocumented machine and configuration drift can dominate benchmark
conclusions.  The defence is cheap: stamp every campaign manifest and
every :class:`~repro.core.results.IterationResult` with a fingerprint of
the environment (git SHA, interpreter, numpy, platform, CPU count) and
the fully-resolved configuration, then compare fingerprints before
comparing numbers.

Two layers:

- :func:`environment_fingerprint` — facts about *this machine and
  checkout*, cached per process (the ``git`` subprocess runs once);
- :func:`provenance_fingerprint` — environment + a resolved config dict
  (+ optional extras), digested into a stable sha256 ``fingerprint``.

Determinism contract: the digest covers only deterministic fields —
``captured_at`` timestamps are *excluded* from the digest and only
included when explicitly requested (campaign manifests want them;
iteration results must stay byte-identical across serial/parallel
re-runs, so they never carry one).  Two runs on the same checkout with
the same config therefore produce the *same* fingerprint, which is
itself tested in CI.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "environment_fingerprint",
    "measurement_config",
    "provenance_fingerprint",
]

def measurement_config(config: dict) -> dict:
    """A resolved config dict minus the fields declared ``fingerprint=False``.

    Those are the fields that locate storage, size the worker pool, or
    shape presentation — they do not affect what gets measured (two runs
    into different output dirs must fingerprint the same, or the
    serial/parallel byte-identity of shards would break; editing a report
    layout and re-rendering must not invalidate a recorded fingerprint).
    The decision is part of each field's declaration
    (:func:`repro.core.config.knob`), and fingerprinted is its default.
    """
    # Imported here: both modules reach this one through core.experiment.
    from repro.campaign.spec import CampaignSpec
    from repro.core.config import MeterstickConfig

    excluded = {
        name
        for cls in (MeterstickConfig, CampaignSpec)
        for name, declared in cls.__dataclass_fields__.items()
        if not declared.metadata.get("fingerprint", True)
    }
    return {
        key: value for key, value in config.items() if key not in excluded
    }


def _git_revision() -> tuple[str | None, bool | None]:
    """(commit SHA, dirty?) of the checkout this package runs from.

    Returns ``(None, None)`` outside a git checkout or when git is
    unavailable — provenance must never fail a run.
    """
    root = Path(__file__).resolve().parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return sha.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):
        return None, None


@functools.lru_cache(maxsize=1)
def environment_fingerprint() -> dict:
    """Facts about this machine/checkout, computed once per process."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    git_sha, git_dirty = _git_revision()
    return {
        "git_sha": git_sha,
        "git_dirty": git_dirty,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def provenance_fingerprint(
    config: dict | None = None,
    *,
    extra: dict | None = None,
    include_timestamp: bool = False,
) -> dict:
    """Environment + resolved config, digested into a stable sha256.

    ``config`` is the fully-resolved configuration dict (e.g.
    ``MeterstickConfig.to_dict()`` or ``CampaignSpec.to_dict()`` — the
    RNG seeds ride inside it).  ``extra`` adds caller context such as
    the server variant name.  The ``fingerprint`` digest covers all of
    that plus the environment, but never the timestamp: set
    ``include_timestamp=True`` only where byte-stability across re-runs
    is not required (the campaign manifest).
    """
    prov: dict = {"environment": dict(environment_fingerprint())}
    if config is not None:
        prov["config"] = config
    if extra:
        prov.update(extra)
    digest = hashlib.sha256(
        json.dumps(prov, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()
    prov["fingerprint"] = digest
    if include_timestamp:
        prov["captured_at"] = time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        )
    return prov
