"""Meterstick-lint: AST-based invariant checks for measurement hygiene.

Every correctness claim this repo makes — serial==parallel campaigns,
batched engines == their scalar test oracles, trace-off==seed-path
bit-identity, byte-stable report renders — rests on conventions nothing
enforced statically: no wall-clock or unseeded-RNG reads inside the
simulation, RNGs threaded rather than constructed, bots that touch only
the session boundary.  A parity test only catches a violation it happens
to exercise; these checkers catch the whole class at diff time, with no
pragma or baseline to suppress a finding.  (What they do not check: ops
and metrics.  Each is declared once — a row of
``mlg/workreport.OP_TABLE``, an entry of ``telemetry/catalog.CATALOG`` —
and tier-1 tests run the engines, the bus and the endpoint against the
declaration.)

Entry points: ``repro lint [paths] [--root DIR]`` (see
:mod:`repro.lint.cli`) and :func:`repro.lint.engine.lint_paths` for
programmatic use.
"""

from repro.lint.engine import lint_paths
from repro.lint.findings import Finding, render_text

__all__ = ["Finding", "lint_paths", "render_text"]
