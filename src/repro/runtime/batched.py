"""Compatibility stub for the removed vectorized ``--batch`` path.

The stacked multi-variant solver and its ``--batch`` / ``REPRO_BATCH``
knob are gone (see docs/performance.md, "Batched solves (removed)").
Only :func:`resolve_batch` remains, because the benchmark harness in
``perfbench/bench.py`` imports it to record the batch width in its run
configuration.
"""

from __future__ import annotations


def resolve_batch(batch: int | None = None) -> int:
    """Always 1: every evaluation runs on the serial solver path."""
    return 1
