"""Compatibility stub for the removed surrogate-guided sweep pruning.

The learned pruning model, its training corpus and the ``--surrogate``
/ ``REPRO_SURROGATE`` knob are gone (see docs/performance.md,
"Surrogate-guided search (removed)").  Only :func:`resolve_surrogate`
remains, because the benchmark harness in ``perfbench/bench.py``
imports it to record the surrogate setting in its run configuration.
"""

from __future__ import annotations


def resolve_surrogate(flag: bool | None = None) -> bool:
    """Always False: every sweep simulates every candidate."""
    return False
