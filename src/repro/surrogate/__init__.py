"""Surrogate-guided search: learn the sweep, simulate only the frontier.

A deterministic, numpy-only regressor (seeded gradient-boosted stumps)
trained on a persistent corpus of really-simulated candidates ranks
selection sweeps and truncates tuning sweeps, so the optimizer simulates
only the predicted top-k plus an exploration budget.  Predictions decide
*order and pruning only*: every reported metric comes from real
simulation, pruned candidates are journaled as ``pruned`` (never as
failures), and all decisions are deterministic for a fixed corpus across
``--jobs`` and resume.  See :mod:`repro.surrogate.guide`.
"""

from repro.surrogate.corpus import CorpusRow, CorpusStore
from repro.surrogate.features import (
    FEATURE_NAMES,
    FEATURES_VERSION,
    family_key,
    option_features,
)
from repro.surrogate.guide import (
    SelectionCandidate,
    SurrogateGuide,
    SurrogateStats,
    resolve_surrogate,
)
from repro.surrogate.model import StumpEnsemble, stable_seed

__all__ = [
    "CorpusRow",
    "CorpusStore",
    "FEATURE_NAMES",
    "FEATURES_VERSION",
    "SelectionCandidate",
    "StumpEnsemble",
    "SurrogateGuide",
    "SurrogateStats",
    "family_key",
    "option_features",
    "resolve_surrogate",
    "stable_seed",
]
