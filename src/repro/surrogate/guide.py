"""The surrogate guide: rank candidates, prune sweeps, never invent data.

:class:`SurrogateGuide` sits between the optimizer's sweep construction
and the evaluation runtime.  It is consulted **before** tasks are
dispatched and influences *which* candidates are simulated — never what
any simulation reports:

* selection sweeps keep the predicted top-k candidates plus the
  predicted-best of every aspect-ratio bin plus a seeded exploration
  draw; the rest are journaled as ``pruned`` and skipped;
* tuning wire sweeps are truncated to a predicted prefix (the predicted
  cost minimum plus an exploration margin); the tail is journaled as
  ``pruned``.

Decisions are deterministic for a fixed corpus: models are trained
lazily, once per (family, stage), from the corpus **as loaded at run
start**; rows recorded during the run take effect on the *next* run
(flushed at run boundaries only).  Exploration draws are seeded from the
candidate key set, so any ``--jobs`` value — and a resumed
run — makes identical choices.  Selection plans are computed over the
full candidate set (journaled candidates included) before journal
overrides apply, so a run killed mid-plan resumes into the same plan.

The guide refuses to prune (full-sweep fallback, counted per reason in
:class:`SurrogateStats`) when the family corpus is too small, when the
ensemble's normalized disagreement exceeds ``variance_ceiling``, or for
candidates whose feature generation failed.  Journal decisions always
win over model decisions: a candidate already journaled as completed
stays kept (replay is free), one journaled as pruned stays pruned.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.surrogate.corpus import CorpusRow, CorpusStore
from repro.surrogate.features import family_key
from repro.surrogate.model import StumpEnsemble, stable_seed

#: Selection candidates kept by rank (before bin/exploration add-ons).
DEFAULT_TOP_K = 4
#: Extra seeded exploration picks per pruned sweep.
DEFAULT_EXPLORE = 2
#: Minimum per-(family, stage) corpus rows before a model is trusted.
DEFAULT_MIN_CORPUS = 12
#: Maximum normalized ensemble disagreement before falling back.
DEFAULT_VARIANCE_CEILING = 0.5


def resolve_surrogate(flag: bool | None) -> bool:
    """Surrogate enablement: explicit flag wins, else ``REPRO_SURROGATE``.

    The environment value is truthy unless empty/``0``/``false``/
    ``no``/``off`` (case-insensitive).  Default: off.
    """
    if flag is not None:
        return bool(flag)
    raw = os.environ.get("REPRO_SURROGATE", "").strip().lower()
    return raw not in ("", "0", "false", "no", "off")


@dataclass
class SurrogateStats:
    """Order-independent counters surfaced via ``repro profile``.

    Attributes:
        models_trained: Per-(family, stage) models fit this run.
        predictions: Candidates scored by a model.
        sel_kept: Selection candidates kept for simulation.
        sel_pruned: Selection candidates pruned (incl. journal-replayed
            pruning decisions, so resumed runs report like fresh ones).
        tune_pruned: Tuning sweep points pruned off sweep tails.
        recorded: New corpus rows recorded this run.
        fallbacks: Full-sweep fallback count per reason.
    """

    models_trained: int = 0
    predictions: int = 0
    sel_kept: int = 0
    sel_pruned: int = 0
    tune_pruned: int = 0
    recorded: int = 0
    fallbacks: dict[str, int] = field(default_factory=dict)

    def fallback(self, reason: str) -> None:
        """Count one full-sweep fallback under ``reason``."""
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def as_dict(self) -> dict:
        """Deterministically-ordered dict for reports and profiles."""
        return {
            "models_trained": self.models_trained,
            "predictions": self.predictions,
            "sel_kept": self.sel_kept,
            "sel_pruned": self.sel_pruned,
            "tune_pruned": self.tune_pruned,
            "recorded": self.recorded,
            "fallbacks": dict(sorted(self.fallbacks.items())),
        }


@dataclass
class SelectionCandidate:
    """One selection-sweep candidate as seen by the guide.

    Attributes:
        index: Position in the sweep's task list.
        key: Journal key (also the exploration-seed ingredient).
        features: Simulation-free feature vector, or None when feature
            generation failed (such candidates are never pruned).
        bin_index: Aspect-ratio bin over the *full* candidate set, or
            None without geometry.
        journaled: ``"done"`` when the journal already holds a completed
            entry, ``"pruned"`` when it holds a pruning decision, else
            None.
    """

    index: int
    key: str
    features: list[float] | None
    bin_index: int | None = None
    journaled: str | None = None


class SurrogateGuide:
    """Learned sweep pruning with deterministic, journal-safe decisions.

    Args:
        corpus_path: Persistent corpus JSONL (None: in-memory only).
        top_k: Predicted-best candidates kept per selection sweep.
        explore: Seeded exploration picks (selection) / extra sweep
            points past the predicted stop (tuning).
        min_corpus: Rows required per (family, stage) before pruning.
        variance_ceiling: Normalized ensemble-disagreement bound above
            which the guide falls back to the full sweep.
    """

    def __init__(
        self,
        corpus_path: str | os.PathLike | None = None,
        top_k: int = DEFAULT_TOP_K,
        explore: int = DEFAULT_EXPLORE,
        min_corpus: int = DEFAULT_MIN_CORPUS,
        variance_ceiling: float = DEFAULT_VARIANCE_CEILING,
    ):
        self.store = CorpusStore(corpus_path)
        self.top_k = max(1, int(top_k))
        self.explore = max(0, int(explore))
        self.min_corpus = max(2, int(min_corpus))
        self.variance_ceiling = float(variance_ceiling)
        self.stats = SurrogateStats()
        self._models: dict[tuple[str, str], StumpEnsemble | None] = {}

    # -- family / model plumbing -----------------------------------------

    def family(self, primitive, weight_override) -> str:
        """Corpus family for one primitive configuration."""
        return family_key(primitive, weight_override)

    def ready(self, family: str, stage: str) -> bool:
        """True when the (family, stage) corpus can support pruning.

        Callers use this as a cheap pre-gate so feature generation is
        skipped entirely while the corpus is still warming up.
        """
        return len(self.store.rows(family, stage)) >= self.min_corpus

    def _model_for(self, family: str, stage: str) -> StumpEnsemble | None:
        ident = (family, stage)
        if ident not in self._models:
            rows = self.store.rows(family, stage)
            if len(rows) < self.min_corpus:
                self._models[ident] = None
            else:
                X = [row.features for row in rows]
                y = [row.cost for row in rows]
                seed = stable_seed("surrogate", family, stage)
                self._models[ident] = StumpEnsemble(seed=seed).fit(X, y)
                self.stats.models_trained += 1
        return self._models[ident]

    def _predict(
        self, model: StumpEnsemble, rows: list[list[float]]
    ) -> tuple[np.ndarray, float]:
        mean, spread = model.predict(rows)
        self.stats.predictions += len(rows)
        return mean, float(spread.max()) if len(rows) else 0.0

    # -- selection -------------------------------------------------------

    def prune_selection(
        self, family: str, candidates: list[SelectionCandidate]
    ) -> tuple[set[int], set[int]]:
        """Partition a selection sweep into (keep, prune) index sets.

        The model plan — top-k by predicted cost, plus the predicted
        best of every aspect bin, plus a seeded exploration draw — is
        computed over the **full** candidate set, journaled candidates
        included, so a resumed run reconstructs the exact plan of the
        uninterrupted run no matter where the kill landed.  Journal
        decisions then override the plan per candidate: completed
        entries stay kept (replay is free), pruned entries stay pruned.
        Featureless candidates are never pruned; the whole sweep is kept
        when the model is unavailable or too uncertain.
        """
        keep: set[int] = set()
        prune: set[int] = set()
        scored = [c for c in candidates if c.features is not None]
        for cand in candidates:
            if cand.features is None:
                keep.add(cand.index)
        model = self._model_for(family, "sel")
        chosen = {c.index for c in scored}
        if model is None:
            self.stats.fallback("corpus-too-small")
        elif len(scored) <= self.top_k:
            pass  # sweep already no larger than the keep budget
        else:
            mean, max_spread = self._predict(
                model, [c.features for c in scored]
            )
            if max_spread > self.variance_ceiling:
                self.stats.fallback("high-variance")
            else:
                ranked = sorted(
                    range(len(scored)), key=lambda i: (mean[i], scored[i].key)
                )
                chosen = {scored[i].index for i in ranked[: self.top_k]}
                # Predicted-best per aspect bin: keeps every bin
                # winnable so downstream binning matches the full sweep.
                best_by_bin: dict[int, tuple[float, str, int]] = {}
                for i, cand in enumerate(scored):
                    if cand.bin_index is None:
                        continue
                    entry = (float(mean[i]), cand.key, cand.index)
                    cur = best_by_bin.get(cand.bin_index)
                    if cur is None or entry < cur:
                        best_by_bin[cand.bin_index] = entry
                for _, (_, _, index) in sorted(best_by_bin.items()):
                    chosen.add(index)
                rest = [c for c in scored if c.index not in chosen]
                if self.explore and rest:
                    rest = sorted(rest, key=lambda c: c.key)
                    seed = stable_seed(
                        "explore", family, *[c.key for c in rest]
                    )
                    rng = np.random.default_rng(seed)
                    picks = rng.choice(
                        len(rest),
                        size=min(self.explore, len(rest)),
                        replace=False,
                    )
                    for i in sorted(int(p) for p in picks):
                        chosen.add(rest[i].index)
        for cand in scored:
            if cand.journaled == "done":
                keep.add(cand.index)
            elif cand.journaled == "pruned":
                prune.add(cand.index)
            elif cand.index in chosen:
                keep.add(cand.index)
            else:
                prune.add(cand.index)
        self.stats.sel_kept += len(keep)
        self.stats.sel_pruned += len(prune)
        return keep, prune

    # -- tuning ----------------------------------------------------------

    def plan_prefix(
        self, family: str, features_per_count: list[list[float] | None],
        limit: int,
    ) -> int:
        """Predicted prefix length for a tuning sweep of ``limit`` points.

        Returns how many leading wire counts to keep: the predicted cost
        minimum plus one plus the exploration margin, clamped to
        ``[1, limit]``.  Falls back to the full ``limit`` when the model
        is unavailable, uncertain, or any point lacks features.
        """
        if limit <= 1:
            return limit
        model = self._model_for(family, "tune")
        if model is None:
            self.stats.fallback("corpus-too-small")
            return limit
        if any(f is None for f in features_per_count):
            self.stats.fallback("missing-features")
            return limit
        mean, max_spread = self._predict(model, features_per_count)
        if max_spread > self.variance_ceiling:
            self.stats.fallback("high-variance")
            return limit
        k_pred = int(np.argmin(mean))
        keep = min(limit, k_pred + 2 + self.explore)
        self.stats.tune_pruned += limit - keep
        return keep

    # -- recording -------------------------------------------------------

    def record(
        self,
        family: str,
        stage: str,
        key: str,
        features: list[float] | None,
        cost: float,
    ) -> None:
        """Record one **measured** (features -> cost) example.

        Journal-replayed evaluations are recorded too (their costs are
        real), so a resumed run reconstructs the same training set; the
        store dedupes by key.
        """
        if features is None or not np.isfinite(cost):
            return
        row = CorpusRow(
            family=family,
            stage=stage,
            key=key,
            features=tuple(float(x) for x in features),
            cost=float(cost),
        )
        if self.store.record(row):
            self.stats.recorded += 1

    def flush(self) -> int:
        """Persist rows recorded since the last flush (run boundary)."""
        return self.store.flush()
