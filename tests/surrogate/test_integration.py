"""End-to-end surrogate acceptance.

ISSUE acceptance, verified here:

* surrogate-on runs journal byte-identically for any ``--jobs`` value
  (pruning is decided before dispatch);
* surrogate-off runs journal byte-identically to the pre-surrogate
  baseline — including a cold surrogate-on run, which must fall back to
  the full sweep;
* a warm corpus cuts simulations substantially while the chosen
  best-variant cost stays exactly the baseline's (pruning may only skip
  losers, never change winners);
* resumed runs honor journaled pruning decisions.

The warm-corpus fixture runs one full recording pass and is shared
module-wide; every pruned run works on its own *copy* of that corpus so
run-boundary flushes cannot leak between tests.
"""

from __future__ import annotations

import shutil

import pytest

from repro import PrimitiveOptimizer, Technology
from repro.runtime import RetryPolicy

FINS = 48


def _fresh_dp(name="sg_dp"):
    from repro.primitives import DifferentialPair

    return DifferentialPair(Technology.default(), base_fins=FINS, name=name)


def _optimizer(run_dir, corpus, jobs=1, surrogate=True, resume=False):
    # cache=False keeps simulation counts honest: every elided
    # evaluation below is elided by *pruning*, not by a content-cache
    # hit.
    return PrimitiveOptimizer(
        n_bins=2,
        max_wires=3,
        policy=RetryPolicy(max_retries=2),
        run_dir=run_dir,
        resume=resume,
        jobs=jobs,
        cache=False,
        surrogate=surrogate,
        surrogate_corpus=corpus,
    )


def _fingerprint(report) -> tuple:
    return (
        [(o.describe(), o.cost) for o in report.options],
        [(o.describe(), o.cost) for o in report.selected],
        [(t.option.describe(), t.option.cost) for t in report.tuned],
        report.best.cost,
        [f.to_dict() for f in report.failures.failures],
    )


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """(corpus path, cold-pass report): one recording pass, shared."""
    base = tmp_path_factory.mktemp("surrogate_warm")
    corpus = base / "corpus.jsonl"
    report = _optimizer(base / "seed_run", corpus).optimize(_fresh_dp())
    assert corpus.exists()
    return corpus, report


def test_cold_corpus_falls_back_and_records(warm):
    _, report = warm
    stats = report.surrogate_stats
    assert stats["sel_pruned"] == 0
    assert stats["tune_pruned"] == 0
    assert stats["recorded"] > 0
    assert "corpus-too-small" in stats["fallbacks"]


def test_cold_surrogate_run_is_byte_identical_to_off(warm, tmp_path):
    corpus, cold_report = warm
    off = _optimizer(tmp_path / "off", None, surrogate=False).optimize(
        _fresh_dp()
    )
    assert _fingerprint(off) == _fingerprint(cold_report)
    off_journal = (tmp_path / "off" / "sg_dp.jsonl").read_bytes()
    cold_journal = (corpus.parent / "seed_run" / "sg_dp.jsonl").read_bytes()
    assert off_journal == cold_journal
    assert b'"pruned"' not in off_journal


def test_warm_corpus_prunes_without_moving_the_chosen_cost(warm, tmp_path):
    corpus, cold_report = warm
    corpus_copy = tmp_path / "corpus.jsonl"
    shutil.copy(corpus, corpus_copy)
    report = _optimizer(tmp_path / "run", corpus_copy).optimize(_fresh_dp())
    stats = report.surrogate_stats
    assert stats["models_trained"] >= 1
    assert stats["sel_pruned"] > 0
    # The point of the exercise: far fewer simulations...
    assert report.total_simulations <= 0.7 * cold_report.total_simulations
    # ...and the *exact* same winner (pruning only skips losers).
    assert report.best.cost == cold_report.best.cost


def test_surrogate_on_journal_identical_across_jobs(warm, tmp_path):
    corpus, _ = warm
    journals = {}
    fingerprints = {}
    for label, kwargs in (
        ("serial", dict(jobs=1)),
        ("jobs2", dict(jobs=2)),
    ):
        corpus_copy = tmp_path / f"{label}.jsonl"
        shutil.copy(corpus, corpus_copy)
        run_dir = tmp_path / label
        report = _optimizer(run_dir, corpus_copy, **kwargs).optimize(
            _fresh_dp()
        )
        journals[label] = (run_dir / "sg_dp.jsonl").read_bytes()
        fingerprints[label] = _fingerprint(report)
    assert journals["jobs2"] == journals["serial"]
    assert fingerprints["jobs2"] == fingerprints["serial"]
    assert b'"pruned"' in journals["serial"]


def test_surrogate_off_ignores_env(tmp_path, monkeypatch):
    # REPRO_SURROGATE=1 (the CI tier-1 matrix) must not leak into runs
    # that pass an explicit --no-surrogate.
    monkeypatch.setenv("REPRO_SURROGATE", "1")
    opt = _optimizer(tmp_path / "off", None, surrogate=False)
    assert opt.guide is None
    monkeypatch.delenv("REPRO_SURROGATE")
    assert _optimizer(tmp_path / "o2", None, surrogate=None).guide is None


def test_resume_replays_pruning_decisions(warm, tmp_path):
    corpus, _ = warm

    def pristine(label):
        copy = tmp_path / f"{label}.jsonl"
        shutil.copy(corpus, copy)
        return copy

    baseline = _optimizer(tmp_path / "full", pristine("full")).optimize(
        _fresh_dp()
    )

    run_dir = tmp_path / "killed"
    _optimizer(run_dir, pristine("killed")).optimize(_fresh_dp())
    journal = run_dir / "sg_dp.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    assert len(lines) > 4
    journal.write_text("".join(lines[: len(lines) // 2]))

    # The resumed run sees the *original* corpus (a killed run never
    # flushes), so model decisions and journaled decisions agree.
    resumed = _optimizer(
        run_dir, pristine("resume"), resume=True
    ).optimize(_fresh_dp())
    assert _fingerprint(resumed) == _fingerprint(baseline)
    assert resumed.cached_evaluations > 0
    assert resumed.surrogate_stats["sel_pruned"] > 0
    # The repaired journal converges to the uninterrupted run's bytes:
    # the remade plan matches, so only the lost suffix is re-appended.
    assert journal.read_bytes() == (
        tmp_path / "full" / "sg_dp.jsonl"
    ).read_bytes()


@pytest.mark.parametrize("name,fins", [
    ("differential_pair", 24),
    ("current_mirror", 24),
])
def test_library_cost_bound(tmp_path, name, fins):
    """Library-wide bound: a warm surrogate never worsens the chosen
    cost — pass 2 must land on exactly the cold pass's winner."""
    from repro.primitives import PrimitiveLibrary

    library = PrimitiveLibrary()

    def prim():
        return library.create(name, Technology.default(), base_fins=fins)

    corpus = tmp_path / "corpus.jsonl"
    cold = _optimizer(tmp_path / "cold", corpus).optimize(prim())
    hot = _optimizer(tmp_path / "hot", corpus).optimize(prim())
    assert hot.best.cost == cold.best.cost
    assert hot.total_simulations <= cold.total_simulations
