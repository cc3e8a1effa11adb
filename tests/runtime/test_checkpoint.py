"""Sweep-journal crash consistency and replay."""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError
from repro.runtime import (
    CONV_DC,
    EvalFailure,
    EvalRuntime,
    RetryPolicy,
    SweepJournal,
)


def test_success_round_trip(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("k1", {"cost": 1.5})
        journal.record_success("k2", {"cost": 2.5})
    with SweepJournal(path, resume=True) as journal:
        assert len(journal) == 2
        assert "k1" in journal
        assert journal.lookup("k1")["payload"] == {"cost": 1.5}
        assert journal.lookup("missing") is None


def test_failure_round_trip(tmp_path):
    path = tmp_path / "sweep.jsonl"
    failure = EvalFailure(CONV_DC, "selection", "k1", message="boom", attempt=1)
    with SweepJournal(path) as journal:
        journal.record_failure("k1", [failure])
    with SweepJournal(path, resume=True) as journal:
        assert journal.lookup("k1")["status"] == "failed"
        assert journal.journaled_failures("k1") == [failure]
        assert journal.journaled_failures("other") == []


def test_fresh_journal_truncates(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("stale", {})
    with SweepJournal(path, resume=False) as journal:
        assert len(journal) == 0
    with SweepJournal(path, resume=True) as journal:
        assert "stale" not in journal


def test_torn_final_line_is_tolerated(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("done", {"cost": 1.0})
    with path.open("a") as handle:
        handle.write('{"key": "in-flight", "status"')  # killed mid-write
    with SweepJournal(path, resume=True) as journal:
        assert "done" in journal
        assert "in-flight" not in journal


def test_torn_tail_is_truncated_on_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("done", {"cost": 1.0})
    clean = path.read_bytes()
    torn = b'{"key": "in-flight", "sta'
    with path.open("ab") as handle:
        handle.write(torn)
    with SweepJournal(path, resume=True) as journal:
        assert journal.truncated_tail == len(torn)
        journal.record_success("next", {"cost": 2.0})
    # The file is clean JSONL end-to-end: the torn bytes are gone and
    # every line parses.
    raw = path.read_bytes()
    assert raw.startswith(clean)
    for line in raw.decode().splitlines():
        json.loads(line)
    # A second resume sees no artifact of the first crash.
    with SweepJournal(path, resume=True) as journal:
        assert journal.truncated_tail == 0
        assert "done" in journal and "next" in journal


def test_clean_resume_reports_zero_truncated_tail(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("done", {"cost": 1.0})
    with SweepJournal(path, resume=True) as journal:
        assert journal.truncated_tail == 0


def test_journal_flush_hook(tmp_path):
    # graceful_shutdown flushes every registered sink; the journal's
    # flush() must be callable at any point (even with nothing buffered)
    # and after close().
    from repro.runtime import flush_all

    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_success("a", {})
        journal.flush()
        assert flush_all() >= 1
    flush_all()  # closed journals must not raise through the handler


def test_interior_corruption_raises(tmp_path):
    path = tmp_path / "sweep.jsonl"
    lines = [
        json.dumps({"key": "a", "status": "ok", "payload": {}}),
        "garbage not json",
        json.dumps({"key": "b", "status": "ok", "payload": {}}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError):
        SweepJournal(path, resume=True)


def test_unknown_status_raises(tmp_path):
    # Legacy "pruned" lines load; any other status is corruption.
    path = tmp_path / "sweep.jsonl"
    for status in ("maybe", "done", "PRUNED", ""):
        lines = [
            {"key": "a", "status": "pruned"},
            {"key": "b", "status": status},
            {"key": "c", "status": "ok"},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(CheckpointError, match="unknown status"):
            SweepJournal(path, resume=True)


def test_resume_missing_file_starts_empty(tmp_path):
    with SweepJournal(tmp_path / "fresh.jsonl", resume=True) as journal:
        assert len(journal) == 0


def test_last_entry_wins(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_failure("k", [EvalFailure(CONV_DC, "s", "k")])
        journal.record_success("k", {"cost": 3.0})
    with SweepJournal(path, resume=True) as journal:
        assert journal.lookup("k")["status"] == "ok"


def test_legacy_pruned_lines_resume_as_not_completed(tmp_path):
    # Journals from versions that pruned sweep candidates with a learned
    # cost model hold "pruned" lines.  They still load, but only the ok
    # and failed keys replay: the pruned candidate is simulated afresh.
    path = tmp_path / "sweep.jsonl"
    failure = EvalFailure(CONV_DC, "selection", "bad", message="x", attempt=0)
    lines = [
        {"key": "good", "status": "ok", "payload": {"v": 1}},
        {"key": "bad", "status": "failed", "failures": [failure.to_dict()]},
        {"key": "skipped", "status": "pruned"},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))

    journal = SweepJournal(path, resume=True)
    assert len(journal) == 2
    assert "skipped" not in journal
    runtime = EvalRuntime(policy=RetryPolicy(max_retries=0), journal=journal)
    simulated: list[str] = []

    def thunk(key):
        return lambda: simulated.append(key) or {"v": 2}

    results = {
        key: runtime.evaluate(key, thunk(key), stage="selection")
        for key in ("good", "bad", "skipped")
    }
    journal.close()
    assert simulated == ["skipped"]
    assert results == {"good": {"v": 1}, "bad": None, "skipped": {"v": 2}}
    assert runtime.resumed == 2
    with SweepJournal(path, resume=True) as reopened:
        assert reopened.lookup("skipped")["status"] == "ok"
