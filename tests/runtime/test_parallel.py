"""Process-pool parallel evaluation engine.

ISSUE acceptance: a run with ``--jobs N`` produces byte-identical
reports, journals and failure logs to ``--jobs 1`` — with and without
fault injection — and speculative work never consumed leaves no trace.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro import PrimitiveOptimizer, Technology
from repro.errors import LayoutError
from repro.runtime import (
    BatchTask,
    ParallelEvalRuntime,
    RetryPolicy,
    resolve_jobs,
)
from repro.runtime import parallel
from repro.runtime.faults import FaultSpec, inject
from repro.runtime.parallel import ParallelBatch

JOBS = 4


def _fresh_dp():
    from repro.primitives import DifferentialPair

    return DifferentialPair(Technology.default(), base_fins=8, name="par_dp")


def _optimizer(jobs, cache=True, run_dir=None, resume=False):
    return PrimitiveOptimizer(
        n_bins=2,
        max_wires=3,
        policy=RetryPolicy(max_retries=2),
        jobs=jobs,
        cache=cache,
        run_dir=run_dir,
        resume=resume,
    )


def _fingerprint(report) -> tuple:
    return (
        [(o.describe(), o.cost) for o in report.options],
        [(o.describe(), o.cost) for o in report.selected],
        [(t.option.describe(), t.option.cost) for t in report.tuned],
        [(s.name, s.simulations) for s in report.stages],
        report.total_simulations,
        report.best.cost,
        [f.to_dict() for f in report.failures.failures],
        report.cache_stats,
    )


# -- resolve_jobs --------------------------------------------------------


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(None, default=6) == 6
    assert resolve_jobs(3, default=6) == 3
    assert resolve_jobs(0) == 1  # clamped
    assert resolve_jobs(-2) == 1
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5
    assert resolve_jobs(None, default=2) == 5  # env beats default
    assert resolve_jobs(2) == 2  # explicit beats env
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert resolve_jobs(None, default=4) == 1  # env 0 clamps to serial
    monkeypatch.setenv("REPRO_JOBS", "-3")
    assert resolve_jobs(None, default=4) == 1


def test_resolve_jobs_warns_once_on_garbage_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    monkeypatch.setattr(parallel, "_warned_bad_jobs_env", False)
    with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
        assert resolve_jobs(None, default=2) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # second call must stay silent
        assert resolve_jobs(None, default=3) == 3


# -- determinism: jobs=N == jobs=1 ---------------------------------------


def test_parallel_report_identical_without_cache():
    serial = _optimizer(jobs=1, cache=False).optimize(_fresh_dp())
    parallel = _optimizer(jobs=JOBS, cache=False).optimize(_fresh_dp())
    assert _fingerprint(parallel) == _fingerprint(serial)


def test_parallel_report_identical_with_cache():
    serial = _optimizer(jobs=1).optimize(_fresh_dp())
    parallel = _optimizer(jobs=JOBS).optimize(_fresh_dp())
    # Including simulation accounting and cache stats: the parent
    # reconciles worker payloads against its cache in consumption order,
    # so hits land on the same evaluations a serial run hits.
    assert _fingerprint(parallel) == _fingerprint(serial)


def test_parallel_report_identical_under_faults(fault_seed):
    spec = FaultSpec(dc_fail_rate=0.3)
    with inject(spec, seed=fault_seed) as serial_injector:
        serial = _optimizer(jobs=1).optimize(_fresh_dp())
    with inject(spec, seed=fault_seed) as parallel_injector:
        parallel = _optimizer(jobs=JOBS).optimize(_fresh_dp())
    assert _fingerprint(parallel) == _fingerprint(serial)
    # The keyed injector fires identically: same counters, same (kind,
    # key) sequence — worker clones report their events and the parent
    # merges exactly the consumed attempts.
    assert parallel_injector.counters == serial_injector.counters
    assert parallel_injector.fired == serial_injector.fired


def test_parallel_journal_byte_identical(tmp_path):
    _optimizer(jobs=1, run_dir=tmp_path / "serial").optimize(_fresh_dp())
    _optimizer(jobs=JOBS, run_dir=tmp_path / "parallel").optimize(_fresh_dp())
    serial = (tmp_path / "serial" / "par_dp.jsonl").read_bytes()
    parallel = (tmp_path / "parallel" / "par_dp.jsonl").read_bytes()
    assert parallel == serial


def test_parallel_resume_after_kill_is_identical(tmp_path):
    baseline = _optimizer(jobs=JOBS, run_dir=tmp_path / "full").optimize(
        _fresh_dp()
    )
    _optimizer(jobs=JOBS, run_dir=tmp_path / "run").optimize(_fresh_dp())

    # "Kill" the run halfway: truncate the journal, and prune the disk
    # cache tier to the content the kept journal entries produced (in a
    # real crash both are written at the same consumption step, so the
    # disk tier never runs ahead of the journal).
    journal = tmp_path / "run" / "par_dp.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    kept = lines[: len(lines) // 2]
    journal.write_text("".join(kept))
    kept_keys = set()
    for line in kept:
        payload = json.loads(line).get("payload") or {}
        if isinstance(payload, dict) and payload.get("cache_key"):
            kept_keys.add(payload["cache_key"])
    for entry in (tmp_path / "run" / "evalcache").glob("*.json"):
        if entry.stem not in kept_keys:
            entry.unlink()

    resumed = _optimizer(
        jobs=JOBS, run_dir=tmp_path / "run", resume=True
    ).optimize(_fresh_dp())
    assert _fingerprint(resumed) == _fingerprint(baseline)
    assert resumed.resumed_evaluations == len(kept)


# -- batch semantics -----------------------------------------------------


def test_unconsumed_speculation_leaves_no_trace():
    runtime = ParallelEvalRuntime(jobs=2)
    log = []
    tasks = [
        BatchTask(key=f"k{i}", thunk=lambda i=i: log.append(i) or i * 10)
        for i in range(4)
    ]
    batch = runtime.evaluate_batch(tasks, stage="spec")
    assert isinstance(batch, ParallelBatch)
    assert batch.consume(0) == 0
    assert batch.consume(1) == 10
    # Workers speculated through the whole batch, but only consumed
    # tasks are accounted; the parent-side ``log`` never ran at all
    # (evaluation happened in forked children).
    assert runtime._stage_total["spec"] == 2
    assert not runtime.failures
    assert not log


def test_absorbed_exception_reraised_at_consume():
    runtime = ParallelEvalRuntime(jobs=2)

    def boom():
        raise LayoutError("infeasible pattern")

    tasks = [
        BatchTask(key="ok", thunk=lambda: 1),
        BatchTask(key="bad", thunk=boom, absorb=(LayoutError,)),
        BatchTask(key="ok2", thunk=lambda: 2),
    ]
    batch = runtime.evaluate_batch(tasks, stage="spec")
    assert batch.consume(0) == 1
    with pytest.raises(LayoutError, match="infeasible"):
        batch.consume(1)
    assert batch.consume(2) == 2
    # An absorbed exception is the call site's business, not a recorded
    # evaluation failure.
    assert not runtime.failures


def test_small_batches_stay_serial():
    runtime = ParallelEvalRuntime(jobs=4)
    batch = runtime.evaluate_batch(
        [BatchTask(key="only", thunk=lambda: 7)], stage="s"
    )
    assert not isinstance(batch, ParallelBatch)
    assert batch.consume(0) == 7
