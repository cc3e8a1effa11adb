"""Measure one workload in this process: timed runs, checks, traced run.

Imported by ``run.py`` after it has cleared the configuration knobs
from the environment and put ``src`` on the path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy

import checks
import workloads
from layers import METRICS, instrument, layer_metrics, self_time_by_layer
from repro import Technology
from repro.runtime.batched import resolve_batch
from repro.runtime.parallel import resolve_jobs
from repro.spice import kernel
from repro.spice.tran import resolve_stepper
from repro.surrogate.guide import resolve_surrogate
from tracer import Tracer, chrome_trace

#: End-to-end metric name -> unit, in report order.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "simulations": "count",
    "chosen_cost": "cost",
    "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
}

#: Untraced runs per measurement at the least, so ``run_s`` is never a
#: single sample.
MIN_RUNS = 2


@dataclass
class Measurement:
    """The result line of one benchmark run, plus what led to it."""

    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": not self.problems,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


def configuration() -> dict:
    """The effective library configuration and the host it ran on."""
    return {
        "jobs": resolve_jobs(None),
        "batch": resolve_batch(None),
        "surrogate": resolve_surrogate(None),
        "solver": kernel.resolve_solver(),
        "stepper": resolve_stepper(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _run_checks(outcome, first, fill) -> list[str]:
    """Problems with one run; ``first`` is the run's first outcome."""
    cache = outcome.cache
    problems = checks.identical(
        "evalcache hits + misses", cache["hits"] + cache["misses"], cache["lookups"]
    )
    if first is not None:
        problems += checks.identical("results vs first run", outcome.fingerprint, first.fingerprint)
        problems += checks.identical("simulations vs first run", outcome.simulations, first.simulations)
    if fill is not None:
        problems += checks.identical("warm vs cold results", outcome.fingerprint, fill["fingerprint"])
        problems += checks.identical("warm evalcache.stored", cache["stored"], 0)
    return problems


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    setup_s: float,
    fill: dict | None,
    trace_path: Path,
) -> Measurement:
    """Run ``workload`` untraced within ``seconds``, then once traced if asked.

    Untraced runs repeat while one more, as slow as the slowest so far,
    would still end within ``seconds``; at least :data:`MIN_RUNS` run.
    Traced, a single untraced run is timed, for ``trace.overhead``.

    ``fill`` is the cold run that filled the warm workload's disk tier
    (its ``cache_dir`` and results), None for the other workloads.
    """
    tech = Technology.default()
    reference = checks.reference_for(checks.load_references(), workload)
    cache_dir = fill["cache_dir"] if fill else None

    times, outcomes = [], []
    start = time.perf_counter()
    min_runs, budget = (1, 0.0) if trace else (MIN_RUNS, seconds)
    while len(times) < min_runs or time.perf_counter() - start + max(times) <= budget:
        t0 = time.perf_counter()
        outcomes.append(workloads.run_once(workload, tech, seed, cache_dir))
        times.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = outcomes[0]

    problems = checks.against_reference(first.fingerprint, reference, seed)
    for i, outcome in enumerate(outcomes):
        problems += _run_checks(outcome, first if i else None, fill)
    attempted = sum(o.evaluations for o in outcomes)
    failed = sum(o.failures for o in outcomes)
    run_s = median(times)

    if trace:
        tracer = Tracer()
        with tracer:
            instrument(tracer, type(workloads.build(workload, tech)))
            t0 = time.perf_counter()
            traced = workloads.run_once(workload, tech, seed, cache_dir)
            traced_s = time.perf_counter() - t0
        spans = tracer.spans
        problems += _run_checks(traced, first, fill)
        problems += checks.identical(
            "traced spice.dc_calls vs untraced",
            sum(1 for s in spans if s.name == "spice.dc"),
            first.solver.get("analyses", {}).get("dc", 0),
        )
        problems += checks.identical("traced evalcache.hits", traced.cache["hits"], first.cache["hits"])
        attempted += traced.evaluations
        failed += traced.failures + len(problems)
        metrics = layer_metrics(spans, traced_s, run_s, traced.cache, traced.solver)
        units = {name: unit for name, (unit, _) in METRICS.items()}
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(
            json.dumps({**chrome_trace(spans), "selfTime": self_time_by_layer(spans)})
        )
    else:
        failed += len(problems)
        metrics = {
            "run_s": run_s,
            "setup_s": setup_s,
            "simulations": median(o.simulations for o in outcomes),
            "chosen_cost": first.chosen_cost,
            "ok_frac": 1.0 - failed / max(attempted, 1),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    return Measurement(
        metrics=metrics,
        units=units,
        attempted=max(attempted, 1),
        failed=failed,
        problems=problems,
    )
