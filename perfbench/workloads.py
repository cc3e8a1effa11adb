"""The benchmark's workloads, run through the library's public entry points.

Every workload uses the default configuration: serial, the default
in-memory evaluation cache, and no knob set (the caller clears the
``REPRO_*`` environment first).  One call of :func:`run_once` is one
complete, cold run of the workload on freshly built inputs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import HierarchicalFlow, PrimitiveOptimizer, Technology
from repro.circuits import FiveTransistorOta
from repro.core.selection import wires_tag
from repro.primitives import MosPrimitive, PrimitiveLibrary

#: Algorithm-1 workloads: (library primitive, base fins).
CELLS = {
    "vco_cell": ("differential_delay_cell", 24),
    "cascode_dp": ("cascode_differential_pair", 24),
}

#: Settings of ``repro flow ota`` and of the Algorithm-1 workloads.
FLOW_BINS, FLOW_MAX_WIRES = 2, 5
CELL_BINS, CELL_MAX_WIRES = 2, 3


@dataclass
class Outcome:
    """What one run produced, as the benchmark checks and reports it.

    Attributes:
        fingerprint: Results the correctness checks compare --
            ``algorithm1`` (placer options per primitive, independent
            of the placer seed), ``chosen`` (the variant used per
            binding), ``reconciled`` (wire count per net) and
            ``metrics`` (final measurements).
        simulations: Simulator invocations (``MosPrimitive.evaluate``).
        evaluations: ``MosPrimitive.evaluate`` calls attempted.
        failures: Absorbed evaluation failures (``len(FailureLog)``).
        chosen_cost: Sum over primitives of the best option's cost.
        cache: ``EvalCache.stats`` of the run's one shared cache.
        solver: The run's aggregated ``solver_profile``.
    """

    fingerprint: dict
    simulations: int
    evaluations: int
    failures: int
    chosen_cost: float
    cache: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)


@contextmanager
def count_simulations():
    """Count evaluations that reach the simulator, at class level.

    Cache hits never call ``evaluate``, so they never count.  Attempts
    are counted before the call so a raising evaluation still counts.
    """
    counts = {"evaluations": 0, "simulations": 0}
    original = MosPrimitive.__dict__["evaluate"]

    def counting(self, dut):
        counts["evaluations"] += 1
        values, sims = original(self, dut)
        counts["simulations"] += sims
        return values, sims

    MosPrimitive.evaluate = counting
    try:
        yield counts
    finally:
        MosPrimitive.evaluate = original


def build(workload: str, tech: Technology):
    """The workload's circuit or primitive, freshly constructed."""
    if workload in CELLS:
        name, fins = CELLS[workload]
        return PrimitiveLibrary().create(name, tech, base_fins=fins)
    if workload in ("ota_flow", "ota_flow_warm"):
        return FiveTransistorOta(tech)
    raise ValueError(f"unknown workload {workload!r}")


def describe(option) -> str:
    """A layout option's variant and wire configuration."""
    return f"{option.describe()} wires={wires_tag(option.wires)}"


def run_once(
    workload: str, tech: Technology, seed: int, cache_dir: str | None = None
) -> Outcome:
    """One cold run of ``workload`` on freshly built inputs.

    ``seed`` is the placer seed of the flows (Algorithm 1 uses none);
    ``cache_dir`` points a flow at an evalcache disk tier.
    """
    subject = build(workload, tech)
    if workload in CELLS:
        return run_cell(subject)
    return run_flow(subject, tech, seed, cache_dir)


def run_flow(circuit, tech, seed: int, cache_dir: str | None = None) -> Outcome:
    """The hierarchical flow with ``repro flow`` settings, final measure on."""
    flow = HierarchicalFlow(
        tech,
        n_bins=FLOW_BINS,
        max_wires=FLOW_MAX_WIRES,
        seed=seed,
        cache_dir=cache_dir,
    )
    with count_simulations() as counts:
        result = flow.run(circuit)
    chosen = {}
    for binding in circuit.bindings():
        choice = result.choices[binding.name]
        report = result.reports[binding.primitive.name]
        chosen[binding.name] = describe(
            next(
                o
                for o in report.placer_options()
                if (o.base, o.pattern, o.wires) == (choice.base, choice.pattern, choice.wires)
            )
        )
    fingerprint = {
        "algorithm1": {
            name: [describe(o) for o in report.placer_options()]
            for name, report in sorted(result.reports.items())
        },
        "chosen": chosen,
        "reconciled": {n: r.wires for n, r in sorted(result.reconciled.items())},
        "metrics": dict(sorted(result.metrics.items())),
    }
    return Outcome(
        fingerprint=fingerprint,
        simulations=counts["simulations"],
        evaluations=counts["evaluations"],
        failures=len(result.failures),
        chosen_cost=sum(r.best.cost for r in result.reports.values()),
        # The flow's one shared cache, read once: each report's
        # cache_stats is a cumulative snapshot of this same object.
        cache=flow.cache.stats.to_dict(),
        solver=result.solver_profile,
    )


def run_cell(primitive, max_wires: int = CELL_MAX_WIRES) -> Outcome:
    """Algorithm 1 on one primitive with its default in-memory cache."""
    optimizer = PrimitiveOptimizer(n_bins=CELL_BINS, max_wires=max_wires)
    with count_simulations() as counts:
        report = optimizer.optimize(primitive)
    best = report.best
    fingerprint = {
        "algorithm1": {
            primitive.name: [describe(o) for o in report.placer_options()]
        },
        "chosen": {primitive.name: describe(best)},
        "reconciled": {},
        "metrics": dict(sorted(best.values.items())),
    }
    return Outcome(
        fingerprint=fingerprint,
        simulations=counts["simulations"],
        evaluations=counts["evaluations"],
        failures=len(report.failures),
        chosen_cost=best.cost,
        cache=optimizer.cache.stats.to_dict(),
        solver=report.solver_profile,
    )
