#!/usr/bin/env python
"""Benchmark the sparse factorization-reuse MNA kernel.

Times the benchmark testbenches (5T OTA, StrongARM comparator, 8-stage
ring-oscillator VCO) under three solver/stepper configurations --

* ``fixed_dense``   -- fixed-grid trapezoidal stepping on the dense LU
  backend.  Bit-identical to the pre-kernel simulator, so this run *is*
  the seed baseline.
* ``fixed_sparse``  -- same step sequence through scipy ``splu``; isolates
  the factorization-reuse win from the stepping win.
* ``adaptive_sparse`` -- the full new path: LTE-controlled step sizing on
  the sparse backend.

-- and writes wall-clock, solver counters (steps, rejections, LU reuses)
and measured metrics to ``BENCH_spice.json``.  Two properties are
asserted, not just recorded:

* every configuration reproduces the baseline metrics within the cost
  function's noise tolerance, and
* the full path beats the baseline by >= 2x wall-clock on the VCO
  transient (the dominant cost in the paper's Table VIII runtime).

Run via ``make bench-spice``, or directly::

    python benchmarks/bench_spice.py --out BENCH_spice.json

``--smoke`` swaps the assembled VCO for a short schematic run so CI can
exercise the harness in seconds (the speedup assert is skipped -- the
shrunk workload is too small to be representative).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Technology  # noqa: E402
from repro.cellgen.generator import WireConfig  # noqa: E402
from repro.cellgen.patterns import available_patterns  # noqa: E402
from repro.circuits import (  # noqa: E402
    FiveTransistorOta,
    RingOscillatorVco,
    StrongArmComparator,
)
from repro.circuits.base import LayoutChoice  # noqa: E402
from repro.spice import kernel  # noqa: E402
from repro.spice import tran as tran_mod  # noqa: E402

#: Metric agreement bar: the optimization cost function bins metric
#: deviations far coarser than 1%, so configurations whose metrics agree
#: to this tolerance are interchangeable for layout selection.
METRIC_RTOL = 1e-2

#: (name, solver, stepper) -- fixed_dense first: it is the baseline the
#: other rows are compared against.
CONFIGS = [
    ("fixed_dense", kernel.DENSE, tran_mod.FIXED),
    ("fixed_sparse", kernel.SPARSE, tran_mod.FIXED),
    ("adaptive_sparse", kernel.SPARSE, tran_mod.ADAPTIVE),
]


@contextmanager
def configure(solver: str, stepper: str):
    """Pin solver backend and transient stepper via their env knobs."""
    saved = {
        var: os.environ.get(var)
        for var in (kernel.SOLVER_ENV, tran_mod.STEPPER_ENV)
    }
    os.environ[kernel.SOLVER_ENV] = solver
    os.environ[tran_mod.STEPPER_ENV] = stepper
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def conventional_choices(circuit) -> dict[str, LayoutChoice]:
    """Minimal hand-style layout choices, enough to assemble the DUT."""
    choices = {}
    for binding in circuit.bindings():
        primitive = binding.primitive
        variants = primitive.variants()
        base = min(variants, key=lambda g: (abs(g.nfin - g.nf), g.m))
        counts = {
            t.name: base.m * t.m_ratio
            for t in primitive.templates()
            if t.name in primitive.matched_group()
        }
        patterns = available_patterns(list(counts), counts)
        pattern = "ABBA" if "ABBA" in patterns else patterns[0]
        choices[binding.name] = LayoutChoice(
            base=base, pattern=pattern, wires=WireConfig()
        )
    return choices


def _testbenches(tech: Technology, smoke: bool) -> list[tuple]:
    """(label, measure-thunk, skip_metrics) per benchmark circuit.

    ``skip_metrics`` names metrics excluded from the agreement assert.
    Only the smoke run skips anything: StrongARM ``power`` integrates a
    sub-picosecond supply-current spike that is not dt-converged at the
    smoke step (the *fixed* run moves ~8% between dt=2ps and dt=0.5ps),
    so fixed-vs-adaptive disagreement there measures grid aliasing, not
    solver accuracy.  The full run steps at dt=0.5ps, where the metric
    is converged and all configurations agree to ~0.1%.
    """
    ota = FiveTransistorOta(tech)
    comparator = StrongArmComparator(tech)
    vco = RingOscillatorVco(tech)
    benches = [
        ("ota_schematic", lambda: ota.measure(ota.schematic()), set()),
        (
            "strongarm_schematic",
            lambda: comparator.measure(
                comparator.schematic(), dt=2e-12 if smoke else 5e-13
            ),
            {"power"} if smoke else set(),
        ),
    ]
    if smoke:
        benches.append(
            (
                "vco_schematic",
                lambda: vco.measure(
                    vco.schematic(), periods=6, steps_per_period=150
                ),
                set(),
            )
        )
    else:
        # The acceptance workload: extracted 8-stage VCO, full transient.
        dut = vco.assembled(conventional_choices(vco))
        benches.append(("vco_assembled", lambda: vco.measure(dut), set()))
    return benches


def _run(measure_thunk, solver: str, stepper: str) -> dict:
    stats = kernel.SolverStats()
    with configure(solver, stepper):
        start = time.perf_counter()
        with kernel.collect(stats):
            metrics = measure_thunk()
        wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 4),
        "metrics": metrics,
        "newton_iterations": stats.newton_iterations,
        "solves": stats.solves,
        "factorizations": stats.factorizations,
        "lu_reuses": stats.lu_reuses,
        "tran_steps": stats.tran_steps,
        "tran_rejected": stats.tran_rejected,
        "tran_fixed_steps": stats.tran_fixed_steps,
        "backends": stats.backends,
    }


def bench_circuit(label: str, measure_thunk, skip_metrics: set) -> dict:
    rows = {}
    for name, solver, stepper in CONFIGS:
        rows[name] = _run(measure_thunk, solver, stepper)
        print(
            f"  {label}/{name}: {rows[name]['wall_s']}s, "
            f"{rows[name]['tran_steps']} steps "
            f"({rows[name]['tran_rejected']} rejected), "
            f"{rows[name]['factorizations']} factorizations"
        )
    baseline = rows["fixed_dense"]
    for name, row in rows.items():
        for key, ref in baseline["metrics"].items():
            if key in skip_metrics:
                continue
            got = row["metrics"][key]
            assert abs(got - ref) <= METRIC_RTOL * max(
                abs(ref), 1e-30
            ), f"{label}/{name}: metric {key} diverged ({got} vs {ref})"
        row["speedup"] = round(
            baseline["wall_s"] / max(row["wall_s"], 1e-9), 3
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="BENCH_spice.json",
        help="output JSON path (default: BENCH_spice.json)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the workload for CI smoke runs (skips the 2x assert)",
    )
    args = parser.parse_args()

    tech = Technology.default()
    circuits = {}
    for label, thunk, skip in _testbenches(tech, args.smoke):
        print(f"{label}:")
        circuits[label] = bench_circuit(label, thunk, skip)

    report = {
        "benchmark": "spice-kernel",
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "metric_rtol": METRIC_RTOL,
        "circuits": circuits,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    if not args.smoke:
        vco = circuits["vco_assembled"]
        speedup = vco["adaptive_sparse"]["speedup"]
        print(
            f"VCO transient: {vco['fixed_dense']['wall_s']}s baseline -> "
            f"{vco['adaptive_sparse']['wall_s']}s full path "
            f"({speedup}x)"
        )
        assert speedup >= 2.0, (
            f"acceptance regression: adaptive+sparse VCO speedup {speedup}x "
            "< 2x over the fixed-dense baseline"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
