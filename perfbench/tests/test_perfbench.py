"""Tests for the benchmark's tracer, instrumentation and checks."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.primitives.testbenches
import repro.spice.dc
import repro.spice.tran
from repro import Technology
from repro.circuits import FiveTransistorOta
from repro.primitives import MosPrimitive, PrimitiveLibrary
from repro.spice.mna import CompiledCircuit
from repro.spice.netlist import Circuit

import bench
import checks
import layers
import make_references
import run
import workloads
from tracer import Span, Tracer, inclusive_time, self_times, tail_percentile

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _fake_clock(ticks):
    values = iter(ticks)
    return lambda: next(values)


# -- span arithmetic ---------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("c", 6.0, 8.0, parent=2),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_wrapped_calls_nest_and_record_parents():
    # Clock reads: outer start, inner start, inner end, outer end.
    tracer = Tracer(clock=_fake_clock([0.0, 2.0, 5.0, 9.0]))
    inner = tracer.wrap(lambda: "x", "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    assert outer() == "x"
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent) == ("outer", None)
    assert (inner_span.name, inner_span.parent) == ("inner", 0)
    assert self_times(tracer.spans) == [6.0, 3.0]


def test_raising_call_closes_its_span():
    tracer = Tracer(clock=_fake_clock([0.0, 1.0]))

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(fail, "f")()
    assert tracer.spans[0].attrs == {"error": True}
    assert tracer.spans[0].duration == 1.0


def test_inclusive_time_counts_recursion_once():
    spans = [Span("x", 0.0, 10.0), Span("x", 2.0, 5.0, parent=0), Span("y", 11.0, 12.0)]
    assert inclusive_time(spans, "x") == 10.0


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(279)]
    pct, value = tail_percentile(samples)
    assert sum(1 for s in samples if s > value) >= 10
    assert pct == 96
    assert tail_percentile([1.0, 3.0, 2.0]) == (100.0, 3.0)


# -- instrumentation -----------------------------------------------------------


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_wrappers_are_removed_after_the_traced_run():
    original_dc = repro.spice.dc.dc_operating_point
    original_evaluate = MosPrimitive.__dict__["evaluate"]
    tracer = Tracer()
    with tracer:
        layers.instrument(tracer, FiveTransistorOta)
        patched = tracer.patched
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original
    for owner, attr, original in patched:
        assert _current(owner, attr) is original
    assert repro.primitives.testbenches.dc_operating_point is original_dc
    assert repro.spice.tran.dc_operating_point is original_dc
    assert MosPrimitive.__dict__["evaluate"] is original_evaluate


def test_function_wrapper_replaces_every_binding():
    tracer = Tracer()
    with tracer:
        replaced = tracer.patch_function(repro.spice.dc.dc_operating_point, "spice.dc")
        # spice.dc itself, the package re-export, tran, testbenches, ...
        assert replaced >= 4
        wrapped = repro.spice.dc.dc_operating_point
        assert repro.spice.tran.dc_operating_point is wrapped
        assert repro.primitives.testbenches.dc_operating_point is wrapped


def _rc_circuit() -> Circuit:
    circuit = Circuit("rc")
    circuit.add_vsource("vin", "in", "0", 1.0)
    circuit.add_resistor("r1", "in", "out", 1e3)
    circuit.add_capacitor("c1", "out", "0", 1e-12)
    return circuit


def test_wrappers_fire_where_callers_look_them_up():
    tech = Technology.default()
    tracer = Tracer()
    with tracer:
        layers.instrument(tracer)
        # testbenches binds dc_operating_point by name ...
        repro.primitives.testbenches.run_op(_rc_circuit(), tech)
        # ... and so does tran, for the operating point it starts from.
        compiled = CompiledCircuit(_rc_circuit(), tech.rules)
        repro.spice.tran.transient(compiled, t_stop=1e-10, dt=1e-11)
    names = [s.name for s in tracer.spans]
    assert names.count("spice.compile") == 2
    assert names.count("spice.dc") == 2
    tran = names.index("spice.tran")
    dc_in_tran = [s for s in tracer.spans if s.name == "spice.dc" and s.parent == tran]
    assert len(dc_in_tran) == 1


def _divider(v: float) -> Circuit:
    circuit = Circuit("divider")
    circuit.add_vsource("vin", "in", "0", v)
    circuit.add_resistor("r1", "in", "out", 1e3)
    circuit.add_resistor("r2", "out", "0", 1e3)
    return circuit


def test_offset_spans_cover_offset_bisection_only():
    tech = Technology.default()
    tbh = repro.primitives.testbenches
    tracer = Tracer()
    with tracer:
        layers.instrument(tracer)
        # A gate-bias solve bisects too, but measures no offset ...
        tbh.solve_gate_bias(tech, _divider, lambda op: op.v("out"), 0.2)
        # ... an offset bisection does.
        tbh.dc_offset_bisection(_divider, tech, lambda op: op.v("out") - 0.01)
    names = [s.name for s in tracer.spans]
    assert names.count("spice.offset") == 1
    metrics = layers.layer_metrics(tracer.spans, 1.0, 1.0, {}, {})
    offset = names.index("spice.offset")
    in_offset = [s for s in tracer.spans if s.name == "spice.dc" and s.parent == offset]
    assert 0 < metrics["spice.dc_per_offset"] == len(in_offset) < metrics["spice.dc_calls"]


def test_traced_and_untraced_runs_count_the_same():
    tech = Technology.default()

    def run():
        return workloads.run_cell(
            PrimitiveLibrary().create("differential_pair", tech, base_fins=8), max_wires=2
        )

    untraced = run()
    tracer = Tracer()
    with tracer:
        layers.instrument(tracer)
        traced = run()
    spans = tracer.spans
    metrics = layers.layer_metrics(spans, 1.0, 1.0, traced.cache, traced.solver)
    assert traced.fingerprint == untraced.fingerprint
    assert traced.simulations == untraced.simulations > 0
    assert metrics["spice.dc_calls"] == untraced.solver["analyses"]["dc"] > 0
    assert metrics["evalcache.hits"] == untraced.cache["hits"]
    assert metrics["primitives.evals"] == untraced.evaluations
    assert set(metrics) == set(layers.METRICS)


# -- checks and the benchmark contract -------------------------------------


def test_checks_compare_variants_exactly_and_numbers_within_tolerance():
    ref = checks.reference_for(checks.load_references(), "cascode_dp")
    fingerprint = json.loads(json.dumps(ref))
    assert checks.against_reference(fingerprint, ref, seed=99) == []
    name = next(iter(fingerprint["chosen"]))
    fingerprint["chosen"][name] = fingerprint["chosen"][name].replace("ABAB", "ABBA")
    key = next(iter(fingerprint["metrics"]))
    fingerprint["metrics"][key] *= 1.001
    assert len(checks.against_reference(fingerprint, ref, seed=99)) == 1
    fingerprint["metrics"][key] *= 1.1
    assert len(checks.against_reference(fingerprint, ref, seed=99)) == 2


def test_flow_references_cover_the_generated_seeds():
    ref = checks.reference_for(checks.load_references(), "ota_flow_warm")
    assert sorted(int(seed) for seed in ref["seeds"]) == list(make_references.SEEDS)
    assert 1 in make_references.SEEDS and len(make_references.SEEDS) > 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ota_flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
