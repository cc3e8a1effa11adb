"""Which library calls the traced run wraps, and the per-layer metrics.

Layers are named after the repo's modules.  Each wrapper sits on a
public entry point of its layer: a class attribute where one exists
(``MosPrimitive.generate``, ``Layout.bbox``, ``CompiledCircuit.__init__``
...), otherwise the function under every name the callers look it up
by (``dc_operating_point`` is bound separately in ``repro.spice.dc``,
``repro.spice.tran``, ``repro.primitives.testbenches`` and the circuit
modules).
"""

from __future__ import annotations

from collections import Counter
from statistics import median

import repro.core.cost
import repro.core.port_constraints
import repro.core.reconcile
import repro.core.selection
import repro.core.tuning
import repro.extraction.lde_extract
import repro.pnr.detailed
import repro.primitives.testbenches
import repro.spice.ac
import repro.spice.dc
import repro.spice.tran
import repro.verify
from repro.circuits.base import CompositeCircuit
from repro.geometry.layout import Layout
from repro.pnr.global_router import GlobalRouter
from repro.pnr.placer import SaPlacer
from repro.primitives import MosPrimitive
from repro.runtime.evalcache import EvalCache
from repro.spice import kernel
from repro.spice.mna import CompiledCircuit

from tracer import Span, Tracer, has_ancestor, inclusive_time, self_times, tail_percentile

#: Spans of the algorithm stages, which only enclose other layers'
#: work.  Their self time is glue, not a layer, so trace coverage
#: leaves it out.
STAGES = {"core.selection", "core.tuning", "core.ports"}

#: Recovery tags that mean a DC solve left plain Newton.
HOMOTOPY = {"gmin-stepping", "source-stepping"}


def _newton_count() -> float:
    stats = kernel.active()
    return stats.newton_iterations if stats is not None else 0


def _dc_exit(span: Span, op) -> None:
    span.attrs["homotopy"] = bool(HOMOTOPY & set(op.recovery))


def _points(measure):
    """Record ``measure(result)`` as the span's ``points`` count."""

    def on_exit(span: Span, result) -> None:
        span.attrs["points"] = measure(result)

    return on_exit


def instrument(tracer: Tracer, circuit_cls: type | None = None) -> None:
    """Wrap every layer's entry points; ``tracer.restore()`` undoes it.

    ``circuit_cls`` is the flow's circuit class, whose own
    ``calibrate_biases``/``measure`` form the circuits layer.
    """
    tracer.patch_method(MosPrimitive, "generate", "cellgen")
    tracer.patch_method(Layout, "bbox", "geometry.bbox")
    tracer.patch_method(MosPrimitive, "extract", "extraction")
    tracer.patch_function(repro.extraction.lde_extract.extract_lde, "extraction.lde")
    tracer.patch_method(CompiledCircuit, "__init__", "spice.compile")
    tracer.patch_function(
        repro.spice.dc.dc_operating_point,
        "spice.dc",
        on_exit=_dc_exit,
        counter=_newton_count,
    )
    # Offset bisection only: ``find_dc_zero`` also runs the gate-bias
    # solves of ``solve_gate_bias``, which are not offset measurements.
    tracer.patch_function(repro.primitives.testbenches.dc_offset_bisection, "spice.offset")
    tracer.patch_function(repro.spice.ac.ac_analysis, "spice.ac")
    tracer.patch_function(repro.spice.tran.transient, "spice.tran")
    tracer.patch_method(MosPrimitive, "evaluate", "primitives.evaluate")
    tracer.patch_method(EvalCache, "key_for", "evalcache.key")
    tracer.patch_function(
        repro.core.selection.evaluate_options,
        "core.selection",
        on_exit=_points(len),
    )
    tracer.patch_function(
        repro.core.tuning.tune_option,
        "core.tuning",
        on_exit=_points(lambda r: sum(len(s.points) for s in r.sweeps)),
    )
    tracer.patch_function(
        repro.core.port_constraints.derive_port_constraint,
        "core.ports",
        on_exit=_points(lambda r: len(r[0].sweep)),
    )
    tracer.patch_function(
        repro.core.reconcile.reconcile_net,
        "core.reconcile",
        on_exit=_points(lambda r: r.extra_simulations),
    )
    tracer.patch_function(repro.core.cost.layout_cost, "core.cost")
    tracer.patch_method(SaPlacer, "place", "pnr.place")
    tracer.patch_method(GlobalRouter, "route_net", "pnr.route")
    tracer.patch_function(repro.pnr.detailed.realize_routes, "pnr.route")
    for name in ("verify_layout", "verify_circuit", "verify_assembly"):
        tracer.patch_function(getattr(repro.verify, name), "verify")
    if circuit_cls is not None and issubclass(circuit_cls, CompositeCircuit):
        for attr, span in (("calibrate_biases", "circuits.calibrate"), ("measure", "circuits.measure")):
            if attr in circuit_cls.__dict__:
                tracer.patch_method(circuit_cls, attr, span)


#: Per-layer metric name -> (unit, better).  The order is the report order.
METRICS = {
    "cellgen.calls": ("count", "lower"),
    "cellgen.self_s": ("s", "lower"),
    "geometry.bbox_calls": ("count", "lower"),
    "geometry.bbox_s": ("s", "lower"),
    "extraction.calls": ("count", "lower"),
    "extraction.self_s": ("s", "lower"),
    "extraction.lde_s": ("s", "lower"),
    "spice.compile_calls": ("count", "lower"),
    "spice.compile_s": ("s", "lower"),
    "spice.dc_calls": ("count", "lower"),
    "spice.dc_s": ("s", "lower"),
    "spice.newton_per_dc": ("iter/dc", "lower"),
    "spice.dc_homotopy_frac": ("ratio", "lower"),
    "spice.offset_calls": ("count", "lower"),
    "spice.offset_s": ("s", "lower"),
    "spice.dc_per_offset": ("dc/offset", "lower"),
    "spice.ac_calls": ("count", "lower"),
    "spice.ac_s": ("s", "lower"),
    "spice.tran_calls": ("count", "lower"),
    "spice.tran_s": ("s", "lower"),
    "spice.tran_steps": ("count", "lower"),
    "spice.tran_rejected": ("count", "lower"),
    "primitives.evals": ("count", "lower"),
    "primitives.eval_ms_p50": ("ms", "lower"),
    "primitives.eval_ms_tail": ("ms", "lower"),
    "primitives.eval_tail_pct": ("%", "higher"),
    "evalcache.lookups": ("count", "lower"),
    "evalcache.hits": ("count", "higher"),
    "evalcache.hit_ratio": ("ratio", "higher"),
    "evalcache.disk_hits": ("count", "higher"),
    "evalcache.stored": ("count", "lower"),
    "evalcache.key_s": ("s", "lower"),
    "core.selection_s": ("s", "lower"),
    "core.selection_options": ("count", "lower"),
    "core.tuning_s": ("s", "lower"),
    "core.tuning_points": ("count", "lower"),
    "core.ports_s": ("s", "lower"),
    "core.ports_points": ("count", "lower"),
    "core.reconcile_resims": ("count", "lower"),
    "core.cost_s": ("s", "lower"),
    "pnr.place_s": ("s", "lower"),
    "pnr.route_s": ("s", "lower"),
    "verify.calls": ("count", "lower"),
    "verify.s": ("s", "lower"),
    "circuits.calibrate_s": ("s", "lower"),
    "circuits.measure_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def layer_metrics(
    spans: list[Span],
    traced_s: float,
    untraced_s: float,
    cache: dict,
    solver: dict,
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``*_s`` times are wall time inside the layer's calls (nested calls
    of the same layer counted once); ``*.self_s`` subtracts the time of
    other traced layers called from inside.  ``cache`` is the run's
    ``EvalCache.stats``; ``solver`` its ``solver_profile``.
    """
    self_s = self_time_by_layer(spans)
    calls = Counter(span.name for span in spans)
    points: Counter = Counter()
    for span in spans:
        points[span.name] += span.attrs.get("points", 0)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    dc = [s for s in spans if s.name == "spice.dc"]
    dc_in_offset = sum(
        1
        for i, s in enumerate(spans)
        if s.name == "spice.dc" and has_ancestor(spans, i, {"spice.offset"})
    )
    evals_ms = [1e3 * s.duration for s in spans if s.name == "primitives.evaluate"]
    tail_pct, tail_ms = tail_percentile(evals_ms)
    leaf_self = sum(t for name, t in self_s.items() if name not in STAGES)
    return {
        "cellgen.calls": calls["cellgen"],
        "cellgen.self_s": self_s.get("cellgen", 0.0),
        "geometry.bbox_calls": calls["geometry.bbox"],
        "geometry.bbox_s": inclusive_time(spans, "geometry.bbox"),
        "extraction.calls": calls["extraction"],
        "extraction.self_s": self_s.get("extraction", 0.0),
        "extraction.lde_s": inclusive_time(spans, "extraction.lde"),
        "spice.compile_calls": calls["spice.compile"],
        "spice.compile_s": inclusive_time(spans, "spice.compile"),
        "spice.dc_calls": len(dc),
        "spice.dc_s": inclusive_time(spans, "spice.dc"),
        "spice.newton_per_dc": per(sum(s.attrs.get("counted", 0) for s in dc), len(dc)),
        # A solve that raised went through the whole homotopy ladder.
        "spice.dc_homotopy_frac": per(
            sum(1 for s in dc if s.attrs.get("homotopy") or s.attrs.get("error")),
            len(dc),
        ),
        "spice.offset_calls": calls["spice.offset"],
        "spice.offset_s": inclusive_time(spans, "spice.offset"),
        "spice.dc_per_offset": per(dc_in_offset, calls["spice.offset"]),
        "spice.ac_calls": calls["spice.ac"],
        "spice.ac_s": inclusive_time(spans, "spice.ac"),
        "spice.tran_calls": calls["spice.tran"],
        "spice.tran_s": inclusive_time(spans, "spice.tran"),
        "spice.tran_steps": solver.get("tran_steps", 0),
        "spice.tran_rejected": solver.get("tran_rejected", 0),
        "primitives.evals": len(evals_ms),
        "primitives.eval_ms_p50": median(evals_ms) if evals_ms else 0.0,
        "primitives.eval_ms_tail": tail_ms,
        "primitives.eval_tail_pct": tail_pct,
        "evalcache.lookups": cache.get("lookups", 0),
        "evalcache.hits": cache.get("hits", 0),
        "evalcache.hit_ratio": per(cache.get("hits", 0), cache.get("lookups", 0)),
        "evalcache.disk_hits": cache.get("disk_hits", 0),
        "evalcache.stored": cache.get("stored", 0),
        "evalcache.key_s": inclusive_time(spans, "evalcache.key"),
        "core.selection_s": inclusive_time(spans, "core.selection"),
        "core.selection_options": points["core.selection"],
        "core.tuning_s": inclusive_time(spans, "core.tuning"),
        "core.tuning_points": points["core.tuning"],
        "core.ports_s": inclusive_time(spans, "core.ports"),
        "core.ports_points": points["core.ports"],
        "core.reconcile_resims": points["core.reconcile"],
        "core.cost_s": inclusive_time(spans, "core.cost"),
        "pnr.place_s": inclusive_time(spans, "pnr.place"),
        "pnr.route_s": inclusive_time(spans, "pnr.route"),
        "verify.calls": calls["verify"],
        "verify.s": inclusive_time(spans, "verify"),
        "circuits.calibrate_s": inclusive_time(spans, "circuits.calibrate"),
        "circuits.measure_s": inclusive_time(spans, "circuits.measure"),
        "trace.coverage": per(leaf_self, traced_s),
        "trace.overhead": per(traced_s, untraced_s),
    }


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name, largest first."""
    totals: dict[str, float] = {}
    for span, t in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + t
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
