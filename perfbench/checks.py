"""Correctness checks the benchmark applies to every run.

Layout variants and wire counts must match exactly.  Costs and final
circuit metrics are compared within :data:`RTOL`, the tolerance
``benchmarks/bench_spice.py`` uses for metrics (``METRIC_RTOL``).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

RTOL = 1e-2

REFERENCES = Path(__file__).resolve().parent / "references.json"

_COST = re.compile(r" cost=(\S+)")


def load_references() -> dict:
    with REFERENCES.open() as handle:
        return json.load(handle)


def reference_for(references: dict, workload: str) -> dict:
    """The warm flow must give the cold flow's results."""
    return references["ota_flow" if workload == "ota_flow_warm" else workload]


def close(got: float, ref: float) -> bool:
    return abs(got - ref) <= RTOL * max(abs(ref), 1e-30)


def _split(description: str) -> tuple[str, float]:
    """``describe()`` text without its cost, and the cost."""
    cost = float(_COST.search(description).group(1))
    return _COST.sub("", description), cost


def _variants(label: str, got: str, ref: str) -> list[str]:
    got_variant, got_cost = _split(got)
    ref_variant, ref_cost = _split(ref)
    if got_variant != ref_variant:
        return [f"{label}: variant {got_variant!r} != reference {ref_variant!r}"]
    if not close(got_cost, ref_cost):
        return [f"{label}: cost {got_cost} != reference {ref_cost}"]
    return []


def _option_lists(fingerprint: dict, ref: dict) -> list[str]:
    problems = []
    got_all, ref_all = fingerprint["algorithm1"], ref["algorithm1"]
    if sorted(got_all) != sorted(ref_all):
        return [f"algorithm1: primitives {sorted(got_all)} != {sorted(ref_all)}"]
    for name, ref_options in ref_all.items():
        got_options = got_all[name]
        if len(got_options) != len(ref_options):
            problems.append(f"algorithm1/{name}: {len(got_options)} options != {len(ref_options)}")
            continue
        for i, (got, want) in enumerate(zip(got_options, ref_options)):
            problems += _variants(f"algorithm1/{name}[{i}]", got, want)
    return problems


def _placed(fingerprint: dict, ref: dict) -> list[str]:
    """Chosen variants, reconciled wire counts and final metrics."""
    problems = []
    if sorted(fingerprint["chosen"]) != sorted(ref["chosen"]):
        problems.append(f"chosen: bindings {sorted(fingerprint['chosen'])} != {sorted(ref['chosen'])}")
    else:
        for name, want in ref["chosen"].items():
            problems += _variants(f"chosen/{name}", fingerprint["chosen"][name], want)
    if fingerprint["reconciled"] != ref["reconciled"]:
        problems.append(f"reconciled wires {fingerprint['reconciled']} != {ref['reconciled']}")
    if sorted(fingerprint["metrics"]) != sorted(ref["metrics"]):
        problems.append(f"metrics: keys {sorted(fingerprint['metrics'])} != {sorted(ref['metrics'])}")
    else:
        for key, want in ref["metrics"].items():
            got = fingerprint["metrics"][key]
            if not close(got, want):
                problems.append(f"metric {key}: {got} != reference {want}")
    return problems


def against_reference(fingerprint: dict, ref: dict, seed: int) -> list[str]:
    """Problems with one run's results against the stored reference.

    Algorithm-1 results come before placement and are checked for any
    seed.  A flow's placed results depend on the placer seed and are
    checked when the reference covers that seed.
    """
    problems = _option_lists(fingerprint, ref)
    if "seeds" not in ref:
        problems += _placed(fingerprint, ref)
    elif str(seed) in ref["seeds"]:
        problems += _placed(fingerprint, ref["seeds"][str(seed)])
    return problems


def identical(label: str, got, want) -> list[str]:
    """Exact equality, for results that must reproduce bit for bit."""
    return [] if got == want else [f"{label}: {got!r} != {want!r}"]
