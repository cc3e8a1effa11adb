"""Regenerate ``references.json``, the results every benchmark run is
checked against.

Run it only when a change is meant to alter the library's results, and
say so in the change::

    python3 perfbench/make_references.py

Algorithm-1 results do not depend on the placer seed; the flow's placed
results (chosen variants, reconciled wires, final metrics) are stored
for each placer seed in :data:`SEEDS`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from repro import Technology  # noqa: E402

#: Placer seeds of the flow references; runs at other seeds check only
#: the Algorithm-1 results.
SEEDS = range(31)


def main() -> int:
    tech = Technology.default()
    references: dict = {}
    for workload in workloads.CELLS:
        fingerprint = workloads.run_once(workload, tech, seed=0).fingerprint
        references[workload] = fingerprint
    flow = {"algorithm1": None, "seeds": {}}
    for seed in SEEDS:
        fingerprint = workloads.run_once("ota_flow", tech, seed).fingerprint
        flow["algorithm1"] = fingerprint.pop("algorithm1")
        flow["seeds"][str(seed)] = fingerprint
        print(f"ota_flow seed {seed}: {fingerprint['reconciled']}", flush=True)
    references["ota_flow"] = flow
    checks.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
