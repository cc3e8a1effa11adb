"""One fresh-process set-up of a workload; the caller times the process.

Set-up is the import, ``Technology.default()`` and building the
workload's circuit or primitive.  Given a cache directory it also fills
that evalcache disk tier with one cold flow run, as ``ota_flow_warm``
needs, and prints as JSON the run's results, so the warm runs can be
checked against them, and its wall time ``fill_s``.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED [CACHE_DIR]``
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from repro import Technology  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed = argv[1], int(argv[2])
    tech = Technology.default()
    subject = workloads.build(workload, tech)
    if len(argv) > 3:
        t0 = time.perf_counter()
        outcome = workloads.run_flow(subject, tech, seed, cache_dir=argv[3])
        fill_s = time.perf_counter() - t0
        print(json.dumps({"fingerprint": outcome.fingerprint, "cache": outcome.cache, "fill_s": fill_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
