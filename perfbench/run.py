"""The repository's benchmark: four workloads, end-to-end and per-layer.

Run one workload (what ``BENCHMARK.json`` names as the command; it
gates ``ota_flow`` and ``vco_cell``)::

    python3 perfbench/run.py --workload ota_flow --seed 1 --seconds 50 --trace 0

or all four, each in a fresh process, with a summary table::

    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` times one
untraced and one traced run, reports the per-layer metrics, and writes the
spans to ``.perfbench/trace-<workload>-<seed>.json``.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  A failed correctness check exits 1.  See
README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOAD_NAMES = ("ota_flow", "ota_flow_warm", "vco_cell", "cascode_dp")

#: Configuration knobs a CI matrix may set; the benchmark measures the
#: library's defaults, so none may leak in.
KNOBS = ("REPRO_JOBS", "REPRO_BATCH", "REPRO_SURROGATE", "REPRO_SOLVER", "REPRO_STEPPER")

#: Fresh-process set-ups per run; ``setup_s`` is their median (plus the
#: disk-tier fill for ``ota_flow_warm``).
SETUP_REPEATS = 5


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="placer seed of the flows")
    parser.add_argument("--seconds", type=float, default=50.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe(command: list[str], env: dict) -> tuple[float, str]:
    """Run one set-up process; its wall time and standard output."""
    t0 = time.perf_counter()
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed: {' '.join(command[1:])}\n{done.stderr}")
    return elapsed, done.stdout


def _setup(workload: str, seed: int, repeats: int, env: dict) -> tuple[float, dict | None]:
    """``setup_s`` and, for ``ota_flow_warm``, the filled disk tier.

    ``setup_s`` is the median of ``repeats`` fresh-process set-ups.
    ``ota_flow_warm`` adds the time of one cold flow run that fills its
    disk tier in a further process; that tier is kept for the timed runs.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    setup_s = median(_probe(probe, env)[0] for _ in range(repeats))
    if workload != "ota_flow_warm":
        return setup_s, None
    WORK.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK)
    try:
        _, out = _probe(probe + [cache_dir], env)
    except RuntimeError:
        shutil.rmtree(cache_dir, ignore_errors=True)
        raise
    fill = {**json.loads(out.splitlines()[-1]), "cache_dir": cache_dir}
    return setup_s + fill["fill_s"], fill


def run_one(args: argparse.Namespace, env: dict) -> int:
    repeats = 1 if args.trace else SETUP_REPEATS
    setup_s, fill = _setup(args.workload, args.seed, repeats, env)
    try:
        import bench

        print("config " + json.dumps(bench.configuration()))
        result = bench.measure(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            setup_s,
            fill,
            WORK / f"trace-{args.workload}-{args.seed}.json",
        )
    finally:
        if fill is not None:
            shutil.rmtree(fill["cache_dir"], ignore_errors=True)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in result.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {result.units[name]}")
    print(result.result_line())
    return 1 if result.problems else 0


def run_all(args: argparse.Namespace, env: dict) -> int:
    """Every workload in its own fresh process, then one table."""
    status, rows, merged = 0, [], {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            if line.startswith("CHECK FAILED"):
                print(f"{workload}: {line}")
        if done.returncode != 0 and not lines:
            sys.stderr.write(done.stderr)
            return done.returncode
        status = status or done.returncode
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
            merged[f"{workload}.{name}"] = metric
    for workload, name, value, unit in rows:
        print(f"{workload:14s} {name:28s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return status


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro package under {SRC}; run from a full checkout\n")
        return 2
    for knob in KNOBS:
        os.environ.pop(knob, None)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args, env)
    return run_one(args, env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
