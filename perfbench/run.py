"""Benchmark command line.

    python3 perfbench/run.py --workload verify-small --seed 0 --seconds 30 --trace 0

Runs one workload (or ``all`` of them, each in its own process) from the root
of a source checkout, prints the environment record, notes on failures and
checks, every metric with its unit, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the traced pass and reports the
per-layer metrics.  CSVs and span files go to ``$CARGO_TARGET_DIR/perfbench``
(default ``.bench_build/perfbench``) inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("verify-small", "verify-wop", "backward-mid")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def bootstrap() -> None:
    """Pin BLAS to one thread in this process and the ones it starts, and put
    the checkout's sources first on the path.  Call before importing numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_result(correct, attempted, failed, metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in result["metrics"].items():
            metrics[f"{name}.{key}"] = (m["value"], m["unit"])
    _print_result(correct, attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "genchol" / "__init__.py").is_file():
        print(f"run.py: no genchol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or not 0 <= args.seed < 2**32:
        print("run.py: need --seconds > 0 and 0 <= --seed < 2**32", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    bootstrap()
    import bench  # after bootstrap: it imports numpy

    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    print(json.dumps({"environment": bench.environment(THREAD_VARS),
                      "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    outcome = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), out_dir)
    for note in outcome.notes:
        print(f"note: {note}")
    if not outcome.metrics:
        print("run.py: no trial completed; no metrics", file=sys.stderr)
        return 1
    _print_result(outcome.correct, outcome.attempted, outcome.failed, outcome.metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
