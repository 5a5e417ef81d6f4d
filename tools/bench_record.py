"""Record one point of the BENCH trajectory as ``BENCH_<pr>.json``.

    python tools/bench_record.py --pr N                # the working tree
    python tools/bench_record.py --pr N --rev REV      # a git revision
    python tools/bench_record.py --quick --pr 0 --out bench.json

Measures one source tree on this machine: the working tree, or the files of
REV exported with ``git archive`` (no worktree, so ``.git`` is not touched).
BLAS runs on one thread.  The JSON object holds:

- ``machine``: CPU count and model, platform, Python, numpy, thread settings;
- ``git``: HEAD, the revision measured, and whether the working tree's
  ``src``, ``tests``, ``tools`` or ``perfbench`` differ from HEAD (null
  outside a git checkout);
- ``tier1``: wall time and counts of the tier-1 suite;
- ``perfbench``: the last line of ``perfbench/run.py --workload all --seed 0
  --seconds 35``, run as it is, and its command;
- ``experiments``: the wall time of each command of the README's
  "Experiments" block, start-up included;
- ``layers``: the median ms of repeated in-process calls of each campaign
  layer on fixed draws: ``factorize``, the ``NormwiseEvaluator`` set-up,
  ``reports`` per level, ``build_w`` + ``w_inverse_norm``, the componentwise
  report and ``compensated_residual``;
- ``kernels``: the median ms of ``singular_values`` and of
  ``spectral_norm`` (one matrix and a stack of 7 each; in trees before the
  LAPACK ``spectral_norm``, it is the Jacobi's), ``sym_eigenvalues`` and
  ``lower_tri_solve`` at p = 7 and p = 28.

Each layer and kernel entry also holds ``ref_ms``, the median time of a fixed
numpy loop timed in turn with it: ``ms / ref_ms`` compares across a slow
spell of the host, which the raw ``ms`` does not.

Two files compare only when they come from the same machine.  ``--quick``
times the layers and kernels at tiny sizes with three calls each, and leaves
``tier1``, ``perfbench`` and ``experiments`` null: a schema check that runs in
about a second.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from byte_identity import export_src

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
LAYER_SHAPES = ((4, 3, 1e8), (6, 6, 1e3))  # (m, n, cond): the benchmark's verify-small, backward-mid
KERNEL_ORDERS = (7, 28)
STACK = 7  # members of the stacked SVD calls
SCHEMA = {
    "pr": int, "quick": bool, "machine": dict, "git": dict, "tier1": (dict, type(None)),
    "perfbench": (dict, type(None)), "experiments": (list, type(None)),
    "layers": list, "kernels": list,
}


def check(record: dict) -> None:
    """ValueError unless ``record`` has every field of ``SCHEMA`` and no other,
    each of its type, with a positive time in every layer and kernel entry."""
    if set(record) != set(SCHEMA):
        raise ValueError(f"fields {sorted(record)}, expected {sorted(SCHEMA)}")
    for key, kind in SCHEMA.items():
        if not isinstance(record[key], kind):
            raise ValueError(f"{key} is a {type(record[key]).__name__}")
    timed = [(e, ("ms", "ref_ms")) for e in record["layers"] + record["kernels"]]
    timed += [(e, ("wall_s",)) for e in record["experiments"] or []]
    for entry, keys in timed:
        values = [entry.get(key) for key in keys]
        if not isinstance(entry.get("name"), str) or not all(
                isinstance(v, float) and v > 0 for v in values):
            raise ValueError(f"bad timing entry {entry}")
    if not record["quick"] and None in (record["tier1"], record["perfbench"], record["experiments"]):
        raise ValueError("a full record needs tier1, perfbench and experiments")


def _reference() -> None:
    """A fixed loop of small numpy calls, the grain of the campaigns' work."""
    import numpy as np

    a = np.eye(8)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0) * 0.5


def _timed(fn, quick: bool) -> dict:
    """Median wall times in ms of ``fn()`` and of ``_reference()``, called in
    turn after one warm-up each: three times with ``quick``, else at least 9
    and until 1 s is spent (at most 2000).  The host's speed swings over
    seconds; ``ref_ms`` next to ``ms`` tells a slow spell from a slow layer."""
    fn()
    _reference()
    times: list[float] = []
    refs: list[float] = []
    least, deadline = (3, 0.0) if quick else (9, time.perf_counter() + 1.0)
    while len(times) < least or (time.perf_counter() < deadline and len(times) < 2000):
        for fun, out in ((fn, times), (_reference, refs)):
            t0 = time.perf_counter()
            fun()
            out.append(time.perf_counter() - t0)
    return {"ms": statistics.median(times) * 1e3, "ref_ms": statistics.median(refs) * 1e3}


def layers(quick: bool) -> list[dict]:
    import numpy as np

    from genchol import bounds, harness, oracle
    from genchol.densela import fro_norm
    from genchol.factorization import factorize

    out = []
    for m, n, cond in ((2, 1, 1e4),) if quick else LAYER_SHAPES:
        rng = np.random.default_rng(20261019)
        s = harness.make_saddle(m, n, cond, rng)[0]
        f = factorize(s)
        ev = bounds.NormwiseEvaluator(f, s.K)
        direction = harness.gen_sym_perturbation(s.p, 1.0, rng)
        levels = harness.EnsembleConfig(m=m, n=n, trials=1).dk_levels
        dks = [direction * (level / ev.linv2**2) for level in levels]
        dls = [oracle.actual_delta_l(f, s.K, dk) for dk in dks]
        dk_fros = [fro_norm(dk) for dk in dks]
        calls = {
            "factorize": lambda: factorize(s),
            "normwise_init": lambda: bounds.NormwiseEvaluator(f, s.K),
            "reports_per_level": lambda: ev.reports(dk_fros, dls),
            "build_w+w_inverse_norm": lambda: oracle.w_inverse_norm(oracle.build_w(f)),
            "componentwise_report": lambda: bounds.build_componentwise_report(
                f.L, 1e-6, actual_dl=dls[0]),
            "compensated_residual": lambda: oracle.compensated_residual(f, s),
        }
        for name, fn in calls.items():
            timed = _timed(fn, quick)
            timed["ms"] /= len(levels) if name == "reports_per_level" else 1
            out.append({"name": name, "m": m, "n": n, **timed})
    return out


def kernels(quick: bool) -> list[dict]:
    import numpy as np

    from genchol import densela

    out = []
    for p in (3,) if quick else KERNEL_ORDERS:
        rng = np.random.default_rng(p)
        x = rng.standard_normal((STACK, p, p))
        sym = x[0] + x[0].T
        l = np.tril(x[1]) + p * np.eye(p)
        calls = {
            "singular_values": lambda: densela.singular_values(x[0]),
            f"singular_values_stack{STACK}": lambda: densela.singular_values(x),
            "spectral_norm": lambda: densela.spectral_norm(x[0]),
            f"spectral_norm_stack{STACK}": lambda: densela.spectral_norm(x),
            "sym_eigenvalues": lambda: densela.sym_eigenvalues(sym),
            "lower_tri_solve": lambda: densela.lower_tri_solve(l, x[2]),
        }
        out += [{"name": name, "p": p, **_timed(fn, quick)} for name, fn in calls.items()]
    return out


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
                **{var: "1" for var in THREAD_VARS})


def tier1(tree: Path) -> dict:
    start = time.perf_counter()
    res = subprocess.run(TIER1, cwd=tree, env=_env(tree), capture_output=True, text=True)
    wall = time.perf_counter() - start
    tail = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0), "summary": tail}


def perfbench(tree: Path) -> dict:
    argv = ["python3", "perfbench/run.py", "--workload", "all", "--seed", "0", "--seconds", "35"]
    res = subprocess.run(argv, cwd=tree, env=_env(tree), capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{shlex.join(argv)} exited {res.returncode}: {res.stderr[-500:]}")
    return {"command": shlex.join(argv), "result": json.loads(lines[-1])}


def readme_experiments(tree: Path) -> list[str]:
    """The ``genchol`` commands of the README's "Experiments" block."""
    text = (tree / "README.md").read_text(encoding="utf-8")
    block = text.split("## Experiments", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("genchol ")]


def experiments(tree: Path) -> list[dict]:
    out = []
    with tempfile.TemporaryDirectory() as cwd:
        Path(cwd, "results").mkdir()
        for command in readme_experiments(tree):
            argv = [sys.executable, "-m", "genchol", *shlex.split(command)[1:]]
            start = time.perf_counter()
            res = subprocess.run(argv, cwd=cwd, env=_env(tree), capture_output=True)
            out.append({"name": command, "wall_s": time.perf_counter() - start,
                        "exit": res.returncode})
    return out


def _git(*args) -> str | None:
    """git's output on this checkout, or None outside a git checkout."""
    res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def machine() -> dict:
    import numpy as np

    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M).group(1)
    except (OSError, AttributeError):
        model = platform.processor() or "unknown"
    return {"nproc": os.cpu_count(), "cpu": model, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def record(tree: Path, args) -> dict:
    """Everything but ``git``; the in-process timings import ``tree``'s genchol,
    which is first on the path."""
    sys.path.insert(0, str(tree / "src"))
    full = not args.quick
    return {
        "pr": args.pr, "quick": args.quick, "machine": machine(),
        "tier1": tier1(tree) if full else None,
        "perfbench": perfbench(tree) if full else None,
        "experiments": experiments(tree) if full else None,
        "layers": layers(args.quick), "kernels": kernels(args.quick),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--rev", help="measure this git revision, not the working tree")
    parser.add_argument("--quick", action="store_true", help="tiny in-process timings only")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repo root")
    args = parser.parse_args(argv)
    head = _git("rev-parse", "HEAD")
    if args.rev:
        git = {"head": head, "measured": _git("rev-parse", args.rev), "dirty": False}
        with tempfile.TemporaryDirectory() as tmp:
            result = record(export_src(args.rev, Path(tmp), paths=()), args)
    else:
        status = _git("status", "--porcelain", "--", "src", "tests", "tools", "perfbench")
        git = {"head": head, "measured": "working tree",
               "dirty": None if status is None else bool(status)}
        result = record(ROOT, args)
    result = {**result, "git": git}
    check(result)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    raise SystemExit(main())
