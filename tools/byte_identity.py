"""Check that the ``genchol`` CLI gives the same bytes as at a git revision.

    python tools/byte_identity.py --parent REV

Exports ``src/`` at REV with ``git archive`` (no worktree, so ``.git`` is not
touched) and runs a fixed list of CLI commands twice: once on REV's
``src/`` and once on the working tree's, each run in a fresh temporary
directory that holds the same input files, with BLAS on one thread.  For
each command it compares the exit code, stdout, stderr (with the tree's
path replaced by ``<tree>``) and every file left in the directory, and
prints one line.  A change that means to alter some output names each such
command with ``--expect-diff "COMMAND"`` (as listed below, without the
leading ``genchol``).  The exit status is 1 if a command not named differs,
or if a named one does not: the list states exactly what moved.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a 4 + 3 saddle matrix [[A, B^T], [B, -C]]: A tridiagonal (4 on the diagonal,
# 1 off it), B of full row rank, C = diag(1, 0.5, 0)
_A = [[4.0 if i == j else 1.0 if abs(i - j) == 1 else 0.0 for j in range(4)] for i in range(4)]
_B = [[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.5], [0.25, 0.0, 1.0, 0.0]]
_C = [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]
_K = [a + [b[i] for b in _B] for i, a in enumerate(_A)]
_K += [b + [-c for c in crow] for b, crow in zip(_B, _C)]
_DK = [[1e-3 * ((i * j) % 3 - 1) for j in range(7)] for i in range(7)]
_DK_ASYM = [[float((i, j) == (0, 1)) for j in range(7)] for i in range(7)]  # not symmetric
# -10 on the diagonal of A: K + dK breaks down at its first pivot, 4 - 10
_DK_BREAK = [[-10.0 if i == j < 4 else 0.0 for j in range(7)] for i in range(7)]


def _rows(matrix) -> str:
    return "".join(" ".join(repr(v) for v in row) + "\n" for row in matrix)


INPUTS = {
    "k43.txt": "4 3\n" + _rows(_K),
    "dk43.txt": "7 7\n" + _rows(_DK),
    # valid, but L21 = 1e200 / 1e-150 overflows
    "k_overflow.txt": "1 1\n1e-300 1e200\n1e200 0\n",
    "dk2.txt": "2 2\n0 0\n0 0\n",
    "dk_asym43.txt": "7 7\n" + _rows(_DK_ASYM),
    # L = [[1e-155]]: ||L^-1||_2^2 overflows, but its product with ||dK||_F is 1e-10
    "k_tiny.txt": "1 0\n1e-310\n",
    "dk_tiny.txt": "1 1\n1e-320\n",
    "dk_break43.txt": "7 7\n" + _rows(_DK_BREAK),
    # symmetric, but A = [[-1]] is not positive definite
    "k_indef.txt": "2 1\n-1 0 1\n0 1 0\n1 0 0\n",
}

COMMANDS = [
    "verify --out verify.csv",
    "verify --format json --out verify.json",
    "verify --m 4 --n 3 --cond-target 1e8 --out verify.csv",
    "verify --m 6 --n 6 --out verify.csv",
    "verify --cond-target 1e20 --trials 20 --out verify.csv",
    "verify --trials 1000 --seed 20250810 --out normwise.csv",
    "verify --m 5 --n 0 --format json --out verify.json",  # no Schur block
    # p = 24, the largest order whose W^-1 is built for bound 3.15
    "verify --m 12 --n 12 --trials 5 --format json --out verify.json",
    # a stack of eight levels per trial
    "verify --dk-levels 1e-12,1e-8,1e-6,1e-4,1e-2,0.1,0.3,0.49 --trials 50 --out verify.csv",
    "backward --out backward.csv",
    "backward --format json --out backward.json",
    "backward --m 6 --n 6 --out backward.csv",
    "backward --eps 0.3 --out backward.csv",
    "backward --eps-convention min-paper --out backward.csv",
    "backward --trials 200 --seed 20250810 --out componentwise.csv",
    # every bound is 0, and a refactored dL can still be above it
    "backward --eps 0 --trials 200 --format json --out backward.json",
    # every bound is tiny, and a measured dL far above it still passes
    "backward --eps 1e-300 --trials 3 --format json --out backward.json",
    "sweep --kind remark32 --gammas 0.01,0.001,0.0001 --out sweep_column_scaling.csv",
    "sweep --kind remark33 --gammas 10,100,1000 --out sweep_operator_conditioning.csv",
    "factor k43.txt l43.txt",
    "bounds k43.txt dk43.txt",
    "bounds k43.txt dk43.txt --dump-w w43.txt --out bounds.json",
    "factor k_overflow.txt l_overflow.txt",
    "bounds k_overflow.txt dk2.txt",
    "bounds k_tiny.txt dk_tiny.txt",
    # refused inputs: dK of the wrong shape, not symmetric, or checked before
    # an overflowing K is factored; a sweep row that overflows
    "bounds k43.txt dk2.txt",
    "bounds k43.txt dk_asym43.txt",
    "bounds k_overflow.txt dk43.txt",
    "sweep --kind remark33 --gammas 1e200,1 --out sweep.csv",
    # breakdowns: A checked on read, and K + dK factored for the measured dL
    "factor k_indef.txt l_indef.txt",
    "bounds k43.txt dk_break43.txt",
    # a level stack two of whose members break down, in trial 28 (exit 2):
    # the error is the first member's, made member by member
    "verify --cond-target 1e20 --dk-levels 0.1,0.49,0.499999 --trials 30 --out verify.csv",
]


def export_src(rev: str, dest: Path, paths=("src",)) -> Path:
    """``src/`` (or the given paths, all files if none) as of ``rev``,
    unpacked under ``dest``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, *paths],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run(tree: Path, command: str) -> tuple:
    """(exit code, stdout, stderr, {file: bytes}) of one run in a fresh directory."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in INPUTS.items():
            Path(cwd, name).write_text(text, encoding="ascii")
        res = subprocess.run(
            [sys.executable, "-m", "genchol", *command.split()],
            cwd=cwd, env=env, capture_output=True,
        )
        files = {p.name: p.read_bytes() for p in sorted(Path(cwd).iterdir())}
    tag = str(tree).encode()
    return (res.returncode, res.stdout.replace(tag, b"<tree>"),
            res.stderr.replace(tag, b"<tree>"), files)


def differences(old: tuple, new: tuple) -> list[str]:
    (code0, out0, err0, files0), (code1, out1, err1, files1) = old, new
    diffs = [f"exit {code0} -> {code1}"] if code0 != code1 else []
    diffs += ["stdout"] if out0 != out1 else []
    diffs += ["stderr"] if err0 != err1 else []
    diffs += [f"file {name}" for name in sorted(files0.keys() | files1.keys())
              if files0.get(name) != files1.get(name)]
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="git revision whose output the working tree must match")
    parser.add_argument("--expect-diff", action="append", default=[], metavar="COMMAND",
                        help="a command whose output is meant to differ (repeatable)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.expect_diff) - set(COMMANDS))
    if unknown:
        parser.error(f"--expect-diff names no listed command: {unknown}")
    same = failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        parent = export_src(args.parent, Path(tmp))
        for command in COMMANDS:
            diffs = differences(run(parent, command), run(ROOT, command))
            expected = command in args.expect_diff
            same += not diffs
            failed += bool(diffs) != expected
            verdict = ("diff" if expected else "DIFF") if diffs else ("SAME" if expected else "same")
            note = f"  ({', '.join(diffs)})" if diffs else "  (expected to differ)" if expected else ""
            print(f"{verdict}  genchol {command}{note}")
    print(f"{same} of {len(COMMANDS)} commands identical to {args.parent}"
          + (f"; {len(args.expect_diff)} expected to differ" if args.expect_diff else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
