"""Output checks: stored-reference comparison and CLI replay fidelity.

Tolerances.  Bound and norm fields must agree with the reference within
``REL_TOL`` (relative).  The measured factor change (``actual_f``,
``actual_2``) is a difference of two computed factors, so its rounding noise
is absolute, about 1e-15 for these unit-norm ensembles; it gets the
campaign's own absolute slack ``ABS_FLOOR`` (``harness.VIOLATION_SLACK``) on
top, and ``worst_ratio = actual_f / bound`` inherits that slack relative to
``actual_f``.  Replacing the Jacobi kernels with LAPACK
(``np.linalg.svd``/``eigvalsh``) moves the bound fields by at most 8e-13
relative and the measured fields by at most 4.4e-15 absolute on the reference
trials of all three workloads, so both tolerances admit that swap with a wide
margin.

Flags and labels must match exactly, with two exceptions.  A label may differ
when its bound value agrees, because then the two candidates were tied within
the tolerance.  A record whose applicability test sits within tolerance of
its threshold (cond31: ||L^-1||_2^2 ||dK||_F against 1/2; cond42:
cond_bs_l * cond_bs_linvt * eps against 1/2) is reported as near-threshold
instead of compared.  A trial present in only one side is reported, not
failed.
"""

from __future__ import annotations

import contextlib
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from genchol import cli
from genchol.harness import VIOLATION_SLACK

REL_TOL = 1e-9
ABS_FLOOR = VIOLATION_SLACK
MEASURED = ("actual_f", "actual_2")
LABEL_VALUE = {"b33_label": "b33", "b317_label": "b317", "b43_label": "b43"}
TEXT_COLUMNS = frozenset(LABEL_VALUE) | {"eps_convention"}
# (product of fields, threshold) for each applicability test the CSV carries;
# a product of up to three compared fields gets three times their tolerance.
THRESHOLDS = {
    "cond31": (("linv2", "linv2", "dk_fro"), 0.5),
    "cond42": (("cond_bs_l", "cond_bs_linvt", "eps"), 0.5),
}


def _parse(column: str, cell: str):
    if cell == "":
        return None
    if cell in ("true", "false"):
        return cell == "true"
    if column in TEXT_COLUMNS:
        return cell
    return float(cell)


def parse_csv(text: str) -> tuple[list[str], dict[int, list[dict]]]:
    """Header and the rows of each trial, in file order, as typed dicts."""
    lines = text.splitlines()
    columns = lines[0].split(",")
    trials: dict[int, list[dict]] = {}
    for line in lines[1:]:
        row = {c: _parse(c, v) for c, v in zip(columns, line.split(","), strict=True)}
        trials.setdefault(int(row["trial"]), []).append(row)
    return columns, trials


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def _near_threshold(row: dict) -> bool:
    for name, (factors, threshold) in THRESHOLDS.items():
        if name not in row:
            continue
        value = 1.0
        for f in factors:
            value *= row[f]
        if _close(value, threshold, 3 * REL_TOL):
            return True
    return False


def _mismatches(ref: dict, run: dict) -> list[str]:
    bad = []
    for column, want in ref.items():
        got = run[column]
        if isinstance(want, float) and isinstance(got, float):
            if column in MEASURED:
                ok = _close(want, got, REL_TOL, ABS_FLOOR)
            elif column == "worst_ratio" and ref.get("actual_f"):
                ok = _close(want, got, REL_TOL + ABS_FLOOR / ref["actual_f"])
            else:
                ok = _close(want, got, REL_TOL)
        else:
            ok = want == got
        if not ok:
            bad.append(column)
    # a label flip whose bound value agrees is a tie between candidates
    return [c for c in bad if not (c in LABEL_VALUE and LABEL_VALUE[c] not in bad)]


@dataclass
class ReferenceReport:
    compared: int = 0
    ref_only: list[int] = field(default_factory=list)
    run_only: list[int] = field(default_factory=list)
    near_threshold: list[int] = field(default_factory=list)
    mismatched: dict[int, list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatched


def compare_to_reference(ref_text: str, run_text: str) -> ReferenceReport:
    ref_cols, ref = parse_csv(ref_text)
    run_cols, run = parse_csv(run_text)
    report = ReferenceReport()
    if ref_cols != run_cols:
        report.mismatched[-1] = ["header"]
        return report
    report.ref_only = sorted(set(ref) - set(run))
    report.run_only = sorted(set(run) - set(ref))
    for trial in sorted(set(ref) & set(run)):
        ref_rows, run_rows = ref[trial], run[trial]
        if len(ref_rows) != len(run_rows):
            report.mismatched[trial] = ["row count"]
            continue
        bad = sorted({c for a, b in zip(ref_rows, run_rows) for c in _mismatches(a, b)})
        if bad and any(_near_threshold(r) for r in ref_rows):
            report.near_threshold.append(trial)
        elif bad:
            report.mismatched[trial] = bad
        else:
            report.compared += 1
    return report


def run_cli(argv: list[str]) -> int:
    """``genchol.cli.main`` in-process; an escaping exception counts as exit 1."""
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        try:
            return cli.main(argv)
        except Exception:  # CampaignError is not mapped to an exit code
            return 1


def check_cli_replay(
    argv_for, prefix: int, failed_trials, bench_csv: str, records, out: Path
) -> list[str]:
    """Replay the first ``prefix`` trials through the CLI.

    Where a trial in the prefix failed, the CLI must exit non-zero; the trials
    before the first failure must give a CSV byte-identical to the first rows
    of the benchmark's own CSV.  ``argv_for(trials, path)`` builds the command.
    """
    problems = []
    failed = sorted(t for t in failed_trials if t < prefix)
    if failed:
        rc = run_cli(argv_for(prefix, out))
        if rc == 0:
            problems.append(f"CLI exited 0 over {prefix} trials although trial {failed[0]} failed")
    clean = failed[0] if failed else prefix
    if clean == 0:
        return problems
    rc = run_cli(argv_for(clean, out))
    if rc != 0:
        return problems + [f"CLI exited {rc} over the first {clean} trials"]
    cli_lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    bench_lines = bench_csv.splitlines(keepends=True)
    expected_rows = sum(1 for r in records if r.trial < clean)
    if len(cli_lines) != expected_rows + 1 or cli_lines != bench_lines[: len(cli_lines)]:
        problems.append(f"CLI CSV over the first {clean} trials differs from the benchmark CSV")
    return problems
