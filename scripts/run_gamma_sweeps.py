#!/usr/bin/env python3
"""Run both adversarial scaling sweeps and print the headline quantities.

Family one (bad column scaling, L = [[1/g, 0], [1, 1]]): the column-rescaled
condition number stays O(1) while the plain one grows like 1/g, so the
scaling-optimized bound beats the fixed-scaling one by the same factor.

Family two (large coupling, L = [[1, 0], [g, 1]]): the operator-matrix
condition grows like g^2 against g for the triangular factor itself, so the
operator-matrix bound's applicability window shrinks much faster.
"""

import argparse
import pathlib
import sys

from genchol.harness import emit_rows, loglog_slope, run_gamma_sweep


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.ArgumentDefaultsHelpFormatter
    )
    parser.add_argument("--dk-fro", type=float, default=1e-8)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows32 = run_gamma_sweep("remark32", [1e-2, 1e-3, 1e-4], args.dk_fro)
    emit_rows(rows32, "csv", out / "sweep_column_scaling.csv")
    for row in rows32:
        print(
            f"g={row['gamma']:.0e}: kappa(L)={row['kappa_l']:.4g} "
            f"kappa(L D^-1)={row['kappa_ld_analytic']:.4g} "
            f"b33={row['b33']:.4g} ({row['b33_label']}) b313={row['b313']:.4g}"
        )

    gammas = [10.0, 100.0, 1000.0]
    rows33 = run_gamma_sweep("remark33", gammas, args.dk_fro)
    emit_rows(rows33, "csv", out / "sweep_operator_conditioning.csv")
    slope = loglog_slope(gammas, [r["winv2"] for r in rows33])
    print(f"operator-inverse norm grows with slope {slope:.3f} in gamma")
    for row in rows33:
        print(
            f"g={row['gamma']:.0e}: thresholds {row['thresh_3_16']:.3e} "
            f"(operator) vs {row['thresh_3_1']:.3e} (basic)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
