"""Command-line front end: factorize, bound evaluation, campaigns, sweeps.

Exit codes are a fixed function of what happened:
  0  success (and, for campaigns, zero violations)
  1  I/O, parse, or usage problem
  2  factorization breakdown or invalid saddle structure (including a
     campaign trial with no valid draw within the retry cap)
  3  the primary applicability condition failed in `bounds`
  4  at least one bound violation in a campaign
  5  numerical kernel failure (an iterative kernel did not converge)

Output files are written atomically (temp file plus rename).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .densela import (
    ConvergenceError,
    ParseError,
    ShapeError,
    fro_norm,
    format_matrix,
    read_matrix,
    write_text_atomic,
)
from .factorization import (
    FactorizationError,
    SaddleValidationError,
    assemble_k,
    factor_to_dense,
    factorize,
    factorize_dense,
    read_saddle,
)
from .bounds import (
    NormwiseEvaluator,
    W_BOUND_MAX_ORDER,
    EPS_CONVENTIONS,
    operator_inverse_norm,
    report_to_json,
)
from .harness import (
    CampaignError,
    EnsembleConfig,
    emit_report,
    emit_rows,
    loglog_slope,
    run_componentwise_campaign,
    run_gamma_sweep,
    run_normwise_campaign,
    summarize,
)
from .oracle import build_w

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 100
DEFAULT_DK_LEVELS = "1e-8,1e-4,0.1,0.4"
DEFAULT_GAMMAS = "10,100,1000"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes under our control
        raise _UsageError(message)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad numeric list {text!r}") from exc
    if not values:
        raise _UsageError("numeric list must be nonempty")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="genchol",
        description=(
            "Generalized Cholesky factorization of saddle-point matrices, "
            "perturbation-bound evaluation, and verification campaigns."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = dict(choices=("csv", "json"), default="csv", help="output format")

    p_factor = sub.add_parser(
        "factor",
        help="factorize a saddle matrix file and write the dense factor",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_factor.add_argument("input", help="saddle matrix file ('m n' header, then K rows)")
    p_factor.add_argument("output", help="path for the dense factor in matrix text format")

    p_bounds = sub.add_parser(
        "bounds",
        help="evaluate the normwise bound report for one matrix/perturbation pair",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_bounds.add_argument("input", help="saddle matrix file")
    p_bounds.add_argument("perturbation", help="symmetric perturbation in matrix text format")
    p_bounds.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_bounds.add_argument(
        "--with-actual",
        action="store_true",
        help="also factorize the perturbed matrix and report the true factor change",
    )
    p_bounds.add_argument(
        "--with-w-bound",
        action="store_true",
        help=f"include the operator-matrix bound (order at most {W_BOUND_MAX_ORDER})",
    )
    p_bounds.add_argument(
        "--dump-w",
        default=None,
        metavar="PATH",
        help="with --with-w-bound: also write the operator matrix in matrix text format",
    )

    p_verify = sub.add_parser(
        "verify",
        help="normwise bound-domination campaign over a random ensemble",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_verify.add_argument("--m", type=int, default=4, help="order of the leading block")
    p_verify.add_argument("--n", type=int, default=3, help="order of the trailing block")
    p_verify.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="number of trials")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED, help="campaign seed")
    p_verify.add_argument(
        "--dk-levels",
        default=DEFAULT_DK_LEVELS,
        help="comma list of targets for ||L^-1||_2^2 ||dK||_F, each in (0, 0.5)",
    )
    p_verify.add_argument(
        "--cond-target", type=float, default=1e4, help="condition-number cap for the blocks"
    )
    p_verify.add_argument("--format", **fmt)
    p_verify.add_argument("--out", default="verify.csv", help="report path")

    p_backward = sub.add_parser(
        "backward",
        help="componentwise campaign: synthetic envelope plus backward-error check",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_backward.add_argument("--m", type=int, default=3, help="order of the leading block")
    p_backward.add_argument("--n", type=int, default=3, help="order of the trailing block")
    p_backward.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="number of trials")
    p_backward.add_argument("--seed", type=int, default=DEFAULT_SEED, help="campaign seed")
    p_backward.add_argument(
        "--eps", type=float, default=1e-6, help="synthetic componentwise envelope size"
    )
    p_backward.add_argument(
        "--eps-convention",
        choices=EPS_CONVENTIONS,
        default="max-safe",
        help="which blockwise rounding constant defines the reported envelope",
    )
    p_backward.add_argument(
        "--cond-target", type=float, default=1e3, help="condition-number cap for the blocks"
    )
    p_backward.add_argument("--format", **fmt)
    p_backward.add_argument("--out", default="backward.csv", help="report path")

    p_sweep = sub.add_parser(
        "sweep",
        help="adversarial scaling sweeps over a list of gamma values",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_sweep.add_argument(
        "--kind", choices=("remark32", "remark33"), required=True, help="sweep family"
    )
    p_sweep.add_argument("--gammas", default=DEFAULT_GAMMAS, help="comma list of gamma values")
    p_sweep.add_argument(
        "--dk-fro", type=float, default=1e-8, help="perturbation norm used for the bounds"
    )
    p_sweep.add_argument("--format", **fmt)
    p_sweep.add_argument("--out", default="sweep.csv", help="table path")

    return parser


def _cmd_factor(args) -> int:
    s = read_saddle(args.input)
    factor = factorize(s)
    write_text_atomic(args.output, format_matrix(factor_to_dense(factor)))
    return 0


def _cmd_bounds(args) -> int:
    s = read_saddle(args.input)
    dk = read_matrix(args.perturbation)
    p = s.p
    if dk.shape != (p, p):
        raise ParseError(f"perturbation must be {p} x {p}, got {dk.shape}")
    if not np.array_equal(dk, dk.T):
        raise ParseError("perturbation is not exactly symmetric")
    factor = factorize(s)
    l_dense = factor_to_dense(factor)
    k = assemble_k(s)
    dk_fro = fro_norm(dk)
    w_norm = None
    if args.dump_w and not args.with_w_bound:
        raise _UsageError("--dump-w requires --with-w-bound")
    if args.with_w_bound:
        if p > W_BOUND_MAX_ORDER:
            raise _UsageError(
                f"--with-w-bound supports order at most {W_BOUND_MAX_ORDER}, got {p}"
            )
        w_norm = operator_inverse_norm(l_dense, factor.spec.signature())
        if args.dump_w:
            write_text_atomic(args.dump_w, format_matrix(build_w(factor).entries))
    evaluator = NormwiseEvaluator(l_dense, k, w_norm)
    actual_dl = None
    if args.with_actual:
        try:
            perturbed = factorize_dense(k + dk, s.spec.m, s.spec.n, "K+dK")
            actual_dl = factor_to_dense(perturbed) - l_dense
        except FactorizationError as exc:
            print(f"note: perturbed matrix did not factorize ({exc})", file=sys.stderr)
    report = evaluator.report(dk_fro, actual_dl=actual_dl)
    text = report_to_json(report) + "\n"
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if report.cond_3_1_ok else 3


def _cmd_verify(args) -> int:
    levels = _float_list(args.dk_levels)
    cfg = EnsembleConfig(
        m=args.m,
        n=args.n,
        trials=args.trials,
        cond_target=args.cond_target,
        dk_levels=tuple(levels),
        seed=args.seed,
    )
    records = run_normwise_campaign(cfg)
    emit_report(records, args.format, args.out)
    count, violations, worst = summarize(records)
    print(
        f"verify: records={count} violations={violations} worst_ratio={worst:.6g}",
        file=sys.stderr,
    )
    return 4 if violations else 0


def _cmd_backward(args) -> int:
    cfg = EnsembleConfig(
        m=args.m,
        n=args.n,
        trials=args.trials,
        cond_target=args.cond_target,
        seed=args.seed,
        eps_convention=args.eps_convention,
        eps_synth=args.eps,
    )
    records = run_componentwise_campaign(cfg)
    emit_report(records, args.format, args.out)
    count, violations, worst = summarize(records)
    skipped = sum(1 for r in records if r.skipped)
    print(
        f"backward: records={count} violations={violations} skipped={skipped} "
        f"worst_ratio={worst:.6g}",
        file=sys.stderr,
    )
    return 4 if violations else 0


def _cmd_sweep(args) -> int:
    gammas = _float_list(args.gammas)
    rows = run_gamma_sweep(args.kind, gammas, args.dk_fro)
    emit_rows(rows, args.format, args.out)
    if args.kind == "remark33" and len(rows) > 1:
        slope = loglog_slope([r["gamma"] for r in rows], [r["winv2"] for r in rows])
        print(f"sweep remark33: loglog slope of winv2 = {slope:.4f}", file=sys.stderr)
    else:
        ratios = [r["kappa_l"] / r["kappa_ld_analytic"] for r in rows]
        print(
            f"sweep remark32: kappa ratio range [{min(ratios):.4g}, {max(ratios):.4g}]",
            file=sys.stderr,
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"genchol: error: {exc}", file=sys.stderr)
        return 1
    handlers = {
        "factor": _cmd_factor,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
        "backward": _cmd_backward,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"genchol: error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as exc:
        print(f"genchol: error: {exc}", file=sys.stderr)
        return 1
    except (FactorizationError, SaddleValidationError, CampaignError) as exc:
        print(f"genchol: factorization failed: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"genchol: numerical kernel failure: {exc}", file=sys.stderr)
        return 5
    except (ShapeError, ValueError) as exc:
        print(f"genchol: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
