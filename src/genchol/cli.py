"""Command-line front end: factorize, bound evaluation, campaigns, sweeps.

`bounds` reports every normwise bound; bound 3.15 is evaluated whenever the
order is at most ``W_BOUND_MAX_ORDER`` and is null above it, where
`--dump-w` is a usage error; the W file is written only once the report is
built.  It also refactors K + dK and reports the true factor change dL; when
K + dK breaks down, dL is null and a note goes to stderr.  `sweep` refuses a
gamma that is not positive and finite or at which a quantity of its row
overflows (a usage error, before any output is written).

Exit codes are a fixed function of what happened:
  0  success (and, for campaigns, zero violations)
  1  I/O, parse, or usage problem
  2  factorization breakdown or invalid saddle structure (including a
     campaign trial with no valid draw within the retry cap)
  3  the primary applicability condition failed in `bounds`
  4  at least one bound violation in a campaign
  5  numerical kernel failure (Jacobi did not converge, a LAPACK routine
     failed, or the factor overflows)

Output files are written atomically (temp file plus rename).
"""

from __future__ import annotations

import argparse
import sys

from .densela import (
    ConvergenceError,
    as_symmetric,
    fro_norm,
    read_matrix,
    write_matrix,
    write_text_atomic,
)
from .factorization import (
    FactorizationError,
    SaddleValidationError,
    factorize,
    read_saddle,
)
from .bounds import (
    NormwiseEvaluator,
    W_BOUND_MAX_ORDER,
    EPS_CONVENTIONS,
    report_to_json,
)
from .harness import (
    FORMATS,
    SWEEP_KINDS,
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
from .oracle import actual_delta_l, build_w

DEFAULT_TRIALS = 100
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
    fmt = dict(choices=FORMATS, default="csv", help="output format")

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
        "--dump-w",
        default=None,
        metavar="PATH",
        help=(
            "also write the operator matrix in matrix text format "
            f"(order at most {W_BOUND_MAX_ORDER})"
        ),
    )

    def campaign_parser(name, help, m, cond_target=EnsembleConfig.cond_target):
        """A campaign command with the flags that verify and backward share."""
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--m", type=int, default=m, help="order of the leading block")
        p.add_argument("--n", type=int, default=3, help="order of the trailing block")
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="number of trials")
        p.add_argument("--seed", type=int, default=EnsembleConfig.seed, help="campaign seed")
        p.add_argument(
            "--cond-target", type=float, default=cond_target,
            help="condition-number cap for the blocks",
        )
        p.add_argument("--format", **fmt)
        p.add_argument("--out", default=f"{name}.csv", help="report path")
        return p

    p_verify = campaign_parser(
        "verify", "normwise bound-domination campaign over a random ensemble", 4
    )
    p_verify.add_argument(
        "--dk-levels",
        type=_float_list,
        default=EnsembleConfig.dk_levels,
        help="comma list of targets for ||L^-1||_2^2 ||dK||_F, each in (0, 0.5)",
    )

    p_backward = campaign_parser(
        "backward", "componentwise campaign: synthetic envelope plus backward-error check", 3, 1e3
    )
    p_backward.add_argument(
        "--eps", type=float, default=EnsembleConfig.eps_synth,
        help="synthetic componentwise envelope size, in [0, 0.5)",
    )
    p_backward.add_argument(
        "--eps-convention",
        choices=EPS_CONVENTIONS,
        default=EnsembleConfig.eps_convention,
        help="label for the records' eps_convention column; the envelope size is --eps",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="adversarial scaling sweeps over a list of gamma values",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_sweep.add_argument("--kind", choices=SWEEP_KINDS, required=True, help="sweep family")
    p_sweep.add_argument(
        "--gammas", type=_float_list, default=DEFAULT_GAMMAS, help="comma list of gamma values"
    )
    p_sweep.add_argument("--format", **fmt)
    p_sweep.add_argument("--out", default="sweep.csv", help="table path")

    return parser


def _cmd_factor(args) -> int:
    s = read_saddle(args.input)
    factor = factorize(s)
    write_matrix(factor.L, args.output)
    return 0


def _cmd_bounds(args) -> int:
    s = read_saddle(args.input)
    dk = as_symmetric(read_matrix(args.perturbation), s.p, "perturbation")  # before K is factored
    factor = factorize(s)
    if args.dump_w and s.p > W_BOUND_MAX_ORDER:
        raise _UsageError(f"--dump-w supports order at most {W_BOUND_MAX_ORDER}, got {s.p}")
    evaluator = NormwiseEvaluator(factor, s.K)
    try:
        actual_dl = actual_delta_l(factor, s.K, dk)
    except FactorizationError as exc:
        print(f"note: perturbed matrix did not factorize ({exc})", file=sys.stderr)
        actual_dl = None
    report = evaluator.report(fro_norm(dk), actual_dl=actual_dl)
    if args.dump_w:  # only once the report is built, so a failure leaves no W
        write_matrix(build_w(factor), args.dump_w)
    text = report_to_json(report) + "\n"
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if report.cond_3_1_ok else 3


def _run_campaign(args, run, **fields) -> tuple[list, int, int, float]:
    """Build the config from the shared campaign flags and ``fields``, run the
    campaign, write its report; returns the records and their summary."""
    cfg = EnsembleConfig(
        m=args.m, n=args.n, trials=args.trials, cond_target=args.cond_target, seed=args.seed,
        **fields,
    )
    records = run(cfg)
    emit_report(records, args.format, args.out)
    return (records, *summarize(records))


def _cmd_verify(args) -> int:
    _, count, violations, worst = _run_campaign(
        args, run_normwise_campaign, dk_levels=args.dk_levels
    )
    print(
        f"verify: records={count} violations={violations} worst_ratio={worst:.6g}",
        file=sys.stderr,
    )
    return 4 if violations else 0


def _cmd_backward(args) -> int:
    records, count, violations, worst = _run_campaign(
        args, run_componentwise_campaign, eps_convention=args.eps_convention, eps_synth=args.eps
    )
    skipped = sum(1 for r in records if r.skipped)
    print(
        f"backward: records={count} violations={violations} skipped={skipped} "
        f"worst_ratio={worst:.6g}",
        file=sys.stderr,
    )
    return 4 if violations else 0


def _cmd_sweep(args) -> int:
    rows = run_gamma_sweep(args.kind, args.gammas)
    emit_rows(rows, args.format, args.out)
    if args.kind == "remark33":
        if len({r["gamma"] for r in rows}) > 1:  # a slope needs two distinct gammas
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
    handlers = {
        "factor": _cmd_factor,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
        "backward": _cmd_backward,
        "sweep": _cmd_sweep,
    }
    # SaddleValidationError is a ValueError, so exit 2 is matched before exit 1
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (FactorizationError, SaddleValidationError, CampaignError) as exc:
        print(f"genchol: factorization failed: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"genchol: numerical kernel failure: {exc}", file=sys.stderr)
        return 5
    except (_UsageError, OSError, ValueError) as exc:
        print(f"genchol: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
