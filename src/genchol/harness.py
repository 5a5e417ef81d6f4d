"""Random ensembles, bound-verification campaigns, and report emission.

Campaigns are deterministic: each trial draws from its own generator seeded
with ``seed XOR trial`` so trials are order-independent, and all file output
is written with fixed field order and 17-significant-digit floats, making
repeated runs byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densela import (
    fro_norm,
    format_float,
    format_json_scalar,
    gamma_k,
    matmul,
    singular_values,
    spectral_norm,
    write_text_atomic,
)
from .factorization import (
    FactorizationError,
    GenCholFactor,
    SaddleMatrix,
    SaddleValidationError,
    assemble_k,
    factor_to_dense,
    factorize,
    factorize_dense,
    reconstruct,
)
from .bounds import (
    ComponentwiseBoundReport,
    NormwiseBoundReport,
    NormwiseEvaluator,
    W_BOUND_MAX_ORDER,
    EPS_CONVENTIONS,
    build_componentwise_report,
    eps_componentwise,
    operator_inverse_norm,
)
from .oracle import compensated_residual

__all__ = [
    "EnsembleConfig",
    "NormwiseTrialRecord",
    "ComponentwiseTrialRecord",
    "CampaignError",
    "VIOLATION_SLACK",
    "NORMWISE_CSV_COLUMNS",
    "COMPONENTWISE_CSV_COLUMNS",
    "gen_spd",
    "gen_psd",
    "gen_fullrank",
    "gen_sym_perturbation",
    "make_saddle",
    "run_normwise_campaign",
    "run_componentwise_campaign",
    "run_gamma_sweep",
    "emit_report",
    "emit_rows",
    "summarize",
    "loglog_slope",
]

VIOLATION_SLACK = 1e-12  # absolute slack on every domination comparison
_RETRY_CAP = 100

NORMWISE_CSV_COLUMNS = (
    "trial", "m", "n", "seed", "dk_fro", "linv2", "cond31", "b33", "b33_label",
    "b34", "b311", "cond312", "b312", "b313", "b314", "cond316", "b315",
    "cond318", "b317", "b317_label", "actual_f", "actual_2", "worst_ratio",
    "violation",
)

COMPONENTWISE_CSV_COLUMNS = (
    "trial", "m", "n", "seed", "eps", "eps_convention", "cond42", "b43",
    "b43_label", "b44", "b49", "cond_bs_l", "cond_bs_linvt", "actual_f",
    "actual_2", "env_lt_fro", "env_tl_fro", "bw_env_ok", "worst_ratio",
    "violation", "skipped",
)


class CampaignError(RuntimeError):
    """A trial kept failing to generate after the retry cap."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one verification campaign.

    ``cond_target`` caps the log-uniform draws of the condition targets for
    the leading block and the Schur block.  ``dk_levels`` are the targeted
    values of ||L^-1||_2^2 ||dK||_F, each strictly inside (0, 1/2).
    ``eps_synth`` is the envelope size of the synthetic componentwise
    protocol.
    """

    m: int
    n: int
    trials: int
    cond_target: float = 1e4
    dk_levels: tuple[float, ...] = (1e-8, 1e-4, 0.1, 0.4)
    seed: int = 1729
    eps_convention: str = "max-safe"
    eps_synth: float = 1e-6

    def __post_init__(self):
        if self.m < 1 or self.n < 0:
            raise ValueError("need m >= 1 and n >= 0")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.cond_target < 1.0:
            raise ValueError("cond_target must be >= 1")
        object.__setattr__(self, "dk_levels", tuple(float(v) for v in self.dk_levels))
        for v in self.dk_levels:
            if not 0.0 < v < 0.5:
                raise ValueError(f"dk_level {v} outside (0, 0.5)")
        if self.eps_convention not in EPS_CONVENTIONS:
            raise ValueError(f"unknown eps convention {self.eps_convention!r}")
        if not self.eps_synth >= 0.0:
            raise ValueError("eps_synth must be nonnegative")

    @property
    def p(self) -> int:
        return self.m + self.n


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    derived = (int(seed) ^ int(trial)) & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(derived)


# --- generators ---------------------------------------------------------------


def gen_spd(order: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric positive definite with spectrum log-spaced from 1 to 1/cond."""
    if cond < 1.0:
        raise ValueError("cond must be >= 1")
    if order < 1:
        raise ValueError("order must be positive")
    if order == 1:
        return np.array([[1.0]])
    q, _ = np.linalg.qr(rng.standard_normal((order, order)))
    sig = 10.0 ** np.linspace(0.0, -math.log10(cond), order) if cond > 1.0 else np.ones(order)
    raw = matmul(q * sig, q.T)
    return np.tril(raw) + np.tril(raw, -1).T  # exact symmetry


def gen_psd(order: int, rank_deficiency: int, rng: np.random.Generator) -> np.ndarray:
    """PSD Gram matrix with exactly ``rank_deficiency`` zero eigenvalues.

    ``rank_deficiency == order`` yields the zero matrix.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not 0 <= rank_deficiency <= order:
        raise ValueError("rank deficiency out of range")
    rows = order - rank_deficiency
    g = rng.standard_normal((rows, order))
    return matmul(g.T, g)


def gen_fullrank(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Dense n x m Gaussian draw, n <= m; full row rank almost surely."""
    if n > m:
        raise ValueError("need n <= m for full row rank")
    return rng.standard_normal((n, m))


def gen_sym_perturbation(p: int, target_fro: float, rng: np.random.Generator) -> np.ndarray:
    """Exactly symmetric Gaussian direction rescaled to the target norm."""
    if target_fro <= 0.0:
        raise ValueError("target norm must be positive")
    g = rng.standard_normal((p, p))
    e = (g + g.T) / 2.0
    nf = fro_norm(e)
    if nf == 0.0:  # probability-zero draw; retry deterministically
        return gen_sym_perturbation(p, target_fro, rng)
    return e * (target_fro / nf)


def make_saddle(
    m: int, n: int, cond_target: float, rng: np.random.Generator
) -> tuple[SaddleMatrix, float, float]:
    """Random saddle matrix with targeted conditioning of A and the Schur block.

    Both blocks get unit spectral norm with a log-uniform condition number up
    to the cap; the coupling block is scaled so C stays definitely PSD, which
    keeps the factor norm comparable to the matrix norm.  Returns the matrix
    plus the two condition targets.
    """
    if n > m:
        raise ValueError("full row rank of the coupling block needs n <= m")
    log_cap = math.log10(cond_target)
    kappa_a = 10.0 ** rng.uniform(0.0, log_cap) if log_cap > 0 else 1.0
    kappa_s = 10.0 ** rng.uniform(0.0, log_cap) if log_cap > 0 else 1.0
    a = gen_spd(m, kappa_a, rng)
    if n == 0:
        s = SaddleMatrix.from_blocks(a, np.zeros((0, m)), np.zeros((0, 0)))
        return s, kappa_a, kappa_s
    schur_target = gen_spd(n, kappa_s, rng)
    lam_min = 1.0 / kappa_s if n > 1 else 1.0  # spectrum is known by construction
    l21_raw = gen_fullrank(n, m, rng)
    smax = spectral_norm(l21_raw)
    zeta = rng.uniform(0.1, 0.9)
    l21 = l21_raw * (math.sqrt(zeta * lam_min) / smax)
    gram = matmul(l21, l21.T)
    c = schur_target - gram
    l11 = np.linalg.cholesky(a)
    b = matmul(l21, l11.T)
    s = SaddleMatrix.from_blocks(a, b, c)
    return s, kappa_a, kappa_s


# --- trial records --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NormwiseTrialRecord:
    trial: int
    m: int
    n: int
    seed: int
    dk_level: float
    kappa_a: float
    kappa_s: float
    report: NormwiseBoundReport
    worst_ratio: float
    violation: bool
    diag_3_8_ok: bool
    cond318_strength_ok: bool

    CSV_COLUMNS = NORMWISE_CSV_COLUMNS

    @property
    def tightness(self) -> dict[str, float | None]:
        """bound/actual for each rigorous bound (see ``_domination``)."""
        r = self.report
        return _domination(r.actual_dl_fro, r.rigorous_bounds())[2]

    def csv_values(self) -> tuple:
        """The values of ``CSV_COLUMNS``, in order."""
        r = self.report
        return (
            self.trial, self.m, self.n, self.seed, r.dk_fro, r.linv_2,
            r.cond_3_1_ok, r.b_3_3, r.b_3_3_label, r.b_3_4, r.b_3_11_coeff,
            r.cond_3_12_ok, r.b_3_12, r.b_3_13, r.b_3_14, r.cond_3_16_ok,
            r.b_3_15, r.cond_3_18_ok, r.b_3_17, r.b_3_17_label,
            r.actual_dl_fro, r.actual_dl_2, self.worst_ratio, self.violation,
        )

    def json_items(self) -> list[tuple[str, object]]:
        """The CSV columns and values, then the JSON-only fields."""
        r = self.report
        items = list(zip(self.CSV_COLUMNS, self.csv_values()))
        items += [
            ("dk_level", self.dk_level),
            ("kappa_a", self.kappa_a),
            ("kappa_s", self.kappa_s),
            ("b317_excluded", r.b_3_17_excluded),
            ("near_boundary", r.near_boundary),
            ("diag_3_8_ok", self.diag_3_8_ok),
            ("cond318_strength_ok", self.cond318_strength_ok),
        ]
        items += [(f"ratio_{name}", value) for name, value in self.tightness.items()]
        return items


@dataclass(frozen=True, slots=True)
class ComponentwiseTrialRecord:
    trial: int
    m: int
    n: int
    seed: int
    report: ComponentwiseBoundReport
    env_lt_fro: float
    env_tl_fro: float
    bw_env_ok: bool
    worst_ratio: float
    violation: bool
    skipped: bool
    eps_gamma_min_paper: float
    eps_gamma_max_safe: float
    breakdown: bool = False

    CSV_COLUMNS = COMPONENTWISE_CSV_COLUMNS

    @property
    def tightness(self) -> dict[str, float | None]:
        """bound/actual for each rigorous bound; empty when the record was
        skipped or has no measured dL."""
        r = self.report
        if self.skipped or r.actual_dl_fro is None:
            return {}
        return _domination(r.actual_dl_fro, r.rigorous_bounds())[2]

    def csv_values(self) -> tuple:
        """The values of ``CSV_COLUMNS``, in order."""
        r = self.report
        return (
            self.trial, self.m, self.n, self.seed, r.eps, r.eps_convention,
            r.cond_4_2_ok, r.b_4_3, r.b_4_3_label, r.b_4_4, r.b_4_9_coeff,
            r.cond_bs_L, r.cond_bs_LinvT, r.actual_dl_fro, r.actual_dl_2,
            self.env_lt_fro, self.env_tl_fro, self.bw_env_ok,
            self.worst_ratio, self.violation, self.skipped,
        )

    def json_items(self) -> list[tuple[str, object]]:
        """The CSV columns and values, then the JSON-only fields."""
        r = self.report
        items = list(zip(self.CSV_COLUMNS, self.csv_values()))
        items += [
            ("near_boundary", r.near_boundary),
            ("breakdown", self.breakdown),
            ("eps_gamma_min_paper", self.eps_gamma_min_paper),
            ("eps_gamma_max_safe", self.eps_gamma_max_safe),
        ]
        items += [(f"ratio_{name}", value) for name, value in self.tightness.items()]
        return items


def _domination(
    actual_f: float, bounds_by_name: dict[str, float]
) -> tuple[float, bool, dict[str, float | None]]:
    """Worst actual/bound ratio, violation flag, and per-bound tightness.

    Tightness is bound/actual (at least 1 for a valid bound); None when the
    true perturbation is zero.
    """
    worst = 0.0
    violated = False
    tightness: dict[str, float | None] = {}
    for name, value in bounds_by_name.items():
        if actual_f > value + VIOLATION_SLACK:
            violated = True
        if value > 0.0:
            worst = max(worst, actual_f / value)
        elif actual_f > VIOLATION_SLACK:
            violated = True
        tightness[name] = (value / actual_f) if actual_f > 0.0 else None
    return worst, violated, tightness


# --- campaigns -------------------------------------------------------------------


def run_normwise_campaign(cfg: EnsembleConfig) -> list[NormwiseTrialRecord]:
    """One record per (trial, dk level); deterministic for a fixed config."""
    records: list[NormwiseTrialRecord] = []
    sqrt2 = math.sqrt(2.0)
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        for _attempt in range(_RETRY_CAP):
            try:
                s, kappa_a, kappa_s = make_saddle(cfg.m, cfg.n, cfg.cond_target, rng)
                factor = factorize(s)
                l_dense = factor_to_dense(factor)
                k = assemble_k(s)
                w_norm = None
                if cfg.p <= W_BOUND_MAX_ORDER:
                    w_norm = operator_inverse_norm(l_dense, factor.spec.signature())
                ev = NormwiseEvaluator(l_dense, k, w_norm)
                direction = gen_sym_perturbation(cfg.p, 1.0, rng)
                trial_records = []
                for level in cfg.dk_levels:
                    dk = direction * (level / (ev.linv2 * ev.linv2))
                    dk_fro = fro_norm(dk)
                    perturbed = factorize_dense(k + dk, cfg.m, cfg.n, "K+dK")
                    dl = factor_to_dense(perturbed) - l_dense
                    report = ev.report(dk_fro, actual_dl=dl)
                    worst, violated, _ = _domination(
                        report.actual_dl_fro, report.rigorous_bounds()
                    )
                    x = ev.linv2 * ev.linv2 * dk_fro
                    lhs38 = fro_norm(matmul(ev.linv, dl))
                    rhs38 = (1.0 - math.sqrt(max(1.0 - 2.0 * x, 0.0))) / sqrt2
                    trial_records.append(NormwiseTrialRecord(
                        trial=trial,
                        m=cfg.m,
                        n=cfg.n,
                        seed=cfg.seed,
                        dk_level=level,
                        kappa_a=kappa_a,
                        kappa_s=kappa_s,
                        report=report,
                        worst_ratio=worst,
                        violation=violated,
                        diag_3_8_ok=lhs38 <= rhs38 + VIOLATION_SLACK,
                        cond318_strength_ok=ev.condition_318_strength_ok(dk_fro),
                    ))
                records.extend(trial_records)
                break
            except (FactorizationError, SaddleValidationError):
                continue
        else:
            raise CampaignError(f"trial {trial}: no valid draw in {_RETRY_CAP} attempts")
    return records


def run_componentwise_campaign(cfg: EnsembleConfig) -> list[ComponentwiseTrialRecord]:
    """Synthetic-envelope protocol and floating-point backward-error check.

    A factor L~ is produced by factorizing a random saddle matrix; dK is
    sampled inside eps |L~||L~^T|; the matrix L~ J L~^T - dK is refactored and
    the recovered factor compared against the componentwise bounds.  eps = 0
    degenerates to dK = 0.
    """
    records: list[ComponentwiseTrialRecord] = []
    gamma_cap = gamma_k(3 * max(cfg.m, cfg.n) + 1)
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        for _attempt in range(_RETRY_CAP):
            try:
                s, _, _ = make_saddle(cfg.m, cfg.n, cfg.cond_target, rng)
                lt = factorize(s)
                break
            except (FactorizationError, SaddleValidationError):
                continue
        else:
            raise CampaignError(f"trial {trial}: no valid draw in {_RETRY_CAP} attempts")
        lt_dense = factor_to_dense(lt)
        abs_lt = np.abs(lt_dense)
        env_lt = matmul(abs_lt, abs_lt.T)
        env_tl = matmul(abs_lt.T, abs_lt)
        env_lt_fro = fro_norm(env_lt)
        env_tl_fro = fro_norm(env_tl)

        # floating-point backward error of the factorization itself
        resid = compensated_residual(lt, s)
        env_gamma = 10.0 * gamma_cap * env_lt
        mask = env_gamma > 0.0
        bw_ok = bool(np.all(np.abs(resid)[mask] <= env_gamma[mask])) and bool(
            np.all(np.abs(resid)[~mask] == 0.0)
        )

        # synthetic perturbation inside the componentwise envelope
        eps = cfg.eps_synth
        draw = rng.uniform(-1.0, 1.0, (cfg.p, cfg.p))
        low = np.tril(draw)
        sym_draw = low + np.tril(draw, -1).T
        dk = sym_draw * (eps * env_lt)
        k_new = reconstruct(lt) - dk

        breakdown = False
        actual_dl = None
        try:
            recovered = factorize_dense(k_new, cfg.m, cfg.n, "K")
            actual_dl = lt_dense - factor_to_dense(recovered)
        except FactorizationError:
            breakdown = True

        report = build_componentwise_report(
            lt_dense, eps, cfg.eps_convention, actual_dl=actual_dl
        )
        skipped = (not report.cond_4_2_ok) or breakdown
        if skipped or actual_dl is None:
            worst, violated = 0.0, False
        else:
            worst, violated, _ = _domination(
                report.actual_dl_fro, report.rigorous_bounds()
            )
        if not bw_ok:
            violated = True
        records.append(ComponentwiseTrialRecord(
            trial=trial,
            m=cfg.m,
            n=cfg.n,
            seed=cfg.seed,
            report=report,
            env_lt_fro=env_lt_fro,
            env_tl_fro=env_tl_fro,
            bw_env_ok=bw_ok,
            worst_ratio=worst,
            violation=violated,
            skipped=skipped,
            eps_gamma_min_paper=eps_componentwise(cfg.m, cfg.n, convention="min-paper"),
            eps_gamma_max_safe=eps_componentwise(cfg.m, cfg.n, convention="max-safe"),
            breakdown=breakdown,
        ))
    return records


# --- adversarial gamma sweeps -------------------------------------------------


def _sweep_factor(kind: str, gamma: float) -> GenCholFactor:
    if kind == "remark32":
        return GenCholFactor.from_blocks([[1.0 / gamma]], [[1.0]], [[1.0]])
    return GenCholFactor.from_blocks([[1.0]], [[gamma]], [[1.0]])


def run_gamma_sweep(kind: str, gammas, dk_fro: float = 1e-8) -> list[dict]:
    """Tables for the two adversarial scaling families.

    "remark32" uses L = [[1/g, 0], [1, 1]] (bad column scaling: the scaled
    condition number collapses under D = diag(1/g, 1)).  "remark33" uses
    L = [[1, 0], [g, 1]] and tracks how much faster the operator-matrix
    condition grows compared to ||L^-1||_2^2.
    """
    if kind not in ("remark32", "remark33"):
        raise ValueError(f"unknown sweep kind {kind!r}")
    rows = []
    for gamma in gammas:
        gamma = float(gamma)
        if gamma <= 0.0:
            raise ValueError("gamma values must be positive")
        factor = _sweep_factor(kind, gamma)
        l_dense = factor_to_dense(factor)
        k = reconstruct(factor)
        w_norm = operator_inverse_norm(l_dense, factor.spec.signature())
        ev = NormwiseEvaluator(l_dense, k, w_norm)
        report = ev.report(dk_fro)
        if kind == "remark32":
            d_analytic = np.array([1.0 / gamma, 1.0])
            sd = singular_values(np.asarray(l_dense) * (1.0 / d_analytic)[None, :])
            rows.append({
                "gamma": gamma,
                "dk_fro": dk_fro,
                "kappa_l": ev.kappa_l,
                "kappa_ld_analytic": float(sd[0] / sd[-1]),
                "b33": report.b_3_3,
                "b33_label": report.b_3_3_label,
                "b313": report.b_3_13,
            })
        else:
            rows.append({
                "gamma": gamma,
                "dk_fro": dk_fro,
                "linv2_sq": ev.linv2 * ev.linv2,
                "winv2": w_norm,
                "winv2_sq": w_norm * w_norm,
                "thresh_3_1": 0.5 / (ev.linv2 * ev.linv2),
                "thresh_3_16": 0.25 / (w_norm * w_norm),
                "b315": report.b_3_15,
                "b34": report.b_3_4,
            })
    return rows


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log10(y) against log10(x)."""
    lx = np.log10(np.asarray(xs, dtype=np.float64))
    ly = np.log10(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


# --- emission -------------------------------------------------------------------


def _check_emittable(fmt: str, rows, what: str) -> None:
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if not rows:
        raise ValueError(f"nothing to emit: no {what}")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def _write_csv(path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _write_json(path, objects) -> None:
    """A JSON array of flat objects, each given as (key, value) pairs."""
    objs = [
        "{" + ", ".join(f'"{k}": {format_json_scalar(v)}' for k, v in items) + "}"
        for items in objects
    ]
    write_text_atomic(path, "[\n" + ",\n".join(objs) + "\n]\n")


def emit_rows(rows, fmt: str, path) -> None:
    """Write a table of dict rows atomically; the first row's keys, in order,
    are the columns."""
    _check_emittable(fmt, rows, "rows")
    columns = tuple(rows[0])
    values = [tuple(row[c] for c in columns) for row in rows]
    if fmt == "csv":
        _write_csv(path, columns, values)
    else:
        _write_json(path, [zip(columns, v) for v in values])


def emit_report(records, fmt: str, path) -> None:
    """Serialize trial records (CSV with the fixed schema, or JSON array).

    Records are ordered by trial index (stable), so concurrent producers can
    hand results over in any order and still get byte-identical files.
    """
    _check_emittable(fmt, records, "records")
    records = sorted(records, key=lambda r: r.trial)
    if fmt == "csv":
        _write_csv(path, records[0].CSV_COLUMNS, [r.csv_values() for r in records])
    else:
        _write_json(path, [r.json_items() for r in records])


def summarize(records) -> tuple[int, int, float]:
    """(record count, violation count, worst actual/bound ratio)."""
    violations = sum(1 for r in records if r.violation)
    worst = max((r.worst_ratio for r in records), default=0.0)
    return len(records), violations, worst
