"""Random ensembles, bound-verification campaigns, and report emission.

Campaigns are deterministic: each trial draws from its own generator seeded
with ``seed XOR trial`` so trials are order-independent, and all file output
is written with fixed field order and 17-significant-digit floats, making
repeated runs byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densela import (
    fro_norm,
    format_json_object,
    format_json_scalar,
    matmul,
    spectral_norm,
    upper_mask,
    write_text_atomic,
)
from .factorization import (
    FactorizationError,
    GenCholFactor,
    SaddleMatrix,
    SaddleValidationError,
    factorize,
    reconstruct,
)
from .bounds import (
    ComponentwiseBoundReport,
    NormwiseBoundReport,
    NormwiseEvaluator,
    EPS_CONVENTIONS,
    VIOLATION_SLACK,
    build_componentwise_report,
    eps_componentwise,
)
from .oracle import actual_delta_l, compensated_residual

_RETRY_CAP = 100
SWEEP_DK_FRO = 1e-8  # the ||dK||_F of every sweep row
SWEEP_KINDS = ("remark32", "remark33")
FORMATS = ("csv", "json")  # of reports and tables


class CampaignError(RuntimeError):
    """A trial kept failing to generate after the retry cap."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one verification campaign.

    ``cond_target`` caps the log-uniform draws of the condition targets for
    the leading block and the Schur block.  ``dk_levels`` are the targeted
    values of ||L^-1||_2^2 ||dK||_F, each strictly inside (0, 1/2).
    ``eps_synth`` is the envelope size of the synthetic componentwise
    protocol, in [0, 1/2): at 1/2 and above condition 4.2 fails for every
    factor, since cond_bs_L^2 >= p.
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
        if not 1.0 <= self.cond_target < math.inf:
            raise ValueError("cond_target must be finite and >= 1")
        object.__setattr__(self, "dk_levels", tuple(float(v) for v in self.dk_levels))
        for v in self.dk_levels:
            if not 0.0 < v < 0.5:
                raise ValueError(f"dk_level {v} outside (0, 0.5)")
        if self.eps_convention not in EPS_CONVENTIONS:
            raise ValueError(f"unknown eps convention {self.eps_convention!r}")
        if not 0.0 <= self.eps_synth < math.inf:
            raise ValueError("eps_synth must be finite and nonnegative")
        if self.eps_synth >= 0.5:
            raise ValueError(f"eps_synth {self.eps_synth} is not below 0.5, where condition "
                             "4.2 fails for every factor")

    @property
    def p(self) -> int:
        return self.m + self.n


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The generator of trial ``trial`` of a campaign seeded ``seed``: the one
    seed map, which every campaign and every replay of a trial draws through.
    It is seeded with ``seed XOR trial`` (both taken to 64 bits), so a trial
    is drawn alike in any order and alone."""
    derived = (int(seed) ^ int(trial)) & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(derived)


# --- generators ---------------------------------------------------------------


def _symmetric_from_lower(x: np.ndarray) -> np.ndarray:
    """The exactly symmetric matrix equal to square ``x`` on and below its
    diagonal, bit for bit ``np.tril(x) + np.tril(x, -1).T`` (a -0.0 becomes
    0.0), from the mask ``upper_mask`` keeps per order."""
    return np.where(upper_mask(x.shape[0]), x.T, x) + 0.0


def gen_spd(order: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric positive definite with spectrum log-spaced from 1 to 1/cond."""
    if cond < 1.0:
        raise ValueError("cond must be >= 1")
    if order < 1:
        raise ValueError("order must be positive")
    if order == 1:
        return np.array([[1.0]])
    q, _ = np.linalg.qr(rng.standard_normal((order, order)))
    sig = 10.0 ** np.linspace(0.0, -math.log10(cond), order)
    return _symmetric_from_lower(matmul(q * sig, q.T))


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
    plus the condition numbers the two blocks were given (1 for a 1 x 1
    block, which is [[1]], and for the empty Schur block of n == 0).
    """
    if n > m:
        raise ValueError("full row rank of the coupling block needs n <= m")
    log_cap = math.log10(cond_target)
    kappa_a = 10.0 ** rng.uniform(0.0, log_cap) if log_cap > 0 else 1.0
    kappa_s = 10.0 ** rng.uniform(0.0, log_cap) if log_cap > 0 else 1.0
    # a 1 x 1 block is [[1]] whatever its target (gen_spd), and with n == 0
    # there is no Schur block: report what each block gets
    kappa_a = 1.0 if m == 1 else kappa_a
    kappa_s = 1.0 if n <= 1 else kappa_s
    a = gen_spd(m, kappa_a, rng)
    if n == 0:
        s = SaddleMatrix.from_blocks(a, np.zeros((0, m)), np.zeros((0, 0)))
        return s, kappa_a, kappa_s
    schur_target = gen_spd(n, kappa_s, rng)
    lam_min = 1.0 / kappa_s  # spectrum is known by construction
    l21_raw = rng.standard_normal((n, m))  # full row rank almost surely
    smax = spectral_norm(l21_raw)
    zeta = rng.uniform(0.1, 0.9)
    l21 = l21_raw * (math.sqrt(zeta * lam_min) / smax)
    gram = matmul(l21, l21.T)
    c = schur_target - gram
    try:
        l11 = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:  # a rounding-indefinite A; redrawn
        raise SaddleValidationError(f"A is not positive definite: {exc}") from exc
    b = matmul(l21, l11.T)
    s = SaddleMatrix.from_blocks(a, b, c)
    return s, kappa_a, kappa_s


# --- trial records --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """What a record of either campaign shares: its trial's identity, and its
    verdicts, derived from the subclass's ``report`` and nowhere else.

    A skipped record has no ratios, and only a failed backward-error check
    (``bw_env_ok``) makes it a violation.  A normwise record is never skipped
    and has no such check, so it keeps the class constants below; the
    componentwise record overrides them with its property and its field.
    """

    trial: int
    m: int
    n: int
    seed: int

    skipped = False  # class constants, not fields
    bw_env_ok = True

    @property
    def worst_ratio(self) -> float:
        return 0.0 if self.skipped else _domination(self.report)[0]

    @property
    def violation(self) -> bool:
        return not self.bw_env_ok or (not self.skipped and _domination(self.report)[1])

    @property
    def tightness(self) -> dict[str, float | None]:
        """bound/actual for each rigorous bound (see ``_domination``); empty
        when skipped."""
        return {} if self.skipped else _domination(self.report)[2]

    def json_items(self) -> list[tuple[str, object]]:
        """The CSV items, the JSON-only extras, then the ``ratio_*`` items."""
        ratios = [(f"ratio_{name}", value) for name, value in self.tightness.items()]
        return self.csv_items() + self._json_extras() + ratios


@dataclass(frozen=True, slots=True)
class NormwiseTrialRecord(TrialRecord):
    """One (trial, dk level) of a normwise campaign: what was measured."""

    dk_level: float
    kappa_a: float
    kappa_s: float
    report: NormwiseBoundReport

    def csv_items(self) -> list[tuple[str, object]]:
        """The CSV row: (column, value) pairs, in the fixed schema order."""
        r = self.report
        return [
            ("trial", self.trial), ("m", self.m), ("n", self.n), ("seed", self.seed),
            ("dk_fro", r.dk_fro), ("linv2", r.linv_2), ("cond31", r.cond_3_1_ok),
            ("b33", r.b_3_3), ("b33_label", r.b_3_3_label), ("b34", r.b_3_4),
            ("b311", r.b_3_11_coeff), ("cond312", r.cond_3_12_ok), ("b312", r.b_3_12),
            ("b313", r.b_3_13), ("b314", r.b_3_14), ("cond316", r.cond_3_16_ok),
            ("b315", r.b_3_15), ("cond318", r.cond_3_18_ok), ("b317", r.b_3_17),
            ("b317_label", r.b_3_17_label), ("actual_f", r.actual_dl_fro),
            ("actual_2", r.actual_dl_2), ("worst_ratio", self.worst_ratio),
            ("violation", self.violation),
        ]

    def _json_extras(self) -> list[tuple[str, object]]:
        return [
            ("dk_level", self.dk_level),
            ("kappa_a", self.kappa_a),
            ("kappa_s", self.kappa_s),
            ("b317_excluded", self.report.b_3_17_excluded),
            ("near_boundary", self.report.near_boundary),
            ("diag_3_8_ok", self.report.diag_3_8_ok),
            ("cond318_strength_ok", self.report.cond_3_18_strength_ok),
        ]


@dataclass(frozen=True, slots=True)
class ComponentwiseTrialRecord(TrialRecord):
    """One trial of a componentwise campaign: what was measured, with the
    backward-error check.  A record without a measured dL (the
    refactorization broke down) or outside condition 4.2 is skipped."""

    eps_convention: str  # the campaign's label for its column, not a bound input
    report: ComponentwiseBoundReport
    env_lt_fro: float
    env_tl_fro: float
    bw_env_ok: bool = field()  # required: no default from the base's constant

    @property
    def breakdown(self) -> bool:
        return self.report.actual_dl_fro is None

    @property
    def skipped(self) -> bool:
        return self.breakdown or not self.report.cond_4_2_ok

    def csv_items(self) -> list[tuple[str, object]]:
        """The CSV row: (column, value) pairs, in the fixed schema order;
        cond_bs_linvt repeats cond_bs_l, the one Bauer-Skeel number of L~ and L~^-T."""
        r = self.report
        return [
            ("trial", self.trial), ("m", self.m), ("n", self.n), ("seed", self.seed),
            ("eps", r.eps), ("eps_convention", self.eps_convention),
            ("cond42", r.cond_4_2_ok), ("b43", r.b_4_3), ("b43_label", r.b_4_3_label),
            ("b44", r.b_4_4), ("b49", r.b_4_9_coeff), ("cond_bs_l", r.cond_bs_L),
            ("cond_bs_linvt", r.cond_bs_L), ("actual_f", r.actual_dl_fro),
            ("actual_2", r.actual_dl_2), ("env_lt_fro", self.env_lt_fro),
            ("env_tl_fro", self.env_tl_fro), ("bw_env_ok", self.bw_env_ok),
            ("worst_ratio", self.worst_ratio), ("violation", self.violation),
            ("skipped", self.skipped),
        ]

    def _json_extras(self) -> list[tuple[str, object]]:
        gammas = eps_componentwise(self.m, self.n)
        return [
            ("near_boundary", self.report.near_boundary),
            ("breakdown", self.breakdown),
            ("eps_gamma_min_paper", min(gammas)),
            ("eps_gamma_max_safe", max(gammas)),
        ]


def _domination(report) -> tuple[float, bool, dict[str, float | None]]:
    """Worst actual/bound ratio, violation flag, and per-bound tightness of a
    report with a measured ``actual_dl_fro``.

    Tightness is bound/actual (at least 1 for a valid bound); None when the
    true perturbation is zero.
    """
    actual_f = report.actual_dl_fro
    worst = 0.0
    violated = False
    tightness: dict[str, float | None] = {}
    for name, value in report.rigorous_bounds().items():
        if actual_f > value + VIOLATION_SLACK:
            violated = True
        if value > 0.0:
            worst = max(worst, actual_f / value)
        tightness[name] = (value / actual_f) if actual_f > 0.0 else None
    return worst, violated, tightness


# --- campaigns -------------------------------------------------------------------


def _draw(
    cfg: EnsembleConfig, rng: np.random.Generator, trial: int
) -> tuple[SaddleMatrix, GenCholFactor, float, float]:
    """A random saddle matrix, its factor and its two condition targets.

    A draw that fails validation or factorization is redrawn from ``rng``,
    at most ``_RETRY_CAP`` times; then CampaignError.
    """
    for _attempt in range(_RETRY_CAP):
        try:
            s, kappa_a, kappa_s = make_saddle(cfg.m, cfg.n, cfg.cond_target, rng)
            return s, factorize(s), kappa_a, kappa_s
        except (FactorizationError, SaddleValidationError):
            continue
    raise CampaignError(f"trial {trial}: no valid draw in {_RETRY_CAP} attempts")


def run_normwise_campaign(cfg: EnsembleConfig) -> list[NormwiseTrialRecord]:
    """One record per (trial, dk level); deterministic for a fixed config.

    Every level meets condition 3.1, under which K + dK has a factor, so a
    breakdown of K + dK propagates as FactorizationError and is not redrawn.
    A trial forms its levels' dKs as one (levels, p, p) stack and factors
    every K + dK in one stacked call; its reports then take the measured
    norms of all levels from one stacked call each.  Each member has the
    bits of its own single-matrix call.
    """
    records: list[NormwiseTrialRecord] = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        s, factor, kappa_a, kappa_s = _draw(cfg, rng, trial)
        ev = NormwiseEvaluator(factor, s.K)
        direction = gen_sym_perturbation(cfg.p, 1.0, rng)
        scales = np.array(cfg.dk_levels) / (ev.linv2 * ev.linv2)
        dks = direction * scales[:, None, None]
        reports = ev.reports(fro_norm(dks), actual_delta_l(factor, s.K, dks))
        records += [
            NormwiseTrialRecord(
                trial=trial,
                m=cfg.m,
                n=cfg.n,
                seed=cfg.seed,
                dk_level=level,
                kappa_a=kappa_a,
                kappa_s=kappa_s,
                report=report,
            )
            for level, report in zip(cfg.dk_levels, reports)
        ]
    return records


def run_componentwise_campaign(cfg: EnsembleConfig) -> list[ComponentwiseTrialRecord]:
    """Synthetic-envelope protocol and floating-point backward-error check.

    A factor L~ is produced by factorizing a random saddle matrix; dK is
    sampled inside eps |L~||L~^T|; the matrix L~ J L~^T - dK is refactored and
    the recovered factor compared against the componentwise bounds.  eps = 0
    degenerates to dK = 0.
    """
    records: list[ComponentwiseTrialRecord] = []
    eps_max_safe = max(eps_componentwise(cfg.m, cfg.n))
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        s, lt, _, _ = _draw(cfg, rng, trial)
        abs_lt = np.abs(lt.L)
        env_lt = matmul(abs_lt, abs_lt.T)
        env_tl = matmul(abs_lt.T, abs_lt)
        env_lt_fro = fro_norm(env_lt)
        env_tl_fro = fro_norm(env_tl)

        # floating-point backward error of the factorization itself
        resid = compensated_residual(lt, s)
        env_gamma = 10.0 * eps_max_safe * env_lt
        bw_ok = bool(np.all(np.abs(resid) <= env_gamma))

        # synthetic perturbation inside the componentwise envelope
        eps = cfg.eps_synth
        sym_draw = _symmetric_from_lower(rng.uniform(-1.0, 1.0, (cfg.p, cfg.p)))
        dk = sym_draw * (eps * env_lt)

        try:
            # L(L~ J L~^T - dK) - L~: the recorded norms do not see the sign
            actual_dl = actual_delta_l(lt, reconstruct(lt), -dk)
        except FactorizationError:  # a breakdown: the record has no measured dL
            actual_dl = None

        records.append(ComponentwiseTrialRecord(
            trial=trial,
            m=cfg.m,
            n=cfg.n,
            seed=cfg.seed,
            eps_convention=cfg.eps_convention,
            report=build_componentwise_report(lt.L, eps, actual_dl=actual_dl),
            env_lt_fro=env_lt_fro,
            env_tl_fro=env_tl_fro,
            bw_env_ok=bw_ok,
        ))
    return records


# --- adversarial gamma sweeps -------------------------------------------------


def _sweep_factor(kind: str, gamma: float) -> GenCholFactor:
    if kind == "remark32":
        return GenCholFactor.from_dense([[1.0 / gamma, 0.0], [1.0, 1.0]], 1, 1)
    return GenCholFactor.from_dense([[1.0, 0.0], [gamma, 1.0]], 1, 1)


def _sweep_row(kind: str, gamma: float) -> dict:
    factor = _sweep_factor(kind, gamma)
    ev = NormwiseEvaluator(factor, reconstruct(factor))
    report = ev.report(SWEEP_DK_FRO)
    if kind == "remark32":
        d = np.array([[1.0 / gamma, 1.0]])  # the scaling that makes L D^-1 O(1)
        ld2, dlinv2 = spectral_norm(np.stack([factor.L / d, d.T * ev.linv]))
        return {
            "gamma": gamma,
            "dk_fro": SWEEP_DK_FRO,
            "kappa_l": ev.kappa_l,
            "kappa_ld_analytic": ld2 * dlinv2,
            "b33": report.b_3_3,
            "b33_label": report.b_3_3_label,
            "b313": report.b_3_13,
        }
    w_norm = ev.w_inv_norm  # p = 2, so the evaluator always computes it
    return {
        "gamma": gamma,
        "dk_fro": SWEEP_DK_FRO,
        "linv2_sq": ev.linv2 * ev.linv2,
        "winv2": w_norm,
        "winv2_sq": w_norm * w_norm,
        "thresh_3_1": 0.5 / (ev.linv2 * ev.linv2),
        "thresh_3_16": 0.25 / (w_norm * w_norm),
        "b315": report.b_3_15,
        "b34": report.b_3_4,
    }


def run_gamma_sweep(kind: str, gammas) -> list[dict]:
    """Tables for the two adversarial scaling families, evaluated at
    ||dK||_F = ``SWEEP_DK_FRO``.

    "remark32" uses L = [[1/g, 0], [1, 1]] (bad column scaling: the scaled
    condition number collapses under D = diag(1/g, 1)).  "remark33" uses
    L = [[1, 0], [g, 1]] and tracks how much faster the operator-matrix
    condition grows compared to ||L^-1||_2^2.  A gamma that is not positive
    and finite, or at which any quantity of its row overflows, is refused
    with a ValueError that names it, before any row is returned.
    """
    if kind not in SWEEP_KINDS:
        raise ValueError(f"unknown sweep kind {kind!r}")
    rows = []
    for gamma in gammas:
        gamma = float(gamma)
        if not 0.0 < gamma < math.inf:
            raise ValueError(f"gamma {gamma:g} is out of range: it must be positive and finite")
        try:
            with np.errstate(over="raise", invalid="raise"):
                row = _sweep_row(kind, gamma)
        except FloatingPointError as exc:
            raise ValueError(f"gamma {gamma:g} is out of range: {exc}") from exc
        if not all(math.isfinite(v) for v in row.values() if isinstance(v, float)):
            raise ValueError(f"gamma {gamma:g} is out of range: its row overflows")
        rows.append(row)
    return rows


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log10(y) against log10(x); needs at least two
    distinct x values."""
    if len(set(map(float, xs))) < 2:
        raise ValueError("a log-log slope needs at least two distinct x values")
    lx = np.log10(np.asarray(xs, dtype=np.float64))
    ly = np.log10(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


# --- emission -------------------------------------------------------------------


def _cell(v) -> str:
    """A CSV cell: the JSON scalar text, except that None is empty and a str
    is left unquoted."""
    if isinstance(v, (float, np.floating)) and not math.isfinite(v):
        raise ValueError(f"refusing to write a non-finite CSV cell: {v}")
    if v is None:
        return ""
    return v if isinstance(v, str) else format_json_scalar(v)


def emit_rows(rows, fmt: str, path) -> None:
    """Write a table of dict rows atomically.  CSV takes its columns from the
    first row's keys, in order; each JSON object keeps its own row's keys.
    Every cell is formatted before the write, so a non-finite one leaves no
    file."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if not rows:
        raise ValueError("nothing to emit: no rows")
    if fmt == "csv":
        columns = tuple(rows[0])
        lines = [",".join(columns)]
        lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        objs = [format_json_object(row.items()) for row in rows]
        text = "[\n" + ",\n".join(objs) + "\n]\n"
    write_text_atomic(path, text)


def emit_report(records, fmt: str, path) -> None:
    """Serialize trial records (CSV with the fixed schema, or JSON array),
    ordered by trial index (a stable sort)."""
    records = sorted(records, key=lambda r: r.trial)
    if fmt == "csv":
        rows = [dict(r.csv_items()) for r in records]
    else:
        rows = [dict(r.json_items()) for r in records]
    emit_rows(rows, fmt, path)


def summarize(records) -> tuple[int, int, float]:
    """(record count, violation count, worst actual/bound ratio)."""
    violations = sum(1 for r in records if r.violation)
    worst = max((r.worst_ratio for r in records), default=0.0)
    return len(records), violations, worst
