"""Perturbation bounds for the signed Cholesky factor, with scaling search.

Two families are computed.  The normwise family bounds ||dL||_F in terms of
||dK||_F, ||L^-1||_2 and condition numbers of column-rescaled factors; the
componentwise family bounds the factor error when |dK| <= eps |L~| |L~^T|,
the shape of the factorization algorithm's backward rounding error.  Each
bound is guarded by an explicit applicability condition, checked strictly;
infima over positive diagonal scalings are approximated by a small labelled
candidate set and the winning label is always reported so tightness is
auditable.  ``NormwiseEvaluator.report`` and ``build_componentwise_report``
are the only places the formulas are evaluated; a bound whose condition
fails is None in the report, next to its false ``cond_*_ok`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .densela import (
    ShapeError,
    _require_lower_triangular,
    cond_bauer_skeel,
    fro_norm,
    gamma_k,
    lower_tri_inverse,
    matmul,
    singular_values,
    spectral_norm,
    vec_norm2,
    UNIT_ROUNDOFF,
    format_json_scalar,
)

__all__ = [
    "SQRT2",
    "ScalingCandidateSet",
    "NormwiseBoundReport",
    "ComponentwiseBoundReport",
    "NormwiseEvaluator",
    "scaling_candidates",
    "operator_inverse_norm",
    "eps_componentwise",
    "build_componentwise_report",
    "report_to_json",
    "NEAR_BOUNDARY_EPS",
    "W_BOUND_MAX_ORDER",
]

SQRT2 = math.sqrt(2.0)
NEAR_BOUNDARY_EPS = 1e-15  # discriminant closer to zero than this gets flagged
W_BOUND_MAX_ORDER = 24  # operator-matrix bound is skipped for larger orders
_POSITIVE_FLOOR = 1e-300

EPS_CONVENTIONS = ("min-paper", "max-safe")


@dataclass(frozen=True)
class ScalingCandidateSet:
    """Labelled positive diagonal scalings; always contains "identity"."""

    labels: tuple[str, ...]
    diags: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("candidate set must be nonempty")
        if "identity" not in self.labels:
            raise ValueError('candidate set must contain "identity"')
        if len(self.labels) != len(self.diags):
            raise ValueError("labels and diagonals must be parallel")
        for d in self.diags:
            if np.any(d <= 0.0):
                raise ValueError("scaling diagonals must be strictly positive")

    def __iter__(self):
        return iter(zip(self.labels, self.diags))


def scaling_candidates(l_dense, purpose: str) -> ScalingCandidateSet:
    """Heuristic diagonal scalings approximating the infima in the bounds.

    "kappa_min": identity plus column equilibration of L (D_jj = ||L e_j||_2).
    "componentwise": additionally a row equilibration of |L^-1||L|
    (D_jj = 1 / max of row j).  All entries are clamped positive.
    """
    if purpose not in ("kappa_min", "componentwise"):
        raise ValueError(f"unknown purpose {purpose!r}")
    l = np.asarray(l_dense, dtype=np.float64)
    _require_lower_triangular(l)
    p = l.shape[0]
    labels = ["identity"]
    diags = [np.ones(p)]
    col_eq = np.array([max(vec_norm2(l[:, j]), _POSITIVE_FLOOR) for j in range(p)])
    labels.append("col-equilibrate-L")
    diags.append(col_eq)
    linv = lower_tri_inverse(l)  # raises on singular input
    if purpose == "componentwise":
        babs = matmul(np.abs(linv), np.abs(l))
        row_max = np.maximum(babs.max(axis=1), _POSITIVE_FLOOR)
        labels.append("row-equilibrate-bauer")
        diags.append(1.0 / row_max)
    return ScalingCandidateSet(tuple(labels), tuple(diags))


# --- shared scalar formulas --------------------------------------------------


def _kappa_scaled(l: np.ndarray, d: np.ndarray) -> float:
    s = singular_values(l * (1.0 / d)[None, :])
    return float(s[0] / s[-1])


def _b33_value(linv2: float, kappa: float, dk_fro: float, x: float) -> float:
    return SQRT2 * linv2 * kappa * dk_fro / (SQRT2 - 1.0 + math.sqrt(1.0 - 2.0 * x))


def _b312_style_value(linv2: float, kappa: float, dk_fro: float, xx: float) -> float:
    return SQRT2 * linv2 * kappa * dk_fro / (1.0 + math.sqrt(1.0 - 2.0 * xx))


def _b317_lhs(kappa_l: float, l2: float, dlinv2: float, dinv2: float, rel: float) -> float:
    return kappa_l * l2 * dlinv2 * dinv2 * rel


def operator_inverse_norm(l_dense, signature) -> float:
    """||W^-1||_2 for W(X) = X J L^T + L J X^T, from the closed-form inverse.

    For symmetric G, W^-1(G) = L low(L^-1 G L^-T) J, where low keeps the lower
    triangle and halves the diagonal.  Column k of the explicit q x q W^-1
    (q = p(p+1)/2, in the bases of ``oracle.build_w``) is the image of the
    duvec basis element at lower position (i, j): G = E_ij + E_ji, so
    L^-1 G L^-T = u_i u_j^T + u_j u_i^T with u_i column i of L^-1, and half
    that when i == j, where G = E_ii.  ``oracle.build_w`` followed by
    ``oracle.w_inverse_norm`` computes the same norm by definition.
    """
    l = np.asarray(l_dense, dtype=np.float64)
    jvec = np.asarray(signature, dtype=np.float64)
    linv = lower_tri_inverse(l)  # raises on singular input
    p = l.shape[0]
    if jvec.shape != (p,):
        raise ShapeError(f"signature must have {p} entries, got shape {jvec.shape}")
    jj, ii = np.triu_indices(p)  # lower positions (ii, jj) in column-stacked order
    q = ii.size
    ui = linv[:, ii].T
    uj = linv[:, jj].T
    g = ui[:, :, None] * uj[:, None, :]
    g = g + g.transpose(0, 2, 1)
    g[ii == jj] *= 0.5
    low = np.tril(g)
    low[:, np.arange(p), np.arange(p)] *= 0.5
    # one deterministic product over the stacked (p, q*p) block L [low_1 ... low_q]
    x = matmul(l, low.transpose(1, 0, 2).reshape(p, q * p))
    x = x.reshape(p, q, p).transpose(1, 0, 2) * jvec[None, None, :]
    winv = x[:, ii, jj].T
    return float(np.linalg.svd(winv, compute_uv=False)[0])


def eps_componentwise(
    m: int, n: int, u: float = UNIT_ROUNDOFF, convention: str = "max-safe"
) -> float:
    """Componentwise envelope size from the blockwise rounding-error constants.

    "min-paper" takes the smaller of the two block constants as printed;
    "max-safe" takes the larger, which dominates both blocks.
    """
    if convention not in EPS_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    ga = gamma_k(3 * m + 1, u)
    gc = gamma_k(3 * n + 1, u)
    return min(ga, gc) if convention == "min-paper" else max(ga, gc)


# --- reports ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NormwiseBoundReport:
    """All normwise bound values with their applicability flags.

    A bound field is None exactly when its condition flag is false (or, for
    b_3_15, when the operator-matrix norm was not supplied).
    """

    dk_fro: float
    linv_2: float
    cond_3_1_ok: bool
    cond_3_12_ok: bool
    cond_3_16_ok: bool | None
    cond_3_18_ok: bool
    b_3_3: float | None
    b_3_3_label: str | None
    b_3_4: float | None
    b_3_4_label: str | None
    b_3_11_coeff: float
    b_3_12: float | None
    b_3_13: float | None
    b_3_14: float | None
    b_3_15: float | None
    b_3_17: float | None
    b_3_17_label: str | None
    b_3_17_excluded: str
    near_boundary: str
    actual_dl_fro: float | None
    actual_dl_2: float | None

    def rigorous_bounds(self) -> dict[str, float]:
        """Present rigorous bounds by name (first-order coefficient excluded)."""
        out = {}
        for name in ("b_3_3", "b_3_4", "b_3_12", "b_3_13", "b_3_14", "b_3_15", "b_3_17"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out


@dataclass(frozen=True, slots=True)
class ComponentwiseBoundReport:
    """Componentwise bound values for a computed factor."""

    eps: float
    eps_convention: str
    cond_4_2_ok: bool
    b_4_3: float | None
    b_4_3_label: str | None
    b_4_4: float | None
    b_4_9_coeff: float
    cond_bs_L: float
    cond_bs_LinvT: float
    near_boundary: str
    actual_dl_fro: float | None
    actual_dl_2: float | None

    def rigorous_bounds(self) -> dict[str, float]:
        out = {}
        for name in ("b_4_3", "b_4_4"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out


class NormwiseEvaluator:
    """Per-factor cache of everything the normwise bounds need except ||dK||_F.

    Campaigns evaluate many perturbation sizes against one factor; building
    the report through this object avoids re-running the SVD kernels.
    """

    def __init__(self, l_dense, k, w_inv_norm: float | None = None):
        l = np.asarray(l_dense, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        self.l = l
        self.linv = lower_tri_inverse(l)
        self.linv2 = spectral_norm(self.linv)
        self.linv_f = fro_norm(self.linv)
        sl = singular_values(l)
        self.l2 = float(sl[0])
        self.kappa_l = float(sl[0] / sl[-1])
        self.k2 = spectral_norm(k)
        self.w_inv_norm = w_inv_norm
        self.d_set = scaling_candidates(l, "kappa_min")
        self.kappas = {}
        self.dlinv2 = {}
        self.dinv2 = {}
        for label, d in self.d_set:
            if label == "identity":  # D = I: the SVDs of L and L^-1 above
                self.kappas[label] = self.kappa_l
                self.dlinv2[label] = self.linv2
            else:
                self.kappas[label] = _kappa_scaled(l, d)
                self.dlinv2[label] = spectral_norm(d[:, None] * self.linv)
            self.dinv2[label] = float(np.max(1.0 / d))
        # first minimal candidate wins, so ties resolve deterministically
        self.kappa_label = min(self.kappas, key=self.kappas.get)
        self.kappa_min = self.kappas[self.kappa_label]

    def condition_318_strength_ok(self, dk_fro: float) -> bool:
        """True when the refined-bound test is at least as strong as the 1/2 test
        for every candidate (left side >= ||L^-1||_2^2 ||dK||_F)."""
        x = self.linv2 * self.linv2 * dk_fro
        rel = dk_fro / self.k2
        for label, _ in self.d_set:
            lhs = _b317_lhs(self.kappa_l, self.l2, self.dlinv2[label], self.dinv2[label], rel)
            if lhs < x:
                return False
        return True

    def report(self, dk_fro: float, actual_dl=None) -> NormwiseBoundReport:
        near = []
        x = self.linv2 * self.linv2 * dk_fro
        cond31 = x < 0.5
        x_f = self.linv_f * self.linv_f * dk_fro
        cond312 = x_f < 0.5

        b33 = b34 = b313 = b314 = None
        b33_label = b34_label = None
        if cond31:
            if 0.0 < 1.0 - 2.0 * x < NEAR_BOUNDARY_EPS:
                near.append("b_3_3")
            b33 = _b33_value(self.linv2, self.kappa_min, dk_fro, x)
            b33_label = self.kappa_label
            b34 = (2.0 + SQRT2) * (self.linv2 * self.kappa_min * dk_fro)
            b34_label = self.kappa_label
            b313 = _b312_style_value(self.linv2, self.kappa_l, dk_fro, x)
            b314 = _b33_value(self.linv2, self.kappa_l, dk_fro, x)
        b311 = self.linv2 * self.kappa_min * dk_fro

        b312 = None
        if cond312:
            if 0.0 < 1.0 - 2.0 * x_f < NEAR_BOUNDARY_EPS:
                near.append("b_3_12")
            b312 = _b312_style_value(self.linv2, self.kappa_l, dk_fro, x_f)

        cond316: bool | None = None
        b315 = None
        if self.w_inv_norm is not None:
            cond316 = self.w_inv_norm * self.w_inv_norm * dk_fro < 0.25
            if cond316:
                b315 = 2.0 * self.w_inv_norm * dk_fro

        rel = dk_fro / self.k2
        best317 = None
        best317_label = None
        excluded = []
        for label, d in self.d_set:
            lhs = _b317_lhs(self.kappa_l, self.l2, self.dlinv2[label], self.dinv2[label], rel)
            if not lhs < 0.25:
                excluded.append(label)
                continue
            if 0.0 < 1.0 - 4.0 * lhs < NEAR_BOUNDARY_EPS and "b_3_17" not in near:
                near.append("b_3_17")
            value = (
                2.0 * self.l2 * self.kappa_l * self.kappas[label] * rel
                / (1.0 + math.sqrt(1.0 - 4.0 * lhs))
            )
            if best317 is None or value < best317:
                best317 = value
                best317_label = label
        cond318 = best317 is not None

        actual_f = actual_2 = None
        if actual_dl is not None:
            actual_f = fro_norm(actual_dl)
            actual_2 = spectral_norm(actual_dl)

        return NormwiseBoundReport(
            dk_fro=dk_fro,
            linv_2=self.linv2,
            cond_3_1_ok=cond31,
            cond_3_12_ok=cond312,
            cond_3_16_ok=cond316,
            cond_3_18_ok=cond318,
            b_3_3=b33,
            b_3_3_label=b33_label,
            b_3_4=b34,
            b_3_4_label=b34_label,
            b_3_11_coeff=b311,
            b_3_12=b312,
            b_3_13=b313,
            b_3_14=b314,
            b_3_15=b315,
            b_3_17=best317,
            b_3_17_label=best317_label,
            b_3_17_excluded=",".join(excluded),
            near_boundary=",".join(near),
            actual_dl_fro=actual_f,
            actual_dl_2=actual_2,
        )


def build_componentwise_report(
    l_tilde_dense,
    eps: float,
    eps_convention: str = "max-safe",
    *,
    actual_dl=None,
) -> ComponentwiseBoundReport:
    """Evaluate the componentwise bounds for a computed factor."""
    if eps_convention not in EPS_CONVENTIONS:
        raise ValueError(f"unknown convention {eps_convention!r}")
    lt = np.asarray(l_tilde_dense, dtype=np.float64)
    _require_lower_triangular(lt)
    lt_inv = lower_tri_inverse(lt)
    babs = matmul(np.abs(lt_inv), np.abs(lt))
    cbs_l = fro_norm(babs)
    cbs_it = cond_bauer_skeel(lt_inv.T)
    t = cbs_l * cbs_it * eps
    cond42 = t < 0.5
    near = []
    b43 = b44 = None
    b43_label = None
    # min over D of ||L~ D^-1||_2 ||D |L~^-1||L~| ||_2; the first minimum wins
    factor = label = None
    for cand, d in scaling_candidates(lt, "componentwise"):
        val = spectral_norm(lt * (1.0 / d)[None, :]) * spectral_norm(babs * d[:, None])
        if factor is None or val < factor:
            factor, label = val, cand
    b49 = factor * cbs_l * eps
    if cond42:
        if 0.0 < 1.0 - 2.0 * t < NEAR_BOUNDARY_EPS:
            near.append("b_4_3")
        b43 = SQRT2 * factor * cbs_l * eps / (SQRT2 - 1.0 + math.sqrt(1.0 - 2.0 * t))
        b43_label = label
        b44 = (2.0 + SQRT2) * (factor * cbs_l * eps)

    actual_f = actual_2 = None
    if actual_dl is not None:
        actual_f = fro_norm(actual_dl)
        actual_2 = spectral_norm(actual_dl)

    return ComponentwiseBoundReport(
        eps=eps,
        eps_convention=eps_convention,
        cond_4_2_ok=cond42,
        b_4_3=b43,
        b_4_3_label=b43_label,
        b_4_4=b44,
        b_4_9_coeff=b49,
        cond_bs_L=cbs_l,
        cond_bs_LinvT=cbs_it,
        near_boundary=",".join(near),
        actual_dl_fro=actual_f,
        actual_dl_2=actual_2,
    )


def report_to_json(report) -> str:
    """Flat JSON object, field order fixed, floats at 17 significant digits."""
    parts = [
        f'"{f.name}": {format_json_scalar(getattr(report, f.name))}'
        for f in fields(report)
    ]
    return "{" + ", ".join(parts) + "}"
