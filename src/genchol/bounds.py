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
Each number is computed once: kappa(L D^-1) is ||L D^-1||_2 ||D L^-1||_2, a
product of largest singular values that keeps the digits sigma_max/sigma_min
loses (the identity candidate gives L's own norms); the componentwise report
inverts L~ once and has one Bauer-Skeel number for L~ and L~^-T, since
|L~^T||L~^-T| is the transpose of |L~^-1||L~|; and the normwise report
carries inequality (3.8) and the 3.18 strength test.  Spectral norms come
from stacked calls, with the bits of separate calls: one for an evaluator's
set-up, the one call of the Jacobi (see ``densela``); one for the measured
dLs of all the levels ``NormwiseEvaluator.reports`` is given; and one for a
componentwise report and its measured dL.  The last two are LAPACK's, so a
measured ||dL||_2 has the same bits in either report.  The levels' ||dL||_F
and ||L^-1 dL||_F come from one stacked call each too, with the bits of
separate calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .densela import (
    ConvergenceError,
    column_norms,
    fro_norm,
    gamma_k,
    lower_tri_inverse,
    matmul,
    matmul_stack,
    require_lower_triangular,
    singular_values,
    spectral_norm,
    format_json_object,
)

SQRT2 = math.sqrt(2.0)
NEAR_BOUNDARY_EPS = 1e-15  # discriminant closer to zero than this gets flagged
W_BOUND_MAX_ORDER = 24  # operator-matrix bound is skipped for larger orders
VIOLATION_SLACK = 1e-12  # absolute slack on every domination comparison
_POSITIVE_FLOOR = 1e-300

EPS_CONVENTIONS = ("min-paper", "max-safe")  # labels of a componentwise record's eps column


def scaling_candidates(l_dense, bauer=None) -> tuple[tuple[str, np.ndarray], ...]:
    """Heuristic diagonal scalings approximating the infima in the bounds, as
    (label, diagonal) pairs; "identity" comes first.

    Identity plus column equilibration of L (D_jj = ||L e_j||_2); given the
    Bauer-Skeel product ``bauer`` = |L^-1||L|, additionally its row
    equilibration (D_jj = 1 / max of row j).  All entries are clamped positive.
    """
    l = np.asarray(l_dense, dtype=np.float64)
    require_lower_triangular(l)
    p = l.shape[0]
    col_eq = np.maximum(column_norms(l), _POSITIVE_FLOOR)
    candidates = [("identity", np.ones(p)), ("col-equilibrate-L", col_eq)]
    if bauer is not None:
        row_max = np.maximum(bauer.max(axis=1), _POSITIVE_FLOOR)
        candidates.append(("row-equilibrate-bauer", 1.0 / row_max))
    return tuple(candidates)


@functools.lru_cache(maxsize=32)
def _lower_positions(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns (ii, jj) of the lower triangle of a p x p matrix in
    column-stacked order, the bases of ``oracle.build_w``; read-only, built
    once per order."""
    jj, ii = np.triu_indices(p)
    ii.setflags(write=False)
    jj.setflags(write=False)
    return ii, jj


# --- shared scalar formulas --------------------------------------------------


def _b33_value(linv2: float, kappa: float, dk_fro: float, x: float, offset: float) -> float:
    """The shape of bound 3.3.  Bounds 3.3, 3.14 and the componentwise 4.3
    take ``offset`` sqrt(2) - 1; bounds 3.12 and 3.13 take 1.  A subnormal
    ``dk_fro`` can round it below what it dominates, so the reports take 3.3
    and 4.3 no smaller than 3.11 and 4.9, and 3.14 no smaller than 3.3."""
    return SQRT2 * linv2 * kappa * dk_fro / (offset + math.sqrt(1.0 - 2.0 * x))


def _square_times(a: float, b: float) -> float:
    """a * a * b, left to right, on the ``frexp`` mantissas, scaled back by
    ``math.ldexp``: the bits of the plain product wherever that neither
    overflows nor underflows, the true product where a * a alone would (a
    huge ||L^-1||_2 against a tiny ||dK||_F), and inf where the true product
    overflows.  Conditions 3.1, 3.12 and 3.16 read their products from it."""
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    try:
        return math.ldexp(ma * ma * mb, 2 * ea + eb)
    except OverflowError:
        return math.inf


def _present_bounds(report, names) -> dict[str, float]:
    """The report's bounds among ``names`` that are not None, by name."""
    values = ((name, getattr(report, name)) for name in names)
    return {name: v for name, v in values if v is not None}


def eps_componentwise(m: int, n: int) -> tuple[float, float]:
    """The blockwise rounding-error constants (gamma_{3m+1}, gamma_{3n+1}) of
    the leading and the Schur block.  The paper prints the smaller ("min-paper");
    the larger dominates both blocks ("max-safe")."""
    return gamma_k(3 * m + 1), gamma_k(3 * n + 1)


def _scaled_w_inverse(
    l: np.ndarray, linv: np.ndarray, jvec: np.ndarray
) -> tuple[np.ndarray, int]:
    """The explicit q x q W^-1 for W(X) = X J L^T + L J X^T, divided by
    2^exponent, and that exponent; ``linv`` is L^-1 and ``jvec`` diag(J).

    For symmetric G, W^-1(G) = L low(L^-1 G L^-T) J, where low keeps the
    lower triangle and halves the diagonal.  Column b of W^-1
    (q = p(p+1)/2, in the bases of ``oracle.build_w``) is the image of the
    duvec basis element at lower position (i, j): G = E_ij + E_ji, so
    L^-1 G L^-T = u_i u_j^T + u_j u_i^T with u_i column i of L^-1, and half
    that when i == j, where G = E_ii.  W^-1 is quadratic in L^-1 and linear
    in L, so each is scaled by an exact power of two to entries below 1,
    and the exponent is 2e + el: a tiny or huge factor neither overflows
    nor underflows them, and a factor scaled by a power of two gives the
    same matrix, so its norm scales exactly.

    The product L [low_1 ... low_q] adds, for k = 0, 1, ..., the terms of
    column k of L times row k of each low_b to a zero start, and only where
    they can be nonzero: rows k and below (L is lower triangular) and
    columns up to k of each low_b (each is lower triangular).  Every skipped
    term is an exact zero, a finite number times a stored zero.  Skipping
    an exact zero in a sum from +0 keeps its bits: x + (+-0) = x for
    x != 0, +0 + (+-0) = +0, and such a sum is never -0.  So each entry has
    the bits of the full product summed in order from zero, as
    ``densela.matmul`` forms it.
    """
    e = math.frexp(float(np.abs(linv).max()))[1]
    el = math.frexp(float(np.abs(l).max()))[1]
    l, linv = np.ldexp(l, -el), np.ldexp(linv, -e)
    p = l.shape[0]
    ii, jj = _lower_positions(p)
    q = ii.size
    ui = linv[:, ii].T
    uj = linv[:, jj].T
    g = ui[:, :, None] * uj[:, None, :]
    g = g + g.transpose(0, 2, 1)
    g[ii == jj] *= 0.5
    low = np.tril(g)
    low[:, np.arange(p), np.arange(p)] *= 0.5
    # L [low_1 ... low_q] with its columns ordered (c, b): row k of the
    # right-hand block, lowk[k, c*q + b] = low_b[k, c], is zero past
    # column (k + 1) q, and column k of L above row k
    lowk = low.transpose(1, 2, 0).reshape(p, p * q)
    x = np.zeros((p, p * q))
    for k in range(p):
        x[k:, : (k + 1) * q] += l[k:, k, None] * lowk[k, : (k + 1) * q]
    winv = x.reshape(p, p, q)[ii, jj] * jvec[jj, None]
    return winv, 2 * e + el


# --- reports ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NormwiseBoundReport:
    """All normwise bound values with their applicability flags.

    A bound field is None exactly when its condition flag is false (or, for
    b_3_15, when the order is above ``W_BOUND_MAX_ORDER``).  ``diag_3_8_ok`` is
    inequality (3.8) on a measured dL (None without one), and
    ``cond_3_18_strength_ok`` says condition 3.18 is at least as strong as 3.1.
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
    diag_3_8_ok: bool | None
    cond_3_18_strength_ok: bool

    def rigorous_bounds(self) -> dict[str, float]:
        """Present rigorous bounds by name (first-order coefficient excluded)."""
        return _present_bounds(
            self, ("b_3_3", "b_3_4", "b_3_12", "b_3_13", "b_3_14", "b_3_15", "b_3_17")
        )


@dataclass(frozen=True, slots=True)
class ComponentwiseBoundReport:
    """Componentwise bound values for a computed factor.

    ``cond_bs_L`` = || |L^-1||L| ||_F is also the Bauer-Skeel number of
    L^-T: || |L^T||L^-T| ||_F is the norm of the transpose of |L^-1||L|.
    Condition 4.2 reads cond_bs_L^2 eps < 1/2.
    """

    eps: float
    cond_4_2_ok: bool
    b_4_3: float | None
    b_4_3_label: str | None
    b_4_4: float | None
    b_4_9_coeff: float
    cond_bs_L: float
    near_boundary: str
    actual_dl_fro: float | None
    actual_dl_2: float | None

    def rigorous_bounds(self) -> dict[str, float]:
        """Present rigorous bounds by name (first-order coefficient excluded)."""
        return _present_bounds(self, ("b_4_3", "b_4_4"))


class NormwiseEvaluator:
    """Per-factor cache of everything the normwise bounds need except ||dK||_F.

    Campaigns evaluate many perturbation sizes against one factor; building
    the report through this object avoids re-running the SVD kernels.
    L is ``factor.L`` and J is ``factor.spec.signature()``; ``k`` is the
    matrix whose ||K||_2 bound 3.17 reads.  Up to order ``W_BOUND_MAX_ORDER``
    the evaluator also computes ``w_inv_norm`` = ||W^-1||_2 for bound 3.15
    from its own L^-1; above it ``w_inv_norm`` is None and so are ``b_3_15``
    and ``cond_3_16_ok``.  ``linv_f`` = ||L^-1||_F is taken no smaller than
    ``linv2`` = ||L^-1||_2, as holds exactly: near rank one the two computed
    norms can invert by an ulp, and b_3_12 would fall below b_3_13.
    """

    def __init__(self, factor, k):
        self.l = l = factor.L
        self.linv = linv = lower_tri_inverse(l)
        p = l.shape[0]
        jvec = factor.spec.signature()
        self.w_inv_norm = self._w_inverse_norm(jvec) if p <= W_BOUND_MAX_ORDER else None
        # one stack: ||K||_2, then per candidate D ||L D^-1||_2 and ||D L^-1||_2
        cands = scaling_candidates(l)
        mats = [k] + [m for _, d in cands for m in (l * (1.0 / d)[None, :], d[:, None] * linv)]
        self.k2, *sig = singular_values(np.stack(mats))[:, 0].tolist()
        self.l2, self.linv2 = sig[:2]  # the identity candidate comes first: L's own norms
        self.linv_f = max(fro_norm(linv), self.linv2)  # see the class docstring
        self.kappa_l = self.l2 * self.linv2
        self.kappas = {c: ld2 * dlinv2 for (c, _), ld2, dlinv2 in zip(cands, sig[::2], sig[1::2])}
        # times ||dK||_F / ||K||_2, this is bound 3.17's test quantity
        self.coeff_317 = {c: self.kappa_l * self.l2 * dlinv2 * float(np.max(1.0 / d))
                          for (c, d), dlinv2 in zip(cands, sig[1::2])}
        # first minimal candidate wins, so ties resolve deterministically
        self.kappa_label = min(self.kappas, key=self.kappas.get)
        self.kappa_min = self.kappas[self.kappa_label]

    def _w_inverse_norm(self, jvec: np.ndarray) -> float:
        """||W^-1||_2 for W(X) = X J L^T + L J X^T: the largest singular value
        of ``_scaled_w_inverse``'s matrix, scaled back by its power of two.
        ``oracle.build_w`` followed by ``oracle.w_inverse_norm`` computes the
        same norm by definition."""
        winv, exponent = _scaled_w_inverse(self.l, self.linv, jvec)
        try:
            return float(np.ldexp(np.linalg.svd(winv, compute_uv=False)[0], exponent))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"SVD of W^-1 failed: {exc}") from exc

    def reports(self, dk_fros, dls=None) -> list[NormwiseBoundReport]:
        """One report per level: ||dK||_F ``dk_fros[i]`` with the measured dL
        ``dls[i]``.  ``dls`` is the (b, p, p) stack of every level's dL, or
        None for none.  A campaign factors K + dK at all its levels first;
        then every measured ||dL||_F, ||dL||_2 and ||L^-1 dL||_F (inequality
        3.8) comes from one stacked call each, whose members are the
        single-matrix values bit for bit."""
        norms = [None] * len(dk_fros)
        if dls is not None:
            norms = zip(fro_norm(dls), spectral_norm(dls), fro_norm(matmul_stack(self.linv, dls)))
        return [self._report(dk_fro, measured)
                for dk_fro, measured in zip(dk_fros, norms, strict=True)]

    def report(self, dk_fro: float, actual_dl=None) -> NormwiseBoundReport:
        """The report at one level: ``reports`` of that level alone."""
        return self.reports([dk_fro], None if actual_dl is None else actual_dl[None])[0]

    def _report(self, dk_fro: float, measured) -> NormwiseBoundReport:
        """The report at one level; ``measured`` is None, or the measured dL's
        (||dL||_F, ||dL||_2, ||L^-1 dL||_F)."""
        near = []
        x = _square_times(self.linv2, dk_fro)
        cond31 = x < 0.5
        x_f = _square_times(self.linv_f, dk_fro)
        cond312 = x_f < 0.5

        b311 = self.linv2 * self.kappa_min * dk_fro
        b33 = b34 = b313 = b314 = None
        b33_label = None
        if cond31:
            if 0.0 < 1.0 - 2.0 * x < NEAR_BOUNDARY_EPS:
                near.append("b_3_3")
            b33 = max(b311, _b33_value(self.linv2, self.kappa_min, dk_fro, x, SQRT2 - 1.0))
            b33_label = self.kappa_label
            b34 = (2.0 + SQRT2) * b311
            b313 = _b33_value(self.linv2, self.kappa_l, dk_fro, x, 1.0)
            b314 = max(b33, _b33_value(self.linv2, self.kappa_l, dk_fro, x, SQRT2 - 1.0))

        b312 = None
        if cond312:
            if 0.0 < 1.0 - 2.0 * x_f < NEAR_BOUNDARY_EPS:
                near.append("b_3_12")
            b312 = _b33_value(self.linv2, self.kappa_l, dk_fro, x_f, 1.0)

        cond316: bool | None = None
        b315 = None
        if self.w_inv_norm is not None:
            cond316 = _square_times(self.w_inv_norm, dk_fro) < 0.25
            if cond316:
                b315 = 2.0 * self.w_inv_norm * dk_fro

        rel = dk_fro / self.k2
        best317 = None
        best317_label = None
        excluded = []
        strength_ok = True
        for label, coeff in self.coeff_317.items():
            lhs = coeff * rel
            strength_ok = strength_ok and not lhs < x
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
        actual_f = actual_2 = diag38 = None
        if measured is not None:
            actual_f, actual_2, linv_dl_f = measured
            rhs38 = (1.0 - math.sqrt(max(1.0 - 2.0 * x, 0.0))) / SQRT2
            diag38 = linv_dl_f <= rhs38 + VIOLATION_SLACK

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
            diag_3_8_ok=diag38,
            cond_3_18_strength_ok=strength_ok,
        )


def build_componentwise_report(
    l_tilde_dense, eps: float, *, actual_dl=None
) -> ComponentwiseBoundReport:
    """Evaluate the componentwise bounds for a computed factor."""
    lt = np.asarray(l_tilde_dense, dtype=np.float64)
    lt_inv = lower_tri_inverse(lt)
    # the Bauer-Skeel number || |L~^-1||L~| ||_F, of L~^-T too (see the report)
    babs = matmul(np.abs(lt_inv), np.abs(lt))
    cbs_l = fro_norm(babs)
    t = cbs_l * cbs_l * eps
    cond42 = t < 0.5
    near = []
    b43 = b44 = None
    b43_label = None
    # min over D of ||L~ D^-1||_2 ||D |L~^-1||L~| ||_2 in one stack, whose last
    # member is the measured dL if there is one; the first minimum wins
    cands = scaling_candidates(lt, babs)
    mats = [m for _, d in cands for m in (lt * (1.0 / d)[None, :], babs * d[:, None])]
    sig = spectral_norm(np.stack(mats if actual_dl is None else mats + [actual_dl]))
    actual_f = actual_2 = None
    if actual_dl is not None:
        actual_f, actual_2 = fro_norm(actual_dl), sig.pop()
    vals = [ld2 * dbabs2 for ld2, dbabs2 in zip(sig[::2], sig[1::2])]
    best = min(range(len(vals)), key=vals.__getitem__)
    factor, label = vals[best], cands[best][0]
    b49 = factor * cbs_l * eps
    if cond42:
        if 0.0 < 1.0 - 2.0 * t < NEAR_BOUNDARY_EPS:
            near.append("b_4_3")
        b43 = max(b49, _b33_value(factor, cbs_l, eps, t, SQRT2 - 1.0))  # as 3.3 in the report
        b43_label = label
        b44 = (2.0 + SQRT2) * b49

    return ComponentwiseBoundReport(
        eps=eps,
        cond_4_2_ok=cond42,
        b_4_3=b43,
        b_4_3_label=b43_label,
        b_4_4=b44,
        b_4_9_coeff=b49,
        cond_bs_L=cbs_l,
        near_boundary=",".join(near),
        actual_dl_fro=actual_f,
        actual_dl_2=actual_2,
    )


def report_to_json(report) -> str:
    """Flat JSON object, field order fixed, floats at 17 significant digits."""
    return format_json_object((f.name, getattr(report, f.name)) for f in fields(report))
