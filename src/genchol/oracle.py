"""Independent brute-force machinery used to check the bound layer.

Provides the half-vectorization pair (duvec for symmetric matrices, uvec for
lower-triangular ones), the operator matrix of the linearized perturbation map
X -> X J L^T + L J X^T built column by column from its definition, the
refactorization ground truth for the factor perturbation (the one dL
measurement of both campaigns and of `genchol bounds`), and a
compensated-arithmetic residual for backward-error experiments.
"""

from __future__ import annotations

import numpy as np

from .densela import (
    ConvergenceError,
    ShapeError,
    as_matrix,
    lower_tri_inverse,
    matmul,
    require_lower_triangular,
    spectral_norm,
)
from .factorization import GenCholFactor, SaddleMatrix, factorize_dense


def _stack_lower(x: np.ndarray) -> np.ndarray:
    """The lower triangle of a square matrix, stacked column by column."""
    p = x.shape[0]
    return np.concatenate([x[j:, j] for j in range(p)]) if p else np.zeros(0)


def duvec(s) -> np.ndarray:
    """Column-stacked lower triangle of an exactly symmetric matrix."""
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise ShapeError("duvec expects a square matrix")
    if not np.array_equal(s, s.T):
        raise ShapeError("duvec expects an exactly symmetric matrix")
    return _stack_lower(s)


def uvec_lower(x) -> np.ndarray:
    """Column-stacked lower triangle of a lower-triangular matrix."""
    x = as_matrix(x)
    require_lower_triangular(x)
    return _stack_lower(x)


def unuvec(h) -> np.ndarray:
    """Inverse of uvec_lower: rebuild the lower-triangular matrix."""
    h = np.asarray(h, dtype=np.float64).ravel()
    q = h.size
    p = int((np.sqrt(8.0 * q + 1.0) - 1.0) / 2.0 + 0.5)
    if p * (p + 1) // 2 != q:
        raise ShapeError(f"length {q} is not a triangular number")
    out = np.zeros((p, p))
    pos = 0
    for j in range(p):
        cnt = p - j
        out[j:, j] = h[pos : pos + cnt]
        pos += cnt
    return out


def build_w(factor: GenCholFactor) -> np.ndarray:
    """Dense q x q matrix (q = p(p+1)/2) of the map X -> duvec(X J L^T + L J X^T)
    in uvec bases: lower triangular, with nonzero diagonal whenever L is
    nonsingular.

    The defining map is applied to every lower-triangle basis element: the
    column for basis position (i, j) is duvec(E_ij J L^T + L J E_ij^T); no
    index formula is used, so the construction is correct by definition.
    """
    l = factor.L
    p = factor.p
    jvec = factor.spec.signature()
    jlt = jvec[:, None] * l.T
    lj = l * jvec[None, :]
    q = p * (p + 1) // 2
    w = np.zeros((q, q))
    col = 0
    for j in range(p):
        for i in range(j, p):
            e = np.zeros((p, p))
            e[i, j] = 1.0
            y = matmul(e, jlt) + matmul(lj, e.T)
            w[:, col] = duvec(y)
            col += 1
    return w


def w_inverse_norm(w) -> float:
    """||W^-1||_2: W^-1 by forward substitution on ``build_w``'s triangular W,
    then its ``spectral_norm``."""
    return spectral_norm(lower_tri_inverse(w))


def check_perturbation(dk, p: int) -> np.ndarray:
    """A float copy of ``dk``, a matrix or a (b, p, p) stack; ShapeError
    unless it is p x p and exactly symmetric."""
    dk = np.array(dk, dtype=np.float64, order="C")
    if dk.ndim not in (2, 3):
        raise ShapeError(f"expected a 2-D matrix, got ndim={dk.ndim}")
    if dk.size and not np.isfinite(dk).all():
        raise ValueError("matrix entries must be finite")
    if dk.shape[-2:] != (p, p):
        raise ShapeError(f"perturbation must be {p} x {p}, got {dk.shape}")
    if not np.array_equal(dk, dk.swapaxes(-1, -2)):
        raise ShapeError("perturbation is not exactly symmetric")
    return dk


def actual_delta_l(factor: GenCholFactor, k, dk) -> np.ndarray:
    """Ground-truth factor perturbation L(K + dK) - L by refactorization.

    ``factor`` is the factor L of K; K + dK is factored with its block split.
    A breakdown raises FactorizationError labelled "K+dK".  A (b, p, p) stack
    of dKs gives the (b, p, p) stack of their dLs, from the one stacked
    factor of ``factorize_dense`` (the stack contract: ``densela``).  This
    is where a stack's error becomes a loop's: if the stacked check or
    factorization fails, every member is checked and then every member
    factored, in order, so a refused member wins over any breakdown, and
    the error is that of the first member to fail.  If none fails alone, the stack's own
    error is raised.
    """
    m, n = factor.spec.m, factor.spec.n
    try:
        checked = check_perturbation(dk, factor.p)
        perturbed = factorize_dense(k + checked, m, n, "K+dK")
    except (ArithmeticError, ConvergenceError, ValueError):
        if np.ndim(dk) == 3:
            members = [check_perturbation(member, factor.p) for member in dk]
            for member in members:
                factorize_dense(k + member, m, n, "K+dK")
        raise
    return perturbed.L - factor.L


# --- compensated residual ---------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp split constant


def _two_prod(a, b):
    x = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    err = ((ah * bh - x) + ah * bl + al * bh) + al * bl
    return x, err


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def compensated_residual(factor: GenCholFactor, s: SaddleMatrix) -> np.ndarray:
    """L J L^T - K with every product and sum carried in error-free pairs.

    The result is the backward error of the factor, accurate to second order
    in the unit roundoff, and exactly zero when all products are representable.
    The p column outer products are split into (product, error) pairs in one
    call on a (p, p, p) stack.  Their sum, then -K, is one product per term
    summed in order from zero: one ``np.add.accumulate`` gives every partial
    sum, ``_two_sum`` takes the rounding errors of all of them at once, and
    the compensation (each product's error plus its sum's) is a second
    accumulate from zero.  The order of the sums sets the bits.
    """
    if factor.spec != s.spec:
        raise ShapeError("factor and matrix have different block specs")
    l = factor.L
    jvec = factor.spec.signature()
    p = factor.p
    # member k is column k's outer product: L e_k times its sign (exact), by L e_k
    prods, perrs = _two_prod((l * jvec).T[:, :, None], l.T[:, None, :])
    terms = np.zeros((p + 2, p, p))  # a zero start, the p products, -K
    terms[1:-1] = prods
    terms[-1] = -s.K
    partial = np.add.accumulate(terms, axis=0)
    _, serrs = _two_sum(partial[:-1], terms[1:])
    comp = np.zeros((p + 2, p, p))  # a zero start, each term's errors
    comp[1:-1] = perrs
    comp[1:] += serrs
    return partial[-1] + np.add.accumulate(comp, axis=0, out=comp)[-1]
