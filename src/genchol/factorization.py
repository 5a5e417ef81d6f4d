"""Saddle-point block matrices and their signed Cholesky factorization.

The central object is the symmetric block matrix K = [[A, B^T], [B, -C]] with
A positive definite, C positive semi-definite, and B of full row rank.  Such a
K always factors as K = L J L^T with L block lower triangular and
J = diag(I_m, -I_n); with positive diagonal entries the factor is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densela import (
    ConvergenceError,
    ShapeError,
    as_matrix,
    is_psd,
    lower_tri_solve,
    matmul,
    matmul_stack,
    parse_matrix,
    require_lower_triangular,
    format_matrix,
    write_text_atomic,
    ParseError,
)

_B_RANK_RTOL = 1e-12  # full-row-rank proxy: sigma_min > rtol * sigma_max


class FactorizationError(ArithmeticError):
    """Cholesky breakdown: a pivot was not strictly positive.

    ``pivot`` is the 1-based position within the full matrix, ``block`` names
    the block whose elimination failed, ``matrix_label`` identifies which
    matrix was being factorized.
    """

    def __init__(self, block: str, pivot: int, value: float, matrix_label: str = "K"):
        self.block = block
        self.pivot = pivot
        self.value = value
        self.matrix_label = matrix_label
        super().__init__(
            f"{matrix_label}: nonpositive pivot {value:.6g} at position {pivot} "
            f"({block} block)"
        )


class SaddleValidationError(ValueError):
    """Block-structure invariant violated (symmetry, PSD, or rank)."""


@dataclass(frozen=True)
class BlockSpec:
    """Block dimensions: an m x m leading block and an n x n trailing block."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.n < 0:
            raise ValueError("n must be nonnegative")

    @property
    def p(self) -> int:
        return self.m + self.n

    def signature(self) -> np.ndarray:
        """Diagonal of J: m entries +1 followed by n entries -1."""
        return np.concatenate([np.ones(self.m), -np.ones(self.n)])


def _cholesky_lower(
    mat: np.ndarray, block: str, offset: int, matrix_label: str
) -> np.ndarray:
    """Lower Cholesky factor; fails on the first nonpositive pivot.

    Column j takes exactly two BLAS calls, one ``ddot`` of row j for its pivot
    and one ``dgemv`` for the entries below it; the diagonal is read once as
    Python floats, and the pivot's subtraction, square root and division
    round as numpy's scalars would.  A (b, n, n) stack runs column j of all
    members as one batched ``np.matmul`` for the pivots and one for the
    entries below them, and numpy's square root and division round as
    Python's do; it raises the first breakdown it meets, that of the first
    member to break at the lowest column (the stack contract: ``densela``).
    """
    n = mat.shape[-1]
    l = np.zeros(mat.shape)
    if mat.ndim == 3:
        diag = np.diagonal(mat, axis1=1, axis2=2)
        for j in range(n):
            row = l[:, j, :j, None]
            d = diag[:, j] - (row.swapaxes(1, 2) @ row)[:, 0, 0]
            if (d <= 0.0).any():  # as in a call of its own, a NaN pivot is no breakdown
                raise FactorizationError(block, offset + j + 1, float(d[d <= 0.0][0]), matrix_label)
            pivot = np.sqrt(d)
            l[:, j, j] = pivot
            if j + 1 < n:
                below = (l[:, j + 1 :, :j] @ row)[..., 0]
                l[:, j + 1 :, j] = (mat[:, j + 1 :, j] - below) / pivot[:, None]
        return l
    for j, diag in enumerate(np.diagonal(mat).tolist()):
        row = l[j, :j]
        d = diag - float(row @ row)
        if d <= 0.0:
            raise FactorizationError(block, offset + j + 1, d, matrix_label)
        pivot = math.sqrt(d)
        l[j, j] = pivot
        if j + 1 < n:
            l[j + 1 :, j] = (mat[j + 1 :, j] - l[j + 1 :, :j] @ row) / pivot
    return l


@dataclass(frozen=True)
class SaddleMatrix:
    """Validated saddle matrix K = [[A, B^T], [B, -C]], stored dense and read-only.

    ``l11`` is the Cholesky factor of A that the definiteness check computed,
    read-only; ``factorize`` continues from it.  It is derived from K, so it
    takes no part in ``==`` or ``repr``.
    """

    spec: BlockSpec
    K: np.ndarray
    l11: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def from_blocks(cls, a, b, c) -> "SaddleMatrix":
        a = as_matrix(a)
        b = as_matrix(b)
        c = as_matrix(c)
        m = a.shape[0]
        n = c.shape[0]
        spec = BlockSpec(m, n)
        if a.shape != (m, m):
            raise ShapeError("A must be square")
        if c.shape != (n, n):
            raise ShapeError("C must be square")
        if b.shape != (n, m):
            raise ShapeError(f"B must be {n} x {m}, got {b.shape}")
        if n > m:
            raise SaddleValidationError(
                f"B is {n} x {m}: more rows than columns, so no full row rank"
            )
        if not np.array_equal(a, a.T):
            raise SaddleValidationError("A is not exactly symmetric")
        if not np.array_equal(c, c.T):
            raise SaddleValidationError("C is not exactly symmetric")
        l11 = _cholesky_lower(a, "A", 0, "A")  # positive definiteness
        l11.setflags(write=False)
        if not is_psd(c):
            raise SaddleValidationError("C is not positive semi-definite")
        if n > 0:
            try:
                sig = np.linalg.svd(b, compute_uv=False)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"LAPACK SVD of B failed: {exc}") from exc
            if float(sig[-1]) <= _B_RANK_RTOL * float(sig[0]):
                raise SaddleValidationError("B does not have full row rank")
        k = np.zeros((spec.p, spec.p))
        k[:m, :m] = a
        k[:m, m:] = b.T
        k[m:, :m] = b
        k[m:, m:] = -c
        k.setflags(write=False)
        return cls(spec, k, l11)

    @classmethod
    def from_dense(cls, k, m: int, n: int) -> "SaddleMatrix":
        k = as_matrix(k)
        p = m + n
        if k.shape != (p, p):
            raise ShapeError(f"dense matrix must be {p} x {p}, got {k.shape}")
        if not np.array_equal(k, k.T):
            raise SaddleValidationError("K is not exactly symmetric")
        return cls.from_blocks(k[:m, :m], k[m:, :m], -k[m:, m:])

    @property
    def p(self) -> int:
        return self.spec.p


@dataclass(frozen=True)
class GenCholFactor:
    """Lower-triangular p x p factor L with positive diagonal, read-only; its
    blocks are the slices L[:m, :m], L[m:, :m] and L[m:, m:].  A stacked
    ``factorize_dense`` gives one factor whose ``L`` is the (b, p, p) stack
    of its members' factors."""

    spec: BlockSpec
    L: np.ndarray

    @classmethod
    def from_dense(cls, l, m: int, n: int) -> "GenCholFactor":
        l = as_matrix(l)
        p = m + n
        if l.shape != (p, p):
            raise ShapeError(f"dense factor must be {p} x {p}, got {l.shape}")
        spec = BlockSpec(m, n)
        require_lower_triangular(l)
        if np.any(np.diagonal(l) <= 0.0):
            raise ValueError("factor must have strictly positive diagonal")
        l.setflags(write=False)
        return cls(spec, l)

    @property
    def p(self) -> int:
        return self.spec.p


def _factor_core(
    k: np.ndarray, l11: np.ndarray, m: int, n: int, matrix_label: str
) -> np.ndarray:
    """The read-only factor of ``k`` given ``l11``, the Cholesky factor of its
    A block; of a (b, p, p) stack with a stack of ``l11``, the (b, p, p)
    stack of its members' factors (the stack contract: ``densela``)."""
    l = np.zeros(k.shape)
    l[..., :m, :m] = l11
    with np.errstate(over="ignore", invalid="ignore"):
        if n > 0:
            # L21 solves L21 L11^T = B, i.e. L11 L21^T = B^T by forward
            # substitution.  B^T is taken as the transpose of the lower block, not
            # as the upper block: the two hold the same values but have different
            # memory layouts, and the layout picks the BLAS path of the solve.
            l21 = lower_tri_solve(l11, k[..., m:, :m].swapaxes(-1, -2)).swapaxes(-1, -2)
            l[..., m:, :m] = l21
            l21t = l21.swapaxes(-1, -2)
            gram = matmul(l21, l21t) if k.ndim == 2 else matmul_stack(l21, l21t)
            l[..., m:, m:] = _cholesky_lower(-k[..., m:, m:] + gram, "Schur", m, matrix_label)
    # lower triangular with a positive diagonal by construction; finite is not promised
    if not np.isfinite(l).all():
        raise ConvergenceError(f"{matrix_label}: the factor overflows")
    l.setflags(write=False)
    return l


def factorize(s: SaddleMatrix) -> GenCholFactor:
    """Factor a validated saddle matrix as K = L J L^T."""
    return GenCholFactor(s.spec, _factor_core(s.K, s.l11, s.spec.m, s.spec.n, "K"))


def factorize_dense(k, m: int, n: int, matrix_label: str = "K"):
    """Factor a dense symmetric matrix with the given block split.

    No saddle-structure validation beyond exact symmetry: the factorization
    exists whenever both Cholesky eliminations succeed, which covers
    perturbed matrices whose trailing block is indefinite.  A (b, p, p)
    stack gives one factor whose ``L`` is the (b, p, p) stack of its
    members' factors, under the stack contract of ``densela``.
    """
    k = np.array(k, dtype=np.float64, order="C")
    p = m + n
    if k.ndim not in (2, 3):
        raise ShapeError(f"expected a 2-D matrix, got ndim={k.ndim}")
    if k.size and not np.isfinite(k).all():
        raise ValueError("matrix entries must be finite")
    if k.shape[-2:] != (p, p):
        raise ShapeError(f"expected a {p} x {p} matrix, got {k.shape}")
    if not np.array_equal(k, k.swapaxes(-1, -2)):
        raise ShapeError("matrix is not exactly symmetric")
    with np.errstate(over="ignore", invalid="ignore"):
        l11 = _cholesky_lower(k[..., :m, :m], "A", 0, matrix_label)
    return GenCholFactor(BlockSpec(m, n), _factor_core(k, l11, m, n, matrix_label))


def reconstruct(f: GenCholFactor) -> np.ndarray:
    """Dense L J L^T; exactly symmetric because signs commute with products."""
    lj = f.L * f.spec.signature()[None, :]
    return matmul(lj, f.L.T)


# --- saddle matrix text format ---------------------------------------------
#
# Line 1: "<m> <n>"; then the (m+n) x (m+n) dense symmetric K as data rows
# only (no second dimension header).  Exact symmetry is required on read.


def format_saddle(s: SaddleMatrix) -> str:
    rows = format_matrix(s.K).split("\n", 1)[1]  # drop the "<p> <p>" header
    return f"{s.spec.m} {s.spec.n}\n{rows}"


def write_saddle(s: SaddleMatrix, path) -> None:
    write_text_atomic(path, format_saddle(s))


def read_saddle(path) -> SaddleMatrix:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty saddle matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError("line 1: expected '<m> <n>'")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError("line 1: block dimensions must be integers") from exc
    if m < 1 or n < 0:
        raise ParseError("line 1: need m >= 1 and n >= 0")
    p = m + n
    body = f"{p} {p}\n" + "\n".join(lines[1:])
    k = parse_matrix(body)
    if not np.array_equal(k, k.T):
        raise ParseError("matrix is not exactly symmetric")
    return SaddleMatrix.from_dense(k, m, n)
