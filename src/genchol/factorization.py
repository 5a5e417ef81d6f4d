"""Saddle-point block matrices and their signed Cholesky factorization.

The central object is the symmetric block matrix K = [[A, B^T], [B, -C]] with
A positive definite, C positive semi-definite, and B of full row rank.  Such a
K always factors as K = L J L^T with L block lower triangular and
J = diag(I_m, -I_n); with positive diagonal entries the factor is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densela import (
    ShapeError,
    as_matrix,
    is_psd,
    lower_tri_solve,
    matmul,
    parse_matrix,
    format_float,
    singular_values,
    write_text_atomic,
    ParseError,
)

__all__ = [
    "BlockSpec",
    "SaddleMatrix",
    "GenCholFactor",
    "FactorizationError",
    "SaddleValidationError",
    "assemble_k",
    "factorize",
    "factorize_dense",
    "reconstruct",
    "factor_to_dense",
    "read_saddle",
    "write_saddle",
    "format_saddle",
]

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


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


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
    """Lower Cholesky factor; fails on the first nonpositive pivot."""
    n = mat.shape[0]
    l = np.zeros((n, n))
    for j in range(n):
        d = float(mat[j, j]) - float(l[j, :j] @ l[j, :j])
        if d <= 0.0:
            raise FactorizationError(block, offset + j + 1, d, matrix_label)
        l[j, j] = math.sqrt(d)
        if j + 1 < n:
            l[j + 1 :, j] = (mat[j + 1 :, j] - l[j + 1 :, :j] @ l[j, :j]) / l[j, j]
    return l


@dataclass(frozen=True)
class SaddleMatrix:
    """Validated blocks (A, B, C) of a saddle-point matrix."""

    spec: BlockSpec
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @classmethod
    def from_blocks(cls, a, b, c, validate: bool = True) -> "SaddleMatrix":
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
        if validate:
            if not np.array_equal(a, a.T):
                raise SaddleValidationError("A is not exactly symmetric")
            if not np.array_equal(c, c.T):
                raise SaddleValidationError("C is not exactly symmetric")
            _cholesky_lower(a, "A", 0, "A")  # positive definiteness
            if not is_psd(c):
                raise SaddleValidationError("C is not positive semi-definite")
            if n > 0:
                sig = singular_values(b)
                if float(sig[-1]) <= _B_RANK_RTOL * float(sig[0]):
                    raise SaddleValidationError("B does not have full row rank")
        obj = cls.__new__(cls)
        object.__setattr__(obj, "spec", spec)
        object.__setattr__(obj, "A", _frozen(a))
        object.__setattr__(obj, "B", _frozen(b))
        object.__setattr__(obj, "C", _frozen(c))
        return obj

    @classmethod
    def from_dense(cls, k, m: int, n: int, validate: bool = True) -> "SaddleMatrix":
        k = as_matrix(k)
        p = m + n
        if k.shape != (p, p):
            raise ShapeError(f"dense matrix must be {p} x {p}, got {k.shape}")
        return cls.from_blocks(k[:m, :m], k[m:, :m], -k[m:, m:], validate=validate)

    @property
    def p(self) -> int:
        return self.spec.p


@dataclass(frozen=True)
class GenCholFactor:
    """Block lower-triangular factor L with positive diagonal entries."""

    spec: BlockSpec
    L11: np.ndarray
    L21: np.ndarray
    L22: np.ndarray

    @classmethod
    def from_blocks(cls, l11, l21, l22) -> "GenCholFactor":
        l11 = as_matrix(l11)
        l21 = as_matrix(l21)
        l22 = as_matrix(l22)
        m = l11.shape[0]
        n = l22.shape[0]
        spec = BlockSpec(m, n)
        if l11.shape != (m, m) or l22.shape != (n, n) or l21.shape != (n, m):
            raise ShapeError("inconsistent factor block shapes")
        for name, blk in (("L11", l11), ("L22", l22)):
            if blk.shape[0] and np.any(np.triu(blk, 1) != 0.0):
                raise ShapeError(f"{name} is not lower triangular")
            if np.any(np.diagonal(blk) <= 0.0):
                raise ValueError(f"{name} must have strictly positive diagonal")
        obj = cls.__new__(cls)
        object.__setattr__(obj, "spec", spec)
        object.__setattr__(obj, "L11", _frozen(l11))
        object.__setattr__(obj, "L21", _frozen(l21))
        object.__setattr__(obj, "L22", _frozen(l22))
        return obj

    @classmethod
    def from_dense(cls, l, m: int, n: int) -> "GenCholFactor":
        l = as_matrix(l)
        p = m + n
        if l.shape != (p, p):
            raise ShapeError(f"dense factor must be {p} x {p}, got {l.shape}")
        if np.any(l[:m, m:] != 0.0):
            raise ShapeError("upper-right block of a dense factor must be zero")
        return cls.from_blocks(l[:m, :m], l[m:, :m], l[m:, m:])

    @property
    def p(self) -> int:
        return self.spec.p


def assemble_k(s: SaddleMatrix) -> np.ndarray:
    """Dense symmetric [[A, B^T], [B, -C]]."""
    m, n = s.spec.m, s.spec.n
    p = m + n
    k = np.zeros((p, p))
    k[:m, :m] = s.A
    k[:m, m:] = s.B.T
    k[m:, :m] = s.B
    k[m:, m:] = -s.C
    return k


def _factor_core(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, matrix_label: str
) -> GenCholFactor:
    m = a.shape[0]
    n = c.shape[0]
    l11 = _cholesky_lower(a, "A", 0, matrix_label)
    if n == 0:
        return GenCholFactor.from_blocks(l11, np.zeros((0, m)), np.zeros((0, 0)))
    # L21 solves L21 L11^T = B, i.e. L11 L21^T = B^T by forward substitution.
    l21 = lower_tri_solve(l11, b.T).T
    schur = c + matmul(l21, l21.T)
    l22 = _cholesky_lower(schur, "Schur", m, matrix_label)
    return GenCholFactor.from_blocks(l11, l21, l22)


def factorize(s: SaddleMatrix) -> GenCholFactor:
    """Factor a validated saddle matrix as K = L J L^T."""
    return _factor_core(np.asarray(s.A), np.asarray(s.B), np.asarray(s.C), "K")


def factorize_dense(k, m: int, n: int, matrix_label: str = "K") -> GenCholFactor:
    """Factor a dense symmetric matrix with the given block split.

    No saddle-structure validation beyond exact symmetry: the factorization
    exists whenever both Cholesky eliminations succeed, which covers
    perturbed matrices whose trailing block is indefinite.
    """
    k = as_matrix(k)
    p = m + n
    if k.shape != (p, p):
        raise ShapeError(f"expected a {p} x {p} matrix, got {k.shape}")
    if not np.array_equal(k, k.T):
        raise ShapeError("matrix is not exactly symmetric")
    return _factor_core(k[:m, :m], k[m:, :m], -k[m:, m:], matrix_label)


def factor_to_dense(f: GenCholFactor) -> np.ndarray:
    """Dense p x p lower-triangular embedding [[L11, 0], [L21, L22]]."""
    m, n = f.spec.m, f.spec.n
    p = m + n
    l = np.zeros((p, p))
    l[:m, :m] = f.L11
    l[m:, :m] = f.L21
    l[m:, m:] = f.L22
    return l


def reconstruct(f: GenCholFactor) -> np.ndarray:
    """Dense L J L^T; exactly symmetric because signs commute with products."""
    l = factor_to_dense(f)
    lj = l * f.spec.signature()[None, :]
    return matmul(lj, l.T)


# --- saddle matrix text format ---------------------------------------------
#
# Line 1: "<m> <n>"; then the (m+n) x (m+n) dense symmetric K as data rows
# only (no second dimension header).  Exact symmetry is required on read.


def format_saddle(s: SaddleMatrix) -> str:
    k = assemble_k(s)
    lines = [f"{s.spec.m} {s.spec.n}"]
    for i in range(k.shape[0]):
        lines.append(" ".join(format_float(v) for v in k[i, :].tolist()))
    return "\n".join(lines) + "\n"


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
