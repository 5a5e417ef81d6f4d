"""Dense matrix kernels shared by the factorization, bound, and harness layers.

Everything operates on plain 2-D float64 numpy arrays.  Reductions with a
bit-level contract (matmul, Frobenius norms, vector norms) accumulate strictly
left to right so repeated runs produce identical bits; the iterative kernels
are deterministic for a fixed build.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

__all__ = [
    "UNIT_ROUNDOFF",
    "ShapeError",
    "SingularMatrixError",
    "ConvergenceError",
    "ConditionViolated",
    "ParseError",
    "as_matrix",
    "matmul",
    "fro_norm",
    "vec_norm2",
    "singular_values",
    "spectral_norm",
    "kappa2",
    "cond_bauer_skeel",
    "lower_tri_solve",
    "lower_tri_inverse",
    "inverse",
    "up_operator",
    "quadratic_root_bound",
    "gamma_k",
    "sym_eigenvalues",
    "is_psd",
    "format_float",
    "format_json_scalar",
    "format_matrix",
    "parse_matrix",
    "read_matrix",
    "write_matrix",
    "write_text_atomic",
]

UNIT_ROUNDOFF = 2.0 ** -53


class ShapeError(ValueError):
    """Operand dimensions are inconsistent or violate a structural precondition."""


class SingularMatrixError(ValueError):
    """Matrix is singular where an inverse or condition number is required."""


class ConvergenceError(RuntimeError):
    """Iterative kernel failed to meet its tolerance within the sweep cap."""


class ConditionViolated(ValueError):
    """An applicability condition of a bound does not hold."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        msg = f"condition {condition} violated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ParseError(ValueError):
    """Malformed matrix text input."""


def as_matrix(data) -> np.ndarray:
    """Normalize input to a finite float64 2-D array (copy)."""
    arr = np.array(data, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix product with fixed left-to-right accumulation over the inner index.

    Bit-identical to the scalar loop ``s = 0; for k: s += x[i,k]*y[k,j]``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError("matmul operands must be 2-D")
    if x.shape[1] != y.shape[0]:
        raise ShapeError(f"cannot multiply {x.shape} by {y.shape}")
    out = np.zeros((x.shape[0], y.shape[1]))
    for k in range(x.shape[1]):
        out += x[:, k, None] * y[k, :]
    return out


def vec_norm2(v) -> float:
    """Euclidean norm of a 1-D vector, overflow-safe, left-to-right accumulation."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size == 0:
        return 0.0
    amax = float(np.max(np.abs(v)))
    if amax == 0.0:
        return 0.0
    total = 0.0
    for t in (v / amax).tolist():
        total += t * t
    return amax * math.sqrt(total)


def fro_norm(x) -> float:
    """Frobenius norm, overflow-safe, left-to-right accumulation in row order."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0.0
    amax = float(np.max(np.abs(x)))
    if amax == 0.0:
        return 0.0
    total = 0.0
    for t in (x / amax).ravel(order="C").tolist():
        total += t * t
    return amax * math.sqrt(total)


def _round_robin_rounds(n: int) -> list[list[tuple[int, int]]]:
    """Tournament schedule: n-1 rounds of pairwise-disjoint column pairs."""
    slots = list(range(n)) if n % 2 == 0 else list(range(n)) + [-1]
    k = len(slots)
    rounds = []
    order = slots[:]
    for _ in range(k - 1):
        pairs = []
        for t in range(k // 2):
            a, b = order[t], order[k - 1 - t]
            if a >= 0 and b >= 0:
                pairs.append((min(a, b), max(a, b)))
        rounds.append(pairs)
        order = [order[0]] + [order[-1]] + order[1:-1]
    return rounds


@np.errstate(over="raise")  # only tau * tau can overflow; caught there
def _jacobi_sweeps(a: np.ndarray, index_pairs, tol2: float, max_sweeps: int) -> bool:
    """Rotate column pairs of ``a`` in place until a whole sweep needs no
    rotation; False if ``max_sweeps`` sweeps were not enough."""
    for _ in range(max_sweeps):
        rotated = False
        for ii0, jj0 in index_pairs:
            ai = a[:, ii0]
            aj = a[:, jj0]
            app = np.einsum("ij,ij->j", ai, ai)
            aqq = np.einsum("ij,ij->j", aj, aj)
            apq = np.einsum("ij,ij->j", ai, aj)
            need = apq * apq > tol2 * app * aqq
            if not np.any(need):
                continue
            rotated = True
            if not np.all(need):
                ii, jj = ii0[need], jj0[need]
                ai, aj = ai[:, need], aj[:, need]
                app, aqq, apq = app[need], aqq[need], apq[need]
            else:
                ii, jj = ii0, jj0
            tau = (aqq - app) / (2.0 * apq)
            try:
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            except FloatingPointError:
                # tau * tau overflows for |tau| > ~1.3e154 (singular-value
                # ratios below ~1e-154); sqrt(1 + tau^2) is |tau| there
                with np.errstate(over="ignore"):
                    root = np.sqrt(1.0 + tau * tau)
                np.copyto(root, np.abs(tau), where=np.isinf(root))
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + root)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            a[:, ii] = c * ai - s * aj
            a[:, jj] = s * ai + c * aj
        if not rotated:
            return True
    return False


def singular_values(x, tol: float = 1e-14, max_sweeps: int = 60) -> np.ndarray:
    """All singular values, descending, by one-sided Jacobi orthogonalization.

    Column pairs are swept in a round-robin order; pairs within one round are
    disjoint and rotated together.  A pair is skipped once its normalized
    inner product is below ``tol``; convergence is a full sweep without
    rotations.  Raises ConvergenceError after ``max_sweeps`` sweeps.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("singular_values expects a 2-D matrix")
    if x.size == 0:
        return np.zeros(min(x.shape) if x.shape else 0)
    amax = float(np.max(np.abs(x)))
    if amax == 0.0:
        return np.zeros(min(x.shape))
    a = x / amax
    if a.shape[0] < a.shape[1]:
        a = a.T
    a = np.asfortranarray(a)
    n = a.shape[1]
    if n == 1:
        return np.array([amax * vec_norm2(a[:, 0])])
    rounds = _round_robin_rounds(n)
    index_pairs = [
        (np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
        for pairs in rounds
    ]
    if not _jacobi_sweeps(a, index_pairs, tol * tol, max_sweeps):
        raise ConvergenceError(
            f"one-sided Jacobi did not converge within {max_sweeps} sweeps"
        )
    sig = sorted((vec_norm2(a[:, j]) for j in range(n)), reverse=True)
    return amax * np.array(sig)


def spectral_norm(x) -> float:
    """Largest singular value."""
    s = singular_values(x)
    return float(s[0]) if s.size else 0.0


def kappa2(x) -> float:
    """Two-norm condition number sigma_max / sigma_min of a square matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError("kappa2 expects a square matrix")
    if x.shape[0] == 0:
        raise ShapeError("kappa2 of an empty matrix is undefined")
    s = singular_values(x)
    if float(s[-1]) == 0.0:
        raise SingularMatrixError("matrix is singular")
    return float(s[0] / s[-1])


def lower_tri_solve(l: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L X = RHS by forward substitution; RHS may have many columns."""
    l = np.asarray(l, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    n = l.shape[0]
    if l.ndim != 2 or l.shape[1] != n:
        raise ShapeError("triangular solve expects a square matrix")
    if rhs.shape[0] != n:
        raise ShapeError("right-hand side has incompatible row count")
    diag = np.diagonal(l)
    zero = np.flatnonzero(diag == 0.0)
    if zero.size:
        raise SingularMatrixError(f"zero diagonal entry at position {zero[0] + 1}")
    x = np.zeros_like(rhs)
    for i in range(n):
        x[i, :] = (rhs[i, :] - l[i, :i] @ x[:i, :]) / diag[i]
    return x


def _require_lower_triangular(l: np.ndarray) -> None:
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ShapeError("expected a square matrix")
    if l.shape[0] and np.any(np.triu(l, 1) != 0.0):
        raise ShapeError("matrix has nonzero entries above the diagonal")


def lower_tri_inverse(l) -> np.ndarray:
    """Exact forward-substitution inverse of a lower-triangular matrix."""
    l = np.asarray(l, dtype=np.float64)
    _require_lower_triangular(l)
    return lower_tri_solve(l, np.eye(l.shape[0]))


def inverse(x) -> np.ndarray:
    """Inverse of a square matrix.

    Triangular inputs go through forward substitution; everything else uses
    Gauss-Jordan elimination with partial pivoting.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError("inverse expects a square matrix")
    n = x.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if not np.any(np.triu(x, 1) != 0.0):
        return lower_tri_solve(x, np.eye(n))
    if not np.any(np.tril(x, -1) != 0.0):
        return lower_tri_solve(x.T, np.eye(n)).T
    a = x.copy()
    inv = np.eye(n)
    for i in range(n):
        piv = i + int(np.argmax(np.abs(a[i:, i])))
        if a[piv, i] == 0.0:
            raise SingularMatrixError(f"zero pivot at column {i + 1}")
        if piv != i:
            a[[i, piv], :] = a[[piv, i], :]
            inv[[i, piv], :] = inv[[piv, i], :]
        d = a[i, i]
        a[i, :] /= d
        inv[i, :] /= d
        f = a[:, i].copy()
        f[i] = 0.0
        a -= f[:, None] * a[i, :]
        inv -= f[:, None] * inv[i, :]
    return inv


def cond_bauer_skeel(x) -> float:
    """Frobenius norm of |X^-1| |X| (entrywise absolute values)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError("cond_bauer_skeel expects a square matrix")
    xinv = inverse(x)
    return fro_norm(matmul(np.abs(xinv), np.abs(x)))


def up_operator(a) -> np.ndarray:
    """Strict upper part plus half the diagonal; lower part zeroed."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError("up_operator expects a square matrix")
    u = np.triu(a)
    np.fill_diagonal(u, np.diagonal(a) * 0.5)
    return u


def quadratic_root_bound(a: float, b: float, c: float) -> float:
    """Smaller root (b - sqrt(b^2 - 4ac)) / (2a) of the quadratic majorant.

    Evaluated in the cancellation-free form 2c / (b + sqrt(b^2 - 4ac)) so the
    result keeps full relative accuracy as c approaches zero.  Raises
    ConditionViolated when the discriminant is not strictly positive.
    """
    a = float(a)
    b = float(b)
    c = float(c)
    if not (a > 0.0 and b > 0.0):
        raise ValueError("coefficients a and b must be positive")
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise ConditionViolated("quadratic-discriminant", f"b^2 - 4ac = {disc}")
    return 2.0 * c / (b + math.sqrt(disc))


def gamma_k(k: int, u: float = UNIT_ROUNDOFF) -> float:
    """Rounding-error accumulation constant k*u / (1 - k*u)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    ku = k * float(u)
    if ku >= 1.0:
        raise ValueError(f"k*u = {ku} is out of range (needs k*u < 1)")
    return ku / (1.0 - ku)


def sym_eigenvalues(s, tol: float = 1e-13, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of an exactly symmetric matrix, ascending (classical Jacobi)."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError("sym_eigenvalues expects a square matrix")
    if not np.array_equal(s, s.T):
        raise ShapeError("sym_eigenvalues expects an exactly symmetric matrix")
    n = s.shape[0]
    if n == 0:
        return np.zeros(0)
    amax = float(np.max(np.abs(s)))
    if amax == 0.0:
        return np.zeros(n)
    m = s / amax
    converged = False
    for _ in range(max_sweeps):
        off = float(np.max(np.abs(np.triu(m, 1)))) if n > 1 else 0.0
        if off <= tol:
            converged = True
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                v = m[i, j]
                if abs(v) <= tol:
                    continue
                alpha = (m[j, j] - m[i, i]) / (2.0 * v)
                t = (1.0 if alpha >= 0.0 else -1.0) / (
                    abs(alpha) + math.sqrt(1.0 + alpha * alpha)
                )
                c = 1.0 / math.sqrt(1.0 + t * t)
                w = t * c
                ci = m[:, i].copy()
                cj = m[:, j].copy()
                m[:, i] = c * ci - w * cj
                m[:, j] = w * ci + c * cj
                ri = m[i, :].copy()
                rj = m[j, :].copy()
                m[i, :] = c * ri - w * rj
                m[j, :] = w * ri + c * rj
                m[i, j] = m[j, i] = 0.0
    if not converged:
        raise ConvergenceError(
            f"symmetric Jacobi did not converge within {max_sweeps} sweeps"
        )
    return np.sort(np.diagonal(m).copy()) * amax


def is_psd(s, rel_tol: float = 1e-10) -> bool:
    """Positive semi-definite test: min eigenvalue >= -rel_tol * ||S||_2."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape[0] == 0:
        return True
    evs = sym_eigenvalues(s)
    lam_min = float(evs[0])
    norm2 = float(np.max(np.abs(evs)))
    return lam_min >= -rel_tol * norm2


# --- matrix text format ---------------------------------------------------
#
# Line 1: "<rows> <cols>"; then `rows` lines of `cols` whitespace-separated
# decimal values.  Values are emitted with 17 significant digits so that the
# round trip is exact.


def format_float(v: float) -> str:
    return format(float(v), ".17g")


def format_json_scalar(v) -> str:
    """JSON text of None, a bool, an int, a float (17 digits) or a str;
    numpy scalars count as their Python counterparts."""
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(v).__name__}")


def format_matrix(x) -> str:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("format_matrix expects a 2-D matrix")
    lines = [f"{x.shape[0]} {x.shape[1]}"]
    for i in range(x.shape[0]):
        lines.append(" ".join(format_float(v) for v in x[i, :].tolist()))
    return "\n".join(lines) + "\n"


def _parse_float(token: str, lineno: int) -> float:
    try:
        v = float(token)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad number {token!r}") from exc
    if not math.isfinite(v):
        raise ParseError(f"line {lineno}: non-finite value {token!r}")
    return v


def parse_matrix(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError("line 1: expected '<rows> <cols>'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError("line 1: dimensions must be integers") from exc
    if rows < 0 or cols < 0:
        raise ParseError("line 1: dimensions must be nonnegative")
    out = np.zeros((rows, cols))
    lineno = 1
    row = 0
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        if row >= rows:
            raise ParseError(f"line {lineno}: more data rows than declared")
        tokens = raw.split()
        if len(tokens) != cols:
            raise ParseError(
                f"line {lineno}: expected {cols} values, found {len(tokens)}"
            )
        out[row, :] = [_parse_float(t, lineno) for t in tokens]
        row += 1
    if row != rows:
        raise ParseError(f"expected {rows} data rows, found {row}")
    return out


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())


def write_text_atomic(path, text: str) -> None:
    """Write via a temporary file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix(x, path) -> None:
    write_text_atomic(path, format_matrix(x))
