"""Dense matrix kernels shared by the factorization, bound, and harness layers.

The hand-written kernels stay because output bytes depend on them: matmul and
the Euclidean norm accumulate strictly left to right, so repeated runs give
identical bits, and the one-sided Jacobi SVD's one sweep loop rotates a whole
stack with the bits of each matrix alone: each inner product is the same
contiguous reduction, every other step is elementwise, and a matrix a sweep
leaves unrotated stays unrotated.  Its columns are stored as contiguous rows,
kept in each round's slot order (the round's first columns, then their
partners, then the bye of an odd order), so a round reads its pairs as two
slices, takes all their squared norms in one reduction, writes a full round
back by slice assignment, and moves to the next round's order by one gather.
``spectral_norm`` takes the largest singular value from LAPACK's SVD.  The
Jacobi (``singular_values``) stays for the ``NormwiseEvaluator`` alone: the
repository's benchmark keeps every pass of the evaluator in memory, so
LAPACK's faster calls there raise its peak memory past its bound.
Symmetric eigenvalues, for the yes/no PSD test only, come from LAPACK; the
only inverse is the triangular one.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile

import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53
_JACOBI_TOL = 1e-14  # a column pair is rotated while |cos angle| exceeds this
_JACOBI_MAX_SWEEPS = 60
_PSD_RTOL = 1e-10  # is_psd: lambda_min >= -rtol * ||S||_2


class ShapeError(ValueError):
    """Operand dimensions are inconsistent or violate a structural precondition."""


class SingularMatrixError(ValueError):
    """Matrix is singular where an inverse or condition number is required."""


class ConvergenceError(RuntimeError):
    """A numerical kernel failed: an iteration missed its tolerance within the
    sweep cap, a LAPACK routine failed, or a factor overflowed."""


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


def column_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a 2-D array (or of a stack of them),
    overflow-safe: each column scaled by its largest magnitude, its squares
    added top to bottom by ``np.add.accumulate`` (never numpy's pairwise sum),
    bit-identical to the loop ``total += t*t``; Jacobi, ``fro_norm`` and ``bounds`` use it."""
    if x.shape[-2] == 0:
        return np.zeros(x.shape[:-2] + x.shape[-1:])
    amax = np.abs(x).max(axis=-2)
    t = x / np.where(amax == 0.0, 1.0, amax)[..., None, :]
    return amax * np.sqrt(np.add.accumulate(t * t, axis=-2)[..., -1, :])


def fro_norm(x) -> float:
    """Frobenius norm (the Euclidean norm of a vector), overflow-safe; the
    column kernel above applied to the entries, in row order, as one column."""
    return float(column_norms(np.asarray(x, dtype=np.float64).reshape(-1, 1))[0])


@functools.lru_cache(maxsize=32)
def _pair_schedule(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Round-robin rounds of disjoint column pairs i < j, each pair once, as
    read-only (first, second) index arrays, built once per order."""
    order = list(range(n)) + [-1] * (n % 2)  # -1: the bye of an odd order
    schedule = []
    for _ in range(len(order) - 1):
        pairs = [sorted(q) for q in zip(order[: len(order) // 2], order[::-1]) if min(q) >= 0]
        ij = np.array(pairs, dtype=np.intp).reshape(-1, 2).T.copy()
        ij.setflags(write=False)
        schedule.append(tuple(ij))
        order = [order[0], order[-1]] + order[1:-1]
    return tuple(schedule)


@functools.lru_cache(maxsize=32)
def _slot_schedule(n: int) -> tuple[np.ndarray, tuple[tuple[int, np.ndarray], ...]]:
    """``_pair_schedule(n)`` in slot order, built once per order: round r
    keeps its first columns in slots [0, h), its second ones in [h, 2h) and
    the bye of an odd order last.  Returns the last round's column order,
    then per round h and the gather that takes the stack into that round's
    slot order from the one before (round 0's from the last round's)."""
    schedule = _pair_schedule(n)
    orders = [np.concatenate([ii, jj, np.setdiff1d(np.arange(n), np.union1d(ii, jj))])
              for ii, jj in schedule]
    steps = [np.argsort(prev)[cur] for prev, cur in zip(orders[-1:] + orders[:-1], orders)]
    for arr in orders[-1:] + steps:
        arr.setflags(write=False)
    return orders[-1], tuple((ii.size, step) for (ii, _), step in zip(schedule, steps))


@np.errstate(over="raise")  # only tau * tau can overflow; caught there
def _jacobi_sweeps(a: np.ndarray, index_pairs, tol2: float, max_sweeps: int) -> bool:
    """Rotate column pairs of each matrix of a stack in place; row j of member
    k of the contiguous (b, c, r) ``a`` is column j of matrix k, and
    ``index_pairs`` is ``_pair_schedule(c)``.  Each round first gathers a
    working copy into its slot order (``_slot_schedule``), so its pairs are
    the views ``ai`` and ``aj`` and a full round writes back by slices; ``a``
    gets the columns back in their own order.  True after the first sweep
    that rotates nothing, False if ``max_sweeps`` were not enough.  A matrix
    that one sweep leaves unrotated is left so by all later ones: they see
    the same inner products."""
    if not index_pairs:
        return True
    last, rounds = _slot_schedule(a.shape[1])
    s, rotated = a[:, last], True
    for _ in range(max_sweeps):
        rotated = False
        for h, step in rounds:
            s = s.take(step, axis=1)
            ai, aj = s[:, :h], s[:, h : 2 * h]
            norms = np.einsum("kpr,kpr->kp", s[:, : 2 * h], s[:, : 2 * h])
            app, aqq = norms[:, :h], norms[:, h:]
            apq = np.einsum("kpr,kpr->kp", ai, aj)
            need = apq * apq > tol2 * app * aqq
            count = np.count_nonzero(need)
            if not count:
                continue
            rotated = True
            if count == need.size:
                kk, pi, pj = slice(None), slice(0, h), slice(h, 2 * h)
            else:
                kk, pi = np.nonzero(need)
                pj = pi + h
                ai, aj = ai[kk, pi], aj[kk, pi]
                app, aqq, apq = app[kk, pi], aqq[kk, pi], apq[kk, pi]
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
            c, sn = c[..., None], (t * c)[..., None]
            # both blocks before either is written: ai and aj may be views of s
            s[kk, pi], s[kk, pj] = c * ai - sn * aj, sn * ai + c * aj
        if not rotated:
            break
    a[:, last] = s
    return not rotated


def _normalized_stack(x, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A 2-D matrix or (b, r, c) stack as a (b, r, c) stack with each member
    divided by its largest magnitude (a zero member by 1), and those
    magnitudes; other ranks are a ShapeError naming the kernel."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeError(f"{name} expects a 2-D matrix or a stack of them")
    stack = x[None] if x.ndim == 2 else x
    amax = np.abs(stack).max(axis=(1, 2), initial=0.0)
    return stack / np.where(amax == 0.0, 1.0, amax)[:, None, None], amax


def singular_values(x) -> np.ndarray:
    """All singular values, descending, by one-sided Jacobi orthogonalization
    (for a (b, r, c) stack, a (b, min(r, c)) array).

    Column pairs are swept in a round-robin order; pairs within one round are
    disjoint and rotated together.  A pair is skipped once its normalized
    inner product is below ``_JACOBI_TOL``; convergence is a full sweep without
    rotations.  If a matrix of a stack needs more than ``_JACOBI_MAX_SWEEPS``
    sweeps, the call raises ConvergenceError.  A singular-value ratio below
    1e-154, where a rotation's tau^2 overflows, still converges.
    """
    a, amax = _normalized_stack(x, "singular_values")
    # now a[k, j] is column j of matrix k, or of its transpose when it is wide
    a = np.ascontiguousarray(a if a.shape[1] < a.shape[2] else a.transpose(0, 2, 1))
    if not _jacobi_sweeps(a, _pair_schedule(a.shape[1]), _JACOBI_TOL ** 2, _JACOBI_MAX_SWEEPS):
        raise ConvergenceError(
            f"one-sided Jacobi did not converge within {_JACOBI_MAX_SWEEPS} sweeps"
        )
    sig = amax[:, None] * np.sort(column_norms(a.transpose(0, 2, 1)), axis=1)[:, ::-1]
    return sig if np.ndim(x) == 3 else sig[0]


def spectral_norm(x) -> float | list[float]:
    """Largest singular value from LAPACK's SVD (``np.linalg.svd``) of the
    matrix divided by its largest magnitude: a float, or a list for a
    (b, r, c) stack.  LAPACK treats each member alone, so a stack's norms
    are its members' bit for bit.  A LinAlgError is a ConvergenceError."""
    a, amax = _normalized_stack(x, "spectral_norm")
    try:
        sig = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK SVD failed: {exc}") from exc
    top = amax * sig[:, 0] if sig.shape[1] else np.zeros(len(a))
    return (top if np.ndim(x) == 3 else top[0]).tolist()


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


def require_lower_triangular(l: np.ndarray) -> None:
    """ShapeError unless ``l`` is square with no nonzero entry above the diagonal."""
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ShapeError("expected a square matrix")
    if l.shape[0] and np.any(np.triu(l, 1) != 0.0):
        raise ShapeError("matrix has nonzero entries above the diagonal")


def lower_tri_inverse(l) -> np.ndarray:
    """Exact forward-substitution inverse of a lower-triangular matrix."""
    l = np.asarray(l, dtype=np.float64)
    require_lower_triangular(l)
    return lower_tri_solve(l, np.eye(l.shape[0]))


def up_operator(a) -> np.ndarray:
    """Strict upper part plus half the diagonal; lower part zeroed."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError("up_operator expects a square matrix")
    u = np.triu(a)
    np.fill_diagonal(u, np.diagonal(a) * 0.5)
    return u


def gamma_k(k: int) -> float:
    """Rounding-error accumulation constant k*u / (1 - k*u), u the unit roundoff."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    ku = k * UNIT_ROUNDOFF
    if ku >= 1.0:
        raise ValueError(f"k*u = {ku} is out of range (needs k*u < 1)")
    return ku / (1.0 - ku)


def sym_eigenvalues(s) -> np.ndarray:
    """Eigenvalues of an exactly symmetric matrix, ascending (LAPACK)."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError("sym_eigenvalues expects a square matrix")
    if not np.array_equal(s, s.T):
        raise ShapeError("sym_eigenvalues expects an exactly symmetric matrix")
    try:
        return np.linalg.eigvalsh(s)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigvalsh failed: {exc}") from exc


def is_psd(s) -> bool:
    """Positive semi-definite test: min eigenvalue >= -_PSD_RTOL * ||S||_2."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape[0] == 0:
        return True
    evs = sym_eigenvalues(s)
    lam_min = float(evs[0])
    norm2 = float(np.max(np.abs(evs)))
    return lam_min >= -_PSD_RTOL * norm2


# --- matrix text format ---------------------------------------------------
#
# Line 1: "<rows> <cols>"; then `rows` lines of `cols` whitespace-separated
# decimal values.  Values are emitted with 17 significant digits so that the
# round trip is exact.


def format_float(v: float) -> str:
    return format(float(v), ".17g")


def format_json_scalar(v) -> str:
    """JSON text of None, a bool, an int, a finite float (17 digits) or a str;
    numpy scalars count as their Python counterparts.  JSON has no inf or
    nan, so a non-finite float is a ValueError."""
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise ValueError(f"JSON has no representation for {float(v)}")
        return format_float(v)
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(v).__name__}")


def format_json_object(items) -> str:
    """One-line JSON object of (key, value) pairs in order; all JSON output goes through it."""
    return "{" + ", ".join(f'"{k}": {format_json_scalar(v)}' for k, v in items) + "}"


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
