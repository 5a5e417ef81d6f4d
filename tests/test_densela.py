import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genchol import densela
from genchol.densela import (
    UNIT_ROUNDOFF,
    ConvergenceError,
    ShapeError,
    SingularMatrixError,
    fro_norm,
    gamma_k,
    is_psd,
    lower_tri_inverse,
    matmul,
    parse_matrix,
    format_json_scalar,
    format_matrix,
    singular_values,
    spectral_norm,
    sym_eigenvalues,
    up_operator,
)

U = UNIT_ROUNDOFF


def naive_matmul(x, y):
    m, kk = x.shape
    n = y.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for k in range(kk):
                s += x[i, k] * y[k, j]
            out[i, j] = s
    return out


def power_iteration_sigma_max(x, iters=20000):
    """Largest singular value via power iteration on X^T X."""
    g = x.T @ x
    n = g.shape[0]
    b = np.ones(n) / math.sqrt(n)
    lam = 0.0
    for _ in range(iters):
        nb = g @ b
        norm = np.linalg.norm(nb)
        if norm == 0.0:
            return 0.0
        b = nb / norm
        lam = float(b @ (g @ b))
    return math.sqrt(lam)


class TestMatmul:
    def test_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(np.eye(3), x), x)

    def test_two_by_two(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(x, np.eye(2)), x)

    def test_matches_naive_triple_loop_exactly(self, rng):
        for _ in range(50):
            x = rng.standard_normal((5, 5)) * 10.0 ** rng.integers(-3, 4)
            y = rng.standard_normal((5, 5))
            assert np.array_equal(matmul(x, y), naive_matmul(x, y))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))


class TestFroNorm:
    def test_all_ones(self):
        assert fro_norm(np.ones((2, 2))) == 2.0

    def test_zero(self):
        assert fro_norm(np.zeros((3, 4))) == 0.0

    def test_three_four_five(self):
        assert fro_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_overflow_safe(self):
        x = np.array([[3e200, 4e200]])
        assert fro_norm(x) == pytest.approx(5e200, rel=1e-15)


def scalar_loop_norm(v) -> float:
    """The byte contract of the norms: scale by the largest magnitude, then
    accumulate the squares one at a time, left to right."""
    v = np.asarray(v, dtype=np.float64).ravel()
    amax = float(np.max(np.abs(v))) if v.size else 0.0
    if amax == 0.0:
        return 0.0
    total = 0.0
    for t in (v / amax).tolist():
        total += t * t
    return amax * math.sqrt(total)


def extreme_matrix(rng, rows, cols):
    """Entries of random sign with magnitudes spread over 1e-300 .. 1e300."""
    return rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-300, 300, (rows, cols))


class TestNormByteContract:
    def test_fro_norm_equals_scalar_loop(self, rng):
        for _ in range(200):
            rows, cols = rng.integers(1, 12, size=2)
            x = extreme_matrix(rng, rows, cols)
            assert fro_norm(x) == scalar_loop_norm(x)
            assert fro_norm(x.T) == scalar_loop_norm(x.T)  # row order of a view

    def test_column_norms_equal_scalar_loop(self, rng):
        # both layouts: Jacobi hands over transposed (column-contiguous)
        # stacks of wide matrices, where numpy's sum would add pairwise
        for _ in range(200):
            rows, cols = rng.integers(1, 40), rng.integers(1, 12)
            x = extreme_matrix(rng, rows, cols)
            x[:, rng.integers(cols)] = 0.0
            want = [scalar_loop_norm(x[:, j]) for j in range(cols)]
            assert densela.column_norms(x).tolist() == want
            assert densela.column_norms(np.asfortranarray(x)).tolist() == want
            assert densela.column_norms(np.stack([x, -x])).tolist() == [want, want]

    def test_zero_columns(self):
        assert densela.column_norms(np.zeros((4, 3))).tolist() == [0.0, 0.0, 0.0]
        assert densela.column_norms(np.zeros((0, 2))).tolist() == [0.0, 0.0]

    def test_length_one(self, rng):
        for v in extreme_matrix(rng, 1, 50).ravel():
            assert fro_norm([v]) == scalar_loop_norm([v]) == abs(v)
            assert densela.column_norms(np.array([[v]])).tolist() == [abs(v)]

    def test_singular_values_are_sorted_column_norms(self, rng):
        # rerun the rotations of singular_values on a stack, each matrix
        # scaled as it does and its columns (a wide one's rows) stored as
        # contiguous rows, and read the column norms off those rows
        for shape in [(5, 5), (7, 4), (3, 6)]:
            x = rng.standard_normal((3,) + shape)
            amax = np.abs(x).max(axis=(1, 2))
            a = x / amax[:, None, None]
            cols = np.ascontiguousarray(a if shape[0] < shape[1] else a.transpose(0, 2, 1))
            schedule = densela._pair_schedule(cols.shape[1])
            assert densela._jacobi_sweeps(
                cols, schedule, densela._JACOBI_TOL ** 2, densela._JACOBI_MAX_SWEEPS
            )
            for k in range(3):
                norms = sorted((fro_norm(col) for col in cols[k]), reverse=True)
                assert singular_values(x[k]).tolist() == (amax[k] * np.array(norms)).tolist()


class TestPairSchedule:
    @pytest.mark.parametrize("n", [*range(1, 14), 28])
    def test_matches_round_robin(self, n):
        # a round-robin tournament: n - 1 rounds (n for odd n) of disjoint
        # pairs i < j, every pair exactly once per sweep
        schedule = densela._pair_schedule(n)
        assert len(schedule) == n - 1 + n % 2
        pairs = []
        for ii, jj in schedule:
            members = ii.tolist() + jj.tolist()
            assert len(set(members)) == len(members)
            pairs += zip(ii.tolist(), jj.tolist())
        assert all(i < j for i, j in pairs)
        assert sorted(pairs) == list(itertools.combinations(range(n), 2))

    def test_pinned_order(self):
        # the order of the rotations sets the output bits
        pinned = {
            4: [([0, 1], [3, 2]), ([0, 1], [2, 3]), ([0, 2], [1, 3])],
            5: [([1, 2], [4, 3]), ([0, 1], [4, 2]), ([0, 2], [3, 4]), ([0, 1], [2, 3]),
                ([0, 3], [1, 4])],
        }
        for n, rounds in pinned.items():
            assert [(ii.tolist(), jj.tolist()) for ii, jj in densela._pair_schedule(n)] == rounds

    def test_built_once_and_read_only(self):
        schedule = densela._pair_schedule(5)
        assert densela._pair_schedule(5) is schedule
        for ii, jj in schedule:
            for arr in (ii, jj):
                with pytest.raises(ValueError):
                    arr[0] = 0


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, rel=1e-14)

    def test_rank_one(self):
        u = np.array([[0.6], [0.8]])
        v = np.array([[0.8, 0.6]])
        assert spectral_norm(u @ v) == pytest.approx(1.0, rel=1e-13)

    def test_matches_power_iteration_oracle(self, rng):
        for _ in range(10):
            x = rng.standard_normal((6, 6))
            assert spectral_norm(x) == pytest.approx(
                power_iteration_sigma_max(x), rel=1e-10
            )

    def test_accuracy_against_fro_scale(self, rng):
        for _ in range(25):
            x = rng.standard_normal((7, 5))
            ref = float(np.linalg.svd(x, compute_uv=False)[0])
            assert abs(spectral_norm(x) - ref) <= 1e-12 * fro_norm(x)


class TestSingularValues:
    def test_tiny_singular_value_ratio(self):
        # sigma_min / sigma_max = 1e-145: tau * tau overflows in the rotation
        x = np.array([[1.0, 1e-156], [0.0, 1e-145]])
        got = singular_values(x)
        assert got == pytest.approx([1.0, 1e-145], rel=1e-15)
        assert got == pytest.approx(np.linalg.svd(x, compute_uv=False), rel=1e-15)


def assert_stack_is_its_members(stack):
    """A stack's singular values and spectral norms are, bit for bit, those
    of its members taken one at a time."""
    stack = np.asarray(stack, dtype=np.float64)
    got = singular_values(stack)
    assert got.shape == (stack.shape[0], min(stack.shape[1:]))
    assert got.tolist() == [singular_values(x).tolist() for x in stack]
    norms = spectral_norm(stack)
    assert norms == [spectral_norm(x) for x in stack]
    assert all(type(v) is float for v in norms)


class TestStackedSingularValues:
    def test_zero_member(self, rng):
        stack = rng.standard_normal((3, 4, 4))
        stack[1] = 0.0
        assert_stack_is_its_members(stack)
        assert spectral_norm(stack)[1] == 0.0

    def test_tau_overflow_member_among_ordinary_ones(self, rng):
        tiny = np.array([[1.0, 1e-156], [0.0, 1e-145]])
        ordinary = rng.standard_normal((2, 2, 2))
        stack = np.stack([ordinary[0], tiny, np.eye(2), ordinary[1]])
        assert_stack_is_its_members(stack)
        assert singular_values(stack)[1] == pytest.approx([1.0, 1e-145], rel=1e-15)

    @pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 5)])
    def test_single_column_or_row(self, rng, shape):
        assert_stack_is_its_members(rng.standard_normal((4,) + shape))

    @pytest.mark.parametrize("shape", [(2, 5), (3, 7), (6, 12)])
    def test_wide(self, rng, shape):
        assert_stack_is_its_members(rng.standard_normal((3,) + shape))

    @pytest.mark.parametrize("shape, values", [
        ((0, 3, 3), (0, 3)), ((2, 0, 3), (2, 0)), ((2, 3, 0), (2, 0)),
    ])
    def test_empty(self, shape, values):
        assert singular_values(np.zeros(shape)).shape == values
        assert spectral_norm(np.zeros(shape)) == [0.0] * shape[0]

    def test_column_scales_property(self, rng):
        # members of one stack converge after different numbers of sweeps
        for _ in range(60):
            n = int(rng.choice([2, 3, 7, 12]))
            rows = int(rng.choice([1, n - 1, n, n + 3]))
            shape = (rows, n) if rng.random() < 0.5 else (n, rows)
            scales = 10.0 ** rng.uniform(-8.0, 8.0, (6, 1, shape[1]))
            assert_stack_is_its_members(rng.standard_normal((6,) + shape) * scales)

    def test_one_unconverged_member_fails_the_stack(self, monkeypatch, rng):
        # one sweep cannot end without rotations unless every pair is
        # already orthogonal, as for the diagonal members
        monkeypatch.setattr(densela, "_JACOBI_MAX_SWEEPS", 1)
        stack = np.stack([np.eye(4), np.diag([1.0, 2.0, 3.0, 4.0]), rng.standard_normal((4, 4))])
        assert spectral_norm(stack[:2]) == [1.0, 4.0]
        with pytest.raises(ConvergenceError, match="did not converge within 1 sweeps"):
            spectral_norm(stack)

    def test_unconverged_member_exits_5(self, monkeypatch, tmp_path):
        from genchol import cli

        monkeypatch.setattr(densela, "_JACOBI_MAX_SWEEPS", 1)
        out = tmp_path / "v.csv"
        assert cli.main(["verify", "--trials", "1", "--out", str(out)]) == 5
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3, 3)])
    def test_other_ranks_are_shape_errors(self, shape):
        with pytest.raises(ShapeError):
            singular_values(np.ones(shape))
        with pytest.raises(ShapeError):
            spectral_norm(np.ones(shape))


class TestLowerTriInverse:
    def test_identity(self):
        assert np.array_equal(lower_tri_inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        out = lower_tri_inverse(np.diag([2.0, 4.0]))
        assert np.array_equal(out, np.diag([0.5, 0.25]))

    def test_unit_bidiagonal_closed_form(self):
        g = 7.5
        out = lower_tri_inverse(np.array([[1.0, 0.0], [g, 1.0]]))
        assert np.array_equal(out, np.array([[1.0, 0.0], [-g, 1.0]]))

    def test_zero_diagonal(self):
        with pytest.raises(SingularMatrixError):
            lower_tri_inverse(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_not_triangular(self):
        with pytest.raises(ShapeError):
            lower_tri_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_residual_bound_random(self, rng):
        for _ in range(20):
            p = int(rng.integers(1, 11))
            l = np.tril(rng.standard_normal((p, p)))
            np.fill_diagonal(l, np.abs(np.diagonal(l)) + 1.0)
            resid = fro_norm(matmul(l, lower_tri_inverse(l)) - np.eye(p))
            s = singular_values(l)
            assert resid <= 10.0 * p * U * (s[0] / s[-1])


def square_matrices(max_dim=8, elems=st.floats(-100.0, 100.0)):
    return st.integers(1, max_dim).flatmap(
        lambda p: st.lists(
            st.lists(elems, min_size=p, max_size=p), min_size=p, max_size=p
        ).map(np.array)
    )


class TestUpOperator:
    def test_definition(self):
        out = up_operator(np.array([[2.0, 2.0], [2.0, 2.0]]))
        assert np.array_equal(out, np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_diagonal(self):
        d = np.diag([1.0, 3.0, 5.0])
        assert np.array_equal(up_operator(d), d / 2.0)

    def test_symmetric_norm_shrink(self, rng):
        s = rng.standard_normal((8, 8))
        s = s + s.T
        assert fro_norm(up_operator(s)) <= fro_norm(s) / math.sqrt(2) * (1 + 1e-12)

    @settings(max_examples=40)
    @given(square_matrices())
    def test_norm_never_grows(self, a):
        assert fro_norm(up_operator(a)) <= fro_norm(a) * (1 + 1e-12)

    @settings(max_examples=40)
    @given(square_matrices())
    def test_symmetric_invariants(self, a):
        s = a + a.T  # exactly symmetric
        assert fro_norm(up_operator(s)) <= fro_norm(s) / math.sqrt(2) * (1 + 1e-12)
        assert np.array_equal(up_operator(s) + up_operator(s).T, s)

    @settings(max_examples=40)
    @given(
        square_matrices(
            # exactness of halving/product scaling needs no underflow
            elems=st.floats(-100.0, 100.0).map(
                lambda v: 0.0 if abs(v) < 1e-100 else v
            )
        ),
        st.lists(st.floats(1e-3, 1e3), min_size=8, max_size=8),
    )
    def test_commutes_with_column_scaling_exactly(self, a, diag):
        d = np.diag(diag[: a.shape[0]])
        assert np.array_equal(up_operator(a @ d), up_operator(a) @ d)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            up_operator(np.zeros((2, 3)))


class TestGammaK:
    def test_zero(self):
        assert gamma_k(0) == 0.0

    def test_one(self):
        assert gamma_k(1) == U / (1.0 - U)

    def test_sixteen(self):
        # k = 3m + 1 with m = 5
        assert gamma_k(16) == pytest.approx(16 * U / (1 - 16 * U), rel=0)

    def test_domain(self):
        with pytest.raises(ValueError):  # k*u is exactly 1
            gamma_k(2**53)


class TestNormInequalities:
    def test_triple_product_inequality(self, rng):
        # ||XYZ||_F <= ||X||_2 ||Y||_F ||Z||_2
        for _ in range(100):
            a, b, c, d = rng.integers(1, 11, 4)
            x = rng.standard_normal((a, b))
            y = rng.standard_normal((b, c))
            z = rng.standard_normal((c, d))
            lhs = fro_norm(matmul(matmul(x, y), z))
            rhs = spectral_norm(x) * fro_norm(y) * spectral_norm(z)
            assert lhs <= rhs * (1 + 1e-12)

    def test_spectral_fro_rank_sandwich(self, rng):
        for _ in range(25):
            x = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
            sig = singular_values(x)
            rank = int(np.sum(sig > sig[0] * 50 * max(x.shape) * U)) if sig.size else 0
            sn, fn = spectral_norm(x), fro_norm(x)
            assert sn <= fn * (1 + 1e-12)
            assert fn <= math.sqrt(max(rank, 1)) * sn * (1 + 1e-12)


class TestSymEigenvalues:
    def test_matches_eigh_oracle(self, rng):
        for _ in range(20):
            p = int(rng.integers(1, 9))
            g = rng.standard_normal((p, p))
            s = g + g.T
            mine = sym_eigenvalues(s)
            ref = np.linalg.eigvalsh(s)
            assert np.allclose(mine, ref, rtol=1e-10, atol=1e-12 * fro_norm(s))

    def test_zero_matrix(self):
        assert np.array_equal(sym_eigenvalues(np.zeros((3, 3))), np.zeros(3))

    def test_known_spectrum(self, rng):
        # Q diag(lam) Q^T with exactly zero and negative eigenvalues
        lam = np.array([-3.0, -1e-3, 0.0, 0.0, 2.5, 7.0])
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        s = (q * lam) @ q.T
        s = (s + s.T) / 2.0
        got = sym_eigenvalues(s)
        assert np.all(np.diff(got) >= 0.0)
        assert np.allclose(got, lam, rtol=0.0, atol=1e-13 * 7.0)
        assert not is_psd(s)
        c = (q * np.maximum(lam, 0.0)) @ q.T
        assert is_psd((c + c.T) / 2.0)

    def test_not_symmetric(self):
        with pytest.raises(ShapeError):
            sym_eigenvalues(np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]]))


class TestFormatJsonScalar:
    @pytest.mark.parametrize(
        "value",
        [math.inf, -math.inf, math.nan, np.float64(math.inf)],
        ids=["inf", "-inf", "nan", "numpy-inf"],
    )
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="JSON"):
            format_json_scalar(value)


class TestMatrixText:
    def test_round_trip_exact(self, rng):
        x = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-20, 21)
        assert np.array_equal(parse_matrix(format_matrix(x)), x)

    def test_header_and_shape(self):
        text = format_matrix(np.array([[1.0, 2.0]]))
        assert text.splitlines()[0] == "1 2"

    def test_rejects_bad_token(self):
        from genchol.densela import ParseError

        with pytest.raises(ParseError):
            parse_matrix("1 1\nxyz\n")

    def test_rejects_nonfinite(self):
        from genchol.densela import ParseError

        with pytest.raises(ParseError):
            parse_matrix("1 1\ninf\n")

    def test_rejects_short_row(self):
        from genchol.densela import ParseError

        with pytest.raises(ParseError):
            parse_matrix("1 2\n1.0\n")
