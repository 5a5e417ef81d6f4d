import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genchol.densela import (
    UNIT_ROUNDOFF,
    ConditionViolated,
    ShapeError,
    SingularMatrixError,
    cond_bauer_skeel,
    fro_norm,
    gamma_k,
    kappa2,
    lower_tri_inverse,
    matmul,
    parse_matrix,
    format_matrix,
    quadratic_root_bound,
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


class TestKappa2:
    def test_identity(self):
        assert kappa2(np.eye(4)) == pytest.approx(1.0, rel=1e-13)

    def test_diagonal(self):
        assert kappa2(np.diag([10.0, 1.0])) == pytest.approx(10.0, rel=1e-13)

    def test_bad_column_scaling_example(self):
        # L = [[1/g, 0], [1, 1]] with g = 1e-3; value pinned by the SVD oracle
        l = np.array([[1e3, 0.0], [1.0, 1.0]])
        k = kappa2(l)
        assert k > 500.0
        assert k == pytest.approx(1000.0010000010001, rel=1e-10)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            kappa2(np.zeros((2, 2)))


class TestCondBauerSkeel:
    @pytest.mark.parametrize("p", [1, 2, 5, 8])
    def test_identity(self, p):
        assert cond_bauer_skeel(np.eye(p)) == pytest.approx(math.sqrt(p), rel=1e-14)

    def test_positive_diagonal_invariance(self, rng):
        for p in (1, 3, 6):
            d = np.diag(10.0 ** rng.uniform(-3, 3, p))
            assert cond_bauer_skeel(d) == pytest.approx(math.sqrt(p), rel=1e-12)

    def test_unit_lower_example(self):
        # |L^-1||L| = [[1, 0], [20, 1]] for L = [[1, 0], [10, 1]]
        l = np.array([[1.0, 0.0], [10.0, 1.0]])
        assert cond_bauer_skeel(l) == pytest.approx(20.049937655763422, rel=1e-13)

    def test_general_square_matches_entrywise_oracle(self, rng):
        for _ in range(10):
            x = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
            oracle = float(
                np.linalg.norm(np.abs(np.linalg.inv(x)) @ np.abs(x), ord="fro")
            )
            assert cond_bauer_skeel(x) == pytest.approx(oracle, rel=1e-10)


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
            assert resid <= 10.0 * p * U * kappa2(l)


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


class TestQuadraticRootBound:
    def test_zero_c(self):
        assert quadratic_root_bound(1.0, math.sqrt(2.0), 0.0) == 0.0

    def test_near_double_root(self):
        assert quadratic_root_bound(1.0, 2.0, 1.0 - 1e-8) == pytest.approx(
            0.9998999999997488, rel=1e-12
        )

    def test_below_half_sqrt2(self, rng):
        for _ in range(25):
            c = float(rng.uniform(0.0, 0.499))
            assert quadratic_root_bound(1.0, math.sqrt(2.0), c) < math.sqrt(2.0) / 2.0

    @settings(max_examples=50)
    @given(
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_monotone_in_c(self, a, b, f1, f2):
        cap = b * b / (4.0 * a) * 0.999
        c1, c2 = sorted((f1 * cap, f2 * cap))
        assert quadratic_root_bound(a, b, c1) <= quadratic_root_bound(a, b, c2)

    @pytest.mark.parametrize("c", [1e-3, 1e-6, 1e-9])
    def test_small_c_expansion(self, c):
        a, b = 1.0, math.sqrt(2.0)
        assert abs(quadratic_root_bound(a, b, c) - c / b) <= 2.0 * a * c * c / b**3

    def test_discriminant_violation(self):
        with pytest.raises(ConditionViolated):
            quadratic_root_bound(1.0, 2.0, 1.5)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            quadratic_root_bound(-1.0, 2.0, 0.1)


class TestGammaK:
    def test_zero(self):
        assert gamma_k(0) == 0.0

    def test_one(self):
        assert gamma_k(1) == U / (1.0 - U)

    def test_sixteen(self):
        # k = 3m + 1 with m = 5
        assert gamma_k(16) == pytest.approx(16 * U / (1 - 16 * U), rel=0)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_k(1, u=1.0)


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
