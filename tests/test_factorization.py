import math

import numpy as np
import pytest

from genchol.densela import UNIT_ROUNDOFF, ConvergenceError, ShapeError, fro_norm
from genchol.factorization import (
    BlockSpec,
    FactorizationError,
    GenCholFactor,
    SaddleMatrix,
    SaddleValidationError,
    factorize,
    factorize_dense,
    read_saddle,
    reconstruct,
    write_saddle,
)
from genchol.harness import make_saddle

U = UNIT_ROUNDOFF


def naive_ljlt(l, sig):
    p = l.shape[0]
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            s = 0.0
            for k in range(p):
                s += (l[i, k] * sig[k]) * l[j, k]
            out[i, j] = s
    return out


class TestBlockSpec:
    def test_signature(self):
        spec = BlockSpec(2, 3)
        assert np.array_equal(spec.signature(), [1.0, 1.0, -1.0, -1.0, -1.0])
        assert spec.p == 5

    def test_n_zero_allowed(self):
        assert BlockSpec(3, 0).p == 3

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            BlockSpec(0, 1)


class TestAssemble:
    def test_identity_blocks(self):
        s = SaddleMatrix.from_blocks(np.eye(2), [[1.0, 0.0]], [[0.0]])
        expected = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.array_equal(s.K, expected)

    def test_scalar_blocks(self):
        s = SaddleMatrix.from_blocks([[4.0]], [[2.0]], [[1.0]])
        assert np.array_equal(s.K, [[4.0, 2.0], [2.0, -1.0]])

    def test_symmetry_exact(self, rng):
        s, _, _ = make_saddle(4, 3, 100.0, rng)
        k = s.K
        assert np.array_equal(k, k.T)


class TestFactorize:
    def test_scalar_example(self):
        s = SaddleMatrix.from_blocks([[4.0]], [[2.0]], [[1.0]])
        f = factorize(s)
        assert np.array_equal(f.L[:1, :1], [[2.0]])
        assert np.array_equal(f.L[1:, :1], [[1.0]])
        assert f.L[1, 1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert fro_norm(reconstruct(f) - s.K) <= 10 * U * fro_norm(s.K)

    def test_identity_example(self):
        s = SaddleMatrix.from_blocks(np.eye(2), [[1.0, 0.0]], [[0.0]])
        f = factorize(s)
        assert np.array_equal(f.L[:2, :2], np.eye(2))
        assert np.array_equal(f.L[2:, :2], [[1.0, 0.0]])
        assert np.array_equal(f.L[2:, 2:], [[1.0]])

    def test_not_pd_fails_at_pivot_one(self):
        with pytest.raises(FactorizationError) as err:
            SaddleMatrix.from_blocks([[-1.0]], [[2.0]], [[1.0]])
        assert err.value.pivot == 1

    def test_pd_failure_pivot_index(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(FactorizationError) as err:
            factorize_dense(np.asarray(a), 2, 0)
        assert err.value.pivot == 2
        assert err.value.block == "A"

    def test_factor_is_read_only(self):
        f = factorize(SaddleMatrix.from_blocks([[4.0]], [[2.0]], [[1.0]]))
        assert not f.L.flags.writeable

    def test_overflowing_factor_is_a_kernel_failure(self):
        # a valid saddle matrix whose L21 = 1e200 / 1e-150 overflows
        k = [[1e-300, 1e200], [1e200, 0.0]]
        s = SaddleMatrix.from_dense(k, 1, 1)
        for run in (lambda: factorize(s), lambda: factorize_dense(k, 1, 1, "K + dK")):
            with pytest.raises(ConvergenceError, match="the factor overflows"):
                run()

    def test_schur_breakdown_labeled(self):
        # trailing block too positive: C + L21 L21^T loses definiteness
        k = np.array([[1.0, 0.0], [0.0, 1.0]])  # -C = 1 means C = -1, not PSD
        with pytest.raises(FactorizationError) as err:
            factorize_dense(k, 1, 1)
        assert err.value.block == "Schur"
        assert err.value.pivot == 2

    def test_positive_diagonals(self, rng):
        for _ in range(10):
            s, _, _ = make_saddle(3, 2, 1e4, rng)
            f = factorize(s)
            assert np.all(np.diagonal(f.L[:3, :3]) > 0)
            assert np.all(np.diagonal(f.L[3:, 3:]) > 0)

    def test_round_trip_residual(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(0, m + 1))
            s, _, _ = make_saddle(m, n, 1e6, rng)
            k = s.K
            f = factorize(s)
            p = m + n
            assert fro_norm(reconstruct(f) - k) <= 50 * p * U * fro_norm(k)

    def test_schur_identity(self, rng):
        from genchol.densela import matmul

        for _ in range(20):
            s, _, _ = make_saddle(4, 3, 1e4, rng)
            f = factorize(s)
            l21, l22 = f.L[4:, :4], f.L[4:, 4:]
            lhs = matmul(l22, l22.T)
            rhs = -s.K[4:, 4:] + matmul(l21, l21.T)
            assert fro_norm(lhs - rhs) <= 50 * s.spec.n * U * fro_norm(rhs)

    def test_refactorize_recovers_factor(self, rng):
        for _ in range(20):
            s, _, _ = make_saddle(4, 3, 1e4, rng)
            f = factorize(s)
            again = factorize_dense(reconstruct(f), 4, 3)
            d1 = f.L
            d2 = again.L
            mask = d1 != 0.0
            p = s.p
            assert np.all(np.abs(d2 - d1)[mask] <= 100 * p * U * np.abs(d1)[mask])

    def test_degenerate_n_zero_is_plain_cholesky(self, rng):
        from genchol.harness import gen_spd

        a = gen_spd(5, 100.0, rng)
        s = SaddleMatrix.from_blocks(a, np.zeros((0, 5)), np.zeros((0, 0)))
        f = factorize(s)
        oracle = np.linalg.cholesky(a)
        assert np.allclose(f.L, oracle, rtol=1e-12, atol=1e-15)

    def test_zero_c_is_valid(self, rng):
        from genchol.harness import gen_spd

        a = gen_spd(4, 10.0, rng)
        b = rng.standard_normal((2, 4))
        c = np.zeros((2, 2))
        s = SaddleMatrix.from_blocks(a, b, c)
        f = factorize(s)
        k = s.K
        assert fro_norm(reconstruct(f) - k) <= 50 * 6 * U * fro_norm(k)


class TestValidation:
    def test_asymmetric_a_rejected(self):
        a = np.array([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(SaddleValidationError):
            SaddleMatrix.from_blocks(a, [[1.0, 0.0]], [[0.0]])

    def test_c_not_psd_rejected(self):
        with pytest.raises(SaddleValidationError):
            SaddleMatrix.from_blocks(np.eye(2), [[1.0, 0.0]], [[-1.0]])

    def test_rank_deficient_b_rejected(self):
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SaddleValidationError):
            SaddleMatrix.from_blocks(np.eye(2), b, np.eye(2))

    def test_more_rows_than_columns_rejected(self):
        # B is 2 x 1, so its rank is at most 1 < n = 2; it has one singular
        # value, so the sigma_min / sigma_max test alone lets it through
        with pytest.raises(SaddleValidationError, match="full row rank"):
            SaddleMatrix.from_blocks([[1.0]], [[1.0], [1.0]], np.eye(2))

    def test_asymmetric_dense_k_rejected(self):
        # the upper block B^T must match the lower block B, not be dropped
        with pytest.raises(SaddleValidationError, match="K is not exactly symmetric"):
            SaddleMatrix.from_dense([[1.0, 5.0], [1.0, -1.0]], 1, 1)

    def test_rank_check_svd_failure_is_convergence_error(self, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(ConvergenceError, match="SVD of B"):
            SaddleMatrix.from_blocks(np.eye(2), [[1.0, 0.0]], [[0.0]])

    def test_blocks_frozen(self):
        s = SaddleMatrix.from_blocks([[4.0]], [[2.0]], [[1.0]])
        with pytest.raises(ValueError):
            s.K[0, 0] = 0.0

    def test_factor_frozen(self):
        f = factorize(SaddleMatrix.from_blocks([[4.0]], [[2.0]], [[1.0]]))
        with pytest.raises(ValueError):
            f.L[1, 0] = 0.0

    @pytest.mark.parametrize(
        "l, what",
        [
            ([[1.0, 0.5], [0.0, 1.0]], ShapeError),  # nonzero upper-right block
            ([[1.0, 0.0], [1.0, 0.0]], ValueError),  # zero pivot
            ([[1.0, 0.0], [math.nan, 1.0]], ValueError),  # not finite
            (np.eye(3), ShapeError),  # wrong order for m + n = 2
        ],
    )
    def test_factor_checks(self, l, what):
        with pytest.raises(what):
            GenCholFactor.from_dense(l, 1, 1)


class TestReconstruct:
    def test_hand_block_product(self):
        f = GenCholFactor.from_dense([[2.0, 0.0], [1.0, math.sqrt(2.0)]], 1, 1)
        k = reconstruct(f)
        assert k[0, 0] == 4.0
        assert k[0, 1] == 2.0
        assert k[1, 0] == 2.0
        assert k[1, 1] == pytest.approx(-1.0, abs=1e-15)

    def test_identity_gives_signature(self):
        f = GenCholFactor.from_dense(np.eye(2), 1, 1)
        assert np.array_equal(reconstruct(f), np.diag([1.0, -1.0]))

    def test_matches_dense_triple_product_exactly(self, rng):
        for _ in range(10):
            l = np.tril(rng.standard_normal((5, 5)))
            np.fill_diagonal(l, np.abs(np.diagonal(l)) + 0.5)
            f = GenCholFactor.from_dense(l, 3, 2)
            assert np.array_equal(reconstruct(f), naive_ljlt(l, f.spec.signature()))


class TestFactorDense:
    def test_identity_blocks(self):
        f = GenCholFactor.from_dense(np.eye(4), 2, 2)
        assert np.array_equal(f.L[:2, :2], np.eye(2))
        assert np.array_equal(f.L[2:, :2], np.zeros((2, 2)))
        assert np.array_equal(f.L[2:, 2:], np.eye(2))

    def test_placement(self):
        f = GenCholFactor.from_dense([[2.0, 0.0], [3.0, 4.0]], 1, 1)
        assert f.L[:1, :1] == 2.0 and f.L[1:, :1] == 3.0 and f.L[1:, 1:] == 4.0

    def test_round_trip_exact(self, rng):
        l = np.tril(rng.standard_normal((6, 6)))
        np.fill_diagonal(l, np.abs(np.diagonal(l)) + 1.0)
        f = GenCholFactor.from_dense(l, 4, 2)
        assert np.array_equal(f.L, l)


class TestSaddleText:
    @pytest.mark.parametrize("m, n", [(4, 3), (3, 0), (1, 1)])
    def test_round_trip_exact(self, tmp_path, rng, m, n):
        s, _, _ = make_saddle(m, n, 1e6, rng)
        path = tmp_path / "k.txt"
        write_saddle(s, path)
        back = read_saddle(path)
        assert back.spec == s.spec
        assert np.array_equal(back.K, s.K)
