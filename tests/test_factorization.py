import math

import numpy as np
import pytest

from genchol.densela import (
    UNIT_ROUNDOFF,
    ConvergenceError,
    ShapeError,
    as_symmetric,
    fro_norm,
    lower_tri_inverse,
    lower_tri_solve,
    matmul,
    matmul_stack,
    spectral_norm,
)
from genchol.factorization import (
    BlockSpec,
    _cholesky_lower,
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
from genchol.harness import gen_sym_perturbation, make_saddle
from genchol.oracle import actual_delta_l

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

    @pytest.mark.parametrize("m, n", [(1, 0), (4, 3), (6, 6), (5, 0)])
    def test_kept_factor_of_a_is_the_factors_leading_block(self, rng, m, n):
        # from_blocks keeps the factor its definiteness check computed, and
        # factorize continues from it: the same bits as L[:m, :m]
        s = make_saddle(m, n, 1e8, rng)[0]
        assert not s.l11.flags.writeable
        assert s.l11.shape == (m, m)
        assert np.array_equal(s.l11.view(np.uint64), factorize(s).L[:m, :m].view(np.uint64))
        assert "l11" not in repr(s)
        assert s == SaddleMatrix(s.spec, s.K, np.eye(m))  # derived from K, not compared

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


# --- bit pins of the hand kernels ---------------------------------------------
#
# Each reference below is the kernel spelled out with numpy scalars and one
# index per step.  The kernels must keep its bits exactly: the campaigns'
# output bytes are built on them.


def reference_cholesky(mat):
    n = mat.shape[0]
    l = np.zeros((n, n))
    for j in range(n):
        d = float(mat[j, j]) - float(l[j, :j] @ l[j, :j])
        if d <= 0.0:
            return d
        l[j, j] = math.sqrt(d)
        if j + 1 < n:
            l[j + 1 :, j] = (mat[j + 1 :, j] - l[j + 1 :, :j] @ l[j, :j]) / l[j, j]
    return l


def reference_solve(l, rhs):
    diag = np.diagonal(l)
    x = np.zeros_like(rhs)
    for i in range(l.shape[0]):
        x[i, :] = (rhs[i, :] - l[i, :i] @ x[:i, :]) / diag[i]
    return x


def reference_fro(x):
    col = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    if col.shape[0] == 0:
        return 0.0
    amax = np.abs(col).max(axis=-2)
    t = col / np.where(amax == 0.0, 1.0, amax)[..., None, :]
    return float((amax * np.sqrt(np.add.accumulate(t * t, axis=-2)[..., -1, :]))[0])


def same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def pinned_draws():
    """make_saddle draws of every m + n from 1 to 12 with n <= m, n = 0
    included, at cond 1e2 and 1e8, each with its factor."""
    rng = np.random.default_rng(20261020)
    for cond in (1e2, 1e8):
        for p in range(1, 13):
            for n in range(p // 2 + 1):
                s = make_saddle(p - n, n, cond, rng)[0]
                yield s, factorize(s), rng


# 0 x 0 and 1 x 1 inputs, signed zeros, and entries near the ends of the range
SMALL_SPD = [
    np.zeros((0, 0)),
    np.array([[4.0]]),
    np.array([[2.0, -0.0, 0.0], [-0.0, 3.0, -0.0], [0.0, -0.0, 5.0]]),
    np.array([[4.0, -1.0], [-1.0, 3.0]]) * 1e150,
    np.array([[4.0, -1.0], [-1.0, 3.0]]) * 1e-150,
]
SMALL_IDS = ["0x0", "1x1", "signed-zeros", "1e150", "1e-150"]


class TestKernelBitPins:
    def test_cholesky_on_draws(self):
        for s, f, _ in pinned_draws():
            m = s.spec.m
            a = s.K[:m, :m]
            assert same_bits(_cholesky_lower(a, "A", 0, "K"), reference_cholesky(a))
            l21 = f.L[m:, :m]
            schur = -s.K[m:, m:] + matmul(l21, l21.T)
            assert same_bits(_cholesky_lower(schur, "Schur", m, "K"), reference_cholesky(schur))

    @pytest.mark.parametrize("mat", SMALL_SPD, ids=SMALL_IDS)
    def test_cholesky_on_small_and_scaled(self, mat):
        assert same_bits(_cholesky_lower(mat, "A", 0, "K"), reference_cholesky(mat))

    def test_cholesky_breakdown_value(self):
        mat = np.array([[1.0, 2.0, 0.5], [2.0, 3.0, 1.0], [0.5, 1.0, 2.0]])
        with pytest.raises(FactorizationError) as err:
            _cholesky_lower(mat, "A", 0, "K")
        assert same_bits(err.value.value, reference_cholesky(mat))
        assert err.value.pivot == 2

    def test_solve_and_inverse_on_draws(self):
        # the factor core's right-hand side B^T (a transposed view), one
        # column, twelve columns, and the identity of the inverse
        for s, f, rng in pinned_draws():
            m, p = s.spec.m, s.p
            l11 = f.L[:m, :m]
            bt = s.K[m:, :m].T
            assert same_bits(lower_tri_solve(l11, bt), reference_solve(l11, bt))
            for cols in (1, 12):
                rhs = rng.standard_normal((p, cols))
                assert same_bits(lower_tri_solve(f.L, rhs), reference_solve(f.L, rhs))
            assert same_bits(lower_tri_inverse(f.L), reference_solve(f.L, np.eye(p)))

    @pytest.mark.parametrize("mat", SMALL_SPD, ids=SMALL_IDS)
    def test_solve_on_small_and_scaled(self, mat):
        l = reference_cholesky(mat)
        for rhs in (np.ones((len(l), 1)), -np.zeros((len(l), 12)), mat):
            assert same_bits(lower_tri_solve(l, rhs), reference_solve(l, rhs))
        assert same_bits(lower_tri_inverse(l), reference_solve(l, np.eye(len(l))))

    def test_fro_norm_on_draws(self):
        for s, f, rng in pinned_draws():
            b = s.K[s.spec.m :, : s.spec.m]
            for x in (s.K, f.L, f.L.T, b, rng.standard_normal(s.p)):
                assert same_bits(fro_norm(x), reference_fro(x))

    @pytest.mark.parametrize("x", [
        np.zeros((0, 0)), np.zeros(0), [[-0.0]], [[3.0]], [-0.0, 0.0, -0.0],
        [[1.0, -0.0], [-2.0, 0.0]], np.arange(-5.0, 7.0) * 1e150,
        np.arange(-5.0, 7.0) * 1e-150,
    ], ids=["0x0", "empty", "minus-zero", "1x1", "signed-zeros", "mixed-zeros", "1e150", "1e-150"])
    def test_fro_norm_on_small_and_scaled(self, x):
        assert same_bits(fro_norm(x), reference_fro(x))


# --- stacks: each member has the bits of its own call ----------------------------

STACK_SIZES = (1, 4, 8)


def pinned_stacks():
    """For every m + n from 1 to 12 with n <= m (n = 0 included), at cond 1e2
    and 1e8: eight make_saddle draws of that shape with their factors; the
    tests take their first 1, 4 and 8."""
    rng = np.random.default_rng(20261021)
    for cond in (1e2, 1e8):
        for p in range(1, 13):
            for n in range(p // 2 + 1):
                draws = [make_saddle(p - n, n, cond, rng)[0] for _ in range(max(STACK_SIZES))]
                yield draws, [factorize(s) for s in draws], rng


def first_error(call, members):
    """The error a loop of ``call`` over ``members`` raises first."""
    for member in members:
        try:
            call(member)
        except Exception as exc:  # noqa: BLE001 - any error is the one to match
            return exc
    raise AssertionError("no member fails")


def same_error(got, expected) -> bool:
    """Same type and text, and for a breakdown the same block, pivot, label
    and value bits."""
    if type(got) is not type(expected) or str(got) != str(expected):
        return False
    if isinstance(expected, FactorizationError):
        where = (got.block, got.pivot, got.matrix_label)
        if where != (expected.block, expected.pivot, expected.matrix_label):
            return False
        return same_bits(got.value, expected.value)
    return True


class TestStackedKernelBitPins:
    def test_cholesky_on_draws(self):
        for draws, factors, _ in pinned_stacks():
            m = draws[0].spec.m
            a = np.stack([s.K[:m, :m] for s in draws])
            l21 = np.stack([f.L[m:, :m] for f in factors])
            schur = np.stack([-s.K[m:, m:] for s in draws]) + np.stack([matmul(x, x.T) for x in l21])
            for b in STACK_SIZES:
                for mats, block in ((a[:b], "A"), (schur[:b], "Schur")):
                    got = _cholesky_lower(mats, block, 0, "K")
                    assert same_bits(got, [_cholesky_lower(x, block, 0, "K") for x in mats])

    @pytest.mark.parametrize("mat", SMALL_SPD, ids=SMALL_IDS)
    @pytest.mark.parametrize("b", STACK_SIZES)
    def test_cholesky_on_small_and_scaled(self, mat, b):
        mats = np.stack([mat * w for w in (1.0, 3.0, 0.5, 7.0, 1 / 3, 2.0, 5.0, 0.1)[:b]])
        assert same_bits(_cholesky_lower(mats, "A", 0, "K"),
                         [_cholesky_lower(x, "A", 0, "K") for x in mats])

    def test_solve_on_draws(self):
        # the factor core's right-hand sides B^T (transposed views of the
        # stack), and one- and twelve-column ones against the whole factor
        for draws, factors, rng in pinned_stacks():
            m, p = draws[0].spec.m, draws[0].p
            ks = np.stack([s.K for s in draws])
            l11 = np.stack([f.L[:m, :m] for f in factors])
            ls = np.stack([f.L for f in factors])
            for b in STACK_SIZES:
                bt = ks[:b, m:, :m].swapaxes(1, 2)
                assert same_bits(lower_tri_solve(l11[:b], bt),
                                 [lower_tri_solve(x, y) for x, y in zip(l11, bt)])
                for cols in (1, 12):
                    rhs = rng.standard_normal((b, p, cols))
                    assert same_bits(lower_tri_solve(ls[:b], rhs),
                                     [lower_tri_solve(x, y) for x, y in zip(ls, rhs)])

    @pytest.mark.parametrize("mat", SMALL_SPD, ids=SMALL_IDS)
    @pytest.mark.parametrize("b", STACK_SIZES)
    def test_solve_on_small_and_scaled(self, mat, b):
        l = reference_cholesky(mat)
        ls = np.stack([l * w for w in (1.0, -0.5, 3.0, 1e-3, 7.0, 2.0, 0.25, 9.0)[:b]])
        for rhs in (np.ones((b, len(l), 1)), -np.zeros((b, len(l), 12)), np.stack([mat] * b)):
            assert same_bits(lower_tri_solve(ls, rhs),
                             [lower_tri_solve(x, y) for x, y in zip(ls, rhs)])

    def test_factorize_dense_and_norms_on_draws(self):
        # K itself, and K + dK at levels of one direction as a campaign
        # stacks them; with the norms of the stack and L^-1 times it
        for draws, factors, rng in pinned_stacks():
            m, n, p = draws[0].spec.m, draws[0].spec.n, draws[0].p
            k, f = draws[0].K, factors[0]
            linv = lower_tri_inverse(f.L)
            direction = gen_sym_perturbation(p, 1.0, rng) / spectral_norm(linv) ** 2
            levels = np.array([1e-12, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.49])
            for b in STACK_SIZES:
                dks = direction * levels[:b, None, None]
                for mats in (np.stack([s.K for s in draws[:b]]), k + dks):
                    stacked = factorize_dense(mats, m, n, "K+dK")
                    assert stacked.L.shape == (b, p, p) and not stacked.L.flags.writeable
                    for got, x in zip(stacked.L, mats):
                        assert same_bits(got, factorize_dense(x, m, n, "K+dK").L)
                dls = actual_delta_l(f, k, dks)
                assert same_bits(dls, [actual_delta_l(f, k, dk) for dk in dks])
                assert same_bits(fro_norm(dls), [fro_norm(x) for x in dls])
                assert same_bits(matmul_stack(linv, dls), [matmul(linv, x) for x in dls])

    def test_cholesky_breakdown_is_the_first_members(self):
        # members 2 and 4 break down in the Schur block, member 2 at pivot 7
        # and member 4 earlier, at pivot 5: the stacked kernels meet member
        # 4's breakdown first, and actual_delta_l raises member 2's
        s = make_saddle(4, 3, 1e4, np.random.default_rng(3))[0]
        f = factorize(s)
        late, early = np.zeros((7, 7)), np.zeros((7, 7))
        late[6, 6] = early[4, 4] = 10.0  # K's (2,2) block is -C
        dks = np.stack([np.zeros((7, 7)), late, np.eye(7) * 1e-9, early])
        with pytest.raises(FactorizationError) as err:
            actual_delta_l(f, s.K, dks)
        assert same_error(err.value, first_error(lambda dk: actual_delta_l(f, s.K, dk), dks))
        assert (err.value.block, err.value.pivot) == ("Schur", 7)
        with pytest.raises(FactorizationError) as met:
            factorize_dense(s.K + dks, 4, 3, "K+dK")
        assert met.value.pivot == 5

    def test_stacked_cholesky_raises_the_breakdown_it_meets(self):
        # member 2 breaks down at pivot 3 (7 with the offset), member 4 at
        # pivot 1: the stacked kernel raises member 4's, the lowest column's
        spd = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 2.0]])
        late, early = spd.copy(), spd.copy()
        late[2, 2] = 0.25
        early[0, 0] = -1.0
        mats = np.stack([spd, late, spd * 2.0, early])
        with pytest.raises(FactorizationError) as err:
            _cholesky_lower(mats, "Schur", 4, "K+dK")
        expected = first_error(lambda x: _cholesky_lower(x, "Schur", 4, "K+dK"), mats[3:])
        assert same_error(err.value, expected) and err.value.pivot == 5

    def test_level_stack_breakdowns_raise_the_loops_error(self):
        # members 2 and 4 of a level stack break down at different pivots, in
        # either order of the blocks: the stack raises member 2's error
        s = make_saddle(4, 3, 1e4, np.random.default_rng(3))[0]
        f = factorize(s)
        a_break, schur_break = np.zeros((7, 7)), np.zeros((7, 7))
        a_break[2, 2] = -10.0  # A's pivot 3
        schur_break[5, 5] = 10.0  # K's (2,2) block is -C: the Schur pivot 6
        for second, fourth in ((schur_break, a_break), (a_break, schur_break)):
            dks = np.stack([np.zeros((7, 7)), second, np.eye(7) * 1e-9, fourth])
            with pytest.raises(FactorizationError) as err:
                actual_delta_l(f, s.K, dks)
            assert same_error(err.value, first_error(lambda dk: actual_delta_l(f, s.K, dk), dks))
            assert err.value.matrix_label == "K+dK"
        assert err.value.block == "A" and err.value.pivot == 3

    def test_overflowing_member_raises_the_loops_error(self):
        # K + dK's L21 = 1e200 / 1e-150 overflows in member 2; member 3
        # breaks down at A's pivot, which the stacked kernels meet first
        k = np.array([[1e-300, 1e-160], [1e-160, -1.0]])
        f = factorize_dense(k, 1, 1)
        fine, overflow, breaking = np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
        overflow[0, 1] = overflow[1, 0] = 1e200
        breaking[0, 0] = -1.0
        for dks in ([fine, overflow], [fine, overflow, breaking, fine]):
            dks = np.array(dks)
            with pytest.raises(ConvergenceError) as err:
                actual_delta_l(f, k, dks)
            assert same_error(err.value, first_error(lambda dk: actual_delta_l(f, k, dk), dks))
        with pytest.raises(FactorizationError):
            factorize_dense(k + dks, 1, 1, "K+dK")

    def test_refused_members_raise_the_loops_error(self):
        # a perturbation stack is checked member by member, in order
        s = make_saddle(2, 1, 1e2, np.random.default_rng(5))[0]
        f, p = factorize(s), s.p
        asym = np.zeros((p, p))
        asym[0, 1] = 1.0
        nonfinite = np.full((p, p), np.inf)
        for dks in ([np.zeros((p, p)), asym, nonfinite], [np.zeros((p, p)), nonfinite, asym]):
            dks = np.array(dks)
            with pytest.raises(ValueError) as err:
                actual_delta_l(f, s.K, dks)
            assert same_error(err.value, first_error(lambda dk: actual_delta_l(f, s.K, dk), dks))
        with pytest.raises(ShapeError):
            actual_delta_l(f, s.K, np.zeros((0, 2, 2)))
        assert actual_delta_l(f, s.K, np.zeros((0, p, p))).shape == (0, p, p)

    def test_refused_member_wins_over_a_breakdown(self):
        # member 1 breaks down at A's first pivot and member 2 is not
        # symmetric: every member is checked before any is factored
        s = make_saddle(2, 1, 1e2, np.random.default_rng(5))[0]
        f, p = factorize(s), s.p
        breaking, asym = np.zeros((p, p)), np.zeros((p, p))
        breaking[0, 0] = -1e3
        asym[0, 1] = 1.0
        dks = np.array([breaking, asym])
        with pytest.raises(ShapeError) as err:
            actual_delta_l(f, s.K, dks)
        assert same_error(err.value, first_error(lambda dk: as_symmetric(dk, p, "perturbation"), dks))
        with pytest.raises(FactorizationError):
            actual_delta_l(f, s.K, breaking)


class TestStackedEntryPoints:
    """``as_symmetric``, ``factorize_dense`` and ``actual_delta_l`` take a
    matrix or a stack through one set of checks, with one text per refusal."""

    NAMES = ("perturbation", "matrix", "perturbation")  # each call's label

    @staticmethod
    def calls():
        s = make_saddle(2, 1, 1e2, np.random.default_rng(7))[0]
        f = factorize(s)
        return [lambda x: as_symmetric(x, 3, "perturbation"),
                lambda x: factorize_dense(x, 2, 1, "K+dK"),
                lambda x: actual_delta_l(f, s.K, x)]

    def test_nonfinite_member(self):
        dks = np.zeros((3, 3, 3))
        dks[1, 2, 2] = np.nan
        for call in self.calls():
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                call(dks)

    def test_wrong_member_shape(self):
        # actual_delta_l raises its first member's error: "got (3, 4)"
        for call, name in zip(self.calls(), self.NAMES):
            with pytest.raises(ShapeError, match=f"^{name} must be 3 x 3, got"):
                call(np.zeros((2, 3, 4)))

    def test_asymmetric_member(self):
        dks = np.zeros((2, 3, 3))
        dks[1, 0, 2] = 1.0
        for call, name in zip(self.calls(), self.NAMES):
            with pytest.raises(ShapeError) as err:
                call(dks)
            assert str(err.value) == f"{name} is not exactly symmetric"

    def test_checks_run_in_order(self):
        # rank, then finiteness, then member shape, then symmetry; each
        # member fails the same checks, so a loop's error is the stack's
        bad = np.zeros((2, 3, 4))
        bad[:, 0, 1] = 1.0  # not symmetric, whatever its shape
        nonfinite = bad.copy()
        nonfinite[:, 2, 3] = np.inf
        for call, name in zip(self.calls(), self.NAMES):
            with pytest.raises(ValueError) as err:
                call(nonfinite)
            assert type(err.value) is ValueError
            assert str(err.value) == "matrix entries must be finite"
            with pytest.raises(ShapeError, match=f"^{name} must be 3 x 3, got"):
                call(bad)
            with pytest.raises(ShapeError) as err:
                call(nonfinite[None])
            assert str(err.value) == "expected a 2-D matrix, got ndim=4"

    def test_empty_stack_keeps_its_shape(self):
        check, factor, delta = self.calls()
        assert check(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        assert factor(np.zeros((0, 3, 3))).L.shape == (0, 3, 3)
        assert delta(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 3, 3)], ids=["1-D", "4-D"])
    def test_other_ranks_keep_their_text(self, shape):
        for call in self.calls():
            with pytest.raises(ShapeError) as err:
                call(np.zeros(shape))
            assert str(err.value) == f"expected a 2-D matrix, got ndim={len(shape)}"
