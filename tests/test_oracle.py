import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genchol.densela import UNIT_ROUNDOFF, ShapeError, fro_norm, matmul, vec_norm2
from genchol.factorization import (
    GenCholFactor,
    SaddleMatrix,
    assemble_k,
    factor_to_dense,
    factorize,
    factorize_dense,
    reconstruct,
)
from genchol.harness import gen_sym_perturbation, make_saddle
from genchol.oracle import (
    actual_delta_l,
    build_w,
    compensated_residual,
    duvec,
    halfvec_index,
    unuvec,
    uvec_lower,
    w_inverse_norm,
)

U = UNIT_ROUNDOFF


def random_factor(p, m, rng):
    l = np.tril(rng.standard_normal((p, p)))
    np.fill_diagonal(l, np.abs(np.diagonal(l)) + 1.0)
    return GenCholFactor.from_dense(l, m, p - m)


class TestDuvec:
    def test_identity(self):
        assert np.array_equal(duvec(np.eye(2)), [1.0, 0.0, 1.0])

    def test_two_by_two(self):
        s = np.array([[1.5, -2.0], [-2.0, 3.0]])
        assert np.array_equal(duvec(s), [1.5, -2.0, 3.0])

    def test_norm_accounting(self, rng):
        g = rng.standard_normal((5, 5))
        s = g + g.T
        h = duvec(s)
        off = np.tril(s, -1)
        lhs = float(h @ h) + float((off * off).sum())
        assert lhs == pytest.approx(fro_norm(s) ** 2, rel=1e-12)

    def test_norm_dominated_by_fro(self, rng):
        for _ in range(20):
            g = rng.standard_normal((4, 4))
            s = g + g.T
            assert vec_norm2(duvec(s)) <= fro_norm(s) * (1 + 1e-15)

    def test_equality_iff_diagonal(self):
        d = np.diag([1.0, -2.0, 3.0])
        assert vec_norm2(duvec(d)) == pytest.approx(fro_norm(d), rel=1e-15)

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            duvec(np.array([[1.0, 2.0], [2.0000001, 1.0]]))


class TestUvec:
    def test_zero(self):
        assert np.array_equal(uvec_lower(np.zeros((3, 3))), np.zeros(6))

    def test_basis_element(self):
        e = np.zeros((2, 2))
        e[1, 0] = 1.0
        assert np.array_equal(uvec_lower(e), [0.0, 1.0, 0.0])

    @settings(max_examples=50)
    @given(st.integers(1, 8), st.integers(0, 10**9))
    def test_round_trip_exact(self, p, seed):
        rng = np.random.default_rng(seed)
        x = np.tril(rng.standard_normal((p, p)))
        assert np.array_equal(unuvec(uvec_lower(x)), x)

    def test_rejects_upper_entries(self):
        with pytest.raises(ShapeError):
            uvec_lower(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_index_mapping(self):
        p = 4
        pos = 0
        for j in range(p):
            for i in range(j, p):
                assert halfvec_index(i, j, p) == pos
                pos += 1


class TestBuildW:
    def test_scalar_case(self):
        f = GenCholFactor.from_blocks([[3.0]], np.zeros((0, 1)), np.zeros((0, 0)))
        w = build_w(f)
        assert np.array_equal(w.entries, [[6.0]])

    def test_identity_p2(self):
        # L = I, J = diag(1, -1): the map sends E11 -> 2 E11, E21 -> mirrored
        # off-diagonal pair, E22 -> -2 E22.
        f = GenCholFactor.from_blocks([[1.0]], [[0.0]], [[1.0]])
        w = build_w(f)
        assert np.array_equal(w.entries, np.diag([2.0, 1.0, -2.0]))

    def test_defining_map_identity(self, rng):
        for _ in range(10):
            f = random_factor(4, 2, rng)
            w = build_w(f)
            l = factor_to_dense(f)
            jv = f.spec.signature()
            x = np.tril(rng.standard_normal((4, 4)))
            lhs = w.entries @ uvec_lower(x)
            rhs = duvec(matmul(x, jv[:, None] * l.T) + matmul(l * jv[None, :], x.T))
            scale = 1e-13 * fro_norm(l) * fro_norm(x)
            assert np.all(np.abs(lhs - rhs) <= scale)

    def test_lower_triangular_exactly(self, rng):
        for _ in range(100):
            p = int(rng.integers(1, 11))
            m = int(rng.integers(1, p + 1))
            f = random_factor(p, m, rng)
            w = build_w(f)
            assert np.array_equal(np.triu(w.entries, 1), np.zeros_like(w.entries))


class TestWInverseNorm:
    def test_scalar(self):
        f = GenCholFactor.from_blocks([[2.0]], np.zeros((0, 1)), np.zeros((0, 0)))
        assert w_inverse_norm(build_w(f)) == pytest.approx(0.25, rel=1e-14)

    def test_identity_p2(self):
        f = GenCholFactor.from_blocks([[1.0]], [[0.0]], [[1.0]])
        assert w_inverse_norm(build_w(f)) == pytest.approx(1.0, rel=1e-13)

    def test_matches_svd_oracle(self, rng):
        f = random_factor(4, 2, rng)
        w = build_w(f)
        oracle = float(np.linalg.svd(np.linalg.inv(w.entries), compute_uv=False)[0])
        assert w_inverse_norm(w) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize(
        "gamma, expected",
        [
            # frozen from the dense SVD oracle on the closed-form 3x3 operator
            (10.0, 51.24927207118947),
            (100.0, 5001.249993739069),
            (1000.0, 500001.2499999374),
        ],
    )
    def test_growth_with_row_scaling(self, gamma, expected):
        f = GenCholFactor.from_blocks([[1.0]], [[gamma]], [[1.0]])
        norm = w_inverse_norm(build_w(f))
        assert norm == pytest.approx(expected, rel=1e-10)

    def test_loglog_slope_in_window(self):
        from genchol.harness import loglog_slope

        gammas = [10.0, 100.0, 1000.0]
        norms = [
            w_inverse_norm(build_w(GenCholFactor.from_blocks([[1.0]], [[g]], [[1.0]])))
            for g in gammas
        ]
        slope = loglog_slope(gammas, norms)
        assert 1.8 <= slope <= 2.2


class TestActualDeltaL:
    def test_zero_perturbation(self, rng):
        s, _, _ = make_saddle(3, 2, 100.0, rng)
        assert np.array_equal(actual_delta_l(s, np.zeros((5, 5))), np.zeros((5, 5)))

    def test_scalar_closed_form(self):
        s = SaddleMatrix.from_blocks([[1.0]], np.zeros((0, 1)), np.zeros((0, 0)))
        delta = 0.25
        dl = actual_delta_l(s, [[delta]])
        assert dl[0, 0] == pytest.approx(math.sqrt(1.0 + delta) - 1.0, rel=1e-15)

    def test_dominated_by_rigorous_bound(self, rng):
        from genchol.bounds import NormwiseEvaluator

        for _ in range(10):
            s, _, _ = make_saddle(3, 2, 100.0, rng)
            f = factorize(s)
            l = factor_to_dense(f)
            dk = gen_sym_perturbation(5, 1e-3, rng)
            value = NormwiseEvaluator(l, assemble_k(s)).report(fro_norm(dk)).b_3_3
            assert value is not None
            assert fro_norm(actual_delta_l(s, dk)) <= value + 1e-12

    def test_first_order_linearization(self, rng):
        # prediction through the inverse operator matrix agrees to 0.1 %
        for _ in range(10):
            s, _, _ = make_saddle(3, 2, 100.0, rng)
            f = factorize(s)
            w = build_w(f)
            from genchol.densela import lower_tri_solve

            winv = lower_tri_solve(w.entries, np.eye(w.entries.shape[0]))
            dk = gen_sym_perturbation(5, 1e-10, rng)
            predicted = unuvec(winv @ duvec(dk))
            actual = actual_delta_l(s, dk)
            assert fro_norm(predicted - actual) <= 1e-3 * fro_norm(actual)


class TestCompensatedResidual:
    def test_exact_for_representable_entries(self, rng):
        # halves in [-4, 4]: products and sums stay exact
        for _ in range(10):
            m, n = 2, 1
            p = m + n
            l = np.tril(rng.integers(-8, 9, (p, p)).astype(float) / 2.0)
            np.fill_diagonal(l, np.abs(np.diagonal(l)) + 1.0)
            f = GenCholFactor.from_dense(l, m, n)
            k = reconstruct(f)
            s = SaddleMatrix.from_dense(k, m, n, validate=False)
            assert np.array_equal(compensated_residual(f, s), np.zeros((p, p)))

    def test_within_gamma_envelope(self, rng):
        from genchol.densela import gamma_k

        for _ in range(25):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(0, m + 1))
            s, _, _ = make_saddle(m, n, 1e4, rng)
            f = factorize(s)
            resid = compensated_residual(f, s)
            l = np.abs(factor_to_dense(f))
            env = 10.0 * gamma_k(3 * max(m, n) + 1) * matmul(l, l.T)
            mask = env > 0.0
            assert np.all(np.abs(resid)[mask] <= env[mask])
            assert np.all(np.abs(resid)[~mask] == 0.0)

    def test_close_to_plain_residual(self, rng):
        for _ in range(10):
            s, _, _ = make_saddle(4, 2, 1e4, rng)
            f = factorize(s)
            k = assemble_k(s)
            plain = reconstruct(f) - k
            comp = compensated_residual(f, s)
            p = s.p
            assert fro_norm(plain - comp) <= p * U * fro_norm(k)


class TestFactorizeDenseUnderPerturbation:
    def test_indefinite_trailing_block_allowed(self, rng):
        # perturbations can push C slightly indefinite; the factorization only
        # needs the two eliminations to succeed
        s, _, _ = make_saddle(3, 2, 10.0, rng)
        k = assemble_k(s)
        dk = gen_sym_perturbation(5, 1e-8, rng)
        factorize_dense(k + dk, 3, 2, "K+dK")
