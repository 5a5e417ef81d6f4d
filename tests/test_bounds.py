import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genchol.densela import (
    SingularMatrixError,
    UNIT_ROUNDOFF,
    fro_norm,
    gamma_k,
    lower_tri_inverse,
    matmul,
    singular_values,
    spectral_norm,
)
from genchol.bounds import (
    NormwiseEvaluator,
    SQRT2,
    W_BOUND_MAX_ORDER,
    _scaled_w_inverse,
    _square_times,
    build_componentwise_report,
    eps_componentwise,
    report_to_json,
    scaling_candidates,
)
from genchol.factorization import (
    BlockSpec,
    GenCholFactor,
    factorize,
    factorize_dense,
    reconstruct,
)
from genchol.harness import (
    EnsembleConfig,
    _draw,
    gen_sym_perturbation,
    make_saddle,
    trial_rng,
)
from genchol.oracle import build_w, w_inverse_norm

U = UNIT_ROUNDOFF


def as_factor(l, m=None):
    """``l`` as a factor with J = diag(I_m, -I_(p-m)), m = p unless given.
    The dataclass constructor does not check the diagonal."""
    l = np.asarray(l, dtype=np.float64)
    p = l.shape[0]
    m = p if m is None else m
    return GenCholFactor(BlockSpec(m, p - m), l)


def normwise(l, dk_fro, k=None, m=None):
    """Normwise report for the factor ``l``; K is L L^T and J the identity
    unless given (only bound 3.17 reads K, through ||K||_2, and only bound
    3.15 reads J)."""
    f = as_factor(l, m)
    k = matmul(f.L, f.L.T) if k is None else k
    return NormwiseEvaluator(f, k).report(dk_fro)


def jacobi_norm(x) -> float:
    """||x||_2 as the normwise evaluator takes it: the Jacobi's largest
    singular value."""
    return float(singular_values(x)[0])


def kappa(x):
    """sigma_max / sigma_min, the two-norm condition number."""
    s = singular_values(x)
    return s[0] / s[-1]


def random_lower(p, rng, boost=1.0):
    l = np.tril(rng.standard_normal((p, p)))
    np.fill_diagonal(l, np.abs(np.diagonal(l)) + boost)
    return l


def entrywise_bauer_skeel(x):
    """|| |X^-1||X| ||_F by definition, with LAPACK's inverse."""
    return float(np.linalg.norm(np.abs(np.linalg.inv(x)) @ np.abs(x), ord="fro"))


def bauer_product(l):
    """|L^-1||L|, the product build_componentwise_report passes on."""
    return matmul(np.abs(lower_tri_inverse(l)), np.abs(l))


class TestScalingCandidates:
    def test_identity_input(self):
        cs = scaling_candidates(np.eye(3))
        assert "identity" in dict(cs)
        for _, d in cs:
            assert np.allclose(d, 1.0)

    def test_bad_column_scaling_example(self):
        # column equilibration restores a small condition number
        l = np.array([[1e3, 0.0], [1.0, 1.0]])
        cs = scaling_candidates(l)
        d = dict(cs)["col-equilibrate-L"]
        assert d[0] == pytest.approx(math.sqrt(1e6 + 1.0), rel=1e-14)
        assert d[1] == pytest.approx(1.0, rel=1e-14)
        assert kappa(l * (1.0 / d)[None, :]) <= 3.0

    def test_always_contains_identity(self, rng):
        l = random_lower(5, rng)
        for bauer in (None, bauer_product(l)):
            assert "identity" in dict(scaling_candidates(l, bauer))

    def test_componentwise_adds_bauer_row(self, rng):
        l = random_lower(4, rng)
        babs = bauer_product(l)
        cs = scaling_candidates(l, babs)
        assert [label for label, _ in cs] == [
            "identity", "col-equilibrate-L", "row-equilibrate-bauer"
        ]
        assert np.array_equal(cs[2][1], 1.0 / babs.max(axis=1))
        assert "row-equilibrate-bauer" not in dict(scaling_candidates(l))

    def test_singular_input(self):
        # the evaluators invert L; scaling_candidates only reads it
        l = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            NormwiseEvaluator(as_factor(l), np.eye(2))
        with pytest.raises(SingularMatrixError):
            build_componentwise_report(l, 1e-8)


class TestCondition31:
    def test_just_below(self):
        assert normwise(np.eye(2), 0.49).cond_3_1_ok is True

    def test_boundary_is_strict(self):
        rep = normwise(np.eye(2), 0.5)
        assert rep.cond_3_1_ok is False
        assert rep.b_3_3 is None

    def test_threshold_matches_svd_oracle(self):
        l = np.array([[1.0, 0.0], [10.0, 1.0]])
        # ||L^-1||_2 frozen from the SVD oracle
        linv2 = 10.099019513592784
        threshold = 0.5 / linv2**2
        assert normwise(l, threshold * 0.999).cond_3_1_ok is True
        assert normwise(l, threshold * 1.001).cond_3_1_ok is False


class TestSquareTimes:
    def test_plain_product_bits_in_range(self, rng):
        for a, b in zip(10.0 ** rng.uniform(-100, 100, 500), 10.0 ** rng.uniform(-100, 100, 500)):
            assert _square_times(float(a), float(b)) == float(a) * float(a) * float(b)

    def test_true_product_where_the_square_overflows(self):
        assert _square_times(1e155, 1e-320) == pytest.approx(1e-10, rel=1e-12)
        assert _square_times(1e-170, 1e300) == pytest.approx(1e-40, rel=1e-15)

    def test_inf_where_the_true_product_overflows(self):
        assert _square_times(1e200, 1e10) == math.inf
        assert _square_times(0.0, 1e300) == 0.0

    def test_conditions_hold_at_a_tiny_factor(self):
        # L = [[1e-155]]: ||L^-1||_2^2 = 1e310 overflows, and every condition
        # read it as false, though ||L^-1||_2^2 ||dK||_F is 1e-10
        rep = normwise([[1e-155]], 1e-320)
        assert rep.cond_3_1_ok and rep.cond_3_12_ok and rep.cond_3_16_ok
        assert rep.cond_3_18_strength_ok
        assert set(rep.rigorous_bounds()) == {
            "b_3_3", "b_3_4", "b_3_12", "b_3_13", "b_3_14", "b_3_15", "b_3_17"}


class TestBound33:
    def test_zero_perturbation(self):
        rep = normwise(np.eye(2), 0.0)
        assert rep.b_3_3 == 0.0
        assert rep.b_3_3_label == "identity"

    def test_identity_frozen_value(self):
        assert normwise(np.eye(2), 0.125).b_3_3 == pytest.approx(
            0.1380810145368474, rel=1e-13
        )

    def test_scaling_gap(self):
        # equilibration beats the identity by orders of magnitude
        l = np.array([[1e4, 0.0], [1.0, 1.0]])
        rep = normwise(l, 1e-6)
        assert rep.b_3_3_label == "col-equilibrate-L"
        assert rep.b_3_3 * 1e3 <= rep.b_3_14  # b_3_14: identity scaling only

    def test_condition_violation(self):
        rep = normwise(np.eye(2), 0.5)
        assert rep.cond_3_1_ok is False
        assert rep.b_3_3 is None and rep.b_3_3_label is None


class TestBound34:
    def test_zero_perturbation(self):
        assert normwise(np.eye(2), 0.0).b_3_4 == 0.0

    def test_fixed_ratio_to_first_order(self, rng):
        l = random_lower(4, rng)
        for dk in (1e-8, 1e-3):
            rep = normwise(l, dk)
            assert rep.b_3_4 / rep.b_3_11_coeff == pytest.approx(2.0 + SQRT2, rel=1e-12)

    def test_dominates_bound_33_on_grid(self):
        for x in np.linspace(0.0, 0.499, 25):
            rep = normwise(np.eye(2), float(x))
            assert rep.b_3_3 <= rep.b_3_4 * (1 + 1e-15)

    def test_boundary_limit_of_33_over_first_order(self):
        # the rigorous/first-order ratio climbs to 2 + sqrt(2) at the boundary
        rep = normwise(np.eye(2), 0.5 - 1e-9)
        assert rep.b_3_3 / rep.b_3_11_coeff == pytest.approx(2.0 + SQRT2, abs=1e-3)
        assert rep.b_3_3 / rep.b_3_11_coeff <= 2.0 + SQRT2


class TestReportOrderings:
    """Orderings that hold by construction of the formulas: 3.4 and 3.14 are
    3.3 with a larger coefficient, 3.12 is 3.13 at x_F >= x, 4.4 is 4.3 as 3.4
    is 3.3, and 3.3 and 4.3 are at least their first-order terms."""

    @staticmethod
    def assert_ordered(*values):
        present = [v for v in values if v is not None]
        for low, high in zip(present, present[1:]):
            assert low <= high * (1.0 + 1e-15), values

    @settings(max_examples=200, derandomize=True)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 0.499))
    def test_orderings(self, p, seed, x):
        rng = np.random.default_rng(seed)
        l = random_lower(p, rng) * 10.0 ** rng.uniform(-8.0, 8.0, p)[None, :]
        ev = NormwiseEvaluator(as_factor(l), matmul(l, l.T))
        rep = ev.report(x / (ev.linv2 * ev.linv2))
        self.assert_ordered(rep.b_3_11_coeff, rep.b_3_3, rep.b_3_4)
        self.assert_ordered(rep.b_3_3, rep.b_3_14)
        self.assert_ordered(rep.b_3_13, rep.b_3_12)
        cbs = fro_norm(bauer_product(l))
        comp = build_componentwise_report(l, x / (cbs * cbs))
        self.assert_ordered(comp.b_4_9_coeff, comp.b_4_3, comp.b_4_4)

    def test_subnormal_perturbation(self):
        # rounding below 2.2e-308 is absolute: on these inputs the (3.3)-shape
        # formula gives one subnormal where its first-order term gives two
        rep = normwise([[2.0]], 1.5e-323)
        assert rep.b_3_11_coeff == 1e-323
        self.assert_ordered(rep.b_3_11_coeff, rep.b_3_3, rep.b_3_14)
        comp = build_componentwise_report([[0.5]], 1.5e-323)
        assert comp.b_4_9_coeff == 1e-323
        self.assert_ordered(comp.b_4_9_coeff, comp.b_4_3, comp.b_4_4)

    def test_near_rank_one_inverse(self):
        # test_orderings' factor at this draw has a nearly rank-one L^-1 whose
        # fro_norm rounds an ulp below its Jacobi ||L^-1||_2; near x = 1/2 that
        # ulp once put b_3_12 (1248637.9431826954) under b_3_13 (...975)
        rng = np.random.default_rng(302200)
        l = random_lower(2, rng) * 10.0 ** rng.uniform(-8.0, 8.0, 2)[None, :]
        ev = NormwiseEvaluator(as_factor(l), matmul(l, l.T))
        assert ev.linv_f >= ev.linv2
        rep = ev.report(0.49609375 / (ev.linv2 * ev.linv2))
        assert rep.b_3_13 <= rep.b_3_12


class TestBound311:
    def test_identity(self):
        assert normwise(np.eye(3), 0.3).b_3_11_coeff == pytest.approx(0.3, rel=1e-13)

    def test_below_bound_33(self, rng):
        l = random_lower(3, rng)
        linv2 = jacobi_norm(lower_tri_inverse(l))
        for frac in (0.1, 0.5, 0.9):
            rep = normwise(l, frac * 0.5 / linv2**2)
            assert rep.b_3_11_coeff <= rep.b_3_3 * (1 + 1e-15)

    def test_zero(self):
        assert normwise(np.eye(2), 0.0).b_3_11_coeff == 0.0


class TestBound312And313:
    def test_zero(self):
        rep = normwise(np.eye(2), 0.0)
        assert rep.b_3_12 == 0.0
        assert rep.b_3_13 == 0.0

    def test_identity_frozen_values(self):
        # ||I^-1||_F^2 = 2 feeds the root of the classic bound
        assert normwise(np.eye(2), 0.2).b_3_12 == pytest.approx(
            0.19543950758485484, rel=1e-13
        )
        assert normwise(np.eye(2), 0.125).b_3_13 == pytest.approx(
            0.094734345490753, rel=1e-13
        )

    def test_ordering(self, rng):
        for _ in range(20):
            l = random_lower(3, rng)
            linv = lower_tri_inverse(l)
            linv_f = fro_norm(linv)
            rep = normwise(l, 0.4 / linv_f**2)
            assert rep.b_3_13 <= rep.b_3_12 * (1 + 1e-15)

    def test_312_needs_stronger_condition(self):
        # spectral test passes while the Frobenius one fails
        rep = normwise(np.eye(2), 0.3)
        assert rep.cond_3_1_ok is True
        assert rep.cond_3_12_ok is False
        assert rep.b_3_12 is None


class TestBound314:
    def test_zero(self):
        assert normwise(np.eye(2), 0.0).b_3_14 == 0.0

    def test_equals_bound_33_with_identity_candidates(self, rng):
        # bound 3.3's formula with kappa of the unscaled factor, taken as the
        # evaluator takes it: ||L||_2 ||L^-1||_2
        l = random_lower(4, rng)
        linv2 = jacobi_norm(lower_tri_inverse(l))
        dk = 0.2 / linv2**2
        x = linv2 * linv2 * dk
        v33 = SQRT2 * linv2 * (jacobi_norm(l) * linv2) * dk / (SQRT2 - 1.0 + math.sqrt(1.0 - 2.0 * x))
        assert normwise(l, dk).b_3_14 == v33

    def test_gap_to_best_candidate(self):
        rep = normwise(np.array([[1e4, 0.0], [1.0, 1.0]]), 1e-8)
        assert rep.b_3_14 >= 100.0 * rep.b_3_3

    def test_ratio_cap_to_313(self, rng):
        for _ in range(20):
            l = random_lower(3, rng)
            linv2 = jacobi_norm(lower_tri_inverse(l))
            for frac in (0.2, 0.8, 0.98):
                dk = frac * 0.5 / linv2**2
                rep = normwise(l, dk)
                assert rep.b_3_14 <= (SQRT2 + 1.0) * rep.b_3_13 * (1 + 1e-12)
                # the ratio is (1 + s) / (sqrt(2) - 1 + s), s = sqrt(1 - 2x)
                s = math.sqrt(1.0 - 2.0 * linv2 * linv2 * dk)
                assert rep.b_3_14 / rep.b_3_13 == pytest.approx(
                    (1.0 + s) / (SQRT2 - 1.0 + s), rel=1e-12
                )


class TestBound315:
    def test_zero(self):
        assert normwise(np.eye(2), 0.0, m=1).b_3_15 == 0.0

    def test_scalar_case(self):
        # order 1 with entry l: the operator matrix is [2l]
        l_val = 2.0
        dk = 0.1
        assert normwise([[l_val]], dk).b_3_15 == pytest.approx(
            dk / l_val, rel=1e-15
        )

    def test_condition_stronger_than_3_1(self):
        # gamma = 100 family: the 1/4 test fails while the 1/2 test holds
        f = GenCholFactor.from_dense([[1.0, 0.0], [100.0, 1.0]], 1, 1)
        l = f.L
        w_norm = w_inverse_norm(build_w(f))
        thresh_31 = 4.999000249930024e-05  # frozen SVD oracle
        thresh_316 = 9.995001899400144e-09  # frozen SVD oracle
        linv2 = jacobi_norm(lower_tri_inverse(l))
        assert 0.5 / linv2**2 == pytest.approx(thresh_31, rel=1e-10)
        assert 0.25 / w_norm**2 == pytest.approx(thresh_316, rel=1e-10)
        dk = 1e-6  # inside 3.1, outside 3.16
        rep = NormwiseEvaluator(f, reconstruct(f)).report(dk)
        assert rep.cond_3_1_ok is True
        assert rep.cond_3_16_ok is False
        assert rep.b_3_15 is None


def _w_norms(f):
    """(closed-form fast path, by-definition oracle) for one factor."""
    fast = NormwiseEvaluator(f, reconstruct(f)).w_inv_norm
    return fast, w_inverse_norm(build_w(f))


class TestOperatorInverseNorm:
    def test_matches_oracle_every_split(self, rng):
        for p in range(1, 11):
            for m in range(p, 0, -1):  # n = p - m runs from 0 to p - 1
                f = GenCholFactor.from_dense(random_lower(p, rng), m, p - m)
                fast, oracle = _w_norms(f)
                assert fast == pytest.approx(oracle, rel=1e-12), (p, m)

    def test_matches_oracle_on_ill_conditioned_saddles(self, rng):
        for m, n in ((4, 3), (6, 6)):
            s, _, _ = make_saddle(m, n, 1e8, rng)
            fast, oracle = _w_norms(factorize(s))
            assert fast == pytest.approx(oracle, rel=1e-12), (m, n)

    @pytest.mark.parametrize("l_val", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_order_one(self, l_val, sign):
        # W(x) = 2 j l x, so ||W^-1||_2 = 1 / (2 l) for either sign j.  A
        # j = -1 block needs a leading +1 block: with L = diag(1e3, l) the
        # other two diagonal entries of W, 2e3 and 1e3, leave 1 / (2 l) largest
        if sign > 0:
            f = GenCholFactor.from_dense([[l_val]], 1, 0)
        else:
            f = GenCholFactor.from_dense(np.diag([1e3, l_val]), 1, 1)
        ev = NormwiseEvaluator(f, reconstruct(f))
        assert ev.w_inv_norm == pytest.approx(
            1.0 / (2.0 * l_val), rel=1e-15
        )

    @pytest.mark.parametrize("l_val", [1e-155, 3e-200, 1e155])
    def test_order_one_at_extreme_scale(self, l_val):
        # W^-1 is quadratic in L^-1: unscaled, its products overflow to nan
        # for the two tiny factors and go subnormal for the huge one
        f = GenCholFactor.from_dense([[l_val]], 1, 0)
        ev = NormwiseEvaluator(f, np.array([[1.0]]))
        assert ev.w_inv_norm == 1.0 / (2.0 * l_val) == w_inverse_norm(build_w(f))

    def test_identity_with_signature(self):
        f = GenCholFactor.from_dense(np.eye(2), 1, 1)
        fast, oracle = _w_norms(f)
        assert fast == pytest.approx(1.0, rel=1e-14)
        assert fast == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("gamma", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
    def test_gamma_families(self, gamma):
        for f in (
            GenCholFactor.from_dense([[1.0 / gamma, 0.0], [1.0, 1.0]], 1, 1),  # remark32
            GenCholFactor.from_dense([[1.0, 0.0], [gamma, 1.0]], 1, 1),  # remark33
        ):
            fast, oracle = _w_norms(f)
            assert fast == pytest.approx(oracle, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(SingularMatrixError):
            NormwiseEvaluator(as_factor(np.diag([1.0, 0.0]), m=1), np.eye(2))


def full_product_w_inverse(l, linv, jvec):
    """The scaled explicit W^-1 and its exponent, with every term of
    L [low_1 ... low_q] formed and summed by ``matmul``: the build before it
    skipped the terms that are exact zeros."""
    e = math.frexp(float(np.abs(linv).max()))[1]
    el = math.frexp(float(np.abs(l).max()))[1]
    l, linv = np.ldexp(l, -el), np.ldexp(linv, -e)
    p = l.shape[0]
    jj, ii = np.triu_indices(p)
    q = ii.size
    ui = linv[:, ii].T
    uj = linv[:, jj].T
    g = ui[:, :, None] * uj[:, None, :]
    g = g + g.transpose(0, 2, 1)
    g[ii == jj] *= 0.5
    low = np.tril(g)
    low[:, np.arange(p), np.arange(p)] *= 0.5
    x = matmul(l, low.transpose(1, 0, 2).reshape(p, q * p))
    x = x.reshape(p, q, p).transpose(1, 0, 2) * jvec[None, None, :]
    return x[:, ii, jj].T, 2 * e + el


class TestWInverseBitPin:
    """The W^-1 built from its nonzero terms has the full product's bits."""

    def test_every_order_with_a_bound_3_15(self):
        rng = np.random.default_rng(20261021)
        for p in range(1, W_BOUND_MAX_ORDER + 1):
            for n in sorted({0, p // 2}):
                for cond in (1e2, 1e8):
                    f = factorize(make_saddle(p - n, n, cond, rng)[0])
                    jvec = f.spec.signature()
                    for scale in (1.0, 2.0**600, 2.0**-600, 1e-155):
                        l = f.L * scale
                        linv = lower_tri_inverse(l)
                        got, exponent = _scaled_w_inverse(l, linv, jvec)
                        expected, expected_exponent = full_product_w_inverse(l, linv, jvec)
                        assert exponent == expected_exponent, (p, n, cond, scale)
                        assert got.shape == expected.shape == (p * (p + 1) // 2,) * 2
                        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (
                            p, n, cond, scale)

    def test_signed_entries_and_the_norm(self, rng):
        # factors with entries of both signs, and the norm the evaluator
        # takes from the matrix
        for p in (1, 2, 5, 12, 24):
            f = GenCholFactor.from_dense(random_lower(p, rng), p - p // 2, p // 2)
            ev = NormwiseEvaluator(f, reconstruct(f))
            expected, exponent = full_product_w_inverse(ev.l, ev.linv, f.spec.signature())
            got = _scaled_w_inverse(ev.l, ev.linv, f.spec.signature())[0]
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), p
            sigma = np.linalg.svd(expected, compute_uv=False)[0]
            assert ev.w_inv_norm == float(np.ldexp(sigma, exponent))


class TestBound317:
    def test_zero(self):
        rep = normwise(np.eye(2), 0.0, k=np.diag([1.0, -1.0]))
        assert rep.b_3_17 == 0.0
        assert rep.b_3_17_label == "identity"
        assert rep.b_3_17_excluded == ""

    def test_identity_frozen_value(self):
        rep = normwise(np.eye(2), 0.1, k=np.diag([1.0, -1.0]))
        assert rep.b_3_17 == pytest.approx(0.11270166537925831, rel=1e-13)

    def test_condition_strength(self, rng):
        # left side of the refined test always dominates the basic one
        for _ in range(20):
            s, _, _ = make_saddle(3, 2, 1e4, rng)
            f = factorize(s)
            ev = NormwiseEvaluator(f, reconstruct(f))
            for level in (1e-8, 1e-4, 0.1, 0.4):
                dk_fro = level / ev.linv2**2
                assert ev.report(dk_fro).cond_3_18_strength_ok

    def test_exclusion_reporting(self):
        l = np.array([[1.0, 0.0], [30.0, 1.0]])
        k = matmul(l * np.array([1.0, -1.0])[None, :], l.T)
        linv2 = jacobi_norm(lower_tri_inverse(l))
        dk = 0.4 / linv2**2  # inside 3.1 but outside the refined test
        rep = normwise(l, dk, k=k)
        assert rep.cond_3_1_ok is True
        assert rep.cond_3_18_ok is False
        assert rep.b_3_17 is None
        assert "identity" in rep.b_3_17_excluded.split(",")


class TestEpsComponentwise:
    def test_equal_blocks_agree(self):
        gammas = eps_componentwise(4, 4)
        assert min(gammas) == max(gammas)

    def test_min_paper(self):
        assert min(eps_componentwise(5, 2)) == 7.771561172376102e-16

    def test_max_safe(self):
        assert max(eps_componentwise(5, 2)) == 1.7763568394002536e-15

    def test_leading_block_first(self):
        assert eps_componentwise(5, 2) == (gamma_k(16), gamma_k(7))


class TestCondition42:
    def test_identity(self):
        p = 4
        assert build_componentwise_report(np.eye(p), 0.4 / p).cond_4_2_ok is True
        rep = build_componentwise_report(np.eye(p), 0.5 / p)
        assert rep.cond_4_2_ok is False
        assert rep.b_4_3 is None

    def test_zero_eps(self):
        assert build_componentwise_report(np.eye(3), 0.0).cond_4_2_ok is True

    def test_threshold_from_brute_force(self):
        l = np.array([[1.0, 0.0], [50.0, 1.0]])
        prod = entrywise_bauer_skeel(l) * entrywise_bauer_skeel(np.linalg.inv(l).T)
        rep = build_componentwise_report(l, 0.0)
        assert rep.cond_bs_L * rep.cond_bs_L == pytest.approx(prod, rel=1e-14)
        assert build_componentwise_report(l, 0.499 / prod).cond_4_2_ok is True
        assert build_componentwise_report(l, 0.501 / prod).cond_4_2_ok is False


class TestComponentwiseBounds:
    # at L = I every componentwise scaling candidate is the identity
    def test_zero_eps(self):
        assert build_componentwise_report(np.eye(3), 0.0).b_4_3 == 0.0

    def test_identity_closed_form(self):
        # all norms are closed-form at the identity: the scaled factor has
        # spectral norm 1, the Bauer-Skeel condition is sqrt(p)
        p, eps = 3, 1e-4
        v = build_componentwise_report(np.eye(p), eps).b_4_3
        expected = (
            SQRT2 * math.sqrt(p) * eps / (SQRT2 - 1.0 + math.sqrt(1.0 - 2.0 * p * eps))
        )
        assert v == pytest.approx(expected, rel=1e-12)

    def test_identity_first_order(self):
        p, eps = 3, 1e-4
        assert build_componentwise_report(np.eye(p), eps).b_4_9_coeff == pytest.approx(
            math.sqrt(p) * eps, rel=1e-12
        )

    def test_fixed_ratio(self, rng):
        l = random_lower(4, rng)
        rep = build_componentwise_report(l, 1e-8)
        assert rep.b_4_4 / rep.b_4_9_coeff == pytest.approx(2.0 + SQRT2, rel=1e-12)

    def test_condition_violation(self):
        l = np.array([[1.0, 0.0], [1000.0, 1.0]])
        rep = build_componentwise_report(l, 1e-2)
        assert rep.cond_4_2_ok is False
        assert rep.b_4_3 is None and rep.b_4_4 is None


class TestReports:
    def test_bound_presence_follows_flags(self, rng):
        s, _, _ = make_saddle(3, 2, 1e4, rng)
        f = factorize(s)
        ev = NormwiseEvaluator(f, reconstruct(f))
        # large level: Frobenius-based test typically fails while 3.1 holds
        dk = 0.45 / ev.linv2**2
        rep = ev.report(dk)
        assert rep.cond_3_1_ok
        assert (rep.b_3_12 is not None) == rep.cond_3_12_ok
        assert (rep.b_3_15 is not None) == rep.cond_3_16_ok
        for name, value in rep.rigorous_bounds().items():
            assert value >= 0.0, name

    def test_kappas_are_products_of_largest_singular_values(self, rng):
        # the identity candidate gives L's own norms, bit for bit
        s, _, _ = make_saddle(4, 3, 1e8, rng)
        f = factorize(s)
        l = f.L
        linv = lower_tri_inverse(l)
        ev = NormwiseEvaluator(f, s.K)
        assert ev.l2 == jacobi_norm(l)
        assert ev.linv2 == jacobi_norm(linv)
        assert ev.kappa_l == ev.l2 * ev.linv2
        for label, d in scaling_candidates(l):
            dlinv2 = jacobi_norm(d[:, None] * linv)
            assert ev.kappas[label] == jacobi_norm(l * (1.0 / d)[None, :]) * dlinv2
            assert ev.coeff_317[label] == ev.kappa_l * ev.l2 * dlinv2 * float(np.max(1.0 / d))

    @pytest.mark.parametrize("m, n", [(4, 3), (6, 6)])
    def test_kappas_match_a_50_digit_reference(self, m, n):
        # sigma_max / sigma_min of one SVD loses digits to the small singular
        # value (2.1e-13 at 4+3 and 5.0e-13 at 6+6 on these draws); the
        # product of the two largest singular values stays within 3.1e-15
        mpmath = pytest.importorskip("mpmath")
        cfg = EnsembleConfig(m=m, n=n, trials=20, cond_target=1e12, seed=7)
        worst = 0.0
        for trial in range(cfg.trials):
            _, f, _, _ = _draw(cfg, trial_rng(cfg.seed, trial), trial)
            l = f.L
            ev = NormwiseEvaluator(f, reconstruct(f))
            for label, d in scaling_candidates(l):
                with mpmath.workdps(50):  # L D^-1 from the exact float64 entries
                    ld = mpmath.matrix(l.tolist()) * mpmath.diag([1 / mpmath.mpf(v) for v in d])
                    s = sorted(abs(v) for v in mpmath.svd_r(ld, compute_uv=False))
                    exact = s[-1] / s[0]
                    worst = max(worst, float(abs(ev.kappas[label] - exact) / exact))
        assert worst <= 1e-14

    def test_per_level_diagnostics(self, rng):
        s, _, _ = make_saddle(3, 2, 1e4, rng)
        f = factorize(s)
        ev = NormwiseEvaluator(f, s.K)
        dk = gen_sym_perturbation(5, 0.1 / ev.linv2**2, rng)
        dk_fro = fro_norm(dk)
        dl = factorize_dense(s.K + dk, 3, 2).L - f.L
        rep = ev.report(dk_fro, actual_dl=dl)
        assert rep.diag_3_8_ok is True and rep.cond_3_18_strength_ok is True
        assert ev.report(dk_fro).diag_3_8_ok is None  # (3.8) needs a measured dL
        # a dL with ||L^-1 dL||_F past the right side of (3.8) fails it
        x = ev.linv2 * ev.linv2 * dk_fro
        rhs = (1.0 - math.sqrt(1.0 - 2.0 * x)) / SQRT2
        past = dl * ((rhs + 1e-9) / fro_norm(matmul(ev.linv, dl)))
        assert ev.report(dk_fro, actual_dl=past).diag_3_8_ok is False
        # a candidate whose 3.18 left side is below x makes the test weaker
        ev.coeff_317["identity"] = 0.5 * x * ev.k2 / dk_fro
        assert ev.report(dk_fro).cond_3_18_strength_ok is False

    def test_levels_together_equal_levels_alone(self, rng):
        # one call for a trial's levels, with the dLs of all of them or of
        # none, gives the one-level reports field for field
        s, _, _ = make_saddle(4, 3, 1e4, rng)
        f = factorize(s)
        ev = NormwiseEvaluator(f, s.K)
        direction = gen_sym_perturbation(7, 1.0, rng)
        dks = [direction * (level / ev.linv2**2) for level in (1e-8, 1e-4, 0.1, 0.4)]
        dls = np.stack([factorize_dense(s.K + dk, 4, 3).L - f.L for dk in dks])
        dk_fros = [fro_norm(dk) for dk in dks]
        together = ev.reports(dk_fros, dls)
        assert together == [ev.report(d, actual_dl=dl) for d, dl in zip(dk_fros, dls)]
        assert [rep.actual_dl_2 for rep in together] == [spectral_norm(dl) for dl in dls]
        assert ev.reports(dk_fros) == [ev.report(d) for d in dk_fros]
        assert all(rep.actual_dl_2 is None for rep in ev.reports(dk_fros))
        assert ev.reports([]) == ev.reports([], np.zeros((0, 7, 7))) == []

    def test_componentwise_measured_dl_rides_in_the_stack(self, rng, monkeypatch):
        # the measured dL is the last member of the candidate stack and moves
        # no other field; without one the stack keeps its six candidates
        from genchol import bounds

        s, _, _ = make_saddle(4, 3, 1e4, rng)
        f = factorize(s)
        dk = gen_sym_perturbation(7, 1e-6, rng)
        dl = factorize_dense(reconstruct(f) + dk, 4, 3).L - f.L
        calls = []

        def counting(x):
            calls.append(np.shape(x))
            return spectral_norm(x)

        monkeypatch.setattr(bounds, "spectral_norm", counting)
        without = build_componentwise_report(f.L, 1e-6)
        measured = build_componentwise_report(f.L, 1e-6, actual_dl=dl)
        assert calls == [(6, 7, 7), (7, 7, 7)]
        assert dataclasses.replace(measured, actual_dl_fro=None, actual_dl_2=None) == without
        assert measured.actual_dl_2 == spectral_norm(dl)
        assert measured.actual_dl_fro == fro_norm(dl)

    def test_one_kernel_for_every_measured_dl(self, rng):
        # the normwise and the componentwise report take ||dL||_2 of the same
        # factor and dL from the same kernel, bit for bit, at every level
        s, _, _ = make_saddle(4, 3, 1e4, rng)
        f = factorize(s)
        ev = NormwiseEvaluator(f, s.K)
        direction = gen_sym_perturbation(7, 1.0, rng)
        for level in (1e-8, 1e-4, 0.1, 0.4):
            dk = direction * (level / ev.linv2**2)
            dl = factorize_dense(s.K + dk, 4, 3).L - f.L
            normwise_2 = ev.reports([fro_norm(dk)], [dl])[0].actual_dl_2
            assert normwise_2 == build_componentwise_report(f.L, 1e-6, actual_dl=dl).actual_dl_2

    def test_json_round_trip(self, rng):
        import json

        s, _, _ = make_saddle(2, 1, 10.0, rng)
        f = factorize(s)
        rep = NormwiseEvaluator(f, reconstruct(f)).report(1e-3)
        parsed = json.loads(report_to_json(rep))
        assert parsed["dk_fro"] == 1e-3
        assert parsed["cond_3_1_ok"] is True
        assert list(parsed) == [field.name for field in dataclasses.fields(rep)]

    def test_componentwise_report_fields(self, rng):
        s, _, _ = make_saddle(3, 3, 100.0, rng)
        f = factorize(s)
        rep = build_componentwise_report(f.L, 1e-6)
        assert rep.cond_4_2_ok
        assert rep.b_4_3 is not None
        assert rep.b_4_4 / rep.b_4_9_coeff == pytest.approx(2.0 + SQRT2, rel=1e-12)
        # cond_bs_L is also the Bauer-Skeel number of L^-T
        assert rep.cond_bs_L == pytest.approx(
            entrywise_bauer_skeel(np.linalg.inv(f.L).T), rel=1e-6
        )

    @pytest.mark.parametrize("m, n, cond", [(3, 3, 1e3), (6, 6, 1e8)])
    def test_bauer_skeel_transpose_identity(self, rng, m, n, cond):
        # |L^T||L^-T| is the transpose of |L^-1||L|, so the two numbers are one
        for _ in range(25):
            s, _, _ = make_saddle(m, n, cond, rng)
            l = factorize(s).L
            rep = build_componentwise_report(l, 1e-6)
            transposed = matmul(np.abs(l.T), np.abs(lower_tri_inverse(l).T))
            assert rep.cond_bs_L == pytest.approx(fro_norm(transposed), rel=1e-13)

    def test_componentwise_report_inverts_once(self, rng, monkeypatch):
        from genchol import bounds

        calls = []

        def counting(l):
            calls.append(np.shape(l))
            return lower_tri_inverse(l)

        monkeypatch.setattr(bounds, "lower_tri_inverse", counting)
        s, _, _ = make_saddle(4, 3, 1e4, rng)
        build_componentwise_report(factorize(s).L, 1e-6)
        assert calls == [(7, 7)]

    def test_scaling_argmin_invariant_under_scalar(self, rng):
        # scaled condition numbers and the winning label ignore L -> cL
        l = random_lower(4, rng)
        k = matmul(l, l.T)
        ev1 = NormwiseEvaluator(as_factor(l), k)
        ev2 = NormwiseEvaluator(as_factor(3.5 * l), k)
        assert ev1.kappa_label == ev2.kappa_label
        for label in ev1.kappas:
            assert ev1.kappas[label] == pytest.approx(ev2.kappas[label], rel=1e-12)


class TestCondBauerSkeel:
    """|| |X^-1||X| ||_F has one home, the componentwise report's
    ``cond_bs_L``: for X = L, and for the upper-triangular X = L^-T."""

    @pytest.mark.parametrize("p", [1, 2, 5, 8])
    def test_identity(self, p):
        rep = build_componentwise_report(np.eye(p), 0.0)
        assert rep.cond_bs_L == pytest.approx(math.sqrt(p), rel=1e-14)
        assert rep.cond_bs_L == pytest.approx(
            entrywise_bauer_skeel(lower_tri_inverse(np.eye(p)).T), rel=1e-14
        )

    def test_positive_diagonal_invariance(self, rng):
        for p in (1, 3, 6):
            l = np.diag(10.0 ** rng.uniform(-3, 3, p))
            rep = build_componentwise_report(l, 0.0)
            assert rep.cond_bs_L == pytest.approx(math.sqrt(p), rel=1e-12)
            assert entrywise_bauer_skeel(lower_tri_inverse(l).T) == pytest.approx(
                math.sqrt(p), rel=1e-12
            )

    def test_unit_lower_example(self):
        # |L^-1||L| = [[1, 0], [20, 1]] for L = [[1, 0], [10, 1]], and
        # |L^T||L^-T| = [[1, 20], [0, 1]] is its transpose
        l = np.array([[1.0, 0.0], [10.0, 1.0]])
        rep = build_componentwise_report(l, 0.0)
        assert rep.cond_bs_L == pytest.approx(20.049937655763422, rel=1e-13)
        assert entrywise_bauer_skeel(lower_tri_inverse(l).T) == pytest.approx(
            20.049937655763422, rel=1e-13
        )

    def test_upper_triangular_matches_entrywise_oracle(self, rng):
        for p in (1, 3, 6):
            l = np.tril(rng.standard_normal((p, p)))
            np.fill_diagonal(l, np.abs(np.diagonal(l)) + 1.0)
            rep = build_componentwise_report(l, 0.0)
            for x in (l, lower_tri_inverse(l).T):
                assert rep.cond_bs_L == pytest.approx(entrywise_bauer_skeel(x), rel=1e-10)
