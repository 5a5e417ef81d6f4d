import math

import numpy as np
import pytest

from genchol.densela import (
    ConditionViolated,
    ShapeError,
    SingularMatrixError,
    UNIT_ROUNDOFF,
    cond_bauer_skeel,
    fro_norm,
    kappa2,
    lower_tri_inverse,
    matmul,
    spectral_norm,
)
from genchol.bounds import (
    NormwiseEvaluator,
    ScalingCandidateSet,
    SQRT2,
    bound_3_11_coeff,
    bound_3_12,
    bound_3_13,
    bound_3_14,
    bound_3_15,
    bound_3_17,
    bound_3_3,
    bound_3_4,
    bound_4_3,
    bound_4_4,
    bound_4_9_coeff,
    build_componentwise_report,
    build_normwise_report,
    check_condition_3_1,
    check_condition_4_2,
    eps_componentwise,
    operator_inverse_norm,
    report_to_json,
    scaling_candidates,
)
from genchol.factorization import GenCholFactor, factor_to_dense, factorize, reconstruct
from genchol.harness import make_saddle
from genchol.oracle import build_w, w_inverse_norm

U = UNIT_ROUNDOFF
IDENTITY_ONLY = lambda p: ScalingCandidateSet(("identity",), (np.ones(p),))


def random_lower(p, rng, boost=1.0):
    l = np.tril(rng.standard_normal((p, p)))
    np.fill_diagonal(l, np.abs(np.diagonal(l)) + boost)
    return l


class TestScalingCandidates:
    def test_identity_input(self):
        cs = scaling_candidates(np.eye(3), "kappa_min")
        assert "identity" in cs.labels
        for _, d in cs:
            assert np.allclose(d, 1.0)

    def test_bad_column_scaling_example(self):
        # column equilibration restores a small condition number
        l = np.array([[1e3, 0.0], [1.0, 1.0]])
        cs = scaling_candidates(l, "kappa_min")
        d = dict(zip(cs.labels, cs.diags))["col-equilibrate-L"]
        assert d[0] == pytest.approx(math.sqrt(1e6 + 1.0), rel=1e-14)
        assert d[1] == pytest.approx(1.0, rel=1e-14)
        from genchol.densela import kappa2

        assert kappa2(l * (1.0 / d)[None, :]) <= 3.0

    def test_always_contains_identity(self, rng):
        l = random_lower(5, rng)
        for purpose in ("kappa_min", "componentwise"):
            assert "identity" in scaling_candidates(l, purpose).labels

    def test_componentwise_adds_bauer_row(self, rng):
        l = random_lower(4, rng)
        cs = scaling_candidates(l, "componentwise")
        assert "row-equilibrate-bauer" in cs.labels

    def test_singular_input(self):
        l = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            scaling_candidates(l, "kappa_min")


class TestCondition31:
    def test_just_below(self):
        assert check_condition_3_1(np.eye(2), 0.49)

    def test_boundary_is_strict(self):
        assert not check_condition_3_1(np.eye(2), 0.5)

    def test_threshold_matches_svd_oracle(self):
        l = np.array([[1.0, 0.0], [10.0, 1.0]])
        # ||L^-1||_2 frozen from the SVD oracle
        linv2 = 10.099019513592784
        threshold = 0.5 / linv2**2
        assert check_condition_3_1(l, threshold * 0.999)
        assert not check_condition_3_1(l, threshold * 1.001)


class TestBound33:
    def test_zero_perturbation(self):
        v, label = bound_3_3(np.eye(2), 0.0, IDENTITY_ONLY(2))
        assert v == 0.0
        assert label == "identity"

    def test_identity_frozen_value(self):
        v, _ = bound_3_3(np.eye(2), 0.125, IDENTITY_ONLY(2))
        assert v == pytest.approx(0.1380810145368474, rel=1e-13)

    def test_scaling_gap(self):
        # equilibration beats the identity by orders of magnitude
        l = np.array([[1e4, 0.0], [1.0, 1.0]])
        d_set = scaling_candidates(l, "kappa_min")
        best, label = bound_3_3(l, 1e-6, d_set)
        ident, _ = bound_3_3(l, 1e-6, IDENTITY_ONLY(2))
        assert label == "col-equilibrate-L"
        assert best * 1e3 <= ident

    def test_condition_violation(self):
        with pytest.raises(ConditionViolated):
            bound_3_3(np.eye(2), 0.5, IDENTITY_ONLY(2))


class TestBound34:
    def test_zero_perturbation(self):
        v, _ = bound_3_4(np.eye(2), 0.0, IDENTITY_ONLY(2))
        assert v == 0.0

    def test_fixed_ratio_to_first_order(self, rng):
        l = random_lower(4, rng)
        d_set = scaling_candidates(l, "kappa_min")
        for dk in (1e-8, 1e-3):
            v34, _ = bound_3_4(l, dk, d_set)
            v311 = bound_3_11_coeff(l, dk, d_set)
            assert v34 / v311 == pytest.approx(2.0 + SQRT2, rel=1e-12)

    def test_dominates_bound_33_on_grid(self):
        for x in np.linspace(0.0, 0.499, 25):
            v33, _ = bound_3_3(np.eye(2), float(x), IDENTITY_ONLY(2))
            v34, _ = bound_3_4(np.eye(2), float(x), IDENTITY_ONLY(2))
            assert v33 <= v34 * (1 + 1e-15)

    def test_boundary_limit_of_33_over_first_order(self):
        # the rigorous/first-order ratio climbs to 2 + sqrt(2) at the boundary
        x = 0.5 - 1e-9
        v33, _ = bound_3_3(np.eye(2), x, IDENTITY_ONLY(2))
        v311 = bound_3_11_coeff(np.eye(2), x, IDENTITY_ONLY(2))
        assert v33 / v311 == pytest.approx(2.0 + SQRT2, abs=1e-3)
        assert v33 / v311 <= 2.0 + SQRT2


class TestBound311:
    def test_identity(self):
        assert bound_3_11_coeff(np.eye(3), 0.3, IDENTITY_ONLY(3)) == pytest.approx(
            0.3, rel=1e-13
        )

    def test_below_bound_33(self, rng):
        l = random_lower(3, rng)
        d_set = scaling_candidates(l, "kappa_min")
        linv2 = spectral_norm(lower_tri_inverse(l))
        for frac in (0.1, 0.5, 0.9):
            dk = frac * 0.5 / linv2**2
            v33, _ = bound_3_3(l, dk, d_set)
            assert bound_3_11_coeff(l, dk, d_set) <= v33 * (1 + 1e-15)

    def test_zero(self):
        assert bound_3_11_coeff(np.eye(2), 0.0, IDENTITY_ONLY(2)) == 0.0


class TestBound312And313:
    def test_zero(self):
        assert bound_3_12(np.eye(2), 0.0) == 0.0
        assert bound_3_13(np.eye(2), 0.0) == 0.0

    def test_identity_frozen_values(self):
        # ||I^-1||_F^2 = 2 feeds the root of the classic bound
        assert bound_3_12(np.eye(2), 0.2) == pytest.approx(
            0.19543950758485484, rel=1e-13
        )
        assert bound_3_13(np.eye(2), 0.125) == pytest.approx(
            0.094734345490753, rel=1e-13
        )

    def test_ordering(self, rng):
        for _ in range(20):
            l = random_lower(3, rng)
            linv = lower_tri_inverse(l)
            linv_f = fro_norm(linv)
            dk = 0.4 / linv_f**2
            assert bound_3_13(l, dk) <= bound_3_12(l, dk) * (1 + 1e-15)

    def test_312_needs_stronger_condition(self):
        # spectral test passes while the Frobenius one fails
        dk = 0.3
        assert check_condition_3_1(np.eye(2), dk)
        with pytest.raises(ConditionViolated):
            bound_3_12(np.eye(2), dk)


class TestBound314:
    def test_zero(self):
        assert bound_3_14(np.eye(2), 0.0) == 0.0

    def test_equals_bound_33_with_identity_candidates(self, rng):
        l = random_lower(4, rng)
        linv2 = spectral_norm(lower_tri_inverse(l))
        dk = 0.2 / linv2**2
        v33, _ = bound_3_3(l, dk, IDENTITY_ONLY(4))
        assert bound_3_14(l, dk) == v33

    def test_gap_to_best_candidate(self):
        l = np.array([[1e4, 0.0], [1.0, 1.0]])
        d_set = scaling_candidates(l, "kappa_min")
        v33, _ = bound_3_3(l, 1e-8, d_set)
        assert bound_3_14(l, 1e-8) >= 100.0 * v33

    def test_ratio_cap_to_313(self, rng):
        for _ in range(20):
            l = random_lower(3, rng)
            linv2 = spectral_norm(lower_tri_inverse(l))
            for frac in (0.2, 0.8, 0.98):
                dk = frac * 0.5 / linv2**2
                assert bound_3_14(l, dk) <= (SQRT2 + 1.0) * bound_3_13(l, dk) * (
                    1 + 1e-12
                )
                # the ratio is (1 + s) / (sqrt(2) - 1 + s), s = sqrt(1 - 2x)
                s = math.sqrt(1.0 - 2.0 * linv2 * linv2 * dk)
                assert bound_3_14(l, dk) / bound_3_13(l, dk) == pytest.approx(
                    (1.0 + s) / (SQRT2 - 1.0 + s), rel=1e-12
                )


class TestBound315:
    def test_zero(self):
        assert bound_3_15(1.0, 0.0) == 0.0

    def test_scalar_case(self):
        # order 1 with entry l: the operator matrix is [2l]
        l_val = 2.0
        w_inv = 1.0 / (2.0 * l_val)
        dk = 0.1
        assert bound_3_15(w_inv, dk) == pytest.approx(dk / l_val, rel=1e-15)

    def test_condition_stronger_than_3_1(self):
        # gamma = 100 family: the 1/4 test fails while the 1/2 test holds
        from genchol.oracle import build_w, w_inverse_norm

        f = GenCholFactor.from_blocks([[1.0]], [[100.0]], [[1.0]])
        l = factor_to_dense(f)
        w_norm = w_inverse_norm(build_w(f))
        thresh_31 = 4.999000249930024e-05  # frozen SVD oracle
        thresh_316 = 9.995001899400144e-09  # frozen SVD oracle
        linv2 = spectral_norm(lower_tri_inverse(l))
        assert 0.5 / linv2**2 == pytest.approx(thresh_31, rel=1e-10)
        assert 0.25 / w_norm**2 == pytest.approx(thresh_316, rel=1e-10)
        dk = 1e-6  # inside 3.1, outside 3.16
        assert check_condition_3_1(l, dk)
        with pytest.raises(ConditionViolated):
            bound_3_15(w_norm, dk)


def _w_norms(f):
    """(closed-form fast path, by-definition oracle) for one factor."""
    fast = operator_inverse_norm(factor_to_dense(f), f.spec.signature())
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
        # W(x) = 2 j l x, so ||W^-1||_2 = 1 / (2 l) for either sign j
        assert operator_inverse_norm([[l_val]], [sign]) == pytest.approx(
            1.0 / (2.0 * l_val), rel=1e-15
        )

    def test_identity_with_signature(self):
        f = GenCholFactor.from_blocks([[1.0]], [[0.0]], [[1.0]])
        fast, oracle = _w_norms(f)
        assert fast == pytest.approx(1.0, rel=1e-14)
        assert fast == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("gamma", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
    def test_gamma_families(self, gamma):
        for f in (
            GenCholFactor.from_blocks([[1.0 / gamma]], [[1.0]], [[1.0]]),  # remark32
            GenCholFactor.from_blocks([[1.0]], [[gamma]], [[1.0]]),  # remark33
        ):
            fast, oracle = _w_norms(f)
            assert fast == pytest.approx(oracle, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ShapeError):
            operator_inverse_norm(np.eye(3), [1.0, -1.0])
        with pytest.raises(SingularMatrixError):
            operator_inverse_norm(np.diag([1.0, 0.0]), [1.0, -1.0])


class TestBound317:
    def test_zero(self):
        k = np.diag([1.0, -1.0])
        v, label, excluded = bound_3_17(np.eye(2), k, 0.0, IDENTITY_ONLY(2))
        assert v == 0.0
        assert label == "identity"
        assert excluded == ()

    def test_identity_frozen_value(self):
        k = np.diag([1.0, -1.0])
        v, _, _ = bound_3_17(np.eye(2), k, 0.1, IDENTITY_ONLY(2))
        assert v == pytest.approx(0.11270166537925831, rel=1e-13)

    def test_condition_strength(self, rng):
        # left side of the refined test always dominates the basic one
        for _ in range(20):
            s, _, _ = make_saddle(3, 2, 1e4, rng)
            f = factorize(s)
            l = factor_to_dense(f)
            ev = NormwiseEvaluator(l, reconstruct(f))
            for level in (1e-8, 1e-4, 0.1, 0.4):
                dk_fro = level / ev.linv2**2
                assert ev.condition_318_strength_ok(dk_fro)

    def test_exclusion_reporting(self):
        l = np.array([[1.0, 0.0], [30.0, 1.0]])
        k = matmul(l * np.array([1.0, -1.0])[None, :], l.T)
        linv2 = spectral_norm(lower_tri_inverse(l))
        dk = 0.4 / linv2**2  # inside 3.1 but outside the refined test
        with pytest.raises(ConditionViolated):
            bound_3_17(l, k, dk, IDENTITY_ONLY(2))


class TestEpsComponentwise:
    def test_equal_blocks_agree(self):
        assert eps_componentwise(4, 4, convention="min-paper") == eps_componentwise(
            4, 4, convention="max-safe"
        )

    def test_min_paper(self):
        assert eps_componentwise(5, 2, convention="min-paper") == pytest.approx(
            7.771561172376102e-16, rel=0
        )

    def test_max_safe(self):
        assert eps_componentwise(5, 2, convention="max-safe") == pytest.approx(
            1.7763568394002536e-15, rel=0
        )

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            eps_componentwise(2, 2, convention="median")


class TestCondition42:
    def test_identity(self):
        p = 4
        assert check_condition_4_2(np.eye(p), 0.4 / p)
        assert not check_condition_4_2(np.eye(p), 0.5 / p)

    def test_zero_eps(self):
        assert check_condition_4_2(np.eye(3), 0.0)

    def test_threshold_from_brute_force(self):
        l = np.array([[1.0, 0.0], [50.0, 1.0]])
        prod = cond_bauer_skeel(l) * cond_bauer_skeel(lower_tri_inverse(l).T)
        assert check_condition_4_2(l, 0.499 / prod)
        assert not check_condition_4_2(l, 0.501 / prod)


class TestComponentwiseBounds:
    def test_zero_eps(self):
        v, _ = bound_4_3(np.eye(3), 0.0, IDENTITY_ONLY(3))
        assert v == 0.0

    def test_identity_closed_form(self):
        # all norms are closed-form at the identity: the scaled factor has
        # spectral norm 1, the Bauer-Skeel condition is sqrt(p)
        p, eps = 3, 1e-4
        v, _ = bound_4_3(np.eye(p), eps, IDENTITY_ONLY(p))
        expected = (
            SQRT2 * math.sqrt(p) * eps / (SQRT2 - 1.0 + math.sqrt(1.0 - 2.0 * p * eps))
        )
        assert v == pytest.approx(expected, rel=1e-12)

    def test_identity_first_order(self):
        p, eps = 3, 1e-4
        assert bound_4_9_coeff(np.eye(p), eps, IDENTITY_ONLY(p)) == pytest.approx(
            math.sqrt(p) * eps, rel=1e-12
        )

    def test_fixed_ratio(self, rng):
        l = random_lower(4, rng)
        d_set = scaling_candidates(l, "componentwise")
        eps = 1e-8
        v44 = bound_4_4(l, eps, d_set)
        v49 = bound_4_9_coeff(l, eps, d_set)
        assert v44 / v49 == pytest.approx(2.0 + SQRT2, rel=1e-12)

    def test_condition_violation(self):
        l = np.array([[1.0, 0.0], [1000.0, 1.0]])
        with pytest.raises(ConditionViolated):
            bound_4_3(l, 1e-2, scaling_candidates(l, "componentwise"))


class TestReports:
    def test_bound_presence_follows_flags(self, rng):
        s, _, _ = make_saddle(3, 2, 1e4, rng)
        f = factorize(s)
        l = factor_to_dense(f)
        k = reconstruct(f)
        ev = NormwiseEvaluator(l, k)
        # large level: Frobenius-based test typically fails while 3.1 holds
        dk = 0.45 / ev.linv2**2
        rep = ev.report(dk)
        assert rep.cond_3_1_ok
        assert (rep.b_3_12 is not None) == rep.cond_3_12_ok
        assert rep.b_3_15 is None and rep.cond_3_16_ok is None
        for name, value in rep.rigorous_bounds().items():
            assert value >= 0.0, name

    def test_evaluator_matches_standalone_ops(self, rng):
        s, _, _ = make_saddle(3, 2, 100.0, rng)
        f = factorize(s)
        l = factor_to_dense(f)
        k = reconstruct(f)
        from genchol.oracle import build_w, w_inverse_norm

        w_norm = w_inverse_norm(build_w(f))
        rep = build_normwise_report(l, k, 1e-4, w_inv_norm=w_norm)
        d_set = scaling_candidates(l, "kappa_min")
        assert rep.b_3_3 == bound_3_3(l, 1e-4, d_set)[0]
        assert rep.b_3_4 == bound_3_4(l, 1e-4, d_set)[0]
        assert rep.b_3_11_coeff == bound_3_11_coeff(l, 1e-4, d_set)
        assert rep.b_3_12 == bound_3_12(l, 1e-4)
        assert rep.b_3_13 == bound_3_13(l, 1e-4)
        assert rep.b_3_14 == bound_3_14(l, 1e-4)
        assert rep.b_3_15 == bound_3_15(w_norm, 1e-4)
        assert rep.b_3_17 == bound_3_17(l, k, 1e-4, d_set)[0]

    def test_identity_candidate_reuses_unscaled_svds(self, rng):
        l = random_lower(5, rng)
        ev = NormwiseEvaluator(l, matmul(l, l.T))
        assert ev.kappas["identity"] == kappa2(l)
        assert ev.dlinv2["identity"] == spectral_norm(lower_tri_inverse(l))

    def test_json_round_trip(self, rng):
        import json

        s, _, _ = make_saddle(2, 1, 10.0, rng)
        f = factorize(s)
        rep = build_normwise_report(factor_to_dense(f), reconstruct(f), 1e-3)
        parsed = json.loads(report_to_json(rep))
        assert parsed["dk_fro"] == 1e-3
        assert parsed["cond_3_1_ok"] is True
        assert set(rep.FIELD_ORDER) == set(parsed.keys())

    def test_componentwise_report_fields(self, rng):
        s, _, _ = make_saddle(3, 3, 100.0, rng)
        f = factorize(s)
        rep = build_componentwise_report(factor_to_dense(f), 1e-6)
        assert rep.cond_4_2_ok
        assert rep.b_4_3 is not None
        assert rep.b_4_4 / rep.b_4_9_coeff == pytest.approx(2.0 + SQRT2, rel=1e-12)
        assert rep.cond_bs_L == pytest.approx(rep.cond_bs_LinvT, rel=1e-6)

    def test_scaling_argmin_invariant_under_scalar(self, rng):
        # scaled condition numbers and the winning label ignore L -> cL
        l = random_lower(4, rng)
        k = matmul(l, l.T)
        ev1 = NormwiseEvaluator(l, k)
        ev2 = NormwiseEvaluator(3.5 * l, k)
        assert ev1.kappa_label == ev2.kappa_label
        for label in ev1.kappas:
            assert ev1.kappas[label] == pytest.approx(ev2.kappas[label], rel=1e-12)
