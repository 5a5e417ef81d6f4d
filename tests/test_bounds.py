import dataclasses
import math

import numpy as np
import pytest

from genchol.densela import (
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
    SQRT2,
    build_componentwise_report,
    eps_componentwise,
    operator_inverse_norm,
    report_to_json,
    scaling_candidates,
)
from genchol.factorization import GenCholFactor, factor_to_dense, factorize, reconstruct
from genchol.harness import make_saddle
from genchol.oracle import build_w, w_inverse_norm

U = UNIT_ROUNDOFF


def normwise(l, dk_fro, k=None, w_inv_norm=None):
    """Normwise report for the factor ``l``; K is L L^T unless given (only
    bound 3.17 reads K, through ||K||_2)."""
    l = np.asarray(l, dtype=np.float64)
    return NormwiseEvaluator(l, matmul(l, l.T) if k is None else k, w_inv_norm).report(dk_fro)


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


class TestBound311:
    def test_identity(self):
        assert normwise(np.eye(3), 0.3).b_3_11_coeff == pytest.approx(0.3, rel=1e-13)

    def test_below_bound_33(self, rng):
        l = random_lower(3, rng)
        linv2 = spectral_norm(lower_tri_inverse(l))
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
        # bound 3.3's formula with kappa of the unscaled factor
        l = random_lower(4, rng)
        linv2 = spectral_norm(lower_tri_inverse(l))
        dk = 0.2 / linv2**2
        x = linv2 * linv2 * dk
        v33 = SQRT2 * linv2 * kappa2(l) * dk / (SQRT2 - 1.0 + math.sqrt(1.0 - 2.0 * x))
        assert normwise(l, dk).b_3_14 == v33

    def test_gap_to_best_candidate(self):
        rep = normwise(np.array([[1e4, 0.0], [1.0, 1.0]]), 1e-8)
        assert rep.b_3_14 >= 100.0 * rep.b_3_3

    def test_ratio_cap_to_313(self, rng):
        for _ in range(20):
            l = random_lower(3, rng)
            linv2 = spectral_norm(lower_tri_inverse(l))
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
        assert normwise(np.eye(2), 0.0, w_inv_norm=1.0).b_3_15 == 0.0

    def test_scalar_case(self):
        # order 1 with entry l: the operator matrix is [2l]
        l_val = 2.0
        w_inv = 1.0 / (2.0 * l_val)
        dk = 0.1
        assert normwise([[l_val]], dk, w_inv_norm=w_inv).b_3_15 == pytest.approx(
            dk / l_val, rel=1e-15
        )

    def test_condition_stronger_than_3_1(self):
        # gamma = 100 family: the 1/4 test fails while the 1/2 test holds
        f = GenCholFactor.from_blocks([[1.0]], [[100.0]], [[1.0]])
        l = factor_to_dense(f)
        w_norm = w_inverse_norm(build_w(f))
        thresh_31 = 4.999000249930024e-05  # frozen SVD oracle
        thresh_316 = 9.995001899400144e-09  # frozen SVD oracle
        linv2 = spectral_norm(lower_tri_inverse(l))
        assert 0.5 / linv2**2 == pytest.approx(thresh_31, rel=1e-10)
        assert 0.25 / w_norm**2 == pytest.approx(thresh_316, rel=1e-10)
        dk = 1e-6  # inside 3.1, outside 3.16
        rep = normwise(l, dk, k=reconstruct(f), w_inv_norm=w_norm)
        assert rep.cond_3_1_ok is True
        assert rep.cond_3_16_ok is False
        assert rep.b_3_15 is None


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
        rep = normwise(l, dk, k=k)
        assert rep.cond_3_1_ok is True
        assert rep.cond_3_18_ok is False
        assert rep.b_3_17 is None
        assert "identity" in rep.b_3_17_excluded.split(",")


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
        assert build_componentwise_report(np.eye(p), 0.4 / p).cond_4_2_ok is True
        rep = build_componentwise_report(np.eye(p), 0.5 / p)
        assert rep.cond_4_2_ok is False
        assert rep.b_4_3 is None

    def test_zero_eps(self):
        assert build_componentwise_report(np.eye(3), 0.0).cond_4_2_ok is True

    def test_threshold_from_brute_force(self):
        l = np.array([[1.0, 0.0], [50.0, 1.0]])
        prod = cond_bauer_skeel(l) * cond_bauer_skeel(lower_tri_inverse(l).T)
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

    def test_identity_candidate_reuses_unscaled_svds(self, rng):
        l = random_lower(5, rng)
        ev = NormwiseEvaluator(l, matmul(l, l.T))
        assert ev.kappas["identity"] == kappa2(l)
        assert ev.dlinv2["identity"] == spectral_norm(lower_tri_inverse(l))

    def test_json_round_trip(self, rng):
        import json

        s, _, _ = make_saddle(2, 1, 10.0, rng)
        f = factorize(s)
        rep = NormwiseEvaluator(factor_to_dense(f), reconstruct(f)).report(1e-3)
        parsed = json.loads(report_to_json(rep))
        assert parsed["dk_fro"] == 1e-3
        assert parsed["cond_3_1_ok"] is True
        assert list(parsed) == [field.name for field in dataclasses.fields(rep)]

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
