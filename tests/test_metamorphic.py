"""Exact metamorphic relations of the bound reports.

Scaling ``(K, dK)`` to ``(4^k K, 4^k dK)`` scales the factor by exactly
``2^k``, as long as every input entry stays normal: each step of the
factorization and of the reports is then a product, quotient, square root or
sum of exactly scaled numbers.  So every bound, measured dL and first-order
coefficient of the normwise report scales by exactly ``2^k``, ``dk_fro`` by
``4^k`` and ``linv_2`` by ``2^-k``, and every flag and label stays equal.
The componentwise report obeys the same relation under ``L~ -> 2^k L~``, its
``eps`` and Bauer-Skeel number unchanged.  A zero ``dK`` gives a measured dL
of exactly zero (not in the componentwise protocol: it refactors the rounded
``L~ J L~^T``, whose rounding is a perturbation of its own).  A sign
similarity ``S = diag(+-1)`` takes L~ to ``S L~ S`` and dL to ``S dL S``, and
leaves the componentwise report equal field for field: LAPACK's SVD and every
other step are blind to the signs.  (The normwise report's spectral norms
still come from the Jacobi, which breaks ties between columns of equal norm
by sign, so its sign relation waits for LAPACK there too.)  These relations
need neither a reference nor a tolerance, so they hold whatever the numpy or
LAPACK build.
"""

import math
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from genchol.bounds import NormwiseEvaluator, build_componentwise_report
from genchol.densela import fro_norm, matmul
from genchol.factorization import (
    FactorizationError,
    GenCholFactor,
    factorize,
    factorize_dense,
    reconstruct,
)
from genchol.harness import gen_sym_perturbation, make_saddle
from genchol.oracle import actual_delta_l

# a scaled entry x = f 2^e (1/2 <= f < 1) stays normal while e is in this range
_EXPONENTS = (-1021, 1024)


def _scale_range(arrays, powers) -> tuple[int, int]:
    """The k for which every nonzero entry of ``arrays[i] * 2^(powers[i] k)``
    keeps its exponent in ``_EXPONENTS``."""
    lo, hi = -math.inf, math.inf
    for arr, power in zip(arrays, powers):
        exps = np.frexp(arr[arr != 0.0])[1]
        if exps.size:
            lo = max(lo, math.ceil((_EXPONENTS[0] - int(exps.min())) / power))
            hi = min(hi, math.floor((_EXPONENTS[1] - int(exps.max())) / power))
    return lo, hi


def scales(data, arrays, powers) -> int:
    """A k from ``_scale_range``, its two ends as likely as its inside: a
    power of two that reaches near overflow or underflow tests the most."""
    lo, hi = _scale_range(arrays, powers)
    return data.draw(st.sampled_from([lo, hi]) | st.integers(lo, hi), label="k")


def assert_scaled(report, scaled, k: int, powers: dict) -> None:
    """Every float field of ``scaled`` is that of ``report`` times 2^(power k),
    the power 1 unless ``powers`` says otherwise; every other field is equal."""
    for f in fields(report):
        old, new = getattr(report, f.name), getattr(scaled, f.name)
        if isinstance(old, float):
            assert new == math.ldexp(old, powers.get(f.name, 1) * k), f.name
        else:
            assert new == old, f.name


saddles = st.tuples(
    st.integers(1, 5), st.integers(0, 5), st.integers(0, 8), st.integers(0, 2**32 - 1)
).map(lambda t: (t[0], min(t[1], t[0]), 10.0 ** t[2], np.random.default_rng(t[3])))


def normwise_report(k_mat, dk, m: int, n: int):
    """The ``genchol bounds`` report, without a measured dL if K + dK breaks down."""
    factor = factorize_dense(k_mat, m, n)
    try:
        dl = actual_delta_l(factor, k_mat, dk)
    except FactorizationError:
        dl = None
    return NormwiseEvaluator(factor, k_mat).report(fro_norm(dk), actual_dl=dl)


def componentwise_report(l, m: int, n: int, eps: float, sym):
    """The componentwise campaign's report on factor ``l`` (without a measured
    dL if the perturbed matrix breaks down), its dK, ``sym`` times
    eps |L~||L~^T|, |L~||L~^T|, and dL, which refactors L~ J L~^T - dK."""
    lt = GenCholFactor.from_dense(l, m, n)
    env = matmul(np.abs(l), np.abs(l).T)
    dk = sym * (eps * env)
    try:
        dl = actual_delta_l(lt, reconstruct(lt), -dk)
    except FactorizationError:
        dl = None
    return build_componentwise_report(l, eps, actual_dl=dl), dk, env, dl


def componentwise_draw(saddle, eps: float):
    """A drawn factor and the componentwise report on it, with its dK, its
    |L~||L~^T| and its measured dL."""
    m, n, cond, rng = saddle
    l = factorize(make_saddle(m, n, cond, rng)[0]).L
    u = rng.uniform(-1.0, 1.0, (m + n, m + n))
    sym = np.tril(u) + np.tril(u, -1).T
    return l, sym, *componentwise_report(l, m, n, eps, sym)


epsilons = st.sampled_from([1e-12, 1e-8, 1e-6, 1e-3])


class TestScaleRelation:
    @settings(max_examples=60, derandomize=True)
    @given(saddle=saddles, level=st.integers(-12, -3), data=st.data())
    def test_normwise_report_scales_by_powers_of_two(self, saddle, level, data):
        m, n, cond, rng = saddle
        s, _, _ = make_saddle(m, n, cond, rng)
        dk = gen_sym_perturbation(s.p, 10.0 ** level, rng)
        k = scales(data, [s.K, dk], [2, 2])
        report = normwise_report(s.K, dk, m, n)
        scaled = normwise_report(np.ldexp(s.K, 2 * k), np.ldexp(dk, 2 * k), m, n)
        assert_scaled(report, scaled, k, {"dk_fro": 2, "linv_2": -1})

    @settings(max_examples=60, derandomize=True)
    @given(saddle=saddles, eps=epsilons, data=st.data())
    def test_componentwise_report_scales_by_powers_of_two(self, saddle, eps, data):
        m, n = saddle[:2]
        l, sym, report, dk, env, _ = componentwise_draw(saddle, eps)
        k = scales(data, [l, env, dk], [1, 2, 2])
        scaled = componentwise_report(np.ldexp(l, k), m, n, eps, sym)[0]
        assert_scaled(report, scaled, k, {"eps": 0, "cond_bs_L": 0})


class TestSignRelation:
    @settings(max_examples=150, derandomize=True)
    @given(saddle=saddles, eps=epsilons, data=st.data())
    def test_componentwise_report_ignores_sign_similarity(self, saddle, eps, data):
        l, _, report, _, _, dl = componentwise_draw(saddle, eps)
        p = l.shape[0]
        signs = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=p,
                                            max_size=p), label="signs"))
        flip = signs[:, None] * signs[None, :]
        flipped = build_componentwise_report(
            flip * l, eps, actual_dl=None if dl is None else flip * dl)
        for f in fields(report):
            assert getattr(flipped, f.name) == getattr(report, f.name), f.name


class TestZeroRelation:
    @settings(max_examples=30, derandomize=True)
    @given(saddle=saddles)
    def test_zero_perturbation_measures_zero_dl(self, saddle):
        m, n, cond, rng = saddle
        s, _, _ = make_saddle(m, n, cond, rng)
        zero = np.zeros((s.p, s.p))
        factor = factorize(s)
        assert not np.any(actual_delta_l(factor, s.K, zero))
        report = normwise_report(s.K, zero, m, n)
        assert report.actual_dl_fro == report.actual_dl_2 == 0.0
