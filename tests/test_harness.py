import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from genchol.densela import fro_norm, lower_tri_inverse
from genchol.factorization import (
    FactorizationError,
    SaddleValidationError,
    factorize_dense,
)
from genchol.bounds import eps_componentwise
from genchol.harness import (
    ComponentwiseTrialRecord,
    EnsembleConfig,
    NormwiseTrialRecord,
    TrialRecord,
    emit_report,
    emit_rows,
    gen_spd,
    gen_sym_perturbation,
    loglog_slope,
    make_saddle,
    run_componentwise_campaign,
    run_gamma_sweep,
    run_normwise_campaign,
    summarize,
)


@pytest.fixture
def sv_calls(monkeypatch):
    """The SVD kernel and shape of each call of the Jacobi
    (``singular_values``, which only ``NormwiseEvaluator.__init__`` calls)
    or of LAPACK (``spectral_norm``), in call order, from every module that
    binds either."""
    from genchol import bounds, densela, factorization, harness, oracle

    calls = []
    for name, kernel in (("singular_values", "jacobi"), ("spectral_norm", "lapack")):
        original = getattr(densela, name)

        def counting(x, original=original, kernel=kernel):
            calls.append((kernel, np.shape(x)))
            return original(x)

        for module in (densela, bounds, factorization, harness, oracle):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


SMALL_CFG = EnsembleConfig(m=3, n=2, trials=5, cond_target=1e3, seed=99)

# the fixed CSV schema, one literal per campaign kind
NORMWISE_HEADER = (
    "trial,m,n,seed,dk_fro,linv2,cond31,b33,b33_label,b34,b311,cond312,b312,b313,b314,"
    "cond316,b315,cond318,b317,b317_label,actual_f,actual_2,worst_ratio,violation"
)
COMPONENTWISE_HEADER = (
    "trial,m,n,seed,eps,eps_convention,cond42,b43,b43_label,b44,b49,cond_bs_l,cond_bs_linvt,"
    "actual_f,actual_2,env_lt_fro,env_tl_fro,bw_env_ok,worst_ratio,violation,skipped"
)
PERFBENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _csv_cell(v) -> str:
    """A value parsed from campaign JSON, written as the campaign CSV writes it."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


class TestGenSpd:
    def test_cond_one(self, rng):
        a = gen_spd(6, 1.0, rng)
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] / s[-1] <= 1.0 + 1e-10

    def test_order_one(self, rng):
        assert np.array_equal(gen_spd(1, 100.0, rng), [[1.0]])

    def test_cond_within_one_percent(self, rng):
        a = gen_spd(8, 1e4, rng)
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(1e4, rel=0.01)

    def test_exactly_symmetric(self, rng):
        a = gen_spd(5, 10.0, rng)
        assert np.array_equal(a, a.T)


class TestGenSymPerturbation:
    def test_exact_symmetry(self, rng):
        e = gen_sym_perturbation(6, 2.5, rng)
        assert np.array_equal(e, e.T)

    def test_target_norm(self, rng):
        e = gen_sym_perturbation(6, 2.5, rng)
        assert fro_norm(e) == pytest.approx(2.5, rel=1e-15)

    def test_scalar_case(self, rng):
        e = gen_sym_perturbation(1, 3.0, rng)
        assert abs(e[0, 0]) == pytest.approx(3.0, rel=1e-15)


class TestMakeSaddle:
    def test_valid_structure(self, rng):
        s, ka, ks = make_saddle(4, 3, 1e4, rng)
        assert 1.0 <= ka <= 1e4 and 1.0 <= ks <= 1e4
        assert s.spec.m == 4 and s.spec.n == 3

    def test_one_by_one_blocks_report_condition_one(self):
        # a 1 x 1 block is [[1]] whatever its drawn target
        s, kappa_a, kappa_s = make_saddle(1, 1, 1e4, np.random.default_rng(0))
        assert (kappa_a, kappa_s) == (1.0, 1.0)
        # the targets are still drawn, so the matrix does not depend on the cap
        same, _, _ = make_saddle(1, 1, 1e8, np.random.default_rng(0))
        assert np.array_equal(s.K, same.K)
        (rec,) = run_normwise_campaign(
            EnsembleConfig(m=1, n=1, trials=1, dk_levels=(1e-4,), seed=0)
        )
        assert (rec.kappa_a, rec.kappa_s) == (1.0, 1.0)

    def test_larger_block_keeps_its_target(self):
        rng = np.random.default_rng(0)
        _, kappa_a, kappa_s = make_saddle(2, 1, 1e4, np.random.default_rng(0))
        assert kappa_a == 10.0 ** rng.uniform(0.0, 4.0)
        assert kappa_s == 1.0

    def test_n_zero(self, rng):
        s, _, _ = make_saddle(3, 0, 100.0, rng)
        assert s.K.shape == (3, 3)

    def test_n_zero_reports_condition_one(self):
        # there is no Schur block: its condition is reported as 1, and its
        # target is still drawn, so K is A drawn after both targets
        s, kappa_a, kappa_s = make_saddle(2, 0, 1e4, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        assert kappa_a == 10.0 ** rng.uniform(0.0, 4.0)
        rng.uniform(0.0, 4.0)
        assert np.array_equal(s.K, gen_spd(2, kappa_a, rng))
        assert kappa_s == 1.0
        (rec,) = run_normwise_campaign(
            EnsembleConfig(m=2, n=0, trials=1, dk_levels=(1e-4,))
        )
        assert rec.kappa_s == 1.0

    def test_rejects_tall_coupling(self, rng):
        with pytest.raises(ValueError):
            make_saddle(2, 3, 10.0, rng)

    def test_rounding_indefinite_a_is_a_validation_error(self):
        # at cond 1e20 this draw of A is indefinite in floating point; the
        # campaign's draw loop redraws on SaddleValidationError
        with pytest.raises(SaddleValidationError, match="A is not positive definite"):
            make_saddle(4, 3, 1e20, np.random.default_rng(4))


class TestNormwiseCampaign:
    def test_tiny_perturbation_ratio_sane(self):
        cfg = EnsembleConfig(m=3, n=2, trials=1, cond_target=100.0,
                             dk_levels=(1e-12,), seed=5)
        (rec,) = run_normwise_campaign(cfg)
        assert not rec.violation
        assert 0.0 < rec.worst_ratio <= 1.0
        assert rec.report.b_3_3 / rec.report.actual_dl_fro >= 1.0

    def test_empty_levels_give_empty_records(self):
        cfg = EnsembleConfig(m=2, n=1, trials=3, dk_levels=(), seed=1)
        assert run_normwise_campaign(cfg) == []

    def test_deterministic_records(self):
        a = run_normwise_campaign(SMALL_CFG)
        b = run_normwise_campaign(SMALL_CFG)
        assert a == b

    def test_trials_are_order_independent(self):
        # per-trial generators are derived from seed XOR index, so a shorter
        # campaign is a prefix of a longer one
        cfg2 = EnsembleConfig(m=3, n=2, trials=2, cond_target=1e3, seed=99)
        cfg4 = EnsembleConfig(m=3, n=2, trials=4, cond_target=1e3, seed=99)
        short = run_normwise_campaign(cfg2)
        long = run_normwise_campaign(cfg4)
        assert long[: len(short)] == short

    def test_zero_violations_and_diagnostics(self):
        records = run_normwise_campaign(
            EnsembleConfig(m=3, n=2, trials=20, cond_target=1e4, seed=21)
        )
        assert all(not r.violation for r in records)
        assert all(r.report.diag_3_8_ok for r in records)
        assert all(r.report.cond_3_18_strength_ok for r in records)

    def test_ill_conditioned_draws_complete(self):
        # cond 1e8 gives measured dL with sigma_min/sigma_max near 1e-18,
        # where the Jacobi rotation's tau * tau overflows
        records = run_normwise_campaign(
            EnsembleConfig(m=4, n=3, trials=13, cond_target=1e8, seed=1729)
        )
        assert len(records) == 13 * 4
        assert not any(r.violation for r in records)

    def test_near_boundary_level(self):
        records = run_normwise_campaign(
            EnsembleConfig(m=3, n=2, trials=10, dk_levels=(0.49,), seed=33)
        )
        for r in records:
            assert not r.violation
            for value in r.report.rigorous_bounds().values():
                assert math.isfinite(value)

    def test_levels_hit_target(self):
        records = run_normwise_campaign(SMALL_CFG)
        for r in records:
            x = r.report.linv_2**2 * r.report.dk_fro
            assert x == pytest.approx(r.dk_level, rel=1e-12)

    def test_operator_bound_matches_oracle(self, monkeypatch):
        # b_3_15 comes from the closed-form W^-1; build_w is its check
        from genchol import harness
        from genchol.factorization import factorize
        from genchol.oracle import build_w, w_inverse_norm

        factors = []

        def recording_factorize(s):
            factors.append(factorize(s))
            return factors[-1]

        monkeypatch.setattr(harness, "factorize", recording_factorize)
        records = run_normwise_campaign(EnsembleConfig(m=6, n=6, trials=10, seed=41))
        assert len(factors) == 10  # one draw per trial, so factors[t] is trial t's
        checked = 0
        for r in records:
            w_norm = w_inverse_norm(build_w(factors[r.trial]))
            assert r.report.cond_3_16_ok == (w_norm * w_norm * r.report.dk_fro < 0.25)
            if r.report.b_3_15 is not None:
                expected = 2.0 * w_norm * r.report.dk_fro
                assert r.report.b_3_15 == pytest.approx(expected, rel=1e-12)
                checked += 1
        assert checked >= 10

    def test_one_inversion_per_factor(self, monkeypatch):
        # the evaluator's L^-1 also serves ||W^-1||_2 for bound 3.15
        from genchol import bounds

        calls = []

        def counting_inverse(l):
            calls.append(np.shape(l))
            return lower_tri_inverse(l)

        monkeypatch.setattr(bounds, "lower_tri_inverse", counting_inverse)
        (rec,) = run_normwise_campaign(
            EnsembleConfig(m=3, n=2, trials=1, dk_levels=(1e-4,), seed=2)
        )
        assert rec.report.b_3_15 is not None
        assert calls == [(5, 5)]

    def test_singular_value_calls_per_trial(self, sv_calls):
        # one-trial campaigns at the default four levels; the rank check of B
        # goes to LAPACK, so only SVDs whose values are reported remain.  A
        # normwise trial takes ||L21||_2 of the draw from LAPACK, then from the
        # Jacobi ||K||_2 and both norms of each of its two candidates in one
        # stack, and from LAPACK the four levels' ||dL||_2 in one more; a
        # componentwise trial takes ||L21||_2, and both norms of its three
        # candidates with ||dL||_2 last in one stack, all from LAPACK
        run_normwise_campaign(EnsembleConfig(m=4, n=3, trials=1, seed=0))
        assert sv_calls == [("lapack", (3, 4)), ("jacobi", (5, 7, 7)), ("lapack", (4, 7, 7))]
        sv_calls.clear()
        run_componentwise_campaign(EnsembleConfig(m=4, n=3, trials=1, seed=0))
        assert sv_calls == [("lapack", (3, 4)), ("lapack", (7, 7, 7))]

    def test_hand_choleskys_per_trial(self, monkeypatch):
        # A is factored once per draw: from_blocks' definiteness check keeps
        # its factor and factorize continues from it.  A componentwise trial
        # then factors A, the Schur block of K, and both blocks of K + dK (4
        # single calls); a normwise 4+3 trial factors A and K's Schur block,
        # then both blocks of every level's K + dK as one stack each.  Each
        # call is recorded with its block and its stack shape, () for one matrix
        from genchol import factorization

        calls = []
        original = factorization._cholesky_lower

        def counting(*args):
            calls.append((args[1], np.shape(args[0])[:-2]))
            return original(*args)

        monkeypatch.setattr(factorization, "_cholesky_lower", counting)
        run_componentwise_campaign(EnsembleConfig(m=6, n=6, trials=1, seed=0))
        assert calls == [("A", ()), ("Schur", ())] * 2
        calls.clear()
        run_normwise_campaign(EnsembleConfig(m=4, n=3, trials=1, seed=0))
        assert calls == [("A", ()), ("Schur", ()), ("A", (4,)), ("Schur", (4,))]
        calls.clear()
        run_normwise_campaign(EnsembleConfig(m=4, n=3, trials=2, seed=0, dk_levels=(1e-8,) * 8))
        assert calls == [("A", ()), ("Schur", ()), ("A", (8,)), ("Schur", (8,))] * 2

    def test_the_jacobi_serves_only_the_evaluator(self, sv_calls):
        # the Jacobi's only call is the evaluator's set-up stack; every other
        # spectral norm, a trial's measured dLs included, is LAPACK's
        from genchol.bounds import build_componentwise_report
        from genchol.factorization import factorize
        from genchol.oracle import build_w, w_inverse_norm

        run_normwise_campaign(EnsembleConfig(m=4, n=3, trials=3, seed=0))
        assert [c for c in sv_calls if c[0] == "jacobi"] == [("jacobi", (5, 7, 7))] * 3
        sv_calls.clear()
        f = factorize(make_saddle(4, 3, 1e8, np.random.default_rng(5))[0])
        w_inverse_norm(build_w(f))
        build_componentwise_report(f.L, 1e-6)
        assert sv_calls == [("lapack", (3, 4)), ("lapack", (28, 28)), ("lapack", (6, 7, 7))]
        sv_calls.clear()
        # a remark 3.2 row: the evaluator's stack, then kappa(L D^-1)'s two norms
        run_gamma_sweep("remark32", [1e-4])
        assert sv_calls == [("jacobi", (5, 2, 2)), ("lapack", (2, 2, 2))]

    def test_perturbed_breakdown_is_not_redrawn(self, monkeypatch):
        # condition 3.1 says K + dK factors; a breakdown there is an error,
        # not a reason to draw another saddle matrix
        from genchol import oracle

        def breaking_factorize_dense(k, m, n, matrix_label="K"):
            monkeypatch.setattr(oracle, "factorize_dense", factorize_dense)
            raise FactorizationError("Schur", m + 1, -1.0, matrix_label)

        monkeypatch.setattr(oracle, "factorize_dense", breaking_factorize_dense)
        with pytest.raises(FactorizationError, match="K\\+dK"):
            run_normwise_campaign(EnsembleConfig(m=3, n=2, trials=2, seed=2))

    def test_tightness_derived_from_report(self):
        (rec,) = run_normwise_campaign(
            EnsembleConfig(m=2, n=1, trials=1, dk_levels=(1e-4,), seed=2)
        )
        actual = rec.report.actual_dl_fro
        assert rec.tightness == {
            name: value / actual for name, value in rec.report.rigorous_bounds().items()
        }
        assert not hasattr(rec, "__dict__")


class TestComponentwiseCampaign:
    def test_zero_eps_trivial(self):
        cfg = EnsembleConfig(m=2, n=2, trials=3, cond_target=100.0, seed=7,
                             eps_synth=0.0)
        records = run_componentwise_campaign(cfg)
        for r in records:
            assert not r.violation
            # the exact answer is a zero factor change; the refactorization
            # oracle may leave rounding-level noise
            assert r.report.actual_dl_fro <= 1e-14

    def test_zero_violations(self):
        cfg = EnsembleConfig(m=3, n=3, trials=30, cond_target=1e3, seed=11,
                             eps_synth=1e-6)
        records = run_componentwise_campaign(cfg)
        assert all(not r.violation for r in records)
        assert any(not r.skipped for r in records)

    def test_envelope_is_respected_by_construction(self, rng):
        # sampled perturbation never exceeds eps |L~||L~^T| entrywise
        from genchol.densela import matmul
        from genchol.factorization import factorize
        from genchol.harness import trial_rng

        cfg = EnsembleConfig(m=3, n=2, trials=1, seed=13, eps_synth=1e-6)
        s, _, _ = make_saddle(3, 2, cfg.cond_target, trial_rng(13, 0))
        lt = factorize(s)
        labs = np.abs(lt.L)
        env = cfg.eps_synth * matmul(labs, labs.T)
        k_new_records = run_componentwise_campaign(cfg)
        assert len(k_new_records) == 1  # protocol ran; envelope checked below
        draw_rng = trial_rng(13, 0)
        make_saddle(3, 2, cfg.cond_target, draw_rng)  # consume the same draws
        draw = draw_rng.uniform(-1.0, 1.0, (5, 5))
        sym_draw = np.tril(draw) + np.tril(draw, -1).T
        dk = sym_draw * env
        assert np.all(np.abs(dk) <= env)

    def test_deterministic(self):
        cfg = EnsembleConfig(m=2, n=2, trials=4, seed=3)
        assert run_componentwise_campaign(cfg) == run_componentwise_campaign(cfg)

    def test_skipped_records_have_no_tightness(self, tmp_path):
        # eps this large fails condition 4.2, and some refactorizations break down
        cfg = EnsembleConfig(m=2, n=2, trials=3, seed=3, eps_synth=0.3)
        records = run_componentwise_campaign(cfg)
        assert all(r.skipped and r.tightness == {} for r in records)
        assert any(r.breakdown for r in records)
        emit_report(records, "json", tmp_path / "c.json")
        for obj in json.loads((tmp_path / "c.json").read_text()):
            assert not any(key.startswith("ratio_") for key in obj)

    def test_breakdown_keeps_the_candidate_stack(self, sv_calls):
        # a measured dL is the seventh member of the report's stack; a record
        # whose refactorization broke down has none, and its stack keeps six
        records = run_componentwise_campaign(
            EnsembleConfig(m=2, n=2, trials=3, seed=3, eps_synth=0.3))
        assert 0 < sum(r.breakdown for r in records) < len(records)
        stacks = [shape[0] for kernel, shape in sv_calls if len(shape) == 3]
        assert stacks == [6 if r.breakdown else 7 for r in records]
        assert {kernel for kernel, _ in sv_calls} == {"lapack"}


class TestTrialRecords:
    """Records store what was measured; every verdict follows from it."""

    def test_stored_fields(self):
        assert [f.name for f in dataclasses.fields(NormwiseTrialRecord)] == [
            "trial", "m", "n", "seed", "dk_level", "kappa_a", "kappa_s", "report",
        ]
        assert [f.name for f in dataclasses.fields(ComponentwiseTrialRecord)] == [
            "trial", "m", "n", "seed", "eps_convention", "report", "env_lt_fro",
            "env_tl_fro", "bw_env_ok",
        ]
        for cls, names in (
            (NormwiseTrialRecord, ("worst_ratio", "violation", "tightness")),
            (ComponentwiseTrialRecord, (
                "worst_ratio", "violation", "tightness", "skipped", "breakdown",
            )),
        ):
            for name in names:
                assert isinstance(getattr(cls, name), property), (cls.__name__, name)

    def test_derived_componentwise_fields(self):
        # eps = 0.3 mixes breakdowns and condition-4.2 failures
        for eps in (1e-6, 0.3):
            cfg = EnsembleConfig(m=2, n=2, trials=3, seed=3, eps_synth=eps)
            for r in run_componentwise_campaign(cfg):
                assert r.breakdown == (r.report.actual_dl_fro is None)
                assert r.skipped == (r.breakdown or not r.report.cond_4_2_ok)
                items = dict(r.json_items())
                gammas = eps_componentwise(2, 2)
                assert (items["eps_gamma_min_paper"], items["eps_gamma_max_safe"]) == (
                    min(gammas), max(gammas),
                )
        # a breakdown inside condition 4.2 is skipped too: there is no dL to compare
        rec = run_componentwise_campaign(EnsembleConfig(m=2, n=2, trials=1, seed=3))[0]
        assert rec.report.cond_4_2_ok and not rec.skipped
        report = dataclasses.replace(rec.report, actual_dl_fro=None, actual_dl_2=None)
        broken = dataclasses.replace(rec, report=report)
        assert broken.breakdown and broken.skipped
        assert (broken.worst_ratio, broken.violation, broken.tightness) == (0.0, False, {})
        # skipped, it has no ratios, but a failed backward-error check is a violation
        failed = dataclasses.replace(broken, bw_env_ok=False)
        assert (failed.worst_ratio, failed.violation, failed.tightness) == (0.0, True, {})

    def test_one_home_for_the_verdict_and_the_json_row(self):
        # both records take worst_ratio, violation, tightness and json_items
        # from the base, and neither defines its own
        for name in ("worst_ratio", "violation", "tightness", "json_items"):
            for cls in (NormwiseTrialRecord, ComponentwiseTrialRecord):
                assert name not in cls.__dict__, (cls.__name__, name)
                assert getattr(cls, name) is TrialRecord.__dict__[name], (cls.__name__, name)
        for records in (
            run_normwise_campaign(EnsembleConfig(m=3, n=2, trials=2, seed=5)),
            run_componentwise_campaign(EnsembleConfig(m=3, n=2, trials=3, seed=5)),
        ):
            kept = [r for r in records if not r.skipped]
            assert kept
            for r in kept:
                items = r.json_items()
                ratios = [f"ratio_{name}" for name in r.report.rigorous_bounds()]
                assert items[: len(r.csv_items())] == r.csv_items()
                assert [key for key, _ in items[len(items) - len(ratios):]] == ratios

    def test_replace_trial_and_seed(self):
        # the benchmark relabels one-trial campaigns this way
        for campaign in (run_normwise_campaign, run_componentwise_campaign):
            rec = campaign(EnsembleConfig(m=2, n=1, trials=1, seed=4))[0]
            moved = dataclasses.replace(rec, trial=7, seed=11)
            assert (moved.trial, moved.seed) == (7, 11)
            assert moved.csv_items()[4:] == rec.csv_items()[4:]
            assert moved.json_items()[4:] == rec.json_items()[4:]
            assert not hasattr(moved, "__dict__")

    def test_backward_error_failure_is_a_violation(self, monkeypatch, capsys, tmp_path):
        # a residual outside the envelope makes every record a violation,
        # skipped or not, and `genchol backward` exit 4
        from genchol import cli, harness

        monkeypatch.setattr(harness, "compensated_residual", lambda lt, s: np.ones_like(s.K))
        for eps, skipped in ((1e-6, False), (0.3, True)):
            cfg = EnsembleConfig(m=2, n=2, trials=3, seed=3, eps_synth=eps)
            records = run_componentwise_campaign(cfg)
            assert all(r.skipped == skipped for r in records)
            assert all(not r.bw_env_ok and r.violation for r in records)
        out = tmp_path / "b.csv"
        assert cli.main(["backward", "--trials", "2", "--out", str(out)]) == 4
        assert "violations=2" in capsys.readouterr().err
        for line in out.read_text().splitlines()[1:]:  # bw_env_ok false, violation true
            assert line.split(",")[-4] == "false" and line.split(",")[-2] == "true"


class TestReplay:
    """A campaign record is reproduced alone: ``genchol bounds`` on its
    trial's K and dK, written at 17 digits, gives the record's report."""

    def test_bounds_reproduces_every_normwise_record(self, monkeypatch, tmp_path):
        from genchol import cli, harness
        from genchol.bounds import report_to_json
        from genchol.densela import write_matrix
        from genchol.factorization import SaddleMatrix, write_saddle
        from genchol.oracle import actual_delta_l

        inputs = []  # (K, dK) of every level of every trial, in record order

        def capturing(factor, k, dks):  # a trial's levels, as one stack
            inputs.extend((k, dk) for dk in dks)
            return actual_delta_l(factor, k, dks)

        monkeypatch.setattr(harness, "actual_delta_l", capturing)
        records = run_normwise_campaign(
            EnsembleConfig(m=4, n=3, trials=10, cond_target=1e8, seed=11))
        assert len(records) == len(inputs) == 40
        k_path, dk_path, out = tmp_path / "k.txt", tmp_path / "dk.txt", tmp_path / "r.json"
        for rec, (k, dk) in zip(records, inputs):
            write_saddle(SaddleMatrix.from_dense(k, 4, 3), k_path)
            write_matrix(dk, dk_path)
            assert cli.main(["bounds", str(k_path), str(dk_path), "--out", str(out)]) == 0
            assert out.read_text() == report_to_json(rec.report) + "\n", (rec.trial, rec.dk_level)


class TestGammaSweep:
    def test_remark32_ratio(self):
        rows = run_gamma_sweep("remark32", [1e-3])
        (row,) = rows
        assert row["kappa_l"] / row["kappa_ld_analytic"] >= 100.0

    def test_remark33_slope(self):
        rows = run_gamma_sweep("remark33", [10.0, 100.0, 1000.0])
        slope = loglog_slope([r["gamma"] for r in rows], [r["winv2"] for r in rows])
        assert 1.8 <= slope <= 2.2

    def test_neutral_gamma(self):
        rows = run_gamma_sweep("remark32", [1.0])
        (row,) = rows
        assert row["kappa_l"] <= 5.0
        assert row["kappa_ld_analytic"] <= 5.0

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            run_gamma_sweep("remark99", [1.0])

    @pytest.mark.parametrize("kind, gamma", [
        ("remark32", 1e-160), ("remark32", 1e200), ("remark33", 1e200), ("remark33", 1e100),
    ])
    def test_overflowing_gamma_is_refused(self, kind, gamma):
        # numpy overflows in the first three; ||W^-1||_2^2 in the last
        message = re.escape(f"gamma {gamma:g} is out of range")
        with pytest.raises(ValueError, match=message):
            run_gamma_sweep(kind, [1.0, gamma])

    def test_slope_needs_two_distinct_x(self):
        with pytest.raises(ValueError, match="two distinct x values"):
            loglog_slope([10.0, 10.0], [3.0, 3.0])
        with pytest.raises(ValueError, match="two distinct x values"):
            loglog_slope([10.0], [3.0])
        assert loglog_slope([10.0, 10.0, 100.0], [1.0, 1.0, 100.0]) == pytest.approx(2.0)


class TestEmission:
    def test_single_record_csv(self, tmp_path):
        cfg = EnsembleConfig(m=2, n=1, trials=1, dk_levels=(1e-4,), seed=2)
        records = run_normwise_campaign(cfg)
        out = tmp_path / "r.csv"
        emit_report(records, "csv", out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("trial,m,n,seed,dk_fro,linv2,cond31,b33")

    def test_json_round_trips(self, tmp_path):
        cfg = EnsembleConfig(m=2, n=1, trials=2, dk_levels=(1e-4,), seed=2)
        records = run_normwise_campaign(cfg)
        out = tmp_path / "r.json"
        emit_report(records, "json", out)
        parsed = json.loads(out.read_text())
        assert len(parsed) == 2
        assert parsed[0]["m"] == 2
        assert isinstance(parsed[0]["b33"], float)
        assert parsed[0]["ratio_b_3_3"] >= 1.0  # per-bound tightness present
        # the JSON objects open with the CSV columns, holding the CSV cells
        comp = run_componentwise_campaign(EnsembleConfig(m=3, n=2, trials=3, seed=5))
        for recs in (records, comp):
            emit_report(recs, "json", out)
            emit_report(recs, "csv", tmp_path / "r.csv")
            columns = [column for column, _ in recs[0].csv_items()]
            lines = (tmp_path / "r.csv").read_text().splitlines()
            assert lines[0] == ",".join(columns)
            for obj, line in zip(json.loads(out.read_text()), lines[1:], strict=True):
                assert list(obj)[: len(columns)] == list(columns)
                cells = [_csv_cell(obj[c]) for c in columns]
                assert ",".join(cells) == line

    @pytest.mark.parametrize("campaign, header, references", [
        (run_normwise_campaign, NORMWISE_HEADER, ("verify-small", "verify-wop")),
        (run_componentwise_campaign, COMPONENTWISE_HEADER, ("backward-mid",)),
    ], ids=["normwise", "componentwise"])
    def test_csv_header_is_pinned(self, tmp_path, campaign, header, references):
        # the schema guard: the header as a literal, as the benchmark's references have it
        emit_report(campaign(EnsembleConfig(m=2, n=1, trials=1, seed=5)), "csv", tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text().splitlines()[0] == header
        for name in references:
            with open(PERFBENCH_REFERENCE / f"{name}.csv", encoding="ascii") as fh:
                assert fh.readline().rstrip("\n") == header

    def test_componentwise_json_has_both_gamma_conventions(self, tmp_path):
        cfg = EnsembleConfig(m=3, n=2, trials=1, seed=5)
        records = run_componentwise_campaign(cfg)
        out = tmp_path / "c.json"
        emit_report(records, "json", out)
        parsed = json.loads(out.read_text())
        assert parsed[0]["eps_gamma_min_paper"] <= parsed[0]["eps_gamma_max_safe"]
        assert parsed[0]["env_lt_fro"] > 0.0
        assert parsed[0]["env_tl_fro"] > 0.0

    def test_identical_seed_byte_identical(self, tmp_path):
        cfg = EnsembleConfig(m=3, n=2, trials=3, seed=17)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        emit_report(run_normwise_campaign(cfg), "csv", out1)
        emit_report(run_normwise_campaign(cfg), "csv", out2)
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("write", [
        lambda path: emit_report(run_normwise_campaign(
            EnsembleConfig(m=4, n=3, trials=6, cond_target=1e8, seed=23)), "csv", path),
        lambda path: emit_report(run_componentwise_campaign(
            EnsembleConfig(m=4, n=3, trials=6, seed=23)), "csv", path),
        lambda path: emit_rows(run_gamma_sweep("remark32", [1e-4, 0.5, 3.0]), "csv", path),
    ], ids=["normwise", "componentwise", "remark32"])
    def test_stacked_norms_match_one_at_a_time(self, monkeypatch, tmp_path, write):
        # the same build, once with stacked spectral norms and once with each
        # stack's members passed to either kernel one at a time
        from genchol import bounds, densela, harness, oracle

        write(tmp_path / "stacked.csv")
        for name, join in (("singular_values", np.stack), ("spectral_norm", list)):
            original = getattr(densela, name)

            def one_at_a_time(x, original=original, join=join):
                x = np.asarray(x, dtype=np.float64)
                return original(x) if x.ndim == 2 else join([original(m) for m in x])

            for module in (bounds, harness, oracle):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, one_at_a_time)
        write(tmp_path / "single.csv")
        stacked = (tmp_path / "stacked.csv").read_bytes()
        assert stacked == (tmp_path / "single.csv").read_bytes()

    def test_empty_emission_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "csv", tmp_path / "x.csv")

    def test_non_finite_record_is_refused(self, tmp_path):
        rec = run_componentwise_campaign(EnsembleConfig(m=2, n=1, trials=1, seed=5))[0]
        bad = dataclasses.replace(rec, trial=1, env_lt_fro=math.inf)
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError):
                emit_report([rec, bad], fmt, tmp_path / f"r.{fmt}")
        assert list(tmp_path.iterdir()) == []

    def test_emit_rows_table(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_rows([{"a": 1.0, "b": "x"}, {"a": 2.0, "b": "y"}], "csv", out)
        assert out.read_text().splitlines()[0] == "a,b"

    def test_numpy_scalar_cells_match_json(self, tmp_path):
        # a numpy scalar is written as the JSON scalar text in both formats
        row = {"b": np.bool_(True), "f": np.float64(0.1), "i": np.int64(7)}
        emit_rows([row], "csv", tmp_path / "t.csv")
        emit_rows([row], "json", tmp_path / "t.json")
        cells = (tmp_path / "t.csv").read_text().splitlines()[1].split(",")
        assert cells == ["true", "0.10000000000000001", "7"]
        obj = (tmp_path / "t.json").read_text().splitlines()[1]
        assert obj == '{"b": true, "f": 0.10000000000000001, "i": 7}'

    def test_summarize(self):
        records = run_normwise_campaign(SMALL_CFG)
        count, violations, worst = summarize(records)
        assert count == len(records)
        assert violations == 0
        assert worst <= 1.0 + 1e-9


class TestConfigValidation:
    def test_dk_level_range(self):
        with pytest.raises(ValueError):
            EnsembleConfig(m=2, n=1, trials=1, dk_levels=(0.5,))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            EnsembleConfig(m=2, n=1, trials=0)

    def test_convention_checked(self):
        with pytest.raises(ValueError):
            EnsembleConfig(m=2, n=1, trials=1, eps_convention="bogus")

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.5])
    def test_cond_target_finite_and_at_least_one(self, value):
        with pytest.raises(ValueError, match="cond_target"):
            EnsembleConfig(m=2, n=1, trials=1, cond_target=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-6])
    def test_eps_synth_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="^eps_synth must be finite and nonnegative$"):
            EnsembleConfig(m=2, n=1, trials=1, eps_synth=value)

    @pytest.mark.parametrize("value", [0.5, 1e308])
    def test_eps_synth_below_one_half(self, value):
        # condition 4.2 reads cond_bs_L^2 eps < 1/2 with cond_bs_L^2 >= p
        with pytest.raises(ValueError, match="^" + re.escape(f"eps_synth {value} is not below 0.5,")):
            EnsembleConfig(m=2, n=1, trials=1, eps_synth=value)
        EnsembleConfig(m=2, n=1, trials=1, eps_synth=math.nextafter(0.5, 0.0))
