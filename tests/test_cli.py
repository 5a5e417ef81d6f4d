import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from genchol import cli
from genchol.densela import (
    ConvergenceError,
    ParseError,
    ShapeError,
    SingularMatrixError,
    fro_norm,
    lower_tri_inverse,
    read_matrix,
)
from genchol.factorization import (
    FactorizationError,
    SaddleValidationError,
    factorize,
    read_saddle,
    write_saddle,
)
from genchol.harness import (
    SWEEP_DK_FRO,
    CampaignError,
    EnsembleConfig,
    emit_rows,
    make_saddle,
)
from genchol.oracle import build_w, w_inverse_norm

SADDLE_42 = "1 1\n4 2\n2 -1\n"
SADDLE_OVERFLOW = "1 1\n1e-300 1e200\n1e200 0\n"  # valid, but L21 = 1e350


def run_cli(*args, cwd=None):
    # a RuntimeWarning fails the run, as it fails the in-process tests
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "genchol", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def saddle_file(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text(SADDLE_42)
    return path


class TestFactor:
    def test_known_factor(self, tmp_path, saddle_file):
        out = tmp_path / "l.txt"
        res = run_cli("factor", str(saddle_file), str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "2 2"
        assert lines[1].split() == ["2", "0"]
        assert lines[2].split() == ["1", "1.4142135623730951"]

    def test_nonsymmetric_input_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n4 2\n3 -1\n")
        res = run_cli("factor", str(path), str(tmp_path / "out.txt"))
        assert res.returncode == 1
        assert "symmetric" in res.stderr

    def test_not_pd_is_breakdown(self, tmp_path):
        path = tmp_path / "npd.txt"
        path.write_text("1 1\n-1 2\n2 -1\n")
        res = run_cli("factor", str(path), str(tmp_path / "out.txt"))
        assert res.returncode == 2
        assert "pivot" in res.stderr

    def test_missing_file(self, tmp_path):
        res = run_cli("factor", str(tmp_path / "nope.txt"), str(tmp_path / "o.txt"))
        assert res.returncode == 1

    def test_b_with_more_rows_than_columns_is_invalid(self, tmp_path):
        # m = 1, n = 2: a 2 x 1 coupling block cannot have full row rank
        path = tmp_path / "tall.txt"
        path.write_text("1 2\n1 1 1\n1 -1 0\n1 0 -1\n")
        out = tmp_path / "out.txt"
        res = run_cli("factor", str(path), str(out))
        assert res.returncode == 2
        assert "full row rank" in res.stderr
        assert not out.exists()


class TestBounds:
    def test_zero_perturbation(self, tmp_path, saddle_file):
        dk = tmp_path / "dk.txt"
        dk.write_text("2 2\n0 0\n0 0\n")
        res = run_cli("bounds", str(saddle_file), str(dk))
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["b_3_3"] == 0.0
        assert rep["b_3_4"] == 0.0
        assert rep["cond_3_1_ok"] is True
        # K + dK is K, so the measured dL is zero and satisfies (3.8)
        assert rep["actual_dl_fro"] == 0.0
        assert rep["diag_3_8_ok"] is True
        assert rep["cond_3_18_strength_ok"] is True

    def test_condition_failure_exit_code(self, tmp_path, saddle_file):
        dk = tmp_path / "dk.txt"
        dk.write_text("2 2\n9 0\n0 9\n")
        res = run_cli("bounds", str(saddle_file), str(dk))
        assert res.returncode == 3
        rep = json.loads(res.stdout)
        assert rep["cond_3_1_ok"] is False
        assert rep["b_3_3"] is None

    def test_w_bound_included(self, tmp_path, saddle_file):
        dk = tmp_path / "dk.txt"
        dk.write_text("2 2\n1e-3 0\n0 1e-3\n")
        res = run_cli("bounds", str(saddle_file), str(dk))
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["cond_3_16_ok"] is True
        assert rep["b_3_15"] > 0.0

    @pytest.mark.parametrize("m, n", [(12, 12), (13, 12)])
    def test_w_bound_follows_the_order(self, tmp_path, m, n):
        # bound 3.15 is evaluated up to order W_BOUND_MAX_ORDER = 24 and is
        # null above it; neither case is an error
        path, dk = tmp_path / "k.txt", tmp_path / "dk.txt"
        write_saddle(make_saddle(m, n, 10.0, np.random.default_rng(1))[0], path)
        p = m + n
        dk.write_text(f"{p} {p}\n" + f"{' '.join(['0'] * p)}\n" * p)
        res = run_cli("bounds", str(path), str(dk))
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        if p <= 24:
            assert rep["b_3_15"] == 0.0 and rep["cond_3_16_ok"] is True
        else:
            assert rep["b_3_15"] is None and rep["cond_3_16_ok"] is None
            # and --dump-w, which writes that operator matrix, is a usage error
            wpath = tmp_path / "w.txt"
            res = run_cli("bounds", str(path), str(dk), "--dump-w", str(wpath))
            assert res.returncode == 1
            assert "--dump-w supports order at most 24, got 25" in res.stderr
            assert not wpath.exists()

    def test_with_actual(self, tmp_path, saddle_file):
        dk = tmp_path / "dk.txt"
        dk.write_text("2 2\n1e-3 0\n0 1e-3\n")
        res = run_cli(
            "bounds", str(saddle_file), str(dk), "--out", str(tmp_path / "rep.json")
        )
        assert res.returncode == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["actual_dl_fro"] > 0.0
        # the per-level diagnostics close the report
        assert list(rep)[-2:] == ["diag_3_8_ok", "cond_3_18_strength_ok"]
        assert rep["diag_3_8_ok"] is True
        assert rep["actual_dl_fro"] <= rep["b_3_3"]

    def test_asymmetric_perturbation_rejected(self, tmp_path, saddle_file):
        dk = tmp_path / "dk.txt"
        dk.write_text("2 2\n0 1e-3\n0 0\n")
        res = run_cli("bounds", str(saddle_file), str(dk))
        assert res.returncode == 1

    def test_dump_w(self, tmp_path, saddle_file):
        dk = tmp_path / "dk.txt"
        dk.write_text("2 2\n1e-3 0\n0 1e-3\n")
        wpath = tmp_path / "w.txt"
        res = run_cli("bounds", str(saddle_file), str(dk), "--dump-w", str(wpath))
        assert res.returncode == 0
        lines = wpath.read_text().splitlines()
        assert lines[0] == "3 3"  # order p(p+1)/2 = 3 for p = 2

    def test_dump_w_is_the_oracle_matrix(self, tmp_path, saddle_file):
        # the bound uses the closed-form W^-1; --dump-w still writes build_w's W
        dk = tmp_path / "dk.txt"
        dk.write_text("2 2\n1e-3 2e-4\n2e-4 -1e-3\n")
        wpath, out = tmp_path / "w.txt", tmp_path / "rep.json"
        argv = ["bounds", str(saddle_file), str(dk), "--dump-w", str(wpath), "--out", str(out)]
        assert cli.main(argv) == 0
        w = build_w(factorize(read_saddle(saddle_file)))
        assert np.array_equal(read_matrix(wpath), w)
        rep = json.loads(out.read_text())
        expected = 2.0 * w_inverse_norm(w) * fro_norm(read_matrix(dk))
        assert rep["b_3_15"] == pytest.approx(expected, rel=1e-12)

    def test_failed_report_leaves_no_w(self, tmp_path, saddle_file, monkeypatch):
        # W is written only once the report is built
        from genchol import bounds

        def failing_norm(x):
            raise ConvergenceError("one-sided Jacobi did not converge")

        monkeypatch.setattr(bounds, "singular_values", failing_norm)
        dk = tmp_path / "dk.txt"
        dk.write_text("2 2\n1e-3 0\n0 1e-3\n")
        wpath, out = tmp_path / "w.txt", tmp_path / "rep.json"
        argv = ["bounds", str(saddle_file), str(dk), "--dump-w", str(wpath), "--out", str(out)]
        assert cli.main(argv) == 5
        assert not wpath.exists()
        assert not out.exists()

    def test_w_bound_inverts_the_factor_once(self, tmp_path, saddle_file, monkeypatch):
        from genchol import bounds

        calls = []

        def counting_inverse(l):
            calls.append(np.shape(l))
            return lower_tri_inverse(l)

        monkeypatch.setattr(bounds, "lower_tri_inverse", counting_inverse)
        dk = tmp_path / "dk.txt"
        dk.write_text("2 2\n1e-3 0\n0 1e-3\n")
        out = tmp_path / "rep.json"
        argv = ["bounds", str(saddle_file), str(dk), "--out", str(out)]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["b_3_15"] > 0.0
        assert calls == [(2, 2)]


class TestVerify:
    def test_deterministic_output(self, tmp_path):
        args = ["verify", "--m", "4", "--n", "3", "--trials", "5", "--seed", "7"]
        res1 = run_cli(*args, "--out", str(tmp_path / "a.csv"))
        res2 = run_cli(*args, "--out", str(tmp_path / "b.csv"))
        assert res1.returncode == 0
        assert res2.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert "violations=0" in res1.stderr

    def test_json_format(self, tmp_path):
        res = run_cli(
            "verify", "--trials", "2", "--dk-levels", "1e-4", "--format", "json",
            "--out", str(tmp_path / "v.json"),
        )
        assert res.returncode == 0
        parsed = json.loads((tmp_path / "v.json").read_text())
        assert parsed[0]["violation"] is False

    def test_rounding_indefinite_draw_is_redrawn(self, capsys, tmp_path):
        # some cond-1e20 draws of A fail LAPACK's Cholesky; they are redrawn,
        # not reported as a usage error
        argv = ["verify", "--m", "4", "--n", "3", "--cond-target", "1e20",
                "--trials", "20", "--out", str(tmp_path / "v.csv")]
        assert cli.main(argv) in (0, 4)
        assert "records=80" in capsys.readouterr().err

    def test_bad_dk_level_is_usage_error(self, tmp_path):
        res = run_cli(
            "verify", "--dk-levels", "0.7", "--trials", "1",
            "--out", str(tmp_path / "v.csv"),
        )
        assert res.returncode == 1


    @pytest.mark.parametrize(
        "exc, code, message",
        [
            (ConvergenceError("one-sided Jacobi did not converge"), 5,
             "numerical kernel failure"),
            (CampaignError("trial 0: no valid draw in 100 attempts"), 2,
             "factorization failed"),
        ],
    )
    def test_campaign_failure_exit_codes(self, monkeypatch, capsys, tmp_path,
                                         exc, code, message):
        def failing_campaign(cfg):
            raise exc

        monkeypatch.setattr(cli, "run_normwise_campaign", failing_campaign)
        out = tmp_path / "v.csv"
        assert cli.main(["verify", "--trials", "1", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err and str(exc) in err
        assert not out.exists()


class TestCampaignFlags:
    def test_defaults_are_pinned(self, monkeypatch, tmp_path):
        configs = {}

        def capturing(command):
            def run(cfg):
                configs[command] = cfg
                return []
            return run

        monkeypatch.setattr(cli, "run_normwise_campaign", capturing("verify"))
        monkeypatch.setattr(cli, "run_componentwise_campaign", capturing("backward"))
        for command in ("verify", "backward"):
            cli.main([command, "--out", str(tmp_path / f"{command}.csv")])
        assert configs == {
            "verify": EnsembleConfig(m=4, n=3, trials=100, cond_target=1e4, seed=1729),
            "backward": EnsembleConfig(
                m=3, n=3, trials=100, cond_target=1e3, seed=1729,
                eps_synth=1e-6, eps_convention="max-safe",
            ),
        }

    def test_sweep_rows_take_the_harness_dk_fro(self, tmp_path):
        out = tmp_path / "s.json"
        assert cli.main(["sweep", "--kind", "remark33", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [row["dk_fro"] for row in rows] == [SWEEP_DK_FRO] * 3 == [1e-8] * 3

    @pytest.mark.parametrize("argv, text", [
        (["verify", "--dk-levels", "1e-4,x"], "1e-4,x"),
        (["sweep", "--kind", "remark33", "--gammas", "10,x"], "10,x"),
    ])
    def test_bad_numeric_list_is_usage_error(self, capsys, tmp_path, argv, text):
        out = tmp_path / "r.csv"
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"genchol: error: bad numeric list {text!r}\n"
        assert not out.exists()


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["verify", "--cond-target", "nan"], "cond_target"),
            (["verify", "--cond-target", "inf"], "cond_target"),
            (["verify", "--cond-target", "1e400"], "cond_target"),
            (["backward", "--cond-target", "nan"], "cond_target"),
            (["backward", "--eps", "inf"], "eps_synth"),
        ],
    )
    def test_usage_error(self, capsys, tmp_path, argv, field):
        out = tmp_path / "r.csv"
        assert cli.main([*argv, "--trials", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"genchol: error: {field} must be finite" in err
        assert not out.exists()


class TestBackward:
    def test_small_run(self, tmp_path):
        res = run_cli(
            "backward", "--m", "3", "--n", "3", "--trials", "5",
            "--out", str(tmp_path / "b.csv"),
        )
        assert res.returncode == 0
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert lines[0].startswith("trial,m,n,seed,eps")
        assert len(lines) == 6

    def test_envelope_violations_absent(self, tmp_path):
        res = run_cli(
            "backward", "--trials", "10", "--out", str(tmp_path / "b.csv")
        )
        assert res.returncode == 0
        assert "violations=0" in res.stderr


class TestCampaignSummary:
    """Each campaign prints exactly one stderr line, pinned here literally."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["verify", "--trials", "4", "--seed", "11"],
             "verify: records=16 violations=0 worst_ratio=0.143514"),
            (["backward", "--trials", "6", "--seed", "11", "--eps", "1e-3"],
             "backward: records=6 violations=0 skipped=2 worst_ratio=0.107122"),
        ],
        ids=["verify", "backward"],
    )
    def test_summary_line(self, capsys, tmp_path, argv, line):
        assert cli.main([*argv, "--out", str(tmp_path / "r.csv")]) == 0
        assert capsys.readouterr().err == line + "\n"


class TestSweep:
    def test_remark33_summary_slope(self, tmp_path):
        res = run_cli(
            "sweep", "--kind", "remark33", "--gammas", "10,100,1000",
            "--out", str(tmp_path / "s.csv"),
        )
        assert res.returncode == 0
        assert "slope" in res.stderr
        slope = float(res.stderr.split("=")[-1])
        assert 1.8 <= slope <= 2.2

    def test_remark32_table(self, tmp_path):
        res = run_cli(
            "sweep", "--kind", "remark32", "--gammas", "0.01,0.001",
            "--out", str(tmp_path / "s.csv"),
        )
        assert res.returncode == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0].startswith("gamma,")
        assert len(lines) == 3

    def test_remark33_single_gamma_has_no_slope(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--kind", "remark33", "--gammas", "10", "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(out.read_text().splitlines()) == 2
        assert capsys.readouterr().err == ""

    def test_repeated_gamma_has_no_slope(self, tmp_path):
        # one distinct gamma has no slope, however often it is repeated
        out = tmp_path / "s.csv"
        res = run_cli("sweep", "--kind", "remark33", "--gammas", "10,10", "--out", str(out))
        assert res.returncode == 0
        assert len(out.read_text().splitlines()) == 3
        assert res.stderr == ""

    def test_dk_fro_is_an_unrecognized_argument(self, tmp_path):
        out = tmp_path / "s.csv"
        res = run_cli("sweep", "--kind", "remark33", "--dk-fro", "1e-6", "--out", str(out))
        assert res.returncode == 1
        assert "unrecognized arguments: --dk-fro 1e-6" in res.stderr
        assert not out.exists()

    def test_svd_failure_is_kernel_failure(self, monkeypatch, capsys, tmp_path):
        # a failed LAPACK SVD of the evaluator's W^-1 is a ConvergenceError
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        out = tmp_path / "s.csv"
        argv = ["sweep", "--kind", "remark33", "--gammas", "10,100", "--out", str(out)]
        assert cli.main(argv) == 5
        assert "numerical kernel failure: SVD of W^-1 failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt, message", [
        ("json", "JSON has no representation"), ("csv", "non-finite CSV cell"),
    ])
    def test_non_finite_cell_is_refused(self, monkeypatch, capsys, tmp_path, fmt, message):
        # the text is built before the atomic write, so a non-finite cell
        # leaves neither file nor temp file, and no slope is printed
        rows = [{"gamma": 10.0, "winv2": 1.0}, {"gamma": 100.0, "winv2": math.inf}]
        monkeypatch.setattr(cli, "run_gamma_sweep", lambda kind, gammas: rows)
        argv = ["sweep", "--kind", "remark33", "--format", fmt,
                "--out", str(tmp_path / f"s.{fmt}")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "slope" not in err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_json_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="JSON has no representation"):
            emit_rows([{"gamma": 1.0, "winv2": math.inf}], "json", tmp_path / "s.json")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_csv_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite CSV cell"):
            emit_rows([{"gamma": 1.0, "winv2": math.nan}], "csv", tmp_path / "s.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, gammas, gamma", [
        ("remark32", "1e-160,1", "1e-160"),  # L J L^T overflows
        ("remark32", "1e200,1", "1e+200"),  # W^-1 overflows
        ("remark33", "1e200,1", "1e+200"),  # L J L^T overflows
        ("remark33", "1,1e100", "1e+100"),  # ||W^-1||_2^2 overflows
        ("remark32", "nan", "nan"),  # not a positive finite number
        ("remark32", "1,inf", "inf"),
        ("remark33", "10,nan", "nan"),
        ("remark33", "inf", "inf"),
    ])
    def test_overflowing_gamma_is_refused(self, tmp_path, kind, gammas, gamma):
        # an overflowing or non-finite gamma is refused before anything is
        # written: exit 1, the gamma named, no RuntimeWarning (run_cli makes
        # one an error)
        for fmt in ("csv", "json"):
            res = run_cli("sweep", "--kind", kind, "--gammas", gammas, "--format", fmt,
                          "--out", str(tmp_path / "s.out"))
            assert res.returncode == 1
            assert res.stderr.startswith(f"genchol: error: gamma {gamma} is out of range")
            assert "Warning" not in res.stderr
            assert list(tmp_path.iterdir()) == []

    def test_kind_required(self, tmp_path):
        res = run_cli("sweep", "--gammas", "10")
        assert res.returncode == 1


class TestOverflowingFactor:
    """A valid saddle matrix whose factor overflows is a kernel failure, not a
    usage error."""

    @pytest.mark.parametrize("command", ["factor", "bounds"])
    def test_exit_5_without_warning_or_output(self, capsys, tmp_path, command):
        k = tmp_path / "k.txt"
        k.write_text(SADDLE_OVERFLOW)
        dk = tmp_path / "dk.txt"
        dk.write_text("2 2\n0 0\n0 0\n")
        out = tmp_path / "out.txt"
        argv = {
            "factor": ["factor", str(k), str(out)],
            "bounds": ["bounds", str(k), str(dk), "--out", str(out)],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert (code, caught) == (5, [])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "genchol: numerical kernel failure: K: the factor overflows\n"
        assert not out.exists()


class TestExitCodes:
    PREFIX = {1: "error", 2: "factorization failed", 5: "numerical kernel failure"}

    # the whole exit-code map; SaddleValidationError is a ValueError, so its
    # row checks the order of the handlers (--help's exit 0: TestHelp)
    @pytest.mark.parametrize("exc, code", [
        (ParseError("x"), 1),
        (ShapeError("x"), 1),
        (SingularMatrixError("x"), 1),
        (OSError("x"), 1),
        (ValueError("x"), 1),
        (cli._UsageError("x"), 1),
        (FactorizationError("A", 1, -1.0), 2),
        (SaddleValidationError("x"), 2),
        (CampaignError("x"), 2),
        (ConvergenceError("x"), 5),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_exception_maps_to_exit_code(self, monkeypatch, capsys, exc, code):
        def raising(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_factor", raising)
        assert cli.main(["factor", "k.txt", "l.txt"]) == code
        assert capsys.readouterr().err == f"genchol: {self.PREFIX[code]}: {exc}\n"


class TestHelp:
    def test_top_level_help(self):
        res = run_cli("--help")
        assert res.returncode == 0
        for sub in ("factor", "bounds", "verify", "backward", "sweep"):
            assert sub in res.stdout

    def test_subcommand_help_lists_defaults(self):
        res = run_cli("verify", "--help")
        assert res.returncode == 0
        for flag in ("--m", "--n", "--trials", "--seed", "--dk-levels",
                     "--cond-target", "--format", "--out"):
            assert flag in res.stdout
        assert "1729" in res.stdout  # default seed shown
        assert "100" in res.stdout  # default trials shown

    def test_unknown_command(self):
        res = run_cli("explode")
        assert res.returncode == 1


class TestAtomicWrites:
    def test_no_partial_file_on_failure(self, tmp_path):
        # breakdown happens before any write: the output must not exist
        path = tmp_path / "npd.txt"
        path.write_text("1 1\n-1 2\n2 -1\n")
        out = tmp_path / "out.txt"
        res = run_cli("factor", str(path), str(out))
        assert res.returncode == 2
        assert not out.exists()
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
