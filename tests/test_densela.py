import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genchol import densela
from genchol.densela import (
    UNIT_ROUNDOFF,
    ConvergenceError,
    ShapeError,
    SingularMatrixError,
    fro_norm,
    gamma_k,
    is_psd,
    lower_tri_inverse,
    matmul,
    parse_matrix,
    format_json_scalar,
    format_matrix,
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


def scalar_loop_norm(v) -> float:
    """The byte contract of the norms: scale by the largest magnitude, then
    accumulate the squares one at a time, left to right."""
    v = np.asarray(v, dtype=np.float64).ravel()
    amax = float(np.max(np.abs(v))) if v.size else 0.0
    if amax == 0.0:
        return 0.0
    total = 0.0
    for t in (v / amax).tolist():
        total += t * t
    return amax * math.sqrt(total)


def extreme_matrix(rng, rows, cols):
    """Entries of random sign with magnitudes spread over 1e-300 .. 1e300."""
    return rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-300, 300, (rows, cols))


class TestNormByteContract:
    def test_fro_norm_equals_scalar_loop(self, rng):
        for _ in range(200):
            rows, cols = rng.integers(1, 12, size=2)
            x = extreme_matrix(rng, rows, cols)
            assert fro_norm(x) == scalar_loop_norm(x)
            assert fro_norm(x.T) == scalar_loop_norm(x.T)  # row order of a view

    def test_column_norms_equal_scalar_loop(self, rng):
        # both layouts: Jacobi hands over transposed (column-contiguous)
        # stacks of wide matrices, where numpy's sum would add pairwise
        for _ in range(200):
            rows, cols = rng.integers(1, 40), rng.integers(1, 12)
            x = extreme_matrix(rng, rows, cols)
            x[:, rng.integers(cols)] = 0.0
            want = [scalar_loop_norm(x[:, j]) for j in range(cols)]
            assert densela.column_norms(x).tolist() == want
            assert densela.column_norms(np.asfortranarray(x)).tolist() == want
            assert densela.column_norms(np.stack([x, -x])).tolist() == [want, want]

    def test_zero_columns(self):
        assert densela.column_norms(np.zeros((4, 3))).tolist() == [0.0, 0.0, 0.0]
        assert densela.column_norms(np.zeros((0, 2))).tolist() == [0.0, 0.0]

    def test_length_one(self, rng):
        for v in extreme_matrix(rng, 1, 50).ravel():
            assert fro_norm([v]) == scalar_loop_norm([v]) == abs(v)
            assert densela.column_norms(np.array([[v]])).tolist() == [abs(v)]

    def test_singular_values_are_sorted_column_norms(self, rng):
        # rerun the rotations of singular_values on a stack, each matrix
        # scaled as it does and its columns (a wide one's rows) stored as
        # contiguous rows, and read the column norms off those rows
        for shape in [(5, 5), (7, 4), (3, 6)]:
            x = rng.standard_normal((3,) + shape)
            amax = np.abs(x).max(axis=(1, 2))
            a = x / amax[:, None, None]
            cols = np.ascontiguousarray(a if shape[0] < shape[1] else a.transpose(0, 2, 1))
            schedule = densela._pair_schedule(cols.shape[1])
            assert densela._jacobi_sweeps(
                cols, schedule, densela._JACOBI_TOL ** 2, densela._JACOBI_MAX_SWEEPS
            )
            for k in range(3):
                norms = sorted((fro_norm(col) for col in cols[k]), reverse=True)
                assert singular_values(x[k]).tolist() == (amax[k] * np.array(norms)).tolist()


class TestPairSchedule:
    @pytest.mark.parametrize("n", [*range(1, 14), 28])
    def test_matches_round_robin(self, n):
        # a round-robin tournament: n - 1 rounds (n for odd n) of disjoint
        # pairs i < j, every pair exactly once per sweep
        schedule = densela._pair_schedule(n)
        assert len(schedule) == n - 1 + n % 2
        pairs = []
        for ii, jj in schedule:
            members = ii.tolist() + jj.tolist()
            assert len(set(members)) == len(members)
            pairs += zip(ii.tolist(), jj.tolist())
        assert all(i < j for i, j in pairs)
        assert sorted(pairs) == list(itertools.combinations(range(n), 2))

    def test_pinned_order(self):
        # the order of the rotations sets the output bits
        pinned = {
            4: [([0, 1], [3, 2]), ([0, 1], [2, 3]), ([0, 2], [1, 3])],
            5: [([1, 2], [4, 3]), ([0, 1], [4, 2]), ([0, 2], [3, 4]), ([0, 1], [2, 3]),
                ([0, 3], [1, 4])],
        }
        for n, rounds in pinned.items():
            assert [(ii.tolist(), jj.tolist()) for ii, jj in densela._pair_schedule(n)] == rounds

    def test_built_once_and_read_only(self):
        schedule = densela._pair_schedule(5)
        assert densela._pair_schedule(5) is schedule
        for ii, jj in schedule:
            for arr in (ii, jj):
                with pytest.raises(ValueError):
                    arr[0] = 0


def jacobi_norm(x) -> float:
    """The Jacobi's largest singular value, as the normwise evaluator takes it."""
    return float(singular_values(x)[0])


class TestSpectralNorm:
    """Both kernels of a largest singular value: LAPACK's and the Jacobi's."""

    def test_diagonal(self):
        for norm in (spectral_norm, jacobi_norm):
            assert norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, rel=1e-14)

    def test_rank_one(self):
        u = np.array([[0.6], [0.8]])
        v = np.array([[0.8, 0.6]])
        for norm in (spectral_norm, jacobi_norm):
            assert norm(u @ v) == pytest.approx(1.0, rel=1e-13)

    def test_matches_power_iteration_oracle(self, rng):
        for _ in range(10):
            x = rng.standard_normal((6, 6))
            for norm in (spectral_norm, jacobi_norm):
                assert norm(x) == pytest.approx(power_iteration_sigma_max(x), rel=1e-10)

    def test_accuracy_against_fro_scale(self, rng):
        for _ in range(25):
            x = rng.standard_normal((7, 5))
            ref = float(np.linalg.svd(x, compute_uv=False)[0])
            for norm in (spectral_norm, jacobi_norm):
                assert abs(norm(x) - ref) <= 1e-12 * fro_norm(x)


class TestSingularValues:
    def test_tiny_singular_value_ratio(self):
        # sigma_min / sigma_max = 1e-145: tau * tau overflows in the rotation
        x = np.array([[1.0, 1e-156], [0.0, 1e-145]])
        got = singular_values(x)
        assert got == pytest.approx([1.0, 1e-145], rel=1e-15)
        assert got == pytest.approx(np.linalg.svd(x, compute_uv=False), rel=1e-15)


def assert_stack_is_its_members(stack):
    """A stack's singular values, from the Jacobi, and its spectral norms,
    from LAPACK, are bit for bit those of its members taken one at a time."""
    stack = np.asarray(stack, dtype=np.float64)
    got = singular_values(stack)
    assert got.shape == (stack.shape[0], min(stack.shape[1:]))
    assert got.tolist() == [singular_values(x).tolist() for x in stack]
    norms = spectral_norm(stack)
    assert norms == [spectral_norm(x) for x in stack]
    assert all(type(v) is float for v in norms)


class TestStackedSingularValues:
    def test_zero_member(self, rng):
        stack = rng.standard_normal((3, 4, 4))
        stack[1] = 0.0
        assert_stack_is_its_members(stack)
        assert singular_values(stack)[1, 0] == spectral_norm(stack)[1] == 0.0

    def test_tau_overflow_member_among_ordinary_ones(self, rng):
        tiny = np.array([[1.0, 1e-156], [0.0, 1e-145]])
        ordinary = rng.standard_normal((2, 2, 2))
        stack = np.stack([ordinary[0], tiny, np.eye(2), ordinary[1]])
        assert_stack_is_its_members(stack)
        assert singular_values(stack)[1] == pytest.approx([1.0, 1e-145], rel=1e-15)

    @pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 5)])
    def test_single_column_or_row(self, rng, shape):
        assert_stack_is_its_members(rng.standard_normal((4,) + shape))

    @pytest.mark.parametrize("shape", [(2, 5), (3, 7), (6, 12)])
    def test_wide(self, rng, shape):
        assert_stack_is_its_members(rng.standard_normal((3,) + shape))

    @pytest.mark.parametrize("shape, values", [
        ((0, 3, 3), (0, 3)), ((2, 0, 3), (2, 0)), ((2, 3, 0), (2, 0)),
    ])
    def test_empty(self, shape, values):
        assert singular_values(np.zeros(shape)).shape == values
        assert spectral_norm(np.zeros(shape)) == [0.0] * shape[0]
        assert spectral_norm(np.zeros(shape[1:])) == 0.0

    def test_column_scales_property(self, rng):
        # members of one stack converge after different numbers of sweeps
        for _ in range(60):
            n = int(rng.choice([2, 3, 7, 12]))
            rows = int(rng.choice([1, n - 1, n, n + 3]))
            shape = (rows, n) if rng.random() < 0.5 else (n, rows)
            scales = 10.0 ** rng.uniform(-8.0, 8.0, (6, 1, shape[1]))
            assert_stack_is_its_members(rng.standard_normal((6,) + shape) * scales)

    def test_one_unconverged_member_fails_the_stack(self, monkeypatch, rng):
        # one sweep cannot end without rotations unless every pair is
        # already orthogonal, as for the diagonal members
        monkeypatch.setattr(densela, "_JACOBI_MAX_SWEEPS", 1)
        stack = np.stack([np.eye(4), np.diag([1.0, 2.0, 3.0, 4.0]), rng.standard_normal((4, 4))])
        assert singular_values(stack[:2])[:, 0].tolist() == [1.0, 4.0]
        with pytest.raises(ConvergenceError, match="did not converge within 1 sweeps"):
            singular_values(stack)

    def test_unconverged_member_exits_5(self, monkeypatch, tmp_path):
        from genchol import cli

        monkeypatch.setattr(densela, "_JACOBI_MAX_SWEEPS", 1)
        out = tmp_path / "v.csv"
        assert cli.main(["verify", "--trials", "1", "--out", str(out)]) == 5
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3, 3)])
    def test_other_ranks_are_shape_errors(self, shape):
        for kernel in (singular_values, spectral_norm):
            with pytest.raises(ShapeError):
                kernel(np.ones(shape))


class TestLapackSpectralNorm:
    """``spectral_norm``, from LAPACK: the Jacobi's value to rounding."""

    @pytest.mark.parametrize("shape", [(6, 6), (7, 5), (3, 8)])
    def test_agrees_with_the_jacobi(self, rng, shape):
        for _ in range(10):
            x = rng.standard_normal(shape)
            assert spectral_norm(x) == pytest.approx(jacobi_norm(x), rel=1e-13)

    def test_members_near_overflow_and_underflow(self, rng):
        # each member is scaled by its largest magnitude before LAPACK sees it
        x = rng.standard_normal((3, 5, 5))
        scales = np.array([1e300, 1e-300, 1.0])[:, None, None]
        stack = x * scales
        assert_stack_is_its_members(stack)
        assert spectral_norm(stack) == pytest.approx(
            [s * v for s, v in zip(scales.ravel(), spectral_norm(x))], rel=1e-13)

    def test_power_of_two_scaling_is_exact(self, rng):
        x = rng.standard_normal((3, 6, 4))
        for k in (-1000, -3, 5, 1000):
            assert spectral_norm(np.ldexp(x, k)) == [
                math.ldexp(v, k) for v in spectral_norm(x)]

    def test_lapack_failure_exits_5_without_output(self, monkeypatch, capsys, tmp_path):
        # the draw's ||L21||_2 is a componentwise trial's first SVD
        from genchol import cli

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        out = tmp_path / "b.csv"
        assert cli.main(["backward", "--trials", "1", "--out", str(out)]) == 5
        assert capsys.readouterr().err == (
            "genchol: numerical kernel failure: LAPACK SVD failed: SVD did not converge\n")
        assert list(tmp_path.iterdir()) == []


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
            s = singular_values(l)
            assert resid <= 10.0 * p * U * (s[0] / s[-1])


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


class TestGammaK:
    def test_zero(self):
        assert gamma_k(0) == 0.0

    def test_one(self):
        assert gamma_k(1) == U / (1.0 - U)

    def test_sixteen(self):
        # k = 3m + 1 with m = 5
        assert gamma_k(16) == pytest.approx(16 * U / (1 - 16 * U), rel=0)

    def test_domain(self):
        with pytest.raises(ValueError):  # k*u is exactly 1
            gamma_k(2**53)


class TestNormInequalities:
    def test_triple_product_inequality(self, rng):
        # ||XYZ||_F <= ||X||_2 ||Y||_F ||Z||_2
        for _ in range(100):
            a, b, c, d = rng.integers(1, 11, 4)
            x = rng.standard_normal((a, b))
            y = rng.standard_normal((b, c))
            z = rng.standard_normal((c, d))
            lhs = fro_norm(matmul(matmul(x, y), z))
            for norm in (spectral_norm, jacobi_norm):
                assert lhs <= norm(x) * fro_norm(y) * norm(z) * (1 + 1e-12)

    def test_spectral_fro_rank_sandwich(self, rng):
        for _ in range(25):
            x = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
            sig = singular_values(x)
            rank = int(np.sum(sig > sig[0] * 50 * max(x.shape) * U)) if sig.size else 0
            fn = fro_norm(x)
            for sn in (spectral_norm(x), jacobi_norm(x)):
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

    def test_known_spectrum(self, rng):
        # Q diag(lam) Q^T with exactly zero and negative eigenvalues
        lam = np.array([-3.0, -1e-3, 0.0, 0.0, 2.5, 7.0])
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        s = (q * lam) @ q.T
        s = (s + s.T) / 2.0
        got = sym_eigenvalues(s)
        assert np.all(np.diff(got) >= 0.0)
        assert np.allclose(got, lam, rtol=0.0, atol=1e-13 * 7.0)
        assert not is_psd(s)
        c = (q * np.maximum(lam, 0.0)) @ q.T
        assert is_psd((c + c.T) / 2.0)

    def test_not_symmetric(self):
        with pytest.raises(ShapeError):
            sym_eigenvalues(np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]]))


class TestFormatJsonScalar:
    @pytest.mark.parametrize(
        "value",
        [math.inf, -math.inf, math.nan, np.float64(math.inf)],
        ids=["inf", "-inf", "nan", "numpy-inf"],
    )
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="JSON"):
            format_json_scalar(value)


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


def pinned_stacks():
    """Fixed stacks whose singular values are pinned bit for bit below: a wide
    matrix, a graded stack of condition about 1e8, a (7, 12, 12) stack,
    columns of equal norm (tau = 0 in every first rotation) and a
    singular-value ratio of 1e-145, where tau * tau overflows."""
    rng = np.random.default_rng(20261019)
    wide = rng.standard_normal((1, 3, 4))
    graded = rng.standard_normal((5, 7, 7)) * np.ldexp(1.0, [0, -4, -9, -13, -18, -22, -27])
    big = rng.standard_normal((7, 12, 12))
    circulant = np.array([np.roll(np.arange(1.0, 6.0), j) for j in range(5)]).T
    tau = np.array([[[1.0, 1e-156], [0.0, 1e-145]], [[2.0, 1.0], [1.0, 3.0]]])
    return {"wide": wide, "graded": graded, "big": big,
            "equal": np.stack([circulant, circulant[::-1]]), "tau": tau}


# float.hex of each member's singular values: the Jacobi's bits, which a
# kernel change that keeps them must reproduce (one meant to move them
# regenerates these)
PINNED_SINGULAR_VALUES = {
    "wide": [
        ["0x1.0a43cea2b52d3p+1", "0x1.8bb34026a61d0p+0", "0x1.36536ecf50f07p-2"],
    ],
    "graded": [
        ["0x1.bb187d123355ap+0", "0x1.a4253058174d2p-3", "0x1.9fb70a0bb9d3ap-9",
         "0x1.6181b87c0200dp-12", "0x1.da28cef6926ffp-20", "0x1.8c12300cab81bp-22",
         "0x1.7ba07a9940cf3p-27"],
        ["0x1.4a59388b66556p+1", "0x1.3dbfe5470ceeap-3", "0x1.3a38ad0ffb6ebp-8",
         "0x1.a7ae554532cb8p-13", "0x1.07b16b81a8139p-18", "0x1.42eb12cc000d3p-23",
         "0x1.afae2aaa91a3cp-27"],
        ["0x1.70bb4371af827p+1", "0x1.5178e12988e60p-3", "0x1.300148c1c8a0dp-8",
         "0x1.0e0115e0475bfp-13", "0x1.1628d507ccd9dp-17", "0x1.a802edbedb334p-22",
         "0x1.38d3c0355cdc9p-27"],
        ["0x1.22dcc0a03e2a0p+1", "0x1.d1d0400d4e783p-4", "0x1.1ae1e3f84c698p-9",
         "0x1.49e896af42f22p-12", "0x1.2df8a276b5b0dp-18", "0x1.c793aca3b595ep-23",
         "0x1.00d9109c28ea6p-27"],
        ["0x1.9c854fe46baddp+0", "0x1.6f31798449d0bp-4", "0x1.b5af879d112b6p-8",
         "0x1.58321fbe56484p-13", "0x1.54b891e14153ep-19", "0x1.209e2737ae034p-21",
         "0x1.65f1f5c7b9282p-27"],
    ],
    "big": [
        ["0x1.72bfab4e08436p+2", "0x1.6f1efeb77629ap+2", "0x1.2b5ad5d3fd74dp+2",
         "0x1.0a05f07b569fdp+2", "0x1.ed0eb4349233ep+1", "0x1.bc3985a072913p+1",
         "0x1.64b3a3d0e24ddp+1", "0x1.35b535df0d70bp+1", "0x1.4c6509a66a66bp+0",
         "0x1.5f999a18d61f4p-1", "0x1.31e701821c8b3p-1", "0x1.4efca49137d25p-5"],
        ["0x1.ad3649497da9cp+2", "0x1.6d29bde0dad0dp+2", "0x1.551ce1786642fp+2",
         "0x1.fb957e4ce9f20p+1", "0x1.e62af13e08cc0p+1", "0x1.ccf92cd154269p+1",
         "0x1.6a31ce942a24dp+1", "0x1.d9a93d8378945p+0", "0x1.8d9a2019c05f5p+0",
         "0x1.18ad590600c0bp+0", "0x1.a52c0530acd17p-2", "0x1.438bb158e2a6dp-3"],
        ["0x1.8148da15e371cp+2", "0x1.58b1fe786b32dp+2", "0x1.370d75a8d92d9p+2",
         "0x1.1cf46c3ffa7f8p+2", "0x1.b4db81961a0ebp+1", "0x1.58031116e2bf8p+1",
         "0x1.0832d5c4f37f6p+1", "0x1.f00bf51a79ad4p+0", "0x1.2119ee992648fp+0",
         "0x1.9876be7c69b16p-1", "0x1.c660281f68b9bp-2", "0x1.48ac163ea5e0dp-2"],
        ["0x1.78bf2d9997de0p+2", "0x1.5adc4937ace78p+2", "0x1.557d02cb999ecp+2",
         "0x1.1089319a0b4d3p+2", "0x1.a7b8288c2c48ap+1", "0x1.798534f759459p+1",
         "0x1.5a6de270c80f3p+1", "0x1.0f943df0d920cp+1", "0x1.deb904ef432dep+0",
         "0x1.a3f7e11a18ec8p+0", "0x1.862dc045cf820p-1", "0x1.91ee43ad2f48ep-2"],
        ["0x1.7dec3ac7eb758p+2", "0x1.4ddddc7ecd649p+2", "0x1.0debf4abd112ap+2",
         "0x1.0bbcd26d9cc68p+2", "0x1.dc841d5049f13p+1", "0x1.693efea998f10p+1",
         "0x1.2e113ed31cc06p+1", "0x1.2144bddc2df73p+1", "0x1.949dc05024d91p+0",
         "0x1.f959ee47a8380p-1", "0x1.89d11530d02a1p-1", "0x1.0daf508133ee4p-6"],
        ["0x1.78ce9c2eeaa8ep+2", "0x1.69a8bad2faa30p+2", "0x1.35a06f9b5854cp+2",
         "0x1.0259e6c640707p+2", "0x1.de1ec5f9b9b92p+1", "0x1.bf1bffbb990a1p+1",
         "0x1.6981a51b3773fp+1", "0x1.0cae48f504961p+1", "0x1.d072be73b7468p+0",
         "0x1.32160653c5195p+0", "0x1.0cbbdba8e8086p-1", "0x1.6dfb6b7d6d626p-5"],
        ["0x1.842ee73a89fddp+2", "0x1.3cde30e9f0e70p+2", "0x1.14ecd88b11b2dp+2",
         "0x1.0099a19ec989dp+2", "0x1.eb2a9454e084cp+1", "0x1.7d5b619c6d04fp+1",
         "0x1.fafde3fe1a362p+0", "0x1.cfd3e77325c68p+0", "0x1.2d7e340198e63p+0",
         "0x1.b3282d6a3b9dap-1", "0x1.ccb2d2f797ddap-2", "0x1.5b7d83622bc8cp-7"],
    ],
    "equal": [
        ["0x1.dffffffffffffp+3", "0x1.10355070bc26ep+2", "0x1.10355070bc26ep+2",
         "0x1.5077c9109a7d0p+1", "0x1.5077c9109a7cfp+1"],
        ["0x1.dffffffffffffp+3", "0x1.10355070bc26fp+2", "0x1.10355070bc26ep+2",
         "0x1.5077c9109a7d0p+1", "0x1.5077c9109a7d0p+1"],
    ],
    "tau": [
        ["0x1.0000000000000p+0", "0x1.3faac3e3fa1f3p-482"],
        ["0x1.cf1bbcdcbfa53p+1", "0x1.61c8864680b58p+0"],
    ],
}


class TestJacobiBitPins:
    @pytest.mark.parametrize("name", sorted(PINNED_SINGULAR_VALUES))
    def test_singular_values_keep_their_bits(self, name):
        got = singular_values(pinned_stacks()[name])
        assert [[float(v).hex() for v in row] for row in got] == PINNED_SINGULAR_VALUES[name]
