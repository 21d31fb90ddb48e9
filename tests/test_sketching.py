import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cullsq import (
    Dataset,
    DimensionMismatch,
    FastSolverConfig,
    InvalidConfig,
    InvalidDimension,
    InvalidInput,
    Preconditioner,
    RngStream,
    SketchRankDeficient,
    ZeroRow,
    apply_sketch,
    approx_leverage,
    build_preconditioner,
    check_embedding_properties,
    embedding_defect,
    fast_setup,
    fwht,
    leverage_scores,
    make_dense_sign_jlt,
    make_identity_sketch,
    make_srht,
    srht_dim,
    thin_svd,
)
from cullsq import sketching
from cullsq.designs import conditioned_design
from cullsq.sketching import (
    CACHE_BLOCK_ELEMENTS,
    HADAMARD_MIN_BLOCK,
    IDENTITY,
    SRHT,
    SketchOperator,
    next_pow2,
    pinv_factorization_residual,
)
from cullsq import kaczmarz
from cullsq.designs import conditioned_design
from cullsq.rng import as_generator
from _helpers import random_orthonormal


class TestDimensions:
    def test_srht_dim_formula(self):
        n, d, eps, gamma = 512, 8, 0.5, 0.05
        expect = math.ceil(
            12.0 / (5.0 * eps**2)
            * (math.sqrt(d) + math.sqrt(8.0 * math.log(3.0 * n / gamma))) ** 2
            * math.log(d)
        )
        assert srht_dim(n, d, eps, gamma) == expect
        assert expect == 2837  # frozen: exceeds n, so callers cap at n_pad

    def test_invalid_parameters(self):
        with pytest.raises(InvalidDimension):
            srht_dim(10, 2, 0.9, 0.1)  # eps above 1/2

    def test_srht_padding(self):
        op = make_srht(6, 8, RngStream(0))
        assert op.n_pad == 8 and op.r == 8
        assert len(np.unique(op.coords)) == 8

    def test_srht_r_above_padding_rejected(self):
        with pytest.raises(InvalidDimension):
            make_srht(6, 9, RngStream(0))


def reference_fwht(M):
    """Unblocked normalized butterfly, one level at a time over all rows."""
    a = np.array(M, dtype=float, order="C")
    n = a.shape[0]
    a2 = a.reshape(n, -1)
    h = 1
    while h < n:
        blocks = a2.reshape(n // (2 * h), 2, h, -1)
        top, bot = blocks[:, 0], blocks[:, 1]
        tmp = top.copy()
        top += bot
        tmp -= bot
        bot[...] = tmp
        h *= 2
    a /= math.sqrt(n)
    return a


def fwht_block_rows(m):
    """Rows of m columns in a 1 MB (CACHE_BLOCK_ELEMENTS) block, rounded
    down to a power of two."""
    return 1 << ((CACHE_BLOCK_ELEMENTS // m).bit_length() - 1)


class TestFwht:
    def test_first_basis_vector(self):
        out = fwht(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, 0.5 * np.ones(4), atol=1e-15)

    def test_self_inverse(self):
        gen = np.random.default_rng(1)
        M = gen.standard_normal((64, 5))
        np.testing.assert_allclose(fwht(fwht(M)), M, atol=1e-12)

    def test_orthogonality(self):
        H = fwht(np.eye(16))
        np.testing.assert_allclose(H @ H.T, np.eye(16), atol=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(InvalidDimension):
            fwht(np.ones(6))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_matches_hadamard_matrix_without_mutating_input(self, p, m, seed, fortran):
        n = 1 << p
        M = np.random.default_rng(seed).standard_normal((n, m))
        if fortran:
            M = np.asfortranarray(M)
        before = M.copy()
        out = fwht(M)
        assert np.array_equal(M, before)
        H = scipy.linalg.hadamard(n) / math.sqrt(n)
        atol = 1e-12 * max(1.0, np.abs(M).max())
        np.testing.assert_allclose(out, H @ M, rtol=0, atol=atol)
        np.testing.assert_allclose(fwht(out), M, rtol=0, atol=atol)

    # the hypothesis test above stays small; these run half, one and
    # eight 1 MB blocks of rows (up to 2^20), where the GEMM factors of
    # the kernel sum in another order than the one-level-at-a-time
    # butterfly, so they agree to rounding
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("blocks", [0.5, 1, 8])
    @pytest.mark.parametrize("fortran", [False, True])
    def test_blocked_equals_unblocked_butterfly(self, m, blocks, fortran):
        n = int(fwht_block_rows(m) * blocks)
        M = np.random.default_rng(40 + m).standard_normal((n, m))
        if fortran:
            M = np.asfortranarray(M)
        before = M.copy()
        out = fwht(M)
        assert np.array_equal(M, before)
        atol = 1e-12 * np.abs(M).max()
        np.testing.assert_allclose(out, reference_fwht(M), rtol=0, atol=atol)

    @pytest.mark.parametrize("n,d", [(4, 2), (64, 2), (2**14, 20)])
    def test_integer_inputs_give_exact_sums(self, n, d):
        # the columns of hadamard_columns are +-1/sqrt(n) to the last bit
        basis = np.zeros((n, d))
        basis[np.arange(d), np.arange(d)] = 1.0
        H = scipy.linalg.hadamard(n)[:, :d] / math.sqrt(n)
        assert np.array_equal(fwht(basis), H)


def float_sign_srht(n_in, r, rng):
    """make_srht with float64 +-1 signs, from the same draws."""
    gen = as_generator(rng)
    n_pad = next_pow2(n_in)
    signs = gen.integers(0, 2, size=n_pad).astype(float) * 2.0 - 1.0
    coords = np.sort(gen.choice(n_pad, size=r, replace=False))
    return SketchOperator(kind=SRHT, n_in=n_in, r=r, n_pad=n_pad, signs=signs, coords=coords)


class TestApplySketch:
    def test_full_srht_with_trivial_signs_is_orthogonal(self):
        n = 16
        op = SketchOperator(
            kind=SRHT, n_in=n, r=n, n_pad=n,
            signs=np.ones(n), coords=np.arange(n),
        )
        gen = np.random.default_rng(2)
        U = random_orthonormal(n, 3, gen)
        assert embedding_defect(apply_sketch(op, U)) <= 1e-10

    def test_random_full_srht_is_orthogonal(self):
        gen = np.random.default_rng(3)
        U = random_orthonormal(32, 4, gen)
        op = make_srht(32, 32, RngStream(4))
        assert embedding_defect(apply_sketch(op, U)) <= 1e-10

    # 24 blocks with a partial last one and padding blocks after it, 16
    # whole blocks, and one partial block smaller than HADAMARD_MIN_BLOCK;
    # the blocked GEMMs sum in another order than the butterfly, so the
    # two agree to rounding, and a rerun agrees to the bit
    @pytest.mark.parametrize("n_in,m", [(3 * 2**15 + 5, 2), (2**16, 3), (1000, 1)])
    def test_srht_bit_identical_to_manual_steps(self, n_in, m):
        op = make_srht(n_in, 300, RngStream(42))
        M = np.random.default_rng(43).standard_normal((n_in, m))
        padded = np.zeros((op.n_pad, m))
        padded[:n_in] = M
        padded *= op.signs[:, None]
        manual = reference_fwht(padded)[op.coords] * math.sqrt(op.n_pad / op.r)
        out = apply_sketch(op, M)
        atol = 1e-12 * np.abs(M).max()
        np.testing.assert_allclose(out, manual, rtol=0, atol=atol)
        assert np.array_equal(apply_sketch(op, M.copy()), out)

    @pytest.mark.parametrize("n_in,r,m", [(3 * 2**15 + 5, 300, 2), (1000, 1024, 3)])
    def test_int8_signs_equal_float_sign_reference(self, n_in, r, m):
        op = make_srht(n_in, r, RngStream(44))
        ref = float_sign_srht(n_in, r, RngStream(44))
        assert op.signs.dtype == np.int8
        assert np.array_equal(op.signs, ref.signs) and np.array_equal(op.coords, ref.coords)
        M = np.random.default_rng(45).standard_normal((n_in, m))
        assert np.array_equal(apply_sketch(op, M), apply_sketch(ref, M))

    def test_dense_sign_entries(self):
        op = make_dense_sign_jlt(10, 7, RngStream(5))
        vals = np.unique(np.abs(op.matrix))
        np.testing.assert_allclose(vals, [1.0 / math.sqrt(7)], atol=1e-15)

    # the GEMMs of a block are as wide as M, and BLAS may sum a narrow
    # product in another order than a wide one, so the columns agree to
    # rounding
    def test_srht_columnwise_consistency_bit_for_bit(self):
        gen = np.random.default_rng(6)
        M = gen.standard_normal((24, 6))
        op = make_srht(24, 16, RngStream(7))
        full = apply_sketch(op, M)
        cols = np.column_stack([apply_sketch(op, M[:, j]) for j in range(6)])
        np.testing.assert_allclose(full, cols, rtol=0, atol=1e-12 * np.abs(M).max())

    @pytest.mark.parametrize("n_in,r", [(24, 16), (32, 5), (1, 1), (100, 128)])
    def test_srht_equals_explicit_matrix(self, n_in, r):
        # sqrt(n_pad / r) * (rows coords of H / sqrt(n_pad)) * diag(signs) * [I; 0]
        op = make_srht(n_in, r, RngStream(11))
        H = scipy.linalg.hadamard(op.n_pad) / math.sqrt(op.n_pad)
        explicit = math.sqrt(op.n_pad / op.r) * (H[op.coords] * op.signs)[:, :n_in]
        M = np.random.default_rng(12).standard_normal((n_in, 3))
        np.testing.assert_allclose(apply_sketch(op, M), explicit @ M, rtol=0, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), min_block=st.sampled_from([1, 2, 8, 32]),
           m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_srht_equals_explicit_matrix_across_block_edges(self, data, min_block, m, seed):
        # a small HADAMARD_MIN_BLOCK puts several blocks into inputs small
        # enough for the explicit matrix; n_in sits on and next to block
        # edges j B - 1, j B, j B + 1, or anywhere
        edge = data.draw(st.integers(1, 4)) * min_block + data.draw(st.integers(-1, 1))
        n_in = max(1, data.draw(st.one_of(st.just(edge), st.integers(1, 150))))
        n_pad = next_pow2(n_in)
        r = data.draw(st.one_of(st.just(n_pad), st.integers(1, n_pad)))
        op = make_srht(n_in, r, RngStream(seed))
        M = np.random.default_rng(seed).standard_normal((n_in, m))
        H = scipy.linalg.hadamard(n_pad) / math.sqrt(n_pad)
        explicit = math.sqrt(n_pad / r) * (H[op.coords] * op.signs)[:, :n_in] @ M
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sketching, "HADAMARD_MIN_BLOCK", min_block)
            out = apply_sketch(op, M)
        np.testing.assert_allclose(out, explicit, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(explicit).max()))

    def test_expected_norm_preserved(self):
        gen = np.random.default_rng(8)
        x = gen.standard_normal(100)
        norms = []
        for i in range(200):
            op = make_srht(100, 64, RngStream(100 + i))
            norms.append(np.linalg.norm(apply_sketch(op, x)) ** 2)
        assert abs(np.mean(norms) / (x @ x) - 1.0) <= 0.05

    def test_dimension_mismatch(self):
        op = make_srht(24, 16, RngStream(9))
        with pytest.raises(DimensionMismatch):
            apply_sketch(op, np.ones((23, 2)))


class TestDefectAndProperties:
    def test_zero_operator_defect_is_one(self):
        assert embedding_defect(np.zeros((8, 3))) == 1.0

    def test_dense_sign_defect_monte_carlo(self):
        # at the 72 ln(n+1) dimension, the half-defect event should hold
        # with frequency at least 1 - 1/n; verified at 100 seeds
        n, d = 256, 4
        r = FastSolverConfig().resolve_r2(n)
        gen = np.random.default_rng(10)
        U = random_orthonormal(n, d, gen)
        hits = sum(
            embedding_defect(apply_sketch(make_dense_sign_jlt(n, r, RngStream(200 + i)), U))
            <= 0.5
            for i in range(100)
        )
        assert hits >= 99

    @pytest.mark.parametrize("maker", ["sign", "srht"])
    def test_embedding_consequences_hold_with_measured_defect(self, maker):
        gen = np.random.default_rng(11)
        n, d = 256, 8
        U = random_orthonormal(n, d, gen)
        for i in range(10):
            if maker == "sign":
                op = make_dense_sign_jlt(n, 128, RngStream(300 + i))
            else:
                op = make_srht(n, 128, RngStream(400 + i))
            report = check_embedding_properties(apply_sketch(op, U))
            if not report["applicable"]:
                continue
            assert report["all_hold"], report

    def test_pinv_factorization_identity(self):
        gen = np.random.default_rng(12)
        X = gen.standard_normal((128, 5))
        svd = thin_svd(Dataset(X=X))
        op = make_srht(128, 64, RngStream(13))
        resid = pinv_factorization_residual(
            apply_sketch(op, X), apply_sketch(op, svd.U), svd.sigma, svd.V
        )
        scale = np.linalg.norm(np.linalg.pinv(apply_sketch(op, X)), ord=2)
        assert resid <= 1e-8 * (1.0 + scale)


class TestPreconditioner:
    def test_identity_sketch_gives_unit_singular_values(self):
        gen = np.random.default_rng(14)
        X = gen.standard_normal((50, 4))
        precond = build_preconditioner(X, make_identity_sketch(50))
        svals = np.linalg.svd(precond.x_times_inverse(X), compute_uv=False)
        assert np.max(np.abs(svals - 1.0)) <= 1e-10

    @pytest.mark.parametrize("kind", ["identity", "sign", "srht"])
    def test_singular_value_inversion_identity(self, kind):
        gen = np.random.default_rng(15)
        X = gen.standard_normal((128, 4))
        svd = thin_svd(Dataset(X=X))
        if kind == "identity":
            op = make_identity_sketch(128)
        elif kind == "sign":
            op = make_dense_sign_jlt(128, 32, RngStream(16))
        else:
            op = make_srht(128, 32, RngStream(17))
        s_pu = np.linalg.svd(apply_sketch(op, svd.U), compute_uv=False)
        precond = build_preconditioner(X, op)
        s_z = np.linalg.svd(precond.x_times_inverse(X), compute_uv=False)
        assert np.max(np.abs(s_z * s_pu[::-1] - 1.0)) <= 1e-8
        kappa_z = s_z[0] / s_z[-1]
        kappa_pu = s_pu[0] / s_pu[-1]
        assert abs(kappa_z / kappa_pu - 1.0) <= 1e-8

    def test_half_defect_bounds_squared_singular_values(self):
        # defect <= 1/2 puts every sigma^2(X R^{-1}) inside [1/2, 2]
        gen = np.random.default_rng(18)
        X = gen.standard_normal((256, 4))
        U = thin_svd(Dataset(X=X)).U
        checked = 0
        for i in range(10):
            op = make_dense_sign_jlt(256, 256, RngStream(500 + i))
            if embedding_defect(apply_sketch(op, U)) > 0.5:
                continue
            svals = np.linalg.svd(
                build_preconditioner(X, op).x_times_inverse(X), compute_uv=False
            )
            assert np.all(svals**2 >= 0.5 - 1e-12)
            assert np.all(svals**2 <= 2.0 + 1e-12)
            checked += 1
        assert checked >= 8

    def test_solves_match_dense_inverse(self):
        # each apply is one product with the cached R^{-1}; against
        # np.linalg.solve on R it may differ by about kappa u, here
        # allowed 1e3 kappa u, also at kappa = 1e10
        gen = np.random.default_rng(19)
        X_small = gen.standard_normal((60, 5))
        n = 2**14
        X_bad = conditioned_design(n, 20, 1e10, np.random.default_rng(30))
        cases = [
            (X_small, make_srht(60, 32, RngStream(20))),
            (X_bad, make_srht(n, FastSolverConfig().resolve_r1(n, 20), RngStream(31))),
        ]
        for X, op in cases:
            precond = build_preconditioner(X, op)
            R = precond.r_matrix()
            tol = 1e3 * np.linalg.cond(R) * np.finfo(float).eps
            d = X.shape[1]
            b = gen.standard_normal((d, 3))
            for got, want in (
                (precond.x_times_inverse(X), np.linalg.solve(R.T, X.T).T),
                (precond.apply_inverse(b), np.linalg.solve(R, b)),
                (precond.apply_inverse(b[:, 0]), np.linalg.solve(R, b[:, 0])),
            ):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= tol * np.abs(want).max()
            np.testing.assert_allclose(
                precond.T @ precond.permutation_matrix(), R, atol=1e-14
            )
            assert not precond.Rinv.flags.writeable

    @pytest.mark.parametrize("kappa", [1e4, 1e10])
    @pytest.mark.parametrize("d", [8, 20])
    def test_pivoted_qr_matches_lapack(self, d, kappa):
        # the pivoted QR of the sketch's triangle against LAPACK geqp3 on
        # the whole sketch: the same pivots, T up to the signs of its rows
        n = 2**14
        X = conditioned_design(n, d, kappa, np.random.default_rng(32))
        op = make_srht(n, FastSolverConfig().resolve_r1(n, d), RngStream(33))
        precond = build_preconditioner(X, op)
        _, T_ref, piv_ref = scipy.linalg.qr(
            apply_sketch(op, X), mode="economic", pivoting=True
        )
        np.testing.assert_array_equal(precond.piv, piv_ref)
        signs = np.sign(np.diag(precond.T)) * np.sign(np.diag(T_ref))
        err = np.abs(precond.T * signs[:, None] - T_ref).max()
        assert err <= 1e-12 * np.abs(T_ref).max()
        diag = np.abs(np.diag(precond.T))
        assert np.all(diag[1:] <= diag[:-1] * (1.0 + 1e-12))
        svals = np.linalg.svd(precond.x_times_inverse(X), compute_uv=False)
        assert svals[0] / svals[-1] <= math.sqrt(3.0)

    def test_rank_deficient_sketch_rejected(self):
        gen = np.random.default_rng(21)
        base = gen.standard_normal((40, 2))
        for X in (
            np.column_stack([base, base[:, 0]]),    # duplicate column
            np.column_stack([base, np.zeros(40)]),  # zero column
        ):
            with pytest.raises(SketchRankDeficient):
                build_preconditioner(X, make_identity_sketch(40))

    def test_sketch_smaller_than_d_rejected(self):
        gen = np.random.default_rng(22)
        X = gen.standard_normal((40, 4))
        with pytest.raises(SketchRankDeficient):
            build_preconditioner(X, make_dense_sign_jlt(40, 3, RngStream(23)))

    def test_inconsistent_factor_shapes_typed(self):
        lower = np.diag([1.0, 2.0, 3.0])
        lower[2, 0] = 1.0
        with_nan = np.diag([1.0, 2.0, 3.0])
        with_nan[0, 2] = np.nan
        for T, piv in (
            (np.eye(3), np.arange(2)),
            (np.zeros((0, 0)), []),
            (1.0, [0]),
            (np.diag([1.0, 2.0, 3.0]), [0, 0, 1]),    # not a permutation
            (np.diag([1.0, 2.0, 3.0]), [0, 1, 3]),
            (lower, np.arange(3)),                    # not upper triangular
            (with_nan, np.arange(3)),
            (np.diag([1.0, np.inf, 3.0]), np.arange(3)),
        ):
            with pytest.raises(InvalidInput):
                Preconditioner(T=T, piv=piv)
        with pytest.raises(SketchRankDeficient):
            Preconditioner(T=np.zeros((3, 3)), piv=np.arange(3))

    def test_bad_conditioned_design_typed(self):
        # a nan kappa passed a plain kappa < 1 check and gave a nan matrix
        for n, d, kappa in ((10, 3, math.nan), (10, 3, math.inf), (10, 3, 0.5), (2, 3, 10.0)):
            with pytest.raises(InvalidConfig):
                conditioned_design(n, d, kappa, np.random.default_rng(0))


class TestApproxLeverage:
    def test_identity_sketches_reproduce_exact_leverage(self):
        gen = np.random.default_rng(24)
        X = gen.standard_normal((80, 6))
        prof = leverage_scores(thin_svd(Dataset(X=X)))
        precond = build_preconditioner(X, make_identity_sketch(80))
        approx = approx_leverage(X, precond, make_identity_sketch(6))
        np.testing.assert_allclose(approx, prof.ell, atol=1e-10)

    def test_row_space_sketch_within_jlt_band(self):
        n, d = 512, 8
        gen = np.random.default_rng(25)
        X = gen.standard_normal((n, d))
        precond = build_preconditioner(X, make_srht(n, 512, RngStream(26)))
        Z = precond.x_times_inverse(X)
        true_sq = np.einsum("ij,ij->i", Z, Z)
        r2 = FastSolverConfig().resolve_r2(n)
        hits = 0
        for i in range(20):
            op2 = make_dense_sign_jlt(d, r2, RngStream(600 + i))
            ratios = approx_leverage(X, precond, op2) / true_sq
            hits += bool(ratios.min() >= 0.5 and ratios.max() <= 1.5)
        assert hits >= 19

    def test_end_to_end_quarter_to_three_band(self):
        # conditional on the column sketch reaching defect <= 1/2, the
        # leverage estimates stay within [1/4, 3] of the exact scores
        n, d = 512, 8
        gen = np.random.default_rng(27)
        X = gen.standard_normal((n, d))
        svd = thin_svd(Dataset(X=X))
        ell = leverage_scores(svd).ell
        r2 = FastSolverConfig().resolve_r2(n)
        good_seeds = 0
        for i in range(20):
            op1 = make_dense_sign_jlt(n, 400, RngStream(700 + i))
            if embedding_defect(apply_sketch(op1, svd.U)) > 0.5:
                continue
            precond = build_preconditioner(X, op1)
            op2 = make_dense_sign_jlt(d, r2, RngStream(800 + i))
            ratios = approx_leverage(X, precond, op2) / ell
            assert ratios.min() >= 0.25 and ratios.max() <= 3.0
            good_seeds += 1
        assert good_seeds >= 19

    # r2 = d = 256 makes a block of 512 rows for each row-space sketch:
    # below one block, exactly one, one plus a row, and several with a
    # partial last one
    @pytest.mark.parametrize("n", [300, 512, 513, 3 * 512 + 7])
    def test_blocked_equals_one_shot_sketch(self, n):
        d = r2 = 256
        assert CACHE_BLOCK_ELEMENTS // r2 == 512
        X = np.random.default_rng(29).standard_normal((n, d))
        precond = build_preconditioner(X, make_srht(n, 512, RngStream(30)))
        XR = precond.x_times_inverse(X)    # every row at once
        for op2 in (
            make_identity_sketch(d),
            make_dense_sign_jlt(d, r2, RngStream(31)),
            make_srht(d, r2, RngStream(32)),
        ):
            S = XR @ apply_sketch(op2, np.eye(d)).T     # (X R^-1) Pi2^T
            ell_hat = approx_leverage(X, precond, op2)
            np.testing.assert_allclose(ell_hat, np.sum(S**2, axis=1), rtol=1e-12)
            assert not ell_hat.flags.writeable
        # the identity sketch is the exact pass of X R^-1, block by block:
        # a one-row block (n = 513) goes through gemv, which sums in
        # another order than the all-rows GEMM
        exact = approx_leverage(X, precond, make_identity_sketch(d))
        blocks = [precond.x_times_inverse(X[i:i + 512]) for i in range(0, n, 512)]
        assert np.array_equal(exact, np.concatenate([np.einsum("ij,ij->i", Z, Z) for Z in blocks]))

        for bad, error in ((np.nan, InvalidInput), (0.0, ZeroRow)):
            X_bad = X.copy()
            X_bad[n // 2] = bad
            with pytest.raises(error):
                approx_leverage(X_bad, precond, make_dense_sign_jlt(d, r2, RngStream(31)))

    def test_dimension_mismatch(self):
        gen = np.random.default_rng(28)
        X = gen.standard_normal((30, 3))
        precond = build_preconditioner(X, make_identity_sketch(30))
        with pytest.raises(DimensionMismatch):
            approx_leverage(X, precond, make_identity_sketch(4))


class TestFastSetupLeverage:
    # d = 32 makes an exact-norm block of 4096 rows: below one block,
    # exactly one, and several with a partial last one
    @pytest.mark.parametrize("n", [1000, 4096, 3 * 4096 + 77])
    def test_exact_row_norms_of_x_r_inverse(self, n):
        d = 32
        assert CACHE_BLOCK_ELEMENTS // d == 4096
        X = np.random.default_rng(44).standard_normal((n, d)) * np.logspace(0, 3, d)
        setup = fast_setup(X, FastSolverConfig(), RngStream(45))
        assert setup.row_op.kind == IDENTITY and setup.row_op.r == d
        Z = setup.precond.x_times_inverse(X)
        np.testing.assert_allclose(
            setup.leverage, np.einsum("ij,ij->i", Z, Z), rtol=1e-12
        )

    def test_int8_signs_equal_float_sign_reference(self, monkeypatch):
        X = conditioned_design(3000, 6, 1e3, np.random.default_rng(53))
        setup = fast_setup(X, FastSolverConfig(), RngStream(54))
        monkeypatch.setattr(kaczmarz, "make_srht", float_sign_srht)
        ref = fast_setup(X, FastSolverConfig(), RngStream(54))
        assert np.array_equal(setup.precond.T, ref.precond.T)
        assert np.array_equal(setup.precond.piv, ref.precond.piv)
        assert np.array_equal(setup.leverage, ref.leverage)

    def test_zero_row_typed(self):
        X = np.random.default_rng(51).standard_normal((200, 5))
        X[[7, 150]] = 0.0
        with pytest.raises(ZeroRow, match=r"zero rows at indices \[\s*7 150\]"):
            fast_setup(X, FastSolverConfig(), RngStream(52))


def test_fast_setup_memory_is_order_n_d():
    # sketching every row at once, as an earlier design did, held a
    # (1009 x 2^20) array, ~8 GB; the set-up must stay O(n d)
    n, d = 2**20, 10
    X = np.random.default_rng(32).standard_normal((n, d))
    tracemalloc.start()
    try:
        setup = fast_setup(X, FastSolverConfig(), RngStream(33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert setup.row_op.kind == IDENTITY and setup.row_op.r == d
    assert setup.leverage.shape == (n,)
    assert np.all(setup.leverage > 0)
    assert peak <= 256 * 2**20


def test_srht_apply_memory_is_order_block_d_plus_r_d():
    # the padded (n_pad x d) copy an SRHT once formed is 80 MB here; the
    # sampled kernel holds two blocks of 4096 x 10 and a few r x 10 arrays
    n, d, r = 2**20, 10, 2876
    X = np.random.default_rng(34).standard_normal((n, d))
    op = make_srht(n, r, RngStream(35))
    assert HADAMARD_MIN_BLOCK == 4096
    tracemalloc.start()
    try:
        out = apply_sketch(op, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (r, d)
    assert peak - out.nbytes <= 8 * 2**20
