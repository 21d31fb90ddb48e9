import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cullsq import (
    INDEX_DTYPE,
    CullsqError,
    Dataset,
    DeficientFit,
    DimensionMismatch,
    FastSolverConfig,
    InvalidInput,
    KaczmarzRun,
    LeverageProfile,
    MissingLabels,
    RankDeficient,
    RowSubset,
    SingularDeficientSystem,
    ThinSvd,
    TooLarge,
    ZeroRow,
    build_preconditioner,
    deficient_solve,
    fast_setup,
    full_solve,
    kaczmarz_exact,
    labels_for_target,
    leverage_scores,
    make_srht,
    rejection_sample_many,
    rejection_sample_subset,
    thin_svd,
)
from cullsq import regression
from cullsq.designs import conditioned_design, make_dataset
from cullsq.regression import LEVERAGE_FLOOR, UNIT_ROUNDOFF, _subset_projection, index_dtype
from cullsq.rng import RngStream
from _helpers import (
    deficient_lstsq,
    hat_matrix_diag,
    normal_equations,
    power_iteration_top_eig,
    random_dataset,
    random_orthonormal,
)


def kernel_norm(svd, rows):
    """||P_A||_2 of one subset, from the batch kernel."""
    return float(_subset_projection(svd, np.asarray(rows)[None])[0])


def kernel_error(data, svd, rows):
    """``(||P_A||_2, opt + increase)`` of one subset from the batch kernel:
    the closed-form full-data error of the regression without its rows."""
    w_star, opt = full_solve(data, svd)
    idx = np.asarray(rows)
    r = data.X @ w_star - data.y
    spec, increase = _subset_projection(svd, idx[None], r[idx][None])
    return float(spec[0]), opt + float(increase[0])


class TestDataset:
    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRow):
            Dataset(X=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))

    def test_zero_row_rejected_rectangular(self):
        with pytest.raises(ZeroRow):
            Dataset(X=np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))

    def test_rows_too_small_to_square_are_not_zero(self):
        # each entry squared underflows to 0 below about 1e-162; thin_svd
        # scales by powers of two, so the scaled X gives the same U
        X = np.random.default_rng(7).standard_normal((50, 3))
        tiny = Dataset(X=X * 1e-170)
        np.testing.assert_allclose(thin_svd(tiny).U, thin_svd(Dataset(X=X)).U, atol=1e-12)

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(ValueError):
            Dataset(X=np.eye(3))

    @pytest.mark.parametrize(
        "X, y",
        [
            (np.ones(4), None),
            (np.eye(3), None),
            (np.array([[1.0], [np.nan], [2.0]]), None),
            (np.ones((3, 1)), np.ones(2)),
            (np.ones((3, 1)), np.array([1.0, np.inf, 0.0])),
        ],
        ids=["one-dim", "square", "nan-in-x", "short-y", "inf-in-y"],
    )
    def test_malformed_input_is_typed(self, X, y):
        with pytest.raises(InvalidInput) as info:
            Dataset(X=X, y=y)
        assert isinstance(info.value, CullsqError)
        assert isinstance(info.value, ValueError)

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            Dataset(X=np.ones((3, 1)), y=np.ones(2))

    def test_arrays_frozen(self):
        data = Dataset(X=np.ones((3, 1)), y=np.ones(3))
        with pytest.raises(ValueError):
            data.X[0, 0] = 2.0

    def test_validation_holds_no_n_by_d_temporary(self):
        # finiteness and zero rows are checked per row block: an n x d
        # bool alone would be X / 8
        X = np.random.default_rng(5).standard_normal((2**16, 20))
        X.setflags(write=False)
        tracemalloc.start()
        try:
            data = Dataset(X=X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.X is X
        assert peak < X.nbytes / 16

    @pytest.mark.parametrize("bad_row", [0, 6553, 2**16 - 1])
    def test_blocked_checks_find_every_row(self, bad_row):
        X = np.ones((2**16, 20))
        X[[1, bad_row]] = 0.0
        with pytest.raises(ZeroRow) as info:
            Dataset(X=X)
        assert str(info.value) == f"zero rows at indices {np.flatnonzero(X[:, 0] == 0.0)}"
        X[bad_row, 3] = np.nan
        with pytest.raises(InvalidInput, match="X contains non-finite entries"):
            Dataset(X=X)


def _adoption_cases(tmp_path):
    """name -> (source array, the X given to Dataset, adopted?)."""
    owned = np.random.default_rng(6).standard_normal((40, 3))
    frozen = owned.copy()
    frozen.setflags(write=False)
    view_of_writable = owned[::2]
    view_of_writable.setflags(write=False)
    buffer = np.frombuffer(bytearray(owned.tobytes()), dtype=float).reshape(40, 3)
    buffer.setflags(write=False)
    np.save(tmp_path / "x.npy", owned)
    r = np.load(tmp_path / "x.npy", mmap_mode="r")
    r_plus = np.load(tmp_path / "x.npy", mmap_mode="r+")
    r_plus.setflags(write=False)
    return {
        "caller-writable": (owned, owned, False),
        "read-only-view-of-writable": (owned, view_of_writable, False),
        "frombuffer-bytearray": (buffer, buffer, False),
        "memmap-r+": (r_plus, r_plus, False),
        "owned-read-only": (frozen, frozen, True),
        "view-of-owned-read-only": (frozen, frozen[::2], True),
        "memmap-r": (r, r, True),
    }


@pytest.mark.parametrize("name", ["caller-writable", "read-only-view-of-writable",
                                  "frombuffer-bytearray", "memmap-r+", "owned-read-only",
                                  "view-of-owned-read-only", "memmap-r"])
def test_dataset_adopts_exactly_what_nothing_can_write(tmp_path, name):
    source, X, adopted = _adoption_cases(tmp_path)[name]
    data = Dataset(X=X)
    assert not data.X.flags.writeable
    assert np.array_equal(data.X, X)
    assert np.shares_memory(data.X, source) is adopted


def test_dataset_adopts_loaded_and_generated_designs(tmp_path, monkeypatch):
    from cullsq import dataio, designs

    X = np.random.default_rng(7).standard_normal((30, 4))
    for name in ("x.csv", "x.npy"):
        dataio.save_matrix(tmp_path / name, X)
        loaded = dataio.load_matrix(tmp_path / name)
        assert Dataset(X=loaded).X is loaded
        dataio.save_vector(tmp_path / f"y{name[1:]}", X[:, 0])
        y = dataio.load_vector(tmp_path / f"y{name[1:]}")
        assert Dataset(X=loaded, y=y).y is y
    made = []
    monkeypatch.setattr(designs, "make_design",
                        lambda *a, make=designs.make_design: made.append(make(*a)) or made[-1])
    for kind in designs.DESIGN_KINDS:
        data = designs.make_dataset(kind, 16, 2, 1.0, RngStream(8))
        assert data.X is made[-1]
    X = conditioned_design(30, 4, 10.0, np.random.default_rng(9))
    assert Dataset(X=X).X is X


class TestThinSvd:
    @pytest.mark.parametrize(
        "U, sigma, V",
        [
            (np.eye(3)[:, :2], np.ones(3), np.eye(2)),
            (np.eye(3)[:, :2], np.array([1.0, 2.0]), np.eye(2)),
            (np.ones((3, 2)), np.array([2.0, 1.0]), np.eye(2)),
            (np.eye(3)[:, :2], np.array([2.0, 1.0]), np.ones((2, 2))),
            # a NaN compares false with every tolerance: each check must fail on it
            (np.array([[np.nan, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.array([2.0, 1.0]), np.eye(2)),
            (np.array([[np.inf, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.array([2.0, 1.0]), np.eye(2)),
            (np.eye(3)[:, :2], np.array([np.inf, 1.0]), np.eye(2)),
            (np.eye(3)[:, :2], np.array([np.nan, 1.0]), np.eye(2)),
            (np.eye(3)[:, :2], np.array([2.0, np.nan]), np.eye(2)),
            (np.eye(3)[:, :2], np.array([2.0, 1.0]), np.array([[np.nan, 0.0], [0.0, 1.0]])),
            (np.eye(3)[:, :2], np.array([2.0, 1.0]), np.array([[1.0, 0.0], [0.0, -np.inf]])),
        ],
        ids=["shapes", "increasing", "u-not-orthonormal", "v-not-orthogonal", "nan-in-u",
             "inf-in-u", "inf-sigma", "nan-first-sigma", "nan-last-sigma", "nan-in-v",
             "inf-in-v"],
    )
    def test_bad_factors_are_typed(self, U, sigma, V):
        with pytest.raises(InvalidInput) as info:
            ThinSvd(U, sigma, V)
        assert isinstance(info.value, CullsqError)

    def test_known_singular_values(self):
        # X^T X = [[2,1],[1,2]]; quadratic-formula oracle gives eigs 3 and 1
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        tr, det = 4.0, 3.0
        disc = math.sqrt(tr * tr - 4.0 * det)
        eig_hi, eig_lo = (tr + disc) / 2.0, (tr - disc) / 2.0
        svd = thin_svd(Dataset(X=X))
        np.testing.assert_allclose(
            svd.sigma, [math.sqrt(eig_hi), math.sqrt(eig_lo)], atol=1e-12
        )
        np.testing.assert_allclose(svd.sigma, [math.sqrt(3.0), 1.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        gen = np.random.default_rng(1)
        data = random_dataset(30, 4, gen)
        svd = thin_svd(data)
        rel = np.linalg.norm((svd.U * svd.sigma) @ svd.V.T - data.X) / np.linalg.norm(data.X)
        assert rel <= 1e-8
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(4))) <= 1e-10
        assert np.max(np.abs(svd.V.T @ svd.V - np.eye(4))) <= 1e-10

    def test_sign_convention_deterministic(self):
        # U's signs follow no rule, but they are a function of X: the same
        # X gives the same bits
        gen = np.random.default_rng(2)
        X = gen.standard_normal((20, 3))
        a = thin_svd(Dataset(X=X))
        b = thin_svd(Dataset(X=X.copy()))
        for mine, theirs in [(a.U, b.U), (a.sigma, b.sigma), (a.V, b.V)]:
            np.testing.assert_array_equal(mine, theirs)

    def test_rank_deficient_rejected(self):
        col = np.linspace(1.0, 2.0, 10)
        X = np.column_stack([col, 2.0 * col])
        with pytest.raises(RankDeficient):
            thin_svd(Dataset(X=X))

    @pytest.mark.parametrize(
        "make",
        [
            lambda gen: gen.standard_normal((50, 4))[:, [0, 1, 2, 1]],
            lambda gen: conditioned_design(500, 6, 1e14, gen),
            lambda gen: conditioned_design(3, 2, 1e14, gen),
        ],
        ids=["duplicated-column", "kappa-1e14", "kappa-1e14-n-3"],
    )
    def test_rank_deficient_past_the_shifted_passes(self, make):
        with pytest.raises(RankDeficient):
            thin_svd(Dataset(X=make(np.random.default_rng(3))))

    def test_failed_cholesky_takes_a_shifted_pass(self, monkeypatch):
        # kappa^2 = 1e22 is far past 1/u: a plain Cholesky of X^T X fails
        failures = []
        cholesky = np.linalg.cholesky

        def spy(G):
            try:
                return cholesky(G)
            except np.linalg.LinAlgError:
                failures.append(G.shape)
                raise

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        X = conditioned_design(2000, 20, 1e11, np.random.default_rng(8))
        svd = thin_svd(Dataset(X=X))
        assert failures
        s0 = np.linalg.svd(X, compute_uv=False)
        assert np.max(np.abs(svd.sigma - s0)) <= 1e-12 * s0[0]
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(20))) <= 1e-13

    @pytest.mark.parametrize(
        "make, passes",
        [
            (lambda: make_dataset("gaussian", 4096, 10, 0.0, RngStream(1)).X, 1),
            (lambda: make_dataset("hadamard-uniform", 1024, 5, 0.0, RngStream(2)).X, 1),
            (lambda: make_dataset("coherent", 4096, 10, 0.0, RngStream(3)).X, 1),
            (lambda: conditioned_design(4096, 10, 2.9, np.random.default_rng(4)), 1),
            (lambda: conditioned_design(4096, 10, 1e4, np.random.default_rng(5)), 2),
        ],
        ids=["gaussian", "hadamard-uniform", "coherent", "kappa-2.9", "kappa-1e4"],
    )
    def test_passes_follow_kappa_not_scale(self, monkeypatch, make, passes):
        # a pass factors one Gram: kappa <= 3 takes one, whatever the scale
        # of the columns (gaussian 4096 x 10 has T near 64 I), and
        # kappa = 1e4 takes CholeskyQR2's two
        X = make()
        factored = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda G: factored.append(G) or cholesky(G))
        thin_svd(Dataset(X=X))
        assert len(factored) == passes

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_dataset("gaussian", 4096, 10, 0.0, RngStream(1)).X,
            lambda: conditioned_design(4096, 10, 1e4, np.random.default_rng(5)),
        ],
        ids=["gaussian", "kappa-1e4"],
    )
    def test_certified_u_is_not_swept(self, monkeypatch, make):
        # d x d data of the last pass prove U orthonormal, so thin_svd
        # forms no U^T U; a caller's factors are still checked in full
        checked = []
        gram = ThinSvd._gram
        monkeypatch.setattr(ThinSvd, "_gram", lambda self: checked.append(self.n) or gram(self))
        svd = thin_svd(Dataset(X=make()))
        assert checked == []
        ThinSvd(svd.U, svd.sigma, svd.V)
        assert checked == [4096]

    def test_failed_certificate_falls_back_to_the_full_check(self, monkeypatch):
        # a last-pass factor off by a relative 1e-8 leaves U^T U about
        # 2e-8 from I: the bound must see it, and the constructor refuse U
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda A: inv(A) * (1.0 + 1e-8))
        X = make_dataset("gaussian", 4096, 10, 0.0, RngStream(1)).X
        assert regression._cholesky_qr_svd(X)[-1] > regression.ORTHONORMAL_TOL
        with pytest.raises(InvalidInput, match="U columns are not orthonormal"):
            thin_svd(Dataset(X=X))

    def test_memory_beside_x_is_order_n(self):
        # a gaussian X takes one pass, so the basis is X itself and the
        # factor d x d: thin_svd + leverage_scores hold a row block, the
        # squared row norms and ell beside X, and
        # kaczmarz_exact adds the CDF of its weights and its K x d rows
        n, d = 2**16, 20
        X = np.random.default_rng(31).standard_normal((n, d))
        data = Dataset(X=X, y=X @ np.ones(d))
        tracemalloc.start()
        try:
            profile = leverage_scores(thin_svd(data))
            setup_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            svd = thin_svd(data)
            K = labels_for_target(n, d, svd.condition_number, "exact")
            run = kaczmarz_exact(svd, data.y, K, RngStream(32))
            solve_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.n == n and run.iterations == K
        assert setup_peak < data.X.nbytes / 4
        assert solve_peak < data.X.nbytes / 4 + K * d * 8

    def test_rows_are_the_basis_times_the_factor(self):
        # rows(idx) takes any index shape; at kappa = 1e4 the basis is the
        # first pass's product, held read-only, and a caller's U is its
        # own basis with no factor
        X = conditioned_design(500, 4, 1e4, np.random.default_rng(33))
        svd = thin_svd(Dataset(X=X))
        assert svd.basis is not X and svd.basis.shape == X.shape
        assert not svd.basis.flags.writeable
        idx = np.array([[3, 0, 499], [7, 7, 1]])
        expected = svd.basis[idx.reshape(-1)] @ svd.factor
        np.testing.assert_array_equal(svd.rows(idx), expected.reshape(2, 3, 4))
        held = ThinSvd(svd.U, svd.sigma, svd.V)
        assert held.factor is None
        np.testing.assert_array_equal(held.rows(idx), svd.U[idx])

    def test_keeps_its_own_u_and_copies_a_callers(self):
        data = random_dataset(40, 5, np.random.default_rng(29))
        svd = thin_svd(data)
        assert svd.basis is data.X
        assert not svd.U.flags.writeable
        U, sigma, V = svd.U.copy(), svd.sigma.copy(), svd.V.copy()
        held = ThinSvd(U, sigma, V)
        for mine, theirs in [(held.U, U), (held.sigma, sigma), (held.V, V)]:
            assert not np.shares_memory(mine, theirs)
            assert not mine.flags.writeable
            assert theirs.flags.writeable

    def test_condition_numbers(self):
        gen = np.random.default_rng(30)
        svd = thin_svd(random_dataset(40, 5, gen))
        kappa = svd.condition_number
        assert kappa >= 1.0


@st.composite
def conditioned_problems(draw, kappas, max_n):
    """X with kappa drawn from ``kappas``, n from d + 1 to ``max_n``,
    entries scaled by 2^e."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(d + 1, max_n))
    kappa = draw(kappas)
    e = draw(st.integers(-500, 500))
    X = conditioned_design(n, d, kappa, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return X * 2.0**e, kappa, e


class TestThinSvdProperties:
    # kappa up to just under 1e12: sigma_d / sigma_1 at RANK_TOL is a tie
    # with the tolerance
    @settings(max_examples=400, deadline=None)
    @given(conditioned_problems(st.floats(0.0, 11.99).map(lambda x: 10.0**x), 300))
    def test_matches_numpy_svd(self, problem):
        self.check_against_numpy(*problem)

    # kappa either side of 3, where one Cholesky QR pass gives way to two
    @settings(max_examples=400, deadline=None)
    @given(conditioned_problems(st.floats(1.0, 4.0), 2048))
    @example((conditioned_design(2048, 8, 3.0, np.random.default_rng(11)) * 2.0**500, 3.0, 500))
    def test_matches_numpy_svd_about_the_one_pass_limit(self, problem):
        self.check_against_numpy(*problem)

    # the bound in place of the n x d check: never below the measured
    # error, and under the tolerance wherever CholeskyQR2 is accurate
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(conditioned_problems(st.floats(0.0, 11.99).map(lambda x: 10.0**x), 300),
                     conditioned_problems(st.floats(1.0, 4.0), 2048)))
    @example((conditioned_design(2048, 8, 3.0, np.random.default_rng(11)) * 2.0**500, 3.0, 500))
    @example((conditioned_design(300, 8, 10.0**11.99, np.random.default_rng(12)) * 2.0**-500,
              10.0**11.99, -500))
    def test_orthonormality_bound_holds(self, problem):
        # beta covers U's rows formed by the blocked sweep, by a gather in
        # any order and one row at a time, whose products may round
        # differently
        X, kappa, _ = problem
        n, d = X.shape
        Q, M, sigma, Vt, beta = regression._cholesky_qr_svd(X)
        svd = ThinSvd._factored(Q, M, sigma, Vt.T, check_u=False)
        perm = np.random.default_rng(n * d).permutation(n)
        for U in (svd.U, svd.rows(perm), np.stack([svd.rows(i) for i in perm])):
            assert beta >= np.max(np.abs(U.T @ U - np.eye(d)))
        if kappa <= 1e8:
            assert beta <= regression.ORTHONORMAL_TOL

    @staticmethod
    def check_against_numpy(X, kappa, e):
        d = X.shape[1]
        svd = thin_svd(Dataset(X=X))
        # compare at unit scale: multiplying by 2^-e is exact
        Xs = X * 2.0**-e
        U0, s0, _ = np.linalg.svd(Xs, full_matrices=False)
        sigma = svd.sigma * 2.0**-e
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(d))) <= 1e-13
        back = (svd.U * sigma) @ svd.V.T
        assert np.linalg.norm(back - Xs) <= 1e-12 * np.linalg.norm(s0)
        assert np.max(np.abs(sigma - s0)) <= 1e-12 * s0[0]
        # leverage moves by O(u kappa) under a backward-stable perturbation
        ell, ell0 = leverage_scores(svd).ell, np.einsum("ij,ij->i", U0, U0)
        assert np.max(np.abs(ell - np.maximum(ell0, LEVERAGE_FLOOR))) <= 1e-13 + 2e-15 * kappa

class TestSignEquivariance:
    # negating a column of U and of V is exact, and every step after it
    # (gemv, gesv's pivots, eigvalsh, the Kaczmarz update, w = V S^-1 v)
    # carries the sign through, so no output may move by a bit
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 5), extra=st.integers(3, 40), seed=st.integers(0, 2**16),
           flips=st.lists(st.booleans(), min_size=5, max_size=5))
    def test_flipped_columns_give_the_same_bits(self, d, extra, seed, flips):
        n = 2 * d + extra
        k = max(1, n // (4 * d))
        data = make_dataset("gaussian", n, d, 1.0, RngStream(seed))
        base = thin_svd(data)
        D = np.where(flips[:d], -1.0, 1.0)
        plain = ThinSvd(base.U, base.sigma, base.V)
        flipped = ThinSvd(base.U * D, base.sigma, base.V * D)
        subset = RowSubset(np.arange(0, n, max(1, n // k))[:k])
        subsets = np.sort(np.random.default_rng(seed).random((9, n)).argsort(axis=1)[:, :k], axis=1)
        y = data.require_labels()
        runs = []
        for svd in (plain, flipped):
            w_star, _ = full_solve(data, svd)
            resid = data.X @ w_star - y
            profile = leverage_scores(svd)
            draws, stats = rejection_sample_many(svd, profile, k, 3, RngStream(seed, 1))
            run = kaczmarz_exact(svd, y, 25, RngStream(seed, 2))
            runs.append([
                w_star, deficient_solve(data, subset, svd).w_minus, profile.ell,
                *_subset_projection(svd, subsets, resid[subsets]), draws,
                np.array([stats.proposals]), run.w, run.sampled_indices,
            ])
        for mine, theirs in zip(*runs):
            np.testing.assert_array_equal(mine, theirs)


def test_no_library_path_forms_all_of_u(monkeypatch, capsys):
    # every reader forms the rows it needs from the basis and factor;
    # verify kaczmarz at kappa = 1e10 takes thin_svd's shifted passes
    from cullsq.cli import main
    from cullsq.experiments import EXPERIMENT_NAMES

    def refuse(self):
        raise AssertionError("a library path formed all of U")

    monkeypatch.setattr(ThinSvd, "U", property(refuse))
    n, d, k = 600, 4, 6
    data = make_dataset("gaussian", n, d, 1.0, RngStream(40))
    svd = thin_svd(data)
    profile = leverage_scores(svd)
    draws, _ = rejection_sample_many(svd, profile, k, 5, RngStream(41))
    subset, _ = rejection_sample_subset(svd, profile, k, RngStream(42))
    deficient_solve(data, subset, svd)
    full_solve(data, svd)
    kaczmarz_exact(svd, data.y, 50, RngStream(43))
    for argv in [["verify", name] for name in EXPERIMENT_NAMES] + [
            ["verify", "kaczmarz", "--kappa", "1e10"]]:
        assert main(argv) == 0, argv
    capsys.readouterr()


class TestLeverageScores:
    def test_symmetric_orthonormal_column(self):
        # U = (1/sqrt 2, 1/sqrt 2): both rows carry leverage 1/2
        X = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
        prof = leverage_scores(thin_svd(Dataset(X=X)))
        np.testing.assert_allclose(prof.ell, [0.5, 0.5], atol=1e-12)

    def test_symmetric_two_rows(self):
        X = np.array([[1.0], [1.0], [2.0]])
        prof = leverage_scores(thin_svd(Dataset(X=X)))
        np.testing.assert_allclose(prof.ell, [1 / 6, 1 / 6, 4 / 6], atol=1e-12)

    def test_hadamard_rows_uniform(self):
        from cullsq.sketching import hadamard_columns

        U = hadamard_columns(4, 2)
        prof = leverage_scores(thin_svd(Dataset(X=U)))
        np.testing.assert_allclose(prof.ell, 0.5 * np.ones(4), atol=1e-12)
        assert abs(prof.ell.sum() - 2.0) <= 1e-8

    def test_matches_hat_matrix_diagonal(self):
        gen = np.random.default_rng(3)
        X = gen.standard_normal((6, 2))
        prof = leverage_scores(thin_svd(Dataset(X=X)))
        np.testing.assert_allclose(prof.ell, hat_matrix_diag(X), atol=1e-10)

    def test_summary_quantities(self):
        gen = np.random.default_rng(4)
        for _ in range(20):
            data = random_dataset(25, 3, gen)
            prof = leverage_scores(thin_svd(data))
            n, d = 25, 3
            assert abs(prof.ell.sum() - d) <= 1e-8
            assert prof.coherence_mu >= n / d - 1e-10
            assert prof.z1 >= (n - d) ** 2 / d - 1e-8
            np.testing.assert_allclose(
                prof.coherence_mu, np.mean(1.0 / prof.ell), atol=1e-12
            )

    def test_z1_tight_at_uniform_leverage(self):
        from cullsq.sketching import hadamard_columns

        n, d = 16, 2
        prof = leverage_scores(thin_svd(Dataset(X=hadamard_columns(n, d))))
        assert abs(prof.z1 - (n - d) ** 2 / d) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=1, max_size=50))
    def test_summaries_are_derived_from_ell_alone(self, scores):
        # ell is the one stored field: mu and z1 are its formulas, bit for bit
        ell = np.array(scores)
        prof = LeverageProfile(ell)
        assert prof.coherence_mu == float(np.mean(1.0 / ell))
        assert prof.z1 == float(np.sum((1.0 - ell) ** 2 / ell))
        assert not prof.ell.flags.writeable


class TestFullSolve:
    def test_consistent_recovers_weights(self):
        gen = np.random.default_rng(5)
        X = gen.standard_normal((30, 4))
        w = gen.standard_normal(4)
        y = X @ w
        w_star, opt = full_solve(Dataset(X=X, y=y))
        np.testing.assert_allclose(w_star, w, atol=1e-8)
        assert opt <= 1e-16 * float(y @ y)

    def test_orthogonal_labels_give_zero_weights(self):
        gen = np.random.default_rng(6)
        X = gen.standard_normal((10, 2))
        U, _ = np.linalg.qr(X)
        y = gen.standard_normal(10)
        y -= U @ (U.T @ y)  # project out the column space
        w_star, opt = full_solve(Dataset(X=X, y=y))
        np.testing.assert_allclose(w_star, np.zeros(2), atol=1e-10)
        np.testing.assert_allclose(opt, float(y @ y), rtol=1e-10)

    def test_matches_normal_equations(self):
        gen = np.random.default_rng(7)
        data = random_dataset(50, 5, gen)
        w_star, _ = full_solve(data)
        np.testing.assert_allclose(
            w_star, normal_equations(data.X, data.y), atol=1e-8
        )

    def test_residual_orthogonal_to_columns(self):
        gen = np.random.default_rng(8)
        data = random_dataset(40, 6, gen)
        w_star, _ = full_solve(data)
        r = data.X @ w_star - data.y
        bound = 1e-8 * np.linalg.norm(data.X) * np.linalg.norm(r)
        assert np.max(np.abs(data.X.T @ r)) <= bound

    def test_missing_labels(self):
        with pytest.raises(MissingLabels):
            full_solve(Dataset(X=np.random.default_rng(9).standard_normal((5, 2))))


class TestPartialProjectionNorm:
    def test_single_row_equals_leverage(self):
        gen = np.random.default_rng(10)
        data = random_dataset(12, 3, gen)
        svd = thin_svd(data)
        prof = leverage_scores(svd)
        for i in range(12):
            got = kernel_norm(svd, [i])
            np.testing.assert_allclose(got, prof.ell[i], atol=1e-12)

    def test_all_rows_give_one(self):
        gen = np.random.default_rng(11)
        data = random_dataset(9, 2, gen)
        svd = thin_svd(data)
        got = kernel_norm(svd, range(9))
        assert abs(got - 1.0) <= 1e-10

    def test_matches_power_iteration_oracle(self):
        gen = np.random.default_rng(12)
        U = random_orthonormal(8, 2, gen)
        svd = thin_svd(Dataset(X=U))
        UA = svd.U[[0, 1]]
        oracle = power_iteration_top_eig(UA @ UA.T)
        got = kernel_norm(svd, [0, 1])
        np.testing.assert_allclose(got, oracle, atol=1e-10)

    def test_gram_side_agreement(self):
        # k > d exercises the d x d side; compare with the k x k side oracle
        gen = np.random.default_rng(13)
        data = random_dataset(20, 3, gen)
        svd = thin_svd(data)
        UA = svd.U[:8]
        oracle = np.linalg.eigvalsh(UA @ UA.T)[-1]
        np.testing.assert_allclose(kernel_norm(svd, range(8)), oracle, atol=1e-12)


class TestDeficientSolve:
    def test_consistent_data_keeps_optimum(self):
        gen = np.random.default_rng(14)
        X = gen.standard_normal((25, 4))
        w = gen.standard_normal(4)
        data = Dataset(X=X, y=X @ w)
        fit = deficient_solve(data, RowSubset.of([2, 5, 7]))
        np.testing.assert_allclose(fit.w_minus, w, atol=1e-10)
        assert fit.full_error <= 1e-12

    def test_matches_direct_oracle(self):
        gen = np.random.default_rng(15)
        data = random_dataset(50, 5, gen)
        sub = RowSubset.of([1, 17, 33])
        fit = deficient_solve(data, sub)
        w_direct, err_direct = deficient_lstsq(data.X, data.y, sub.array())
        np.testing.assert_allclose(fit.w_minus, w_direct, atol=1e-8)
        np.testing.assert_allclose(fit.full_error, err_direct, rtol=1e-8)
        assert fit.error_increase >= -1e-8

    @pytest.mark.parametrize("k_above_d", [False, True], ids=["k<=d", "k>d"])
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 6), st.data(),
           st.sampled_from(["gaussian", "coherent"]), st.integers(0, 2**32 - 1))
    def test_refit_matches_lstsq_on_kept_rows(self, k_above_d, d, extra, draw, design, seed):
        # n - k > d keeps generic subsets off rank loss
        n = 2 * d + 2 + extra if k_above_d else d + 2 + extra
        k = draw.draw(st.integers(d + 1, n - d - 1) if k_above_d
                      else st.integers(1, min(d, n - d - 1)))
        gen = np.random.default_rng(seed)
        data = make_dataset(design, n, d, 1.0, gen)
        svd = thin_svd(data)
        rows = np.sort(gen.choice(n, size=k, replace=False))
        spec = kernel_norm(svd, rows)
        if spec >= 1.0 - 1e-6:
            return
        fit = deficient_solve(data, RowSubset.of(rows), svd)
        w_ref, _ = deficient_lstsq(data.X, data.y, rows)
        # the d x d solve with I - G_A amplifies rounding by 1 / (1 - ||P_A||);
        # over ~18,000 instances of this domain the largest relative error
        # was 1.4e3 u / (1 - ||P_A||), u the unit roundoff
        tol = max(1e-8, 1e4 * UNIT_ROUNDOFF / (1.0 - spec))
        assert np.linalg.norm(fit.w_minus - w_ref) <= tol * np.linalg.norm(w_ref)
        resid = data.X @ fit.w_minus - data.y
        assert fit.full_error == pytest.approx(resid @ resid, rel=1e-11)
        _, opt = full_solve(data, svd)
        assert abs(fit.error_increase - (fit.full_error - opt)) <= 1e-11 * fit.full_error

    @pytest.mark.parametrize("rows", [20, 40])
    def test_svd_of_another_shape_is_typed(self, rows):
        gen = np.random.default_rng(24)
        data = random_dataset(30, 3, gen)
        other = thin_svd(random_dataset(rows, 3, gen))
        with pytest.raises(DimensionMismatch, match=rf"\({rows}, 3\).*\(30, 3\)"):
            full_solve(data, other)
        with pytest.raises(DimensionMismatch, match=rf"\({rows}, 3\).*\(30, 3\)"):
            deficient_solve(data, RowSubset.of([1, 2]), other)

    def test_rank_destroying_subset_rejected(self):
        # row 0 alone carries the first coordinate, so its leverage is 1
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        data = Dataset(X=X, y=y)
        prof = leverage_scores(thin_svd(data))
        assert prof.ell[0] >= 1.0 - 1e-10
        with pytest.raises(SingularDeficientSystem):
            deficient_solve(data, RowSubset.of([0]))


class TestLeaveAOutError:
    def test_consistent_data_gives_optimum(self):
        gen = np.random.default_rng(16)
        X = gen.standard_normal((20, 3))
        w = gen.standard_normal(3)
        data = Dataset(X=X, y=X @ w)
        _, err = kernel_error(data, thin_svd(data), [4, 9])
        assert err <= 1e-12

    def test_single_row_closed_form(self):
        gen = np.random.default_rng(17)
        data = random_dataset(30, 3, gen)
        svd = thin_svd(data)
        prof = leverage_scores(svd)
        w_star, opt = full_solve(data, svd)
        res = data.X @ w_star - data.y
        for i in (0, 7, 19):
            expected = opt + prof.ell[i] / (1.0 - prof.ell[i]) ** 2 * res[i] ** 2
            _, got = kernel_error(data, svd, [i])
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_matches_deficient_solve(self):
        gen = np.random.default_rng(18)
        data = random_dataset(40, 4, gen)
        svd = thin_svd(data)
        _, closed = kernel_error(data, svd, [3, 12])
        direct = deficient_solve(data, RowSubset.of([3, 12]), svd).full_error
        assert abs(closed - direct) <= 1e-8 * (1.0 + direct)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(8, 39), st.integers(1, 6), st.integers(1, 4),
           st.sampled_from(["gaussian", "coherent"]), st.integers(0, 2**32 - 1))
    # 1 - ||P_A|| = 2.3e-6: against exact rational least squares on the
    # kept rows the closed form is 1.8e-8 and the direct refit 4.4e-9 off
    # (relative), so a fixed 1e-8 gap bound fails correct code here
    @example(n=19, d=3, k=1, design="coherent", seed=583)
    def test_identity_over_random_instances(self, n, d, k, design, seed):
        k = min(k, n - d)
        gen = np.random.default_rng(seed)
        data = make_dataset(design, n, d, 1.0, gen)
        svd = thin_svd(data)
        rows = np.sort(gen.choice(n, size=k, replace=False))
        spec, closed = kernel_error(data, svd, rows)
        if spec >= 1.0 - 1e-6:
            return
        direct = deficient_solve(data, RowSubset.of(rows), svd).full_error
        # both sides solve with I - G_A, whose condition number is
        # 1 / (1 - ||P_A||), so each carries a relative error of order
        # u / (1 - ||P_A||) (u the unit roundoff), on top of the 1e-8 floor;
        # over ~20,000 instances of this domain the largest gap seen was
        # 2.4e3 u / (1 - ||P_A||) relative, so 1e4 leaves a factor of 4
        tol = max(1e-8, 1e4 * UNIT_ROUNDOFF / (1.0 - spec))
        assert abs(closed - direct) <= tol * (1.0 + direct)

    def test_never_below_optimal(self):
        gen = np.random.default_rng(20)
        data = random_dataset(30, 3, gen)
        svd = thin_svd(data)
        _, opt = full_solve(data, svd)
        for _ in range(50):
            _, err = kernel_error(data, svd, np.sort(gen.choice(30, size=2, replace=False)))
            assert err >= opt - 1e-10

    def test_q_form_equivalence(self):
        # (I-P)^{-1} P (I-P)^{-1} == (I-P)^{-2} - (I-P)^{-1}
        gen = np.random.default_rng(21)
        data = random_dataset(25, 4, gen)
        svd = thin_svd(data)
        sub = RowSubset.of([2, 6, 11])
        UA = svd.U[sub.array()]
        P = UA @ UA.T
        M = np.linalg.inv(np.eye(3) - P)
        q1 = M @ P @ M
        q2 = M @ M - M
        assert np.max(np.abs(q1 - q2)) <= 1e-10


@st.composite
def subset_problems(draw):
    d = draw(st.integers(1, 6))
    n = draw(st.integers(d + 2, 30))
    k = draw(st.integers(1, min(5, n - d)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = random_dataset(n, d, gen)
    subsets = np.sort(
        np.array([gen.choice(n, k, replace=False) for _ in range(4)]), axis=1
    )
    return data, subsets


class TestClosedFormProperties:
    @settings(max_examples=300, deadline=None)
    @given(subset_problems())
    def test_closed_form_matches_lstsq_refit_and_batch(self, problem):
        data, subsets = problem
        svd = thin_svd(data)
        w_star, opt = full_solve(data, svd)
        resid = data.X @ w_star - data.y
        specs, batch = _subset_projection(svd, subsets, resid[subsets])
        for rows, spec, increase in zip(subsets, specs, batch):
            assert 0.0 <= spec <= 1.0
            if spec >= 1.0 - 1e-6:
                continue
            one_spec, closed = kernel_error(data, svd, rows)
            _, direct = deficient_lstsq(data.X, data.y, rows)
            np.testing.assert_allclose(closed, direct, rtol=1e-8)
            np.testing.assert_allclose(one_spec, spec, rtol=1e-12)
            np.testing.assert_allclose(opt + increase, closed, rtol=1e-12)

    def test_leverage_one_row_is_singular_everywhere(self):
        # row 0 alone carries the first coordinate, so its leverage is 1
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 1.0]])
        data = Dataset(X=X, y=np.array([1.0, 2.0, 3.0, 4.0, 1.0]))
        svd = thin_svd(data)
        w_star, _ = full_solve(data, svd)
        with pytest.raises(SingularDeficientSystem):
            deficient_solve(data, RowSubset.of([0, 2]), svd)
        subsets = np.array([[0, 2], [1, 3]])
        resid = data.X @ w_star - data.y
        spec, increase = _subset_projection(svd, subsets, resid[subsets])
        assert spec[0] >= 1.0 - 1e-10 and increase[0] == 0.0
        assert spec[1] < 1.0 and increase[1] > 0.0


    @pytest.mark.parametrize("block", [1, 3])
    def test_increases_in_blocks_equal_one_block(self, monkeypatch, block):
        # row 0 alone carries the first coordinate: subsets holding it are
        # singular, so zero and nonzero increases alternate across blocks
        gen = np.random.default_rng(23)
        n, d, k = 40, 3, 4
        X = gen.standard_normal((n, d))
        X[1:, 0] = 0.0
        data = Dataset(X=X, y=gen.standard_normal(n))
        svd = thin_svd(data)
        w_star, _ = full_solve(data, svd)
        subsets = np.sort(
            np.array([gen.choice(n, k, replace=False) for _ in range(37)]), axis=1
        )
        subsets[::4, 0] = 0
        resid = (data.X @ w_star - data.y)[subsets]
        spec, whole = _subset_projection(svd, subsets, resid)
        assert np.any(whole == 0.0) and np.any(whole > 0.0)
        monkeypatch.setattr(regression, "SPEC_BLOCK_ELEMENTS", block * k * d)
        spec_b, blocked = _subset_projection(svd, subsets, resid)
        assert np.array_equal(spec_b, spec)
        assert np.array_equal(blocked, whole)


class TestTypedSubsetErrors:
    @pytest.fixture
    def data(self):
        return random_dataset(10, 2, np.random.default_rng(22))

    def test_deficient_solve_index_out_of_range(self, data):
        with pytest.raises(InvalidInput):
            deficient_solve(data, RowSubset.of([3, 10]))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RowSubset(()),
            lambda: RowSubset((2, 2)),
            lambda: RowSubset((3, 1)),
            lambda: RowSubset.of([-1, 4]),
            lambda: RowSubset.of([1.0, 2.7]),
            lambda: RowSubset.of([True, False]),
            lambda: RowSubset(np.array([[1, 2]])),
        ],
        ids=["empty", "repeated", "decreasing", "negative", "float", "bool", "two-dim"],
    )
    def test_bad_row_subset(self, make):
        with pytest.raises(InvalidInput):
            make()

    def test_same_rows_are_equal_and_hash_equal(self):
        a = RowSubset.of([7, 2, 5])
        b = RowSubset(np.array([2, 5, 7], dtype=np.uint64))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != RowSubset.of([2, 5]) and a != RowSubset.of([2, 5, 8])
        # one stored array: sorted, INDEX_DTYPE, read-only, and array() is it
        assert a.indices.dtype == INDEX_DTYPE and a.indices.tolist() == [2, 5, 7]
        assert a.array() is a.indices and not a.indices.flags.writeable
        assert a.k == 3

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Dataset(X=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), y=np.ones(3)),
            lambda: ThinSvd(U=np.eye(3)[:, :2], sigma=np.array([2.0, 1.0]), V=np.eye(2)),
            lambda: LeverageProfile(np.array([0.5, 0.25])),
            lambda: DeficientFit(w_minus=np.array([1.0, 2.0]), full_error=1.0, error_increase=0.5),
            lambda: KaczmarzRun(w=np.array([1.0, 2.0]), sampled_indices=np.array([0, 1])),
            lambda: make_srht(64, 16, RngStream(1)),
            lambda: build_preconditioner(conditioned_design(64, 4, 10.0, np.random.default_rng(2)),
                                         make_srht(64, 16, RngStream(1))),
            lambda: fast_setup(conditioned_design(64, 4, 10.0, np.random.default_rng(2)),
                               FastSolverConfig(), RngStream(1)),
        ],
        ids=["Dataset", "ThinSvd", "LeverageProfile", "DeficientFit", "KaczmarzRun",
             "SketchOperator", "Preconditioner", "FastSetup"],
    )
    def test_array_holders_compare_and_hash_by_identity(self, make):
        # a field-wise == would raise numpy's ambiguous-truth error on the arrays
        a, b = make(), make()
        assert a == a and a != b and hash(a) == hash(a) and len({a, b, a}) == 2

    def test_index_guard_at_the_int32_limit(self):
        # no array is sized by n: the guard reads n or the largest index only
        limit = 2**31 - 1
        assert index_dtype(limit) == INDEX_DTYPE == np.int32
        with pytest.raises(TooLarge, match="2\\^31 - 1"):
            index_dtype(limit + 1)
        assert RowSubset((0, limit - 1)).array().tolist() == [0, limit - 1]
        with pytest.raises(TooLarge):
            RowSubset((0, limit))

    @pytest.mark.parametrize("ell", [[0.5, 0.0], [0.5, 1.5], [[0.5]], [0.5, np.nan]])
    def test_bad_leverage_profile(self, ell):
        with pytest.raises(InvalidInput):
            LeverageProfile(np.array(ell))
