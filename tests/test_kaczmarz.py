import math

import numpy as np
import pytest

from cullsq import (
    INDEX_DTYPE,
    CullsqError,
    Dataset,
    FastSolverConfig,
    InvalidInput,
    InvalidK,
    InvalidRng,
    KaczmarzRun,
    RngStream,
    approx_leverage,
    build_preconditioner,
    fast_setup,
    full_solve,
    kaczmarz_exact,
    kaczmarz_fast,
    labels_for_target,
    make_identity_sketch,
    thin_svd,
)
from cullsq.designs import conditioned_design
from cullsq.kaczmarz import _kaczmarz
from cullsq.regression import _as_design
from cullsq.rng import as_generator


def kaczmarz_row_norm(X, y, K, rng, w_star=None):
    """The unpreconditioned baseline on the library's update loop: rows of
    X sampled by squared norm and w = v, at a rate governed by the squared
    condition number."""
    X = _as_design(X)
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise InvalidInput(f"y must have shape ({X.shape[0]},)")
    return _kaczmarz(np.einsum("ij,ij->i", X, X), lambda idx: X[idx], y, K, as_generator(rng),
                     lambda vs: vs, w_star, w_star)


def consistent_instance(n, d, seed):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    w0 = gen.standard_normal(d)
    return Dataset(X=X, y=X @ w0), w0


def replay_traces(rows, rhs, w_of_v, v_star, w_star):
    """Per-step reference: squared v- and w-space errors of the projective
    updates, mapping each iterate to w-space on its own."""
    v = np.zeros(rows.shape[1])
    v_trace, w_trace = [], []
    for t in range(rows.shape[0] + 1):
        if t:
            q = rows[t - 1]
            v = v - q * ((q @ v - rhs[t - 1]) / (q @ q))
        v_trace.append(np.sum((v - v_star) ** 2))
        w_trace.append(np.sum((w_of_v(v) - w_star) ** 2))
    return np.array(v_trace), np.array(w_trace)


class TestLabelsForTarget:
    def test_reference_value(self):
        # d ln(n kappa^2 / d) = 10 ln(100) = 46.05... -> 47
        assert labels_for_target(1000, 10, 1.0, "exact") == 47

    def test_unit_boundary(self):
        assert labels_for_target(math.e, 1, 1.0, "exact") == 1

    def test_logarithmic_kappa_dependence(self):
        base = labels_for_target(10_000, 6, 10.0, "exact")
        doubled = labels_for_target(10_000, 6, 20.0, "exact")
        assert doubled - base <= 6 * math.log(4.0) + 1

    def test_fast_variant_niner(self):
        exact = labels_for_target(1000, 4, 1.0, "exact")
        fast = labels_for_target(1000, 4, 1.0, "fast")
        assert fast == math.ceil(9 * 4 * math.log(1000 / 4))
        assert fast > exact

    def test_requires_kappa_at_least_one(self):
        with pytest.raises(ValueError):
            labels_for_target(100, 2, 0.5)


class TestKaczmarzExact:
    def test_single_projection_solves_sampled_equation(self):
        data, w0 = consistent_instance(20, 3, 0)
        svd = thin_svd(data)
        run = kaczmarz_exact(svd, data.y, 1, RngStream(1))
        j = int(run.sampled_indices[0])
        # one update from v=0 lands exactly on the sampled hyperplane
        assert abs(data.X[j] @ run.w - data.y[j]) <= 1e-12 * max(1.0, abs(data.y[j]))

    @pytest.mark.parametrize("K", [1, 5, 37])
    def test_last_sampled_equation_satisfied(self, K):
        data, _ = consistent_instance(25, 4, 2)
        svd = thin_svd(data)
        run = kaczmarz_exact(svd, data.y, K, RngStream(K))
        j = int(run.sampled_indices[-1])
        assert abs(data.X[j] @ run.w - data.y[j]) <= 1e-12 * max(1.0, abs(data.y[j]))

    def test_projection_invariant_every_step(self):
        # replay the update recurrence and check each sampled residual
        data, _ = consistent_instance(30, 3, 3)
        svd = thin_svd(data)
        run = kaczmarz_exact(svd, data.y, 50, RngStream(4))
        ell = np.einsum("ij,ij->i", svd.U, svd.U)
        v = np.zeros(3)
        for j in run.sampled_indices:
            u = svd.U[j]
            v = v - u * ((u @ v - data.y[j]) / ell[j])
            assert abs(u @ v - data.y[j]) <= 1e-12
        np.testing.assert_allclose(svd.V @ (v / svd.sigma), run.w, atol=1e-12)

    def test_converges_to_true_weights(self):
        data, w0 = consistent_instance(200, 4, 5)
        svd = thin_svd(data)
        K = labels_for_target(200, 4, svd.condition_number, "exact")
        errors = []
        for i in range(100):
            run = kaczmarz_exact(svd, data.y, K, RngStream(6).substream(i))
            errors.append(float((run.w - w0) @ (run.w - w0)))
        bound = 1.5 * (4 / 200) * float(w0 @ w0)
        assert np.mean(errors) <= bound

    def test_per_step_contraction(self):
        data, w0 = consistent_instance(80, 5, 7)
        svd = thin_svd(data)
        w_star, _ = full_solve(data, svd)
        firsts = []
        for i in range(500):
            run = kaczmarz_exact(svd, data.y, 1, RngStream(8).substream(i), w_star=w_star)
            firsts.append(run.error_trace[1])
        v_norm_sq = kaczmarz_exact(
            svd, data.y, 1, RngStream(8).substream(0), w_star=w_star
        ).error_trace[0]
        mean = np.mean(firsts)
        sem = np.std(firsts, ddof=1) / math.sqrt(len(firsts))
        assert mean <= (1.0 - 1.0 / 5.0) * v_norm_sq + 3.0 * sem

    def test_rate_profile_and_monotonicity(self):
        data, _ = consistent_instance(60, 4, 9)
        svd = thin_svd(data)
        w_star, _ = full_solve(data, svd)
        K = 20  # 5 d
        traces = np.stack(
            [
                kaczmarz_exact(
                    svd, data.y, K, RngStream(10).substream(i), w_star=w_star
                ).error_trace
                for i in range(500)
            ]
        )
        v_norm_sq = traces[0, 0]
        rate = 1.0 - 1.0 / 4.0
        for t in range(1, K + 1):
            mean = traces[:, t].mean()
            sem = traces[:, t].std(ddof=1) / math.sqrt(traces.shape[0])
            assert mean <= rate**t * v_norm_sq + 3.0 * sem
        diffs = traces[:, 1:] - traces[:, :-1]
        mean_diff = diffs.mean(axis=0)
        sem_diff = diffs.std(ddof=1, axis=0) / math.sqrt(traces.shape[0])
        assert np.all(mean_diff <= 3.0 * sem_diff)

    def test_label_accounting(self):
        data, _ = consistent_instance(15, 2, 11)
        svd = thin_svd(data)
        run = kaczmarz_exact(svd, data.y, 40, RngStream(12))
        assert run.labels_used == len(np.unique(run.sampled_indices))
        assert run.sampled_indices.dtype == INDEX_DTYPE
        assert run.labels_used <= min(40, 15)
        assert run.iterations == 40

    def test_invalid_iteration_count(self):
        data, _ = consistent_instance(10, 2, 15)
        svd = thin_svd(data)
        with pytest.raises(InvalidK):
            kaczmarz_exact(svd, data.y, 0, RngStream(16))


class TestKaczmarzFast:
    def test_last_sampled_equation_satisfied(self):
        data, _ = consistent_instance(64, 4, 17)
        run = kaczmarz_fast(data, 25, RngStream(18))
        j = int(run.sampled_indices[-1])
        assert abs(data.X[j] @ run.w - data.y[j]) <= 1e-10 * max(1.0, abs(data.y[j]))

    def test_tracks_exact_variant_on_well_conditioned_data(self):
        data, w0 = consistent_instance(256, 4, 19)
        svd = thin_svd(data)
        w_star, _ = full_solve(data, svd)
        K = 150
        exact_final = np.mean(
            [
                kaczmarz_exact(
                    svd, data.y, K, RngStream(20).substream(i), w_star=w_star
                ).error_trace[-1]
                for i in range(20)
            ]
        )
        fast_final = np.mean(
            [
                kaczmarz_fast(
                    data, K, RngStream(21).substream(i), w_star=w_star
                ).error_trace[-1]
                for i in range(20)
            ]
        )
        start = float(w_star @ w_star)
        # both reduce error by many orders; rates agree within a constant
        assert fast_final <= 1e-6 * start
        assert exact_final <= 1e-6 * start

    def test_beats_unpreconditioned_on_ill_conditioned_data(self):
        gen = np.random.default_rng(22)
        X = conditioned_design(512, 4, 1e6, gen)
        w0 = gen.standard_normal(4)
        data = Dataset(X=X, y=X @ w0)
        K = 300
        fast = kaczmarz_fast(data, K, RngStream(23), w_star=w0)
        plain = kaczmarz_row_norm(X, data.y, K, RngStream(24), w_star=w0)
        fast_reduction = fast.w_error_trace[-1] / fast.w_error_trace[0]
        plain_reduction = plain.error_trace[-1] / plain.error_trace[0]
        assert plain_reduction >= 10.0 * fast_reduction

    def test_setup_reuse_is_deterministic_and_label_free(self):
        data, w0 = consistent_instance(128, 3, 25)
        setup = fast_setup(data.X, FastSolverConfig(), RngStream(26))
        a = kaczmarz_fast(data, 40, RngStream(27), setup=setup)
        b = kaczmarz_fast(data, 40, RngStream(27), setup=setup)
        np.testing.assert_array_equal(a.w, b.w)
        assert np.array_equal(a.sampled_indices, b.sampled_indices)
        assert a.labels_used == len(np.unique(a.sampled_indices)) <= 40

    def test_config_dimension_defaults(self):
        cfg = FastSolverConfig()
        assert cfg.resolve_r1(2048, 8) == math.ceil(48 * 8 * math.log(8))
        assert cfg.resolve_r1(64, 8) == 64  # capped at the padded size
        assert cfg.resolve_r2(2048) == math.ceil(72 * math.log(2049))

    def test_trace_starts_at_true_weight_norm(self):
        data, w0 = consistent_instance(64, 3, 28)
        run = kaczmarz_fast(data, 10, RngStream(29), w_star=w0)
        np.testing.assert_allclose(run.w_error_trace[0], float(w0 @ w0), rtol=1e-12)
        assert run.error_trace.shape == (11,)

    @pytest.mark.parametrize("variant", ["exact", "fast", "row_norm"])
    def test_traces_match_per_step_reference(self, variant):
        # 40 steps at d = 5 stay far above the roundoff floor, so the
        # batched w-space map must agree with the per-step one to 1e-12
        gen = np.random.default_rng(32)
        X = conditioned_design(200, 5, 30.0, gen)
        w0 = gen.standard_normal(5)
        data = Dataset(X=X, y=X @ w0)
        if variant == "exact":
            svd = thin_svd(data)
            run = kaczmarz_exact(svd, data.y, 40, RngStream(33), w_star=w0)
            rows = svd.U[run.sampled_indices]
            w_of_v = lambda v: svd.V @ (v / svd.sigma)
            v_star = svd.sigma * (svd.V.T @ w0)
        elif variant == "fast":
            setup = fast_setup(X, FastSolverConfig(), RngStream(34))
            run = kaczmarz_fast(data, 40, RngStream(34), w_star=w0, setup=setup)
            pre = setup.precond
            R = pre.r_matrix()
            rows = np.array([np.linalg.solve(R.T, X[j]) for j in run.sampled_indices])
            w_of_v = pre.apply_inverse
            v_star = pre.T @ w0[pre.piv]
        else:
            run = kaczmarz_row_norm(X, data.y, 40, RngStream(35), w_star=w0)
            rows = X[run.sampled_indices]
            w_of_v = lambda v: v
            v_star = w0
        v_ref, w_ref = replay_traces(rows, data.y[run.sampled_indices], w_of_v, v_star, w0)
        assert w_ref[-1] > 1e-8 * w_ref[0]
        np.testing.assert_allclose(run.error_trace, v_ref, rtol=1e-12)
        np.testing.assert_allclose(run.w_error_trace, w_ref, rtol=1e-12)


@pytest.mark.parametrize("solver", ["exact", "fast", "row_norm"])
def test_zero_iterations_is_invalid_k(solver):
    # so is a count that is not an integer; numpy integers are counts
    data, _ = consistent_instance(20, 3, 37)
    calls = {
        "exact": lambda K: kaczmarz_exact(thin_svd(data), data.y, K, RngStream(38)),
        "fast": lambda K: kaczmarz_fast(data, K, RngStream(38)),
        "row_norm": lambda K: kaczmarz_row_norm(data.X, data.y, K, RngStream(38)),
    }
    for K in (0, 2.5):
        with pytest.raises(InvalidK):
            calls[solver](K)
    assert calls[solver](np.int64(3)).iterations == 3


@pytest.mark.parametrize("solver", ["exact", "fast", "row_norm"])
def test_counts_are_derived_from_the_sampled_indices(solver):
    # the label count can never disagree with the rows the solver read
    data, _ = consistent_instance(12, 2, 39)
    run = {
        "exact": lambda: kaczmarz_exact(thin_svd(data), data.y, 30, RngStream(40)),
        "fast": lambda: kaczmarz_fast(data, 30, RngStream(40)),
        "row_norm": lambda: kaczmarz_row_norm(data.X, data.y, 30, RngStream(40)),
    }[solver]()
    assert run.iterations == len(run.sampled_indices) == 30
    assert run.labels_used == np.unique(run.sampled_indices).size < 30
    assert run.sampled_indices.dtype == INDEX_DTYPE
    made = KaczmarzRun(w=np.zeros(2), sampled_indices=np.array([3, 1, 3]))
    assert (made.iterations, made.labels_used) == (3, 2)


class TestTypedErrors:
    """Bad arguments raise CullsqError subclasses that are also the
    builtin ValueError or TypeError."""

    def test_bad_options_are_invalid_input(self):
        data, _ = consistent_instance(20, 3, 32)
        calls = [
            lambda: labels_for_target(100, 2, 0.5),
            lambda: labels_for_target(100, 2, 2.0, "slow"),
            lambda: kaczmarz_exact(thin_svd(data), np.ones(19), 5, RngStream(33)),
            lambda: kaczmarz_row_norm(data.X, np.ones(21), 5, RngStream(33)),
            lambda: labels_for_target(100, 2, math.nan),
            lambda: labels_for_target(100, 2, math.inf),
            lambda: labels_for_target(100, 0, 2.0),
            lambda: labels_for_target(2, 2, 2.0),
            lambda: fast_setup(np.ones(20), FastSolverConfig(), RngStream(33)),
            lambda: approx_leverage(np.ones(20), build_preconditioner(
                data.X, make_identity_sketch(20)), make_identity_sketch(3)),
            lambda: kaczmarz_row_norm(np.ones(20), np.ones(20), 5, RngStream(33)),
        ]
        for call in calls:
            with pytest.raises(InvalidInput) as info:
                call()
            assert isinstance(info.value, CullsqError)
            assert isinstance(info.value, ValueError)

    def test_fast_solver_needs_rng_stream(self):
        data, _ = consistent_instance(20, 3, 35)
        calls = [
            lambda: kaczmarz_fast(data, 5, np.random.default_rng(36)),
            lambda: as_generator(42),
            lambda: RngStream(1.5),
            lambda: RngStream("a"),
            lambda: RngStream(0, 2.0),
        ]
        for call in calls:
            with pytest.raises(InvalidRng) as info:
                call()
            assert isinstance(info.value, CullsqError)
            assert isinstance(info.value, TypeError)

