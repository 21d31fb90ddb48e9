import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from cullsq import (
    INDEX_DTYPE,
    Dataset,
    DegenerateDistribution,
    InvalidK,
    LeverageProfile,
    NonpositiveWeight,
    RowSubset,
    ThinSvd,
    TooLarge,
    TrialBudgetExceeded,
    RngStream,
    deficient_solve,
    default_max_trials,
    enumerate_subset_distribution,
    estimate_acceptance,
    full_solve,
    leverage_scores,
    rejection_sample_many,
    rejection_sample_subset,
    sample_sum_over_rows_many,
    single_row_influences,
    thin_svd,
)
from cullsq import influence, regression
from cullsq.influence import (
    DEFAULT_BATCH,
    _acceptance_ratios,
    _enumerate,
    _influence_weights,
    _propose_batch,
    _uniform_subsets,
)
from cullsq.regression import SPEC_SINGULAR_TOL, _subset_projection
from cullsq.rng import inverse_cdf_draw
from cullsq.sketching import hadamard_columns
from _helpers import random_orthonormal


def uniform_profile(n, d):
    return LeverageProfile(np.full(n, d / n))


class TestSingleRowInfluences:
    def test_uniform_leverage_gives_uniform_probs(self):
        p = single_row_influences(uniform_profile(10, 2))
        np.testing.assert_allclose(p, np.full(10, 0.1), atol=1e-14)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_uniform_normalizer_value(self):
        # n=10, d=2: z1 = n (1 - d/n)^2 / (d/n) = 32
        prof = uniform_profile(10, 2)
        assert abs(prof.z1 - 32.0) <= 1e-12

    def test_exact_rational_example(self):
        ell = [Fraction(9, 10), Fraction(6, 10), Fraction(3, 10), Fraction(2, 10)]
        weights = [(1 - l) ** 2 / l for l in ell]
        z = sum(weights)
        assert z == Fraction(46, 9)
        expect = [w / z for w in weights]
        assert weights == [
            Fraction(1, 90), Fraction(4, 15), Fraction(49, 30), Fraction(16, 5)
        ]
        prof = LeverageProfile(np.array([0.9, 0.6, 0.3, 0.2]))
        p = single_row_influences(prof)
        np.testing.assert_allclose(p, [float(e) for e in expect], rtol=1e-12)

    def test_leverage_one_row_never_rejected(self):
        prof = LeverageProfile(np.array([1.0, 0.5, 0.25, 0.25]))
        p = single_row_influences(prof)
        assert p[0] == 0.0
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_all_leverage_one_degenerate(self):
        prof = LeverageProfile(np.ones(4))
        with pytest.raises(DegenerateDistribution):
            single_row_influences(prof)


class TestSampleSumOverRows:
    def test_constant_weights_uniform_over_subsets(self):
        draws = sample_sum_over_rows_many(np.ones(5), 2, 100_000, RngStream(1))
        keys = draws @ np.array([5, 1])
        _, counts = np.unique(keys, return_counts=True)
        freqs = counts / 100_000
        assert len(freqs) == 10
        assert np.all(np.abs(freqs - 0.1) <= 0.01)

    def test_sequential_sampler_uniform(self):
        gen = RngStream(2).generator()
        counts = {}
        for _ in range(20_000):
            sub = tuple(sample_sum_over_rows_many(np.ones(5), 2, 1, gen)[0])
            counts[sub] = counts.get(sub, 0) + 1
        freqs = np.array(list(counts.values())) / 20_000
        assert len(counts) == 10
        assert np.all(np.abs(freqs - 0.1) <= 0.02)

    def test_closed_form_pair_probability(self):
        # f = 1..6: P[{4,5}] = (5+6) / (C(5,1) * 21) = 11/105
        f = np.arange(1.0, 7.0)
        draws = sample_sum_over_rows_many(f, 2, 200_000, RngStream(3))
        hits = np.mean((draws[:, 0] == 4) & (draws[:, 1] == 5))
        assert abs(hits - 11.0 / 105.0) <= 0.005

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_distribution_chi_square(self, n, k):
        if k > n:
            pytest.skip("k > n")
        gen = np.random.default_rng(100 + 10 * n + k)
        f = gen.uniform(0.2, 3.0, size=n)
        subsets = list(combinations(range(n), k))
        weights = np.array([f[list(s)].sum() for s in subsets])
        probs = weights / (math.comb(n - 1, k - 1) * f.sum())
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
        draws = sample_sum_over_rows_many(f, k, 200_000, RngStream(10 * n + k))
        encode = n ** np.arange(k - 1, -1, -1)
        keys = draws @ encode
        table = {sum(v * e for v, e in zip(s, encode)): i for i, s in enumerate(subsets)}
        counts = np.zeros(len(subsets))
        uniq, cnt = np.unique(keys, return_counts=True)
        for u, c in zip(uniq, cnt):
            counts[table[int(u)]] = c
        if len(subsets) == 1:  # k == n: the draw is deterministic
            assert counts[0] == 200_000
            return
        result = scipy.stats.chisquare(counts, probs * 200_000)
        assert result.pvalue > 1e-4

    def test_sequential_and_batched_agree_in_distribution(self):
        f = np.array([1.0, 3.0, 0.5, 2.0, 1.5])
        gen = RngStream(4).generator()
        seq = np.array(
            [sample_sum_over_rows_many(f, 2, 1, gen)[0] for _ in range(20_000)]
        )
        bat = sample_sum_over_rows_many(f, 2, 20_000, RngStream(5))
        for draws in (seq, bat):
            keys, counts = np.unique(draws @ np.array([5, 1]), return_counts=True)
            assert len(keys) == 10
        seq_freq = np.bincount(seq @ np.array([5, 1]), minlength=25) / len(seq)
        bat_freq = np.bincount(bat @ np.array([5, 1]), minlength=25) / len(bat)
        assert np.max(np.abs(seq_freq - bat_freq)) <= 0.02

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            sample_sum_over_rows_many(np.ones(4), 0, 1, RngStream(0))
        with pytest.raises(InvalidK):
            sample_sum_over_rows_many(np.ones(4), 5, 1, RngStream(0))
        for count in (0, -1):
            with pytest.raises(InvalidK):
                sample_sum_over_rows_many(np.ones(4), 2, count, RngStream(0))

    def test_nonpositive_weights(self):
        with pytest.raises(NonpositiveWeight):
            sample_sum_over_rows_many(np.array([1.0, 0.0, 2.0]), 1, 1, RngStream(0))
        with pytest.raises(NonpositiveWeight):
            sample_sum_over_rows_many(np.array([1.0, -1.0]), 1, 1, RngStream(0))


def weight_and_theta(svd, prof, rows):
    """Influence weight and acceptance ratio of one subset, from the
    norm of its partial projection."""
    spec = _subset_projection(svd, np.array([rows]))[0]
    q_weight = np.sum(1.0 / prof.ell[rows])
    return (float(_influence_weights(spec)),
            float(_acceptance_ratios(spec, q_weight, svd.d, len(rows))))


class TestSubsetInfluence:
    def test_single_row_closed_form(self):
        # exact-arithmetic check at leverage 1/2: theta = (1 - 1/2)^2 / d = 1/8
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        weight, theta = weight_and_theta(svd, prof, [2])
        oracle = (Fraction(1, 2)) ** 2 / Fraction(1, 2)  # weight = (1-l)^2/l
        assert abs(weight - float(oracle)) <= 1e-14
        assert abs(theta - float(Fraction(1, 8))) <= 1e-14
        # theta at the ends of the norm's range, against exact arithmetic:
        # near 1, past the singular cut (theta = 0) and at 1e-300
        for s, q, d, k in [(1 - 1e-9, 3.0, 2, 2), (1 - 1e-11, 3.0, 2, 2), (1e-300, 1e10, 5, 3)]:
            theta = float(_acceptance_ratios(np.array([s]), np.array([q]), d, k)[0])
            if s >= 1 - SPEC_SINGULAR_TOL:
                assert theta == 0.0
                continue
            exact = (1 - Fraction(s)) ** 2 / Fraction(s) / (Fraction(d, k * k) * Fraction(q))
            assert abs(theta - float(exact)) <= 1e-14 * float(exact)

    def test_single_row_random_designs(self):
        gen = np.random.default_rng(6)
        X = gen.standard_normal((12, 3))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        for i in range(12):
            _, theta = weight_and_theta(svd, prof, [i])
            ell = prof.ell[i]
            np.testing.assert_allclose(theta, (1 - ell) ** 2 / 3.0, rtol=1e-12)
            assert theta <= 1.0 + 1e-10

    def test_rank_destroying_subset_gets_zero(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        weight, theta = weight_and_theta(svd, prof, [0])
        assert weight == 0.0
        assert theta == 0.0

    def test_theta_at_most_one_exhaustive(self):
        gen = np.random.default_rng(7)
        U = random_orthonormal(10, 2, gen)
        svd = thin_svd(Dataset(X=U))
        prof = leverage_scores(svd)
        subsets, spec, _, _ = _enumerate(svd, 2)
        thetas = _acceptance_ratios(spec, (1.0 / prof.ell)[subsets].sum(axis=1), 2, 2)
        assert len(thetas) == 45
        assert max(thetas) <= 1.0 + 1e-10


class TestRejectionSampler:
    def test_matches_enumeration(self):
        gen = np.random.default_rng(8)
        X = gen.standard_normal((10, 2))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        subsets, probs = enumerate_subset_distribution(svd, prof, 2)
        draws, stats = rejection_sample_many(svd, prof, 2, 20_000, RngStream(9))
        keys = dict(zip(map(tuple, subsets.tolist()), probs))
        counts = {}
        for row in draws:
            t = tuple(int(v) for v in row)
            counts[t] = counts.get(t, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(t, 0) / 20_000 - p) for t, p in keys.items()
        )
        assert tv < 0.03
        assert stats.accepted >= 20_000

    def test_matches_enumeration_larger_subsets(self):
        # 220 cells: at 1e5 draws a perfect sampler sits near TV 0.02,
        # so the threshold here is ~1.5x that expectation
        gen = np.random.default_rng(30)
        X = gen.standard_normal((12, 3))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        subsets, probs_enum = enumerate_subset_distribution(svd, prof, 3)
        draws, _ = rejection_sample_many(svd, prof, 3, 100_000, RngStream(31))
        probs = dict(zip(map(tuple, subsets.tolist()), probs_enum))
        counts = {}
        for row in draws:
            t = tuple(int(v) for v in row)
            counts[t] = counts.get(t, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(t, 0) / 100_000 - p) for t, p in probs.items()
        )
        assert tv < 0.03

    def test_k1_reduces_to_single_row_distribution(self):
        gen = np.random.default_rng(10)
        X = gen.standard_normal((12, 2))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        p = single_row_influences(prof)
        draws, _ = rejection_sample_many(svd, prof, 1, 100_000, RngStream(11))
        freq = np.bincount(draws[:, 0], minlength=12) / 100_000
        tv = 0.5 * np.abs(freq - p).sum()
        assert tv < 0.01

    def test_sequential_draw_and_trial_count(self):
        gen = np.random.default_rng(12)
        X = gen.standard_normal((15, 3))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        subset, trials = rejection_sample_subset(svd, prof, 3, RngStream(13))
        assert subset.k == 3
        assert 1 <= trials <= default_max_trials(prof, 3)
        # same stream, same draw
        again, trials2 = rejection_sample_subset(svd, prof, 3, RngStream(13))
        assert again == subset and trials2 == trials

    def test_mean_trials_within_coherence_budget(self):
        # uniform-leverage design: expected trials <= n*mu/k^2, margin 2
        X = hadamard_columns(64, 2)
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        gen = RngStream(14).generator()
        trials = [rejection_sample_subset(svd, prof, 2, gen)[1] for _ in range(200)]
        budget = 2.0 * 64 * prof.coherence_mu / 4.0
        assert np.mean(trials) <= budget

    def test_never_returns_rank_destroying_subset(self):
        X = np.concatenate(
            [np.array([[1.0, 0.0]]), np.column_stack([np.zeros(9), np.arange(1.0, 10.0)])]
        )
        data = Dataset(X=X)
        svd = thin_svd(data)
        prof = leverage_scores(svd)
        assert prof.ell[0] >= 1.0 - 1e-10
        draws, _ = rejection_sample_many(svd, prof, 2, 2000, RngStream(15))
        assert not np.any(draws == 0)

    def test_trial_budget_exceeded(self, monkeypatch):
        gen = np.random.default_rng(16)
        X = gen.standard_normal((10, 2))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        monkeypatch.setattr(influence, "default_max_trials", lambda profile, k: 1)
        # seed picked so the single allowed proposal is rejected
        with pytest.raises(TrialBudgetExceeded) as info:
            rejection_sample_subset(svd, prof, 2, RngStream(2))
        err = info.value
        assert err.trials == 1
        assert err.empirical_rate == 0.0
        assert err.acceptance_bound > 0.0

    def test_invalid_k_rejected(self):
        gen = np.random.default_rng(17)
        X = gen.standard_normal((6, 2))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        with pytest.raises(InvalidK):
            rejection_sample_subset(svd, prof, 6, RngStream(0))

    def test_batched_draws_reproducible(self):
        gen = np.random.default_rng(18)
        X = gen.standard_normal((12, 3))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        a, sa = rejection_sample_many(svd, prof, 2, 500, RngStream(19))
        b, sb = rejection_sample_many(svd, prof, 2, 500, RngStream(19))
        assert np.array_equal(a, b) and sa == sb


class TestEnumeration:
    def test_uniform_k1(self):
        X = hadamard_columns(4, 2)
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        _, probs = enumerate_subset_distribution(svd, prof, 1)
        np.testing.assert_allclose(probs, 0.25 * np.ones(4), atol=1e-12)

    def test_all_rows_subset_degenerate(self):
        X = hadamard_columns(4, 2)
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        with pytest.raises(DegenerateDistribution):
            enumerate_subset_distribution(svd, prof, 4)

    def test_lexicographic_order_and_normalization(self):
        gen = np.random.default_rng(20)
        X = gen.standard_normal((8, 2))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        rows, probs = enumerate_subset_distribution(svd, prof, 2)
        subsets = list(map(tuple, rows.tolist()))
        assert subsets == sorted(subsets)
        assert abs(sum(probs) - 1.0) <= 1e-10

    def test_normalizer_lower_bound(self):
        # sum of weights >= C(n,k) (1-Qbar)^2 / Qbar with Qbar the mean norm
        gen = np.random.default_rng(21)
        X = gen.standard_normal((10, 2))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        subsets = np.array(list(combinations(range(10), 2)))
        specs = _subset_projection(svd, subsets)
        weights = (1.0 - specs) ** 2 / specs
        qbar = specs.mean()
        assert weights.sum() >= len(subsets) * (1 - qbar) ** 2 / qbar - 1e-8

    def test_k1_equals_single_row_influences(self):
        gen = np.random.default_rng(26)
        X = gen.standard_normal((15, 3))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        subsets, probs = enumerate_subset_distribution(svd, prof, 1)
        assert np.array_equal(subsets, np.arange(15)[:, None])
        np.testing.assert_allclose(probs, single_row_influences(prof), rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_arrays_match_per_subset_reference(self, n, d, k, seed):
        # k <= n - d keeps generic subsets off rank loss, so the normalizer
        # is positive
        d = min(d, n - 1)
        k = min(k, n - d)
        X = np.random.default_rng(seed).standard_normal((n, d))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        subsets, probs = enumerate_subset_distribution(svd, prof, k)
        combos = list(combinations(range(n), k))
        assert subsets.dtype == INDEX_DTYPE and subsets.shape == (len(combos), k)
        assert subsets.tolist() == [list(c) for c in combos]
        weights = _influence_weights(
            np.array([_subset_projection(svd, np.array([c]))[0] for c in combos])
        )
        np.testing.assert_allclose(probs, weights / weights.sum(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k_above_d", [False, True], ids=["k<=d", "k>d"])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.data(), st.integers(0, 2**32 - 1))
    def test_residual_pass_adds_increases_only(self, k_above_d, d, extra, draw, seed):
        # the kernel's two sides: k x k Gram for k <= d, d x d for k > d;
        # n - k > d keeps generic subsets off rank loss
        n = 2 * d + 2 + extra if k_above_d else d + 2 + extra
        k = draw.draw(st.integers(d + 1, n - d - 1) if k_above_d
                      else st.integers(1, min(d, n - d - 1)))
        gen = np.random.default_rng(seed)
        X = gen.standard_normal((n, d))
        data = Dataset(X=X, y=X @ gen.standard_normal(d) + gen.standard_normal(n))
        svd = thin_svd(data)
        w_star, opt = full_solve(data, svd)
        subsets, spec, probs, increases = _enumerate(svd, k, X @ w_star - data.y)
        plain_subsets, plain_spec, plain_probs, none = _enumerate(svd, k)
        assert none is None
        assert np.array_equal(subsets, plain_subsets)
        assert np.array_equal(spec, plain_spec) and np.array_equal(probs, plain_probs)
        live = spec < 1.0 - SPEC_SINGULAR_TOL
        assert np.all(increases[~live] == 0.0)
        reference = [
            deficient_solve(data, RowSubset.of(a), svd).error_increase
            for a in subsets[live]
        ]
        np.testing.assert_allclose(increases[live], reference, rtol=1e-10, atol=1e-12 * opt)

    def test_memory_order_subsets_times_k(self):
        # C(100, 3) = 161,700 subsets: the (C, 3) index array and the
        # probabilities take 5.2 MB; per-subset objects took 43 MB
        X = np.random.default_rng(27).standard_normal((100, 4))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        tracemalloc.start()
        try:
            subsets, probs = enumerate_subset_distribution(svd, prof, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert subsets.shape == (161_700, 3) and probs.shape == (161_700,)
        assert peak < 16 * 2**20

    def test_too_large_guard(self):
        gen = np.random.default_rng(22)
        X = gen.standard_normal((30, 2))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        with pytest.raises(TooLarge):
            enumerate_subset_distribution(svd, prof, 10)


class TestAcceptanceBound:
    def test_uniform_leverage_value(self):
        # mu = n/d = 32, bound = k^2/(n mu) = 4/2048 = 1/512
        prof = uniform_profile(64, 2)
        bound = estimate_acceptance(prof, 2, 2)
        np.testing.assert_allclose(bound.lower_bound, 1.0 / 512.0, rtol=1e-12)
        np.testing.assert_allclose(bound.lower_bound, 2 * 4 / 64**2, rtol=1e-12)
        assert bound.precondition_met  # 64 >= 8*2*2
        # the d passed decides n >= 8dk; without one, the leverage sum does
        assert estimate_acceptance(prof, 2) == bound
        assert not estimate_acceptance(prof, 2, 5).precondition_met  # 64 < 8*5*2

    def test_precondition_flag_below_threshold(self):
        prof = uniform_profile(15, 1)
        bound = estimate_acceptance(prof, 2, 1)
        assert not bound.precondition_met  # 15 < 8*1*2 = 16
        np.testing.assert_allclose(bound.lower_bound, 4.0 / (15.0 * 15.0), rtol=1e-12)

    def test_empirical_rate_beats_bound(self):
        gen = np.random.default_rng(23)
        X = gen.standard_normal((32, 2))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        bound = estimate_acceptance(prof, 2, svd.d)
        assert bound.precondition_met
        _, stats = rejection_sample_many(svd, prof, 2, 3000, RngStream(24))
        se = math.sqrt(stats.acceptance_rate * (1 - stats.acceptance_rate) / stats.proposals)
        assert stats.acceptance_rate >= bound.lower_bound - 3 * se


class TestCrossValidation:
    def test_rejection_sampler_chi_square_against_enumeration(self):
        gen = np.random.default_rng(50)
        X = gen.standard_normal((9, 2))
        svd = thin_svd(Dataset(X=X))
        prof = leverage_scores(svd)
        subsets, probs = enumerate_subset_distribution(svd, prof, 2)
        idx_of = {s: i for i, s in enumerate(map(tuple, subsets.tolist()))}
        draws, _ = rejection_sample_many(svd, prof, 2, 200_000, RngStream(51))
        counts = np.zeros(len(probs))
        for row in draws:
            counts[idx_of[tuple(int(v) for v in row)]] += 1
        res = scipy.stats.chisquare(counts, probs * 200_000)
        assert res.pvalue > 1e-4

    def test_single_row_expectation_identity(self):
        # E[error after rejecting one row] equals (1 + 1/Z) times the
        # optimum exactly, whenever no row has leverage pinned at 1
        gen = np.random.default_rng(52)
        X = gen.standard_normal((60, 4))
        y = X @ gen.standard_normal(4) + gen.standard_normal(60)
        data = Dataset(X=X, y=y)
        svd = thin_svd(data)
        prof = leverage_scores(svd)
        w_star, opt = full_solve(data, svd)
        p = single_row_influences(prof)
        resid = data.X @ w_star - y
        _, increases = _subset_projection(svd, np.arange(60)[:, None], resid[:, None])
        errs = opt + increases
        ratio = float(p @ errs) / opt
        assert abs(ratio - (1.0 + 1.0 / prof.z1)) <= 1e-12

    def test_monte_carlo_mean_matches_enumerated_expectation(self):
        gen = np.random.default_rng(53)
        X = gen.standard_normal((12, 2))
        y = X @ gen.standard_normal(2) + gen.standard_normal(12)
        data = Dataset(X=X, y=y)
        svd = thin_svd(data)
        prof = leverage_scores(svd)
        w_star, opt = full_solve(data, svd)
        resid = data.X @ w_star - y
        subsets, probs = enumerate_subset_distribution(svd, prof, 2)
        exact = opt + float(probs @ _subset_projection(svd, subsets, resid[subsets])[1])
        draws, _ = rejection_sample_many(svd, prof, 2, 5000, RngStream(54))
        errs = opt + _subset_projection(svd, draws, resid[draws])[1]
        sem = errs.std(ddof=1) / math.sqrt(len(errs))
        assert abs(errs.mean() - exact) <= 4.0 * sem


class TestSpectralNormAverages:
    @pytest.mark.parametrize("n,d,k", [(8, 2, 2), (12, 3, 3), (10, 2, 1), (12, 2, 2)])
    def test_mean_projection_norm_band(self, n, d, k):
        # k/n <= mean ||P_A||_2 <= dk/n for orthonormal U
        gen = np.random.default_rng(1000 + n + d + k)
        U = random_orthonormal(n, d, gen)
        svd = thin_svd(Dataset(X=U))
        specs = _subset_projection(svd, np.array(list(combinations(range(n), k))))
        qbar = float(np.mean(specs))
        assert k / n - 1e-10 <= qbar <= d * k / n + 1e-10

    def test_inverse_frobenius_sum_bound(self):
        # d=1, k=2, n=16: sum over pairs of 1/(ell_i + ell_j) >= 2 C(16,2)
        gen = np.random.default_rng(25)
        x = gen.standard_normal(16)
        ell = x**2 / (x @ x)
        total = sum(
            1.0 / (ell[i] + ell[j]) for i, j in combinations(range(16), 2)
        )
        assert total >= 2 * math.comb(16, 2)


@st.composite
def sizes_and_seed(draw, min_n=1):
    n = draw(st.integers(min_n, 60))
    k = draw(st.one_of(st.sampled_from([1, max(1, n - 1), n]), st.integers(1, n)))
    return n, k, draw(st.integers(0, 2**32 - 1))


class TestProposalProperties:
    @settings(max_examples=200, deadline=None)
    @given(sizes_and_seed(), st.integers(1, 40))
    def test_proposals_are_sorted_distinct_and_hold_first_row(self, nks, count):
        n, k, seed = nks
        f = np.random.default_rng(seed).uniform(0.1, 5.0, n)
        subs = sample_sum_over_rows_many(f, k, count, np.random.default_rng(seed))
        # the first draws of the stream pick the inverse-CDF rows
        first = inverse_cdf_draw(np.random.default_rng(seed), np.cumsum(f), count)
        assert subs.shape == (count, k)
        assert np.all(np.diff(subs, axis=1) > 0)
        assert subs.min() >= 0 and subs.max() < n
        assert np.all(np.any(subs == first[:, None], axis=1))

    @settings(max_examples=60, deadline=None)
    @given(sizes_and_seed(min_n=4), st.integers(1, 4))
    def test_theta_at_most_one_on_every_proposal(self, nks, d):
        n, k, seed = nks
        gen = np.random.default_rng(seed)
        d = min(d, n - 1)
        k = min(k, n - 1)
        svd = thin_svd(Dataset(X=gen.standard_normal((n, d))))
        prof = leverage_scores(svd)
        subs = _propose_batch(gen, np.cumsum(1.0 / prof.ell), n, k, 64)
        spec = _subset_projection(svd, subs)
        theta = _acceptance_ratios(spec, (1.0 / prof.ell)[subs].sum(axis=1), d, k)
        assert np.all(theta >= 0.0)
        assert theta.max() <= 1.0 + 1e-10

    @pytest.mark.parametrize("m,size", [(9, 3), (9, 4), (9, 5), (9, 8)])
    def test_uniform_subsets_chi_square(self, m, size):
        # size 3 and 4 use the redraw loop, 5 and 8 the complement branch
        draws = 100_000
        rows = _uniform_subsets(np.random.default_rng(300 + size), m, size, draws)
        cells = {c: i for i, c in enumerate(combinations(range(m), size))}
        counts = np.zeros(len(cells))
        uniq, cnt = np.unique(rows, axis=0, return_counts=True)
        for row, c in zip(uniq, cnt):
            counts[cells[tuple(int(v) for v in row)]] = c
        expected = np.full(len(cells), draws / len(cells))
        assert scipy.stats.chisquare(counts, expected).pvalue > 1e-4

    @pytest.mark.parametrize("n", [6, 13])
    def test_companion_draw_chi_square_at_k_n_minus_1(self, n):
        # a subset of n-1 rows omits row j with probability
        # sum_{i != j} f_i / ((n-1) sum f) = (F - f_j) / ((n-1) F)
        draws = 100_000
        f = np.random.default_rng(400 + n).uniform(0.2, 3.0, n)
        subs = sample_sum_over_rows_many(f, n - 1, draws, RngStream(401 + n))
        omitted = n * (n - 1) // 2 - subs.sum(axis=1)
        counts = np.bincount(omitted, minlength=n)
        probs = (f.sum() - f) / ((n - 1) * f.sum())
        assert scipy.stats.chisquare(counts, probs * draws).pvalue > 1e-4


def test_batch_draw_memory_far_below_batch_by_n():
    # at n = 2^20 one batch x n float array of the default batch is 32 GiB
    n, d = 2**20, 4
    k = int(n / (d + math.sqrt(n)))
    X = np.random.default_rng(60).standard_normal((n, d))
    svd = thin_svd(Dataset(X=X))
    prof = leverage_scores(svd)
    tracemalloc.start()
    try:
        draws, stats = rejection_sample_many(svd, prof, k, 50, RngStream(61))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.shape == (50, k) and stats.accepted >= 50
    assert np.all(np.diff(draws, axis=1) > 0)
    assert peak < 64 * 2**20


def test_single_draw_allocates_no_n_array():
    # the proposal CDF is built once per profile; a draw then reads 1/ell
    # only at its proposed rows, so it allocates nothing near the n bytes
    # of even a boolean (n,) array (two 8 MB arrays per draw otherwise)
    n, d = 2**20, 4
    k = int(n / (d + math.sqrt(n)))
    X = np.random.default_rng(65).standard_normal((n, d))
    svd = thin_svd(Dataset(X=X))
    prof = leverage_scores(svd)
    assert "proposal_cdf" not in vars(prof)  # nothing built at set-up
    rejection_sample_subset(svd, prof, k, RngStream(66))
    cdf = prof.proposal_cdf
    tracemalloc.start()
    try:
        subset, _ = rejection_sample_subset(svd, prof, k, RngStream(67))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert subset.k == k
    assert peak < n
    assert prof.proposal_cdf is cdf and not cdf.flags.writeable
    assert np.array_equal(cdf, np.cumsum(1.0 / prof.ell))


def test_every_subset_array_has_the_index_dtype():
    gen = np.random.default_rng(68)
    svd = thin_svd(Dataset(X=gen.standard_normal((12, 2))))
    prof = leverage_scores(svd)
    draws, _ = rejection_sample_many(svd, prof, 3, 20, RngStream(69))
    subset, _ = rejection_sample_subset(svd, prof, 3, RngStream(70))
    subsets, _ = enumerate_subset_distribution(svd, prof, 3)
    oracle = _enumerate(svd, 3, gen.standard_normal(12))[0]
    proposals = sample_sum_over_rows_many(1.0 / prof.ell, 3, 20, RngStream(71))
    assert INDEX_DTYPE == np.int32
    for array in (draws, subset.array(), RowSubset.of([5, 1]).array(), subsets, oracle,
                  proposals):
        assert array.dtype == INDEX_DTYPE


class _TooTall:
    """An SVD stand-in with more rows than the index dtype holds: the
    samplers must refuse it before touching any array."""

    n, d = 2**31, 1


@pytest.mark.parametrize("call", [
    lambda p: rejection_sample_many(_TooTall(), p, 1, 1, RngStream(0)),
    lambda p: rejection_sample_subset(_TooTall(), p, 1, RngStream(0)),
    lambda p: enumerate_subset_distribution(_TooTall(), p, 1),
], ids=["many", "single", "enumerate"])
def test_samplers_refuse_rows_past_the_index_dtype(call):
    with pytest.raises(TooLarge, match="2\\^31 - 1"):
        call(uniform_profile(4, 1))


@pytest.mark.parametrize("k,d,block", [(7, 3, 50), (3, 7, 50), (40, 32, 1)])
def test_spec_norms_in_blocks_equal_one_gather(monkeypatch, k, d, block):
    # the one-gather formula on the whole (B, k, d) array is the reference
    n, B = 120, 37
    gen = np.random.default_rng(64)
    U = random_orthonormal(n, d, gen)
    subs = np.sort(np.array([gen.choice(n, k, replace=False) for _ in range(B)]), axis=1)
    UA = U[subs]
    gram = UA @ np.swapaxes(UA, 1, 2) if k <= d else np.swapaxes(UA, 1, 2) @ UA
    whole = np.clip(np.linalg.eigvalsh(gram)[..., -1], 0.0, 1.0)
    monkeypatch.setattr(regression, "SPEC_BLOCK_ELEMENTS", block * k * d)
    assert np.array_equal(_subset_projection(ThinSvd(U, np.ones(d), np.eye(d)), subs), whole)


def test_full_round_memory_order_batch_times_k():
    # a (batch, k, d) gather of U_A would be d = 32 times one (batch, k)
    # float array; the whole draw must stay within ten of those
    n, d = 2**14, 32
    k = int(n / (d + math.sqrt(n)))
    X = np.random.default_rng(62).standard_normal((n, d))
    svd = thin_svd(Dataset(X=X))
    prof = leverage_scores(svd)
    tracemalloc.start()
    try:
        draws, stats = rejection_sample_many(svd, prof, k, DEFAULT_BATCH, RngStream(63))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.proposals > DEFAULT_BATCH  # the first round is a full batch
    assert draws.shape == (DEFAULT_BATCH, k)
    assert peak < 10 * DEFAULT_BATCH * k * 8
