import dataclasses
import json
import math
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cullsq import (
    Dataset,
    ExperimentConfig,
    InvalidConfig,
    RngStream,
    full_solve,
    generate_dataset,
    leverage_scores,
    run_experiment,
    thin_svd,
)
from cullsq import experiments, influence, regression
from cullsq.designs import make_dataset
from cullsq.experiments import (
    EVERY_EXPERIMENT_READS,
    EXPERIMENT_NAMES,
    EXPERIMENTS,
    _enumerated_row,
    _jsonable,
)
from cullsq.influence import _enumerate


class TestGenerateDataset:
    def test_hadamard_uniform_leverage(self):
        cfg = ExperimentConfig(experiment="one-point", n=16, d=2,
                               design="hadamard-uniform", seed=1)
        data = generate_dataset(cfg)
        prof = leverage_scores(thin_svd(data))
        np.testing.assert_allclose(prof.ell, np.full(16, 0.125), atol=1e-12)

    def test_zero_noise_is_consistent(self):
        cfg = ExperimentConfig(experiment="one-point", n=30, d=3, noise=0.0, seed=2)
        data = generate_dataset(cfg)
        _, opt = full_solve(data)
        assert opt <= 1e-12

    def test_coherent_design_inflates_coherence(self):
        gen = RngStream(3)
        n, d = 100, 5
        mu_coherent = leverage_scores(
            thin_svd(make_dataset("coherent", n, d, 0.0, gen.substream(0)))
        ).coherence_mu
        mu_gaussian = leverage_scores(
            thin_svd(make_dataset("gaussian", n, d, 0.0, gen.substream(1)))
        ).coherence_mu
        assert mu_coherent >= 2.0 * mu_gaussian

    def test_same_seed_same_dataset(self):
        cfg = ExperimentConfig(experiment="one-point", n=20, d=2, seed=4)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(experiment="nope").validate()

    # an experiment's own preconditions are checked by its body, so
    # run_experiment raises them, before any draw

    def test_k_points_needs_small_k(self):
        with pytest.raises(InvalidConfig, match="k < n/d"):
            run_experiment(ExperimentConfig(experiment="k-points", n=12, d=2, k=6))

    def test_k_points_needs_k(self):
        with pytest.raises(InvalidConfig, match="needs k"):
            run_experiment(ExperimentConfig(experiment="k-points", n=12, d=2))

    def test_sampler_needs_k(self):
        with pytest.raises(InvalidConfig, match="needs k"):
            run_experiment(ExperimentConfig(experiment="sampler", n=10, d=2))

    def test_sampler_needs_enumerable_subsets(self):
        # C(40, 5) = 658008 > 2e5
        with pytest.raises(InvalidConfig, match="C\\(n, k\\)"):
            run_experiment(ExperimentConfig(experiment="sampler", n=40, d=2, k=5))

    @pytest.mark.parametrize("experiment, k", [("k-points", 2), ("kaczmarz", None), ("jlt", None)])
    def test_standard_error_needs_two_trials(self, experiment, k):
        cfg = ExperimentConfig(experiment=experiment, n=12, d=2, k=k, trials=1)
        with pytest.raises(InvalidConfig, match="needs trials >= 2"):
            run_experiment(cfg)
        cfg.trials = 2
        run_experiment(cfg)

    @pytest.mark.parametrize(
        "field, value",
        [("iters", 0), ("iters", -3), ("kappa", float("nan")), ("kappa", float("inf")),
         ("kappa", 0.5)],
    )
    def test_kaczmarz_iters_and_kappa(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            ExperimentConfig(experiment="kaczmarz", **{field: value}).validate()

    def test_from_file_layers_table_defaults_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "sampler", "n": 12, "seed": 3}))
        cfg = ExperimentConfig.from_file(path, seed=4, trials=None)
        defaults = EXPERIMENTS["sampler"].fields
        assert (cfg.n, cfg.d, cfg.k, cfg.trials) == (12, defaults["d"], defaults["k"],
                                                      defaults["trials"])
        assert cfg.seed == 4
        assert ExperimentConfig.from_file(experiment="jlt") == ExperimentConfig(
            experiment="jlt", **EXPERIMENTS["jlt"].fields
        )

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "sampler", "bogus": 1}))
        with pytest.raises(InvalidConfig):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("experiment", EXPERIMENT_NAMES)
    def test_a_field_the_experiment_does_not_read_is_refused(self, tmp_path, experiment):
        # even at its dataclass default, in a file or as an override
        unread = ({f.name for f in dataclasses.fields(ExperimentConfig)}
                  - set(EXPERIMENTS[experiment].fields) - set(EVERY_EXPERIMENT_READS))
        assert unread
        path = tmp_path / "cfg.json"
        for field in sorted(unread):
            value = getattr(ExperimentConfig(experiment=experiment), field)
            path.write_text(json.dumps({"experiment": experiment, field: value}))
            message = f"^{experiment} experiment does not read {field}$"
            with pytest.raises(InvalidConfig, match=message):
                ExperimentConfig.from_file(path)
            if value is not None:  # a None override means the flag was not given
                with pytest.raises(InvalidConfig, match=message):
                    ExperimentConfig.from_file(experiment=experiment, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("n", "12"), ("n", True), ("d", 2.0), ("k", 2.5), ("kappa", "1e6"),
         ("noise", None), ("design", 3), ("out", 1), ("experiment", ["sampler"])],
    )
    def test_wrong_type_rejected_naming_the_field(self, field, value):
        cfg = ExperimentConfig(**{"experiment": "sampler", "n": 10, "d": 2, "k": 2, field: value})
        with pytest.raises(InvalidConfig, match=f"^{field} must be"):
            cfg.validate()

    def test_integer_types_accepted_where_numbers_go(self):
        ExperimentConfig(experiment="kaczmarz", n=np.int64(40), kappa=100, noise=0,
                         iters=np.int32(5)).validate()

    def test_file_naming_a_non_string_experiment_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": ["sampler"]}))
        with pytest.raises(InvalidConfig, match="unknown experiment"):
            ExperimentConfig.from_file(path)


class TestVerifiers:
    def test_report_verdicts_are_json_booleans(self):
        report = run_experiment(ExperimentConfig(experiment="one-point", n=16, d=2, seed=1))
        text = report.to_json()
        payload = json.loads(text)
        assert payload["passed"] is True
        assert all(crit["passed"] is True for crit in payload["criteria"])
        assert '"passed": 1' not in text
        assert _jsonable({"a": np.bool_(False), "b": [True]}) == {"a": False, "b": [True]}

    def test_one_point_consistent_reports_absolute(self):
        report = run_experiment(
            ExperimentConfig(experiment="one-point", n=40, d=3, noise=0.0, seed=5)
        )
        names = [c["name"] for c in report.criteria]
        assert names == ["one-point-consistent-absolute"]
        assert report.passed

    def test_k_points_consistent_zero_increase(self):
        # Monte Carlo path: C(120, 5) is too large to enumerate
        report = run_experiment(
            ExperimentConfig(experiment="k-points", n=120, d=2, k=5,
                             noise=0.0, trials=200, seed=6)
        )
        crit = [c for c in report.criteria if c["name"] == "k-points-consistent-absolute"]
        assert crit and crit[0]["passed"]

    def test_k_points_mode_selection(self):
        exact = run_experiment(
            ExperimentConfig(experiment="k-points", n=12, d=2, k=2, seed=7)
        )
        assert exact.measurements["mode"] == "exact"
        mc = run_experiment(
            ExperimentConfig(experiment="k-points", n=120, d=2, k=5,
                             trials=100, seed=7)
        )
        assert mc.measurements["mode"] == "monte-carlo"

    def test_k_points_monte_carlo_memory_order_batch_times_k(self):
        # a (trials, k, k) array of partial projections would be 160 MB
        # here; the blocked kernel holds O(trials k) plus a fixed block
        cfg = ExperimentConfig(experiment="k-points", n=2**14, d=8, k=100,
                               trials=2000, seed=11)
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.measurements["mode"] == "monte-carlo"
        assert report.passed
        assert peak < 32 * 2**20

    def test_run_experiment_dispatch(self):
        report = run_experiment(
            ExperimentConfig(experiment="precond", n=64, d=4, trials=3, seed=9)
        )
        assert report.experiment == "precond"
        assert report.passed

    @pytest.mark.parametrize("experiment", EXPERIMENT_NAMES)
    def test_report_carries_version_and_seeds(self, experiment):
        report = run_experiment(
            ExperimentConfig(experiment=experiment, seed=10,
                             **EXPERIMENTS[experiment].fields)
        )
        assert report.library_version
        assert report.criteria
        assert all(c["seed"] == 10 for c in report.criteria)
        assert report.passed == all(c["passed"] for c in report.criteria)

    def test_sampler_checks_acceptance_where_guaranteed(self):
        # n >= 8 d k: k^2/(n mu) bounds the acceptance rate
        report = run_experiment(
            ExperimentConfig(experiment="sampler", n=64, d=2, k=2, trials=2000)
        )
        crit = {c["name"]: c for c in report.criteria}
        assert report.measurements["acceptance_bound_guaranteed"]
        assert crit["sampler-acceptance-ge-bound"]["passed"]


# a size at which each experiment runs in well under a second
SMALL = {
    "one-point": dict(n=16, d=2),
    "k-points": dict(n=12, d=2, k=2, trials=2),
    "sampler": dict(n=10, d=2, k=2, trials=2000),
    "precond": dict(n=64, d=4, trials=2),
    "kaczmarz": dict(n=40, d=2, trials=2, iters=20),
    "jlt": dict(n=64, d=4, trials=2),
}


@pytest.mark.parametrize("experiment", EXPERIMENT_NAMES)
def test_each_experiment_reads_exactly_its_table_fields(experiment):
    # pins each EXPERIMENTS entry to its body both ways: a field the body
    # reads but the entry omits could not be set, and one the entry
    # lists but the body never reads would be accepted and ignored
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    read = set()

    class Recording(ExperimentConfig):
        def __getattribute__(self, name):
            if name in names:
                read.add(name)
            return super().__getattribute__(name)

        def validate(self):
            # checks every field's type, wherever it is called from
            before = set(read)
            super().validate()
            read.intersection_update(before)
            return self

    fields = EXPERIMENTS[experiment].fields
    cfg = Recording(experiment=experiment, **SMALL[experiment]).validate()
    EXPERIMENTS[experiment].body(cfg)
    assert read | set(EVERY_EXPERIMENT_READS) == set(fields) | set(EVERY_EXPERIMENT_READS)
    assert "seed" in read
    report = run_experiment(ExperimentConfig(experiment=experiment, **SMALL[experiment]))
    assert set(report.config) == set(fields) | set(EVERY_EXPERIMENT_READS)


def defaults(experiment, **fields):
    return ExperimentConfig(experiment=experiment,
                            **{**EXPERIMENTS[experiment].fields, **fields})


class TestOneOraclePass:
    # the exact k-points reads its probabilities and its increases from
    # one enumeration pass, and the sampler check reads each draw's norm
    # from the enumeration; the sampler's own proposal rounds are apart
    @pytest.mark.parametrize("cfg", [defaults("k-points"), defaults("sampler", trials=2000)],
                             ids=["k-points", "sampler"])
    def test_one_kernel_pass_outside_the_proposal_rounds(self, monkeypatch, cfg):
        real = regression._subset_projection
        callers = []

        def spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)

        for module in (regression, influence, experiments):
            if getattr(module, "_subset_projection", None) is real:
                monkeypatch.setattr(module, "_subset_projection", spy)
        report = run_experiment(cfg)
        assert report.passed
        assert [c for c in callers if c != "_accept_reject"] == ["_enumerate"]

    def test_draw_matching_no_enumerated_row_fails_degenerate_check(self, monkeypatch):
        # one draw in a hundred repeats its first index: no enumerated
        # row, which a nearest-key match would bin with a neighbour and
        # no other criterion catches at the defaults
        real = experiments.rejection_sample_many

        def mutant(*args, **kwargs):
            draws, stats = real(*args, **kwargs)
            draws[::100, 1] = draws[::100, 0]
            return draws, stats

        monkeypatch.setattr(experiments, "rejection_sample_many", mutant)
        report = run_experiment(defaults("sampler"))
        crit = {c["name"]: c for c in report.criteria}["sampler-no-degenerate-draws"]
        assert crit["measured"] == 1.0 and not crit["passed"]
        assert not report.passed


def lexicographic_subsets(n, k):
    """Every k-subset of range(n) in lexicographic order, as ``_enumerate``
    builds them (which it refuses at k = n, where the one subset is
    degenerate)."""
    subsets = np.fromiter(combinations(range(n), k), dtype=(np.intp, k), count=math.comb(n, k))
    if k < n:
        one_column = Dataset(X=np.arange(1.0, n + 1.0)[:, None])
        np.testing.assert_array_equal(_enumerate(thin_svd(one_column), k)[0], subsets)
    return subsets


def assert_rank_is_index_and_bad_rows_miss(n, k, bad_value, position):
    subsets = lexicographic_subsets(n, k)
    np.testing.assert_array_equal(_enumerated_row(subsets, subsets, n), np.arange(len(subsets)))
    sample = subsets[:: max(1, len(subsets) // 50)]
    out_of_range = sample.copy()
    out_of_range[:, position % k] = bad_value
    assert (_enumerated_row(subsets, out_of_range, n) == -1).all()
    if k >= 2:
        repeated = sample.copy()
        j = 1 + position % (k - 1)
        repeated[:, j] = repeated[:, j - 1]
        assert (_enumerated_row(subsets, repeated, n) == -1).all()


class TestEnumeratedRow:
    # verify sampler finds each draw's row by its lexicographic rank; a
    # row with a repeated or out-of-range index matches none
    @given(
        st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        st.one_of(st.integers(-(2**62), -1), st.integers(12, 2**62)),
        st.integers(0, 11),
    )
    @settings(max_examples=150, deadline=None)
    def test_rank_is_index_and_bad_rows_miss(self, nk, bad_value, position):
        assert_rank_is_index_and_bad_rows_miss(*nk, bad_value, position)

    # n^k > 2^63 at each; the binomial table holds entries above C(n, k),
    # at 100 choose 98 up to C(99, 49) > 2^63 were it not capped
    @pytest.mark.parametrize("n, k", [(20, 16), (22, 15), (100, 98)])
    def test_large_n_to_the_k(self, n, k):
        assert_rank_is_index_and_bad_rows_miss(n, k, n, 3)

    def test_sampler_matches_every_draw_past_int64_keys(self):
        # 20 choose 16 = 4845 subsets, 20^16 > 2^63; at n < 8dk the
        # acceptance bound is not guaranteed and is not checked
        report = run_experiment(
            ExperimentConfig(experiment="sampler", n=20, d=1, k=16, trials=2000)
        )
        crit = {c["name"]: c for c in report.criteria}
        assert crit["sampler-no-degenerate-draws"]["passed"]
        assert crit["sampler-tv-lt-bound"]["passed"]
        assert not report.measurements["acceptance_bound_guaranteed"]
        # the rate, its SE and the bound are reported, not checked
        assert {"acceptance_rate", "acceptance_rate_se", "acceptance_lower_bound"} <= set(
            report.measurements)
        assert "sampler-acceptance-ge-bound" not in crit and report.passed


class TestFastWeightSpaceBound:
    # at K = 4000 the bound rate^t kappa(R)^2 ||w*||^2 falls below the
    # float64 floor of the iterate; the steps past RELATIVE_ERROR_FLOOR
    # are not checked
    cfg = defaults("kaczmarz", mode="fast", iters=4000, trials=20)

    @staticmethod
    def w_space(report):
        return {c["name"]: c for c in report.criteria}["kaczmarz-fast-w-space-bound"]

    def test_correct_solver_passes_past_the_floor(self):
        report = run_experiment(self.cfg)
        crit = self.w_space(report)
        assert report.passed and crit["measured"] < 0.1

    def test_extra_weight_error_fails(self, monkeypatch):
        # every step's squared weight error grows by 1e-4 ||w*||^2
        real = experiments.kaczmarz_fast

        def mutant(data, K, rng, w_star=None, setup=None):
            run = real(data, K, rng, w_star=w_star, setup=setup)
            extra = 1e-4 * float(w_star @ w_star)
            return dataclasses.replace(run, w_error_trace=run.w_error_trace + extra)

        monkeypatch.setattr(experiments, "kaczmarz_fast", mutant)
        crit = self.w_space(run_experiment(self.cfg))
        assert not crit["passed"] and crit["measured"] > 1e5
