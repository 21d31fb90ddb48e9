import json
import tracemalloc

import numpy as np
import pytest

from cullsq import (
    ExperimentConfig,
    InvalidConfig,
    RngStream,
    full_solve,
    generate_dataset,
    leverage_scores,
    run_experiment,
    thin_svd,
    verify_k_points,
    verify_one_point,
)
from cullsq.designs import make_dataset


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

    def test_k_points_needs_small_k(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(experiment="k-points", n=12, d=2, k=6).validate()

    def test_k_points_needs_k(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(experiment="k-points", n=12, d=2).validate()

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "sampler", "bogus": 1}))
        with pytest.raises(InvalidConfig):
            ExperimentConfig.from_file(path)


class TestVerifiers:
    def test_one_point_consistent_reports_absolute(self):
        report = verify_one_point(
            ExperimentConfig(experiment="one-point", n=40, d=3, noise=0.0, seed=5)
        )
        names = [c["name"] for c in report.criteria]
        assert names == ["one-point-consistent-absolute"]
        assert report.passed

    def test_k_points_consistent_zero_increase(self):
        # Monte Carlo path: C(120, 5) is too large to enumerate
        report = verify_k_points(
            ExperimentConfig(experiment="k-points", n=120, d=2, k=5,
                             noise=0.0, trials=200, seed=6)
        )
        crit = [c for c in report.criteria if c["name"] == "k-points-consistent-absolute"]
        assert crit and crit[0]["passed"]

    def test_k_points_mode_selection(self):
        exact = verify_k_points(
            ExperimentConfig(experiment="k-points", n=12, d=2, k=2, seed=7)
        )
        assert exact.measurements["mode"] == "exact"
        mc = verify_k_points(
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
            report = verify_k_points(cfg)
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

    def test_report_carries_version_and_seeds(self):
        report = verify_one_point(
            ExperimentConfig(experiment="one-point", n=32, d=2, seed=10)
        )
        assert report.library_version
        assert all(c["seed"] == 10 for c in report.criteria)
