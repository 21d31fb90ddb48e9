"""Acceptance suite: one test per advertised guarantee.

Every test prints a single pass/fail line with the measured value and
the bound it was checked against, and asserts the stated tolerance and
runtime budget.  Monte Carlo checks use fixed seeds so reruns are
reproducible.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from cullsq import (
    Dataset,
    ExperimentConfig,
    RngStream,
    RowSubset,
    deficient_solve,
    estimate_acceptance,
    full_solve,
    leverage_scores,
    rejection_sample_many,
    run_experiment,
    thin_svd,
)
from cullsq.designs import make_design
from cullsq.influence import _acceptance_ratios
from cullsq.regression import _subset_projection
from _helpers import random_dataset


def announce(number, name, passed, detail, elapsed, budget):
    verdict = "PASS" if passed else "FAIL"
    print(
        f"criterion {number:02d} {name}: {verdict} ({detail}) "
        f"[{elapsed:.2f}s / {budget:.0f}s budget]"
    )
    assert passed, f"criterion {number} {name}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


def crit_from_report(report, name):
    match = [c for c in report.criteria if c["name"] == name]
    assert match, f"criterion {name} missing from report"
    return match[0]


class TestCriterion01LeaveAOutIdentity:
    def test_closed_form_matches_direct_solve(self):
        t0 = time.perf_counter()
        gen = np.random.default_rng(101)
        checked = 0
        worst = 0.0
        while checked < 1000:
            n = int(gen.integers(8, 61))
            d = int(gen.integers(1, min(8, n - 2) + 1))
            k = int(gen.integers(1, min(5, n - d) + 1))
            data = random_dataset(n, d, gen)
            svd = thin_svd(data)
            sub = RowSubset.of(gen.choice(n, size=k, replace=False))
            idx = sub.array()
            w_star, opt = full_solve(data, svd)
            r = data.X @ w_star - data.y
            spec, increase = _subset_projection(svd, idx[None], r[idx][None])
            if spec[0] >= 1.0 - 1e-6:
                continue
            closed = opt + float(increase[0])
            direct = deficient_solve(data, sub, svd).full_error
            worst = max(worst, abs(closed - direct) / (1.0 + direct))
            checked += 1
        elapsed = time.perf_counter() - t0
        announce(
            1, "leave-A-out-identity", worst <= 1e-8,
            f"worst relative gap {worst:.3e} over 1000 instances, tol 1e-8",
            elapsed, 10.0,
        )


class TestCriterion02OnePoint:
    def test_exact_expectation_against_bound(self):
        t0 = time.perf_counter()
        details = []
        ok = True
        for design, n in (("gaussian", 100), ("coherent", 100)):
            report = run_experiment(
                ExperimentConfig(experiment="one-point", n=n, d=5,
                                 design=design, seed=21)
            )
            crit = crit_from_report(report, "one-point-ratio-le-bound")
            ok &= crit["passed"]
            details.append(f"{design}: ratio {crit['measured']:.12f} <= {crit['bound']:.12f}")
        # uniform-leverage design attains the bound; power-of-two size
        report = run_experiment(
            ExperimentConfig(experiment="one-point", n=128, d=5,
                             design="hadamard-uniform", seed=22)
        )
        crit = crit_from_report(report, "one-point-ratio-equals-bound")
        ok &= crit["passed"]
        details.append(f"hadamard equality gap {crit['measured']:.3e} <= 1e-10")
        announce(2, "one-point-expectation", ok, "; ".join(details),
                 time.perf_counter() - t0, 5.0)


class TestCriterion03KPointsExact:
    def test_enumerated_expectation_against_bound(self):
        t0 = time.perf_counter()
        details = []
        ok = True
        for k in (2, 3):
            report = run_experiment(
                ExperimentConfig(experiment="k-points", n=12, d=2, k=k, seed=23)
            )
            crit = crit_from_report(report, "k-points-exact-ratio-le-bound")
            ok &= crit["passed"]
            details.append(f"k={k}: ratio {crit['measured']:.12f} <= {crit['bound']:.6f}")
        announce(3, "k-points-exact", ok, "; ".join(details),
                 time.perf_counter() - t0, 10.0)


class TestCriterion04KPointsMonteCarlo:
    def test_sampled_expectation_hits_target_rate(self):
        t0 = time.perf_counter()
        n, d = 400, 4
        k = math.floor(n / (d + math.sqrt(n)))
        assert k == 16
        report = run_experiment(
            ExperimentConfig(experiment="k-points", n=n, d=d, k=k,
                             trials=2000, seed=24)
        )
        crit = crit_from_report(report, "k-points-mc-ratio-le-target")
        announce(
            4, "k-points-monte-carlo", crit["passed"],
            f"mean ratio + 3 SE = {crit['measured']:.6f} <= {crit['bound']} "
            f"({report.measurements['accepted']} accepted / "
            f"{report.measurements['proposals']} proposals)",
            time.perf_counter() - t0, 300.0,
        )


class TestCriterion05SamplerExactness:
    def test_total_variation_and_acceptance_ratio(self):
        t0 = time.perf_counter()
        report = run_experiment(
            ExperimentConfig(experiment="sampler", n=10, d=2, k=2,
                             trials=100_000, seed=25)
        )
        tv_crit = crit_from_report(report, "sampler-tv-lt-bound")
        theta_crit = crit_from_report(report, "sampler-theta-le-1")
        ok = tv_crit["passed"] and theta_crit["passed"]

        # acceptance ratio at most 1 on every design we can enumerate
        worst = theta_crit["measured"]
        cases = [
            ("gaussian", 10, 2, 2), ("gaussian", 16, 2, 3), ("gaussian", 12, 3, 3),
            ("hadamard-uniform", 16, 2, 2), ("coherent", 12, 2, 2),
        ]
        for design, n, d, k in cases:
            assert math.comb(n, k) <= 10_000
            X = make_design(design, n, d, RngStream(26).substream(n + k))
            svd = thin_svd(Dataset(X=X))
            prof = leverage_scores(svd)
            subsets = np.array(list(combinations(range(n), k)))
            spec = _subset_projection(svd, subsets)
            theta = _acceptance_ratios(spec, (1.0 / prof.ell)[subsets].sum(axis=1), d, k)
            worst = max(worst, float(theta.max()))
        ok &= worst <= 1.0 + 1e-10
        announce(
            5, "sampler-exactness", ok,
            f"TV {tv_crit['measured']:.5f} < {tv_crit['bound']:.5f} at 1e5 draws; "
            f"max theta {worst:.6f} <= 1 over exhaustive designs",
            time.perf_counter() - t0, 120.0,
        )


class TestCriterion06AcceptanceRateBound:
    def test_empirical_acceptance_clears_lower_bound(self):
        t0 = time.perf_counter()
        details = []
        ok = True
        for design, n, d, k, seed in (
            ("hadamard-uniform", 64, 2, 2, 27),
            ("gaussian", 128, 4, 2, 28),
        ):
            assert n >= 8 * d * k
            X = make_design(design, n, d, RngStream(seed))
            svd = thin_svd(Dataset(X=X))
            prof = leverage_scores(svd)
            bound = estimate_acceptance(prof, k, svd.d)
            assert bound.precondition_met
            _, stats = rejection_sample_many(
                svd, prof, k, 5000, RngStream(seed + 100)
            )
            rate = stats.acceptance_rate
            se = math.sqrt(rate * (1.0 - rate) / stats.proposals)
            ok &= rate >= bound.lower_bound - 3.0 * se
            details.append(
                f"{design}: rate {rate:.4f} >= bound {bound.lower_bound:.6f} - 3se"
            )
        announce(6, "acceptance-rate-bound", ok, "; ".join(details),
                 time.perf_counter() - t0, 120.0)


class TestCriterion07PositiveResidual:
    def test_inverse_frobenius_sum(self):
        t0 = time.perf_counter()
        n, k = 16, 2
        target = 2.0 * math.comb(n, k)
        totals = []
        for ell in (
            np.full(n, 1.0 / n),
            (lambda x: x**2 / (x @ x))(np.random.default_rng(29).standard_normal(n)),
        ):
            totals.append(
                sum(1.0 / (ell[i] + ell[j]) for i, j in combinations(range(n), k))
            )
        ok = all(t >= target for t in totals)
        announce(
            7, "positive-residual", ok,
            f"min sum {min(totals):.1f} >= {target:.0f} (d=1, k=2, n=16)",
            time.perf_counter() - t0, 1.0,
        )


class TestCriterion08Preconditioner:
    def test_singular_value_inversion_identity(self):
        t0 = time.perf_counter()
        report = run_experiment(
            ExperimentConfig(experiment="precond", n=256, d=8, trials=20, seed=30)
        )
        inv = crit_from_report(report, "precond-sv-inversion-identity")
        kap = crit_from_report(report, "precond-condition-number-match")
        announce(
            8, "preconditioner-identity", inv["passed"] and kap["passed"],
            f"max sv residual {inv['measured']:.3e}, max kappa residual "
            f"{kap['measured']:.3e}, tol 1e-8, 20 seeds x 3 sketch kinds",
            time.perf_counter() - t0, 30.0,
        )


@pytest.fixture(scope="module")
def jlt_report():
    t0 = time.perf_counter()
    report = run_experiment(
        ExperimentConfig(experiment="jlt", n=512, d=8, trials=20, seed=31)
    )
    report.timings["acceptance_elapsed"] = time.perf_counter() - t0
    return report


class TestCriterion09JltQuality:
    def test_srht_defect_and_embedding_properties(self, jlt_report):
        defect = crit_from_report(jlt_report, "jlt-srht-defect-le-half")
        props = crit_from_report(jlt_report, "jlt-embedding-properties-hold")
        announce(
            9, "jlt-quality", defect["passed"] and props["passed"],
            f"defect <= 0.5 in {defect['measured']}/20 seeds at "
            f"r = {jlt_report.measurements['r_embed']} "
            f"(uncapped {jlt_report.measurements['r_embed_uncapped']}); "
            f"properties hold in {props['measured']}/20",
            jlt_report.timings["acceptance_elapsed"], 60.0,
        )


class TestCriterion10ApproxLeverage:
    def test_leverage_band_and_identity_exactness(self, jlt_report):
        band = crit_from_report(jlt_report, "jlt-approx-leverage-in-band")
        ident = crit_from_report(jlt_report, "jlt-identity-exact-leverage")
        announce(
            10, "approximate-leverage", band["passed"] and ident["passed"],
            f"[1/2, 3/2] band in {band['measured']}/20 seeds at "
            f"r2 = {jlt_report.measurements['r2']}; identity-sketch error "
            f"{ident['measured']:.3e} <= 1e-10",
            jlt_report.timings["acceptance_elapsed"], 60.0,
        )


class TestCriterion11KaczmarzExact:
    def test_error_floor_and_contraction(self):
        t0 = time.perf_counter()
        report = run_experiment(
            ExperimentConfig(experiment="kaczmarz", mode="exact", n=400, d=5,
                             trials=200, seed=32)
        )
        final = crit_from_report(report, "kaczmarz-exact-final-error")
        step = crit_from_report(report, "kaczmarz-exact-per-step-contraction")
        announce(
            11, "kaczmarz-exact", final["passed"] and step["passed"],
            f"mean final error {final['measured']:.5f} <= 1.5 (d/n)||w*||^2 = "
            f"{final['bound']:.5f} at K = {report.measurements['exact_K']}; "
            f"contraction {step['measured']:.4f} <= (1 - 1/d) + 3 SE",
            time.perf_counter() - t0, 60.0,
        )


class TestCriterion12KaczmarzFast:
    def test_slope_and_label_accounting(self):
        t0 = time.perf_counter()
        report = run_experiment(
            ExperimentConfig(experiment="kaczmarz", mode="fast", n=2048, d=8,
                             kappa=1e6, trials=100, iters=400, seed=33)
        )
        slope = crit_from_report(report, "kaczmarz-fast-slope-le-bound")
        labels = crit_from_report(report, "kaczmarz-fast-label-accounting")
        announce(
            12, "kaczmarz-fast", slope["passed"] and labels["passed"],
            f"fitted slope {slope['measured']:.5f} <= ln(1 - 1/(9d)) + 0.02 = "
            f"{slope['bound']:.5f} on the kappa=1e6 instance; labels "
            f"{labels['measured']} <= K = {labels['bound']} "
            "(preprocessing reads the design matrix only)",
            time.perf_counter() - t0, 180.0,
        )


class TestCriterion13Determinism:
    def test_reports_byte_identical_without_timings(self):
        t0 = time.perf_counter()
        pairs = []
        for maker in (
            lambda: run_experiment(
                ExperimentConfig(experiment="one-point", n=64, d=3, seed=34)
            ),
            lambda: run_experiment(
                ExperimentConfig(experiment="sampler", n=10, d=2, k=2,
                                 trials=2000, seed=35)
            ),
        ):
            a, b = (json.loads(maker().to_json()) for _ in range(2))
            a.pop("timings")
            b.pop("timings")
            pairs.append(a == b)
        announce(
            13, "report-determinism", all(pairs),
            "verify reruns byte-identical with timing fields excluded "
            f"({len(pairs)} experiments checked)",
            time.perf_counter() - t0, 30.0,
        )
