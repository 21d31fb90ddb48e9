"""Verification experiments: generate a design, measure, compare to bounds.

``EXPERIMENTS`` is the one table of experiments: it maps each name to
its body and to the config fields the body reads, with the defaults the
command line starts from (then a ``--config`` file, then flags).  Every
experiment also reads ``seed``, and the command line ``out``; a key or
flag for any other field is refused.  ``ExperimentConfig.validate``
checks each field's type and range; a body checks its own experiment's
preconditions before it draws, then returns ``(criteria, measurements)``.
``run_experiment(cfg)`` is the one way in: it validates, runs the body
``cfg.experiment`` names, times it, stamps the seed on every criterion
and assembles the ``ExperimentReport``.

Every experiment is a pure function of its configuration (the seed
included), reports each measured quantity next to the bound it is
checked against, and emits a JSON-serializable report that is
byte-identical across reruns once timing fields are dropped.

Monte Carlo criteria use mean + 3 standard errors against the bound;
exact-expectation criteria are checked at tight tolerances (1e-10).
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, get_args, get_type_hints

import numpy as np

from ._version import __version__
from .designs import (
    DESIGN_KINDS,
    GAUSSIAN,
    HADAMARD_UNIFORM,
    conditioned_design,
    make_dataset,
    make_design,
)
from .errors import InvalidConfig
from .influence import (
    ENUMERATION_LIMIT,
    _acceptance_ratios,
    _enumerate,
    estimate_acceptance,
    rejection_sample_many,
)
from .kaczmarz import (
    FastSolverConfig,
    fast_setup,
    kaczmarz_exact,
    kaczmarz_fast,
    labels_for_target,
)
from .regression import (
    SPEC_SINGULAR_TOL,
    Dataset,
    _squared_row_norms,
    _subset_projection,
    full_solve,
    leverage_scores,
    thin_svd,
)
from .rng import RngStream
from .sketching import (
    apply_sketch,
    build_preconditioner,
    check_embedding_properties,
    make_dense_sign_jlt,
    make_identity_sketch,
    make_srht,
    next_pow2,
    pinv_factorization_residual,
    approx_leverage,
    srht_dim,
)

EXACT_TOL = 1e-10
SAMPLER_ENUMERATION_LIMIT = 200_000
# false-fail budget of the sampler's total-variation criterion
SAMPLER_TV_DELTA = 1e-6
# squared error, relative to its scale, below which a Kaczmarz trace is
# not checked (see _fit_log_slope)
RELATIVE_ERROR_FLOOR = 1e-22
# what a config field annotated int or float accepts (bool never does)
_FIELD_CHECKS = {int: numbers.Integral, float: numbers.Real}


@dataclass
class ExperimentConfig:
    """The fields of every verification experiment.

    An experiment reads ``seed`` and the fields of its ``EXPERIMENTS``
    entry; ``from_file`` refuses any other, and a direct construction
    leaves them at these defaults.
    """

    experiment: str
    n: int = 100
    d: int = 5
    k: Optional[int] = None
    design: str = GAUSSIAN
    noise: float = 1.0
    trials: int = 2000
    seed: int = 0
    mode: str = "both"
    kappa: float = 1e6
    iters: Optional[int] = None
    out: Optional[str] = None

    def validate(self) -> "ExperimentConfig":
        """Check each field's type and range; each body checks the
        preconditions of its own experiment."""
        self._check_types()
        if self.experiment not in EXPERIMENTS:
            raise InvalidConfig(f"unknown experiment {self.experiment!r}")
        if self.design not in DESIGN_KINDS:
            raise InvalidConfig(f"unknown design {self.design!r}")
        if not (self.n > self.d >= 1):
            raise InvalidConfig(f"need n > d >= 1, got n={self.n}, d={self.d}")
        if self.k is not None and not (1 <= self.k < self.n):
            raise InvalidConfig(f"need 1 <= k < n, got k={self.k}")
        if self.mode not in ("exact", "fast", "both"):
            raise InvalidConfig(f"unknown kaczmarz mode {self.mode!r}")
        if not (math.isfinite(self.kappa) and self.kappa >= 1.0):
            raise InvalidConfig(f"kappa must be finite and >= 1, got {self.kappa}")
        if self.iters is not None and self.iters < 1:
            raise InvalidConfig(f"iters must be >= 1, got {self.iters}")
        return self

    def _check_types(self) -> None:
        """Each field holds its annotated type, None where Optional; a
        float field takes an integer too.  A JSON config can put any
        type in any field, and a comparison on the wrong one raises
        TypeError."""
        for name, hint in get_type_hints(type(self)).items():
            value = getattr(self, name)
            allowed = get_args(hint) or (hint,)
            checks = tuple(_FIELD_CHECKS.get(t, t) for t in allowed)
            if isinstance(value, bool) or not isinstance(value, checks):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise InvalidConfig(f"{name} must be {names}, got {value!r}")

    @classmethod
    def from_file(cls, path=None, **overrides) -> "ExperimentConfig":
        """Config from the experiment's table defaults, then the JSON
        object at ``path`` (if any), then the non-None ``overrides``.

        The experiment is the override's, else the file's; a key it
        does not read raises ``InvalidConfig``.
        """
        raw = {}
        if path is not None:
            with open(path, "r", encoding="ascii") as fh:
                try:
                    raw = json.load(fh)
                except ValueError as exc:  # bad JSON or a non-ASCII byte
                    raise InvalidConfig(f"{path}: {exc}") from None
            if not isinstance(raw, dict):
                raise InvalidConfig(f"{path}: config must be a JSON object")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        name = raw.get("experiment")
        if not isinstance(name, str) or name not in EXPERIMENTS:
            raise InvalidConfig(f"unknown experiment {name!r}")
        fields = EXPERIMENTS[name].fields
        unread = set(raw) - set(fields) - set(EVERY_EXPERIMENT_READS)
        if unread:
            raise InvalidConfig(f"{name} experiment does not read {', '.join(sorted(unread))}")
        return cls(**{**fields, **raw})


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # before the integers: bool is an int, and np.bool_ is neither
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, str) or obj is None:
        return obj
    return str(obj)


@dataclass
class ExperimentReport:
    """Measured quantities, theorem bounds, and per-criterion verdicts."""

    experiment: str
    config: Dict
    library_version: str
    criteria: List[Dict]
    measurements: Dict
    timings: Dict
    passed: bool

    def to_json(self) -> str:
        return json.dumps(_jsonable(asdict(self)), sort_keys=True, indent=2) + "\n"


_COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}


def _criterion(name, measured, bound, cmp="<=", slack=0.0, tol=None):
    """A verdict on ``measured cmp bound``.

    ``slack`` widens the bound in the comparison only (added for "<=",
    subtracted for ">="); it is not reported.  ``tol`` is reported only.
    """
    limit = bound - slack if cmp == ">=" else bound + slack
    entry = {
        "name": name,
        "measured": _jsonable(measured),
        "bound": _jsonable(bound),
        "passed": bool(_COMPARE[cmp](measured, limit)),
    }
    if tol is not None:
        entry["tol"] = float(tol)
    return entry


def generate_dataset(cfg: ExperimentConfig) -> Dataset:
    """Dataset for a config: design kind, size, labels with noise, on
    substream 0 of its seed."""
    cfg.validate()
    return make_dataset(cfg.design, cfg.n, cfg.d, cfg.noise, RngStream(cfg.seed).substream(0))


def _prepare(cfg: ExperimentConfig):
    """The seeded stream, the dataset on its substream 0, its thin SVD,
    leverage profile, the residuals X w* - y of the optimal fit and the
    optimal error."""
    data = generate_dataset(cfg)
    svd = thin_svd(data)
    w_star, opt_error = full_solve(data, svd)
    rng = RngStream(cfg.seed)
    return rng, data, svd, leverage_scores(svd), data.X @ w_star - data.y, opt_error


def _require(ok: bool, message: str) -> None:
    """A body's precondition on its config: ``InvalidConfig(message)`` unless ``ok``."""
    if not ok:
        raise InvalidConfig(message)


def _mean_sem(values: np.ndarray):
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def _consistent_check(data: Dataset, opt_error: float, prefix: str, error: float):
    """``[criterion]`` checking ``error`` against an absolute 1e-12 scale
    when the system is consistent (the optimal error is at a 1e-20
    floor, so a ratio to it means nothing); ``[]`` otherwise."""
    scale = 1.0 + float(data.y @ data.y)
    if opt_error > 1e-20 * scale:
        return []
    return [_criterion(f"{prefix}-consistent-absolute", error, 1e-12 * scale)]


def _exact_expectation(data, opt_error, probs, increases, measurements, prefix, name, bound):
    """Criteria on the exact expected error opt + sum_A p_A increase_A:
    ``_consistent_check`` on a consistent system, else the ratio to the
    optimum against ``bound`` at ``EXACT_TOL`` as criterion ``name``.
    Records ``expected_error`` and ``ratio`` in ``measurements``."""
    expected = opt_error + float(probs @ increases)
    measurements["expected_error"] = expected
    criteria = _consistent_check(data, opt_error, prefix, expected)
    if not criteria:
        ratio = measurements["ratio"] = expected / opt_error
        criteria.append(_criterion(name, ratio, bound, slack=EXACT_TOL, tol=EXACT_TOL))
    return criteria


# ----------------------------------------------------------------------
# one-point
# ----------------------------------------------------------------------

def _one_point(cfg: ExperimentConfig):
    """Exact single-row rejection expectation against (1 + d/(n-d)^2),
    the k-points theorem bound at k = 1.

    The expectation is a finite sum over rows, so no sampling is needed:
    the probabilities and increases come from the exact oracle's one pass
    at k = 1, as exact k-points reads them.  On the uniform-leverage
    design the bound is attained exactly.
    """
    _, data, svd, profile, residuals, opt_error = _prepare(cfg)
    bound = 1.0 + cfg.d / (cfg.n - cfg.d) ** 2
    measurements = {
        "opt_error": opt_error,
        "bound_ratio": bound,
        "z1": profile.z1,
        "z1_lower_bound": (cfg.n - cfg.d) ** 2 / cfg.d,
    }
    _, _, probs, increases = _enumerate(svd, 1, residuals)
    criteria = _exact_expectation(
        data, opt_error, probs, increases, measurements,
        "one-point", "one-point-ratio-le-bound", bound,
    )
    if "ratio" in measurements and cfg.design == HADAMARD_UNIFORM:
        criteria.append(_criterion("one-point-ratio-equals-bound",
                                   abs(measurements["ratio"] - bound),
                                   EXACT_TOL, tol=EXACT_TOL))
    return criteria, measurements


# ----------------------------------------------------------------------
# k-points
# ----------------------------------------------------------------------

def _k_points(cfg: ExperimentConfig):
    """Joint k-row rejection expectation against (1 + dk^2/(n-dk)^2).

    Exact enumeration when C(n, k) <= 2e6, one kernel pass giving the
    probabilities and the increases, otherwise Monte Carlo over the
    rejection sampler with mean + 3 SE reported against the bound.
    """
    _require(cfg.k is not None, "k-points experiment needs k")
    _require(cfg.k < cfg.n / cfg.d,
             f"k-points theorem needs k < n/d, got k={cfg.k}, n/d={cfg.n / cfg.d:.3g}")
    _require(cfg.trials >= 2, "k-points experiment needs trials >= 2")  # for a standard error
    rng, data, svd, profile, residuals, opt_error = _prepare(cfg)
    k = cfg.k
    theorem_bound = 1.0 + cfg.d * k**2 / (cfg.n - cfg.d * k) ** 2
    target_bound = 1.0 + cfg.d / cfg.n
    exact = math.comb(cfg.n, k) <= ENUMERATION_LIMIT
    measurements = {
        "opt_error": opt_error,
        "theorem_bound": theorem_bound,
        "target_bound": target_bound,
        "k_for_target": math.floor(cfg.n / (cfg.d + math.sqrt(cfg.n))),
        "mode": "exact" if exact else "monte-carlo",
    }
    if exact:
        _, _, probs, increases = _enumerate(svd, k, residuals)
        criteria = _exact_expectation(
            data, opt_error, probs, increases, measurements, "k-points",
            "k-points-exact-ratio-le-bound", theorem_bound,
        )
        return criteria, measurements

    subsets, stats = rejection_sample_many(svd, profile, k, cfg.trials, rng.substream(1))
    _, increases = _subset_projection(svd, subsets, residuals[subsets])
    measurements["proposals"] = stats.proposals
    measurements["accepted"] = stats.accepted
    measurements["acceptance_rate"] = stats.acceptance_rate
    criteria = _consistent_check(data, opt_error, "k-points", float(np.max(increases)))
    if not criteria:
        mean, sem = _mean_sem(1.0 + increases / opt_error)
        measurements["mean_ratio"] = mean
        measurements["sem_ratio"] = sem
        criteria = [
            _criterion("k-points-mc-ratio-le-theorem-bound", mean + 3 * sem, theorem_bound),
            _criterion("k-points-mc-ratio-le-target", mean + 3 * sem, target_bound),
        ]
    return criteria, measurements


# ----------------------------------------------------------------------
# sampler
# ----------------------------------------------------------------------

def _null_tv_bound(probs: np.ndarray, trials: int, delta: float) -> float:
    """Bound that the TV distance of ``trials`` exact draws from ``probs``
    exceeds with probability at most ``delta``: E[TV] + sqrt(ln(1/delta)
    / (2 N)).

    E[TV] = (1/2N) sum_i E|X_i - N p_i| with X_i ~ Bin(N, p_i), each term
    from de Moivre's closed form for the binomial mean absolute
    deviation, 2 m C(N, m) p^m (1 - p)^(N - m + 1) with m = floor(N p) + 1.
    One draw moves the TV by at most 1/N, so McDiarmid's inequality gives
    the deviation term.
    """
    N = trials
    p = np.asarray(probs, dtype=float)
    m = np.floor(N * p) + 1.0
    live = (p > 0.0) & (m <= N)
    p, m = p[live], m[live]
    log_choose = np.array(
        [math.lgamma(N + 1) - math.lgamma(j + 1) - math.lgamma(N - j + 1) for j in m]
    )
    mean_abs = 2.0 * np.exp(
        np.log(m) + log_choose + m * np.log(p) + (N - m + 1) * np.log1p(-p)
    )
    return float(mean_abs.sum()) / (2 * N) + math.sqrt(math.log(1.0 / delta) / (2 * N))


def _enumerated_row(subsets: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Index of each row of ``rows`` in ``subsets``, the lexicographic
    k-subsets of range(n), by its rank C(n, k) - 1 - sum_i C(n-1-a_i, k-i);
    -1 where no subset equals the row.  No binomial a valid row reads
    exceeds C(n, k), so the table is capped there and its indices
    clipped: a repeated or out-of-range index cannot overflow.
    """
    total, k = subsets.shape
    comb = np.ones((n, k + 1), dtype=np.int64)  # min(C(m, j), total)
    for j in range(1, k + 1):  # C(m, j) = sum_{t < m} C(t, j - 1)
        comb[:, j] = np.minimum(np.cumsum(comb[:, j - 1]) - comb[:, j - 1], total)
    terms = comb[np.clip(n - 1 - rows, 0, n - 1), np.arange(k, 0, -1)]
    rank = np.clip(total - 1 - terms.sum(axis=1), 0, total - 1)
    return np.where((subsets[rank] == rows).all(axis=1), rank, -1)


def _sampler(cfg: ExperimentConfig):
    """Rejection sampler exactness and acceptance-rate checks.

    Compares the empirical distribution of accepted draws to the
    enumerated influence distribution (total variation), checks that
    every acceptance ratio is at most 1, that no degenerate subset is
    ever returned, and, where n >= 8 d k makes it a theorem, that the
    empirical acceptance rate clears its k^2/(n mu) lower bound (the rate,
    its SE and the bound are reported at every size).

    The TV bound is the null mean at the run's own number of draws plus
    a McDiarmid deviation (:func:`_null_tv_bound`), so an exact sampler
    fails it with probability at most delta = ``SAMPLER_TV_DELTA`` =
    1e-6, at any ``trials``.  At the defaults (45 subsets, 1e5 draws)
    the bound is 0.0159, and a sampler that accepts every proposal
    measures TV about 0.27.  Where the draws are so few against the
    subsets that the bound reaches 1, the largest TV there is, no sampler
    could fail it, and the config is rejected with ``InvalidConfig``.

    Each draw's spectral norm is read at its enumerated row, found by
    rank (:func:`_enumerated_row`).  A draw that matches no row (a
    repeated or out-of-range index) counts in no bin and as norm 1.
    """
    _require(cfg.k is not None, "sampler experiment needs k")
    _require(math.comb(cfg.n, cfg.k) <= SAMPLER_ENUMERATION_LIMIT,
             "sampler verification needs C(n, k) <= 2e5 to enumerate")
    _require(cfg.trials >= 1, "sampler experiment needs trials >= 1")
    rng = RngStream(cfg.seed)
    # the X make_dataset draws first on the same stream; no labels are read
    svd = thin_svd(Dataset(X=make_design(cfg.design, cfg.n, cfg.d, rng.substream(0))))
    profile = leverage_scores(svd)
    k = cfg.k
    subsets_enum, spec, probs, _ = _enumerate(svd, k)
    tv_bound = _null_tv_bound(probs, cfg.trials, SAMPLER_TV_DELTA)
    _require(tv_bound < 1.0, f"the sampler's TV bound is {tv_bound:.4f} at {cfg.trials} draws "
             f"over {len(probs)} subsets, so no sampler can fail it; raise --trials")

    q_weights = (1.0 / profile.ell)[subsets_enum].sum(axis=1)
    max_theta = float(_acceptance_ratios(spec, q_weights, svd.d, k).max())

    draws, stats = rejection_sample_many(svd, profile, k, cfg.trials, rng.substream(1))
    row = _enumerated_row(subsets_enum, draws, cfg.n)
    counts = np.bincount(row[row >= 0], minlength=len(probs))
    tv = 0.5 * float(np.abs(counts / cfg.trials - probs).sum())

    max_drawn_spec = float(np.where(row >= 0, spec[row], 1.0).max())
    bound = estimate_acceptance(profile, k, svd.d)
    rate = stats.acceptance_rate
    rate_se = math.sqrt(max(rate * (1.0 - rate), 0.0) / stats.proposals)

    criteria = [
        _criterion("sampler-tv-lt-bound", tv, tv_bound, cmp="<"),
        _criterion("sampler-theta-le-1", max_theta, 1.0, slack=EXACT_TOL, tol=EXACT_TOL),
        _criterion("sampler-no-degenerate-draws", max_drawn_spec,
                   1.0 - SPEC_SINGULAR_TOL, cmp="<"),
    ]
    if bound.precondition_met:
        criteria.append(_criterion("sampler-acceptance-ge-bound", rate, bound.lower_bound,
                                   cmp=">=", slack=3.0 * rate_se))
    measurements = {
        "tv_distance": tv,
        "max_theta": max_theta,
        "draws": cfg.trials,
        "proposals": stats.proposals,
        "accepted": stats.accepted,
        "acceptance_rate": rate,
        "acceptance_rate_se": rate_se,
        "acceptance_lower_bound": bound.lower_bound,
        "acceptance_bound_guaranteed": bound.precondition_met,
        "mean_trials_per_accept": stats.proposals / max(stats.accepted, 1),
        "coherence_mu": profile.coherence_mu,
    }
    return criteria, measurements


# ----------------------------------------------------------------------
# preconditioner
# ----------------------------------------------------------------------

def _preconditioner(cfg: ExperimentConfig):
    """Singular-value inversion identity across sketch families.

    For each seed and each sketch kind, the singular values of X R^{-1}
    must be the reversed inverses of those of (Pi U), and the condition
    numbers must agree, both to 1e-8 relative.
    """
    _require(cfg.trials >= 1, "precond experiment needs trials >= 1")
    rng = RngStream(cfg.seed)
    seeds = cfg.trials
    r = min(max(8 * cfg.d, 32), next_pow2(cfg.n))
    worst_inv = worst_kappa = worst_identity = 0.0
    for i in range(seeds):
        sub = rng.substream(i)
        X = make_design(cfg.design, cfg.n, cfg.d, sub.substream(0))
        svd = thin_svd(Dataset(X=X))
        ops = {
            "identity": make_identity_sketch(cfg.n),
            "dense_sign": make_dense_sign_jlt(cfg.n, r, sub.substream(1)),
            "srht": make_srht(cfg.n, r, sub.substream(2)),
        }
        for kind, op in ops.items():
            PU = apply_sketch(op, svd.basis) @ svd.factor
            s_pu = np.linalg.svd(PU, compute_uv=False)
            precond = build_preconditioner(X, op)
            s_z = np.linalg.svd(precond.x_times_inverse(X), compute_uv=False)
            inv_resid = float(np.max(np.abs(s_z * s_pu[::-1] - 1.0)))
            kappa_resid = abs((s_z[0] / s_z[-1]) / (s_pu[0] / s_pu[-1]) - 1.0)
            worst_inv = max(worst_inv, inv_resid)
            worst_kappa = max(worst_kappa, kappa_resid)
            if kind == "identity":
                worst_identity = max(worst_identity, float(np.max(np.abs(s_z - 1.0))))
    criteria = [
        _criterion("precond-sv-inversion-identity", worst_inv, 1e-8, tol=1e-8),
        _criterion("precond-condition-number-match", worst_kappa, 1e-8, tol=1e-8),
        _criterion("precond-identity-unit-singular-values", worst_identity,
                   EXACT_TOL, tol=EXACT_TOL),
    ]
    measurements = {
        "sketch_dimension": r,
        "seeds": seeds,
        "max_sv_inversion_residual": worst_inv,
        "max_condition_number_residual": worst_kappa,
        "max_identity_sv_deviation": worst_identity,
    }
    return criteria, measurements


# ----------------------------------------------------------------------
# kaczmarz
# ----------------------------------------------------------------------

def _fit_log_slope(means: np.ndarray) -> float:
    """Least-squares slope of ln(mean squared error) against the step,
    over the steps whose mean is above ``RELATIVE_ERROR_FLOOR`` times
    the first.

    The floor is about (1e5 u)^2, u = 2^-53 the float64 unit roundoff.
    A float64 iterate's squared error bottoms out near u^2 of its scale
    (3e-33 to 5e-33 of kappa(R)^2 ||w*||^2 in the fast weight traces at
    kappa = 10, 1e6 and 1e10), so a step above the floor is ten orders
    clear of rounding and still follows its rate.  The weight-space
    criterion checks the steps whose bound factor rate^t is above the
    same floor, so rate^t never underflows to zero.
    """
    floor = means[0] * RELATIVE_ERROR_FLOOR
    valid = means > max(floor, 0.0)
    ts = np.flatnonzero(valid)
    return float(np.polyfit(ts, np.log(means[valid]), 1)[0])


def _kaczmarz(cfg: ExperimentConfig):
    """Convergence-rate checks for the exact and fast solvers.

    exact: with K = ceil(d ln(n kappa^2/d)) steps on a consistent
    system, the mean final weight error over the trials must be at most
    1.5 (d/n) ||w*||^2, the first step must contract by (1 - 1/d) within
    3 SE, and the whole error profile must track (1 - 1/d)^t.

    fast: on a conditioned instance the fitted log-slope of the mean
    squared error must be at most ln(1 - 1/(9d)) + 0.02, the mean weight
    error must stay under (1 - 1/(9d))^t kappa(R)^2 ||w*||^2 at every
    step t above the rounding floor (:func:`_fit_log_slope`),
    preprocessing reads no labels, and the label count is bounded by the
    iteration count.
    """
    _require(cfg.d >= 2, "kaczmarz experiment needs d >= 2: one projection solves a d = 1 "
             "system, leaving no rate to check")
    _require(cfg.trials >= 2, "kaczmarz experiment needs trials >= 2")  # for standard errors
    rng = RngStream(cfg.seed)
    criteria = []
    measurements = {}

    if cfg.mode in ("exact", "both"):
        data = make_dataset(GAUSSIAN, cfg.n, cfg.d, 0.0, rng.substream(0))
        svd = thin_svd(data)
        w_star, _ = full_solve(data, svd)
        kappa = svd.condition_number
        K = labels_for_target(cfg.n, cfg.d, kappa, "exact")
        trials = cfg.trials

        runs = [
            kaczmarz_exact(svd, data.y, K, rng.substream(1000 + i), w_star=w_star)
            for i in range(trials)
        ]
        final_errors = np.array([float((r.w - w_star) @ (r.w - w_star)) for r in runs])
        traces = np.stack([r.error_trace for r in runs])
        w_norm_sq = float(w_star @ w_star)
        mean_final, _ = _mean_sem(final_errors)
        final_bound = 1.5 * (cfg.d / cfg.n) * w_norm_sq
        criteria.append(_criterion("kaczmarz-exact-final-error", mean_final, final_bound))

        one_steps = [
            kaczmarz_exact(svd, data.y, 1, rng.substream(5000 + i), w_star=w_star)
            for i in range(max(500, trials))
        ]
        steps = np.stack([r.error_trace for r in one_steps])
        v_norm_sq = steps[0, 0]
        factors = steps[:, 1] / v_norm_sq
        mean_factor, sem_factor = _mean_sem(factors)
        rate = 1.0 - 1.0 / cfg.d
        criteria.append(_criterion("kaczmarz-exact-per-step-contraction", mean_factor,
                                   rate, slack=3 * sem_factor))

        horizon = min(5 * cfg.d, K)
        profile_gap = -np.inf
        for t in range(1, horizon + 1):
            mean_t, sem_t = _mean_sem(traces[:, t])
            bound_t = rate**t * v_norm_sq
            profile_gap = max(profile_gap, mean_t - bound_t - 3 * sem_t)
        criteria.append(_criterion("kaczmarz-exact-rate-profile", profile_gap, 0.0))
        measurements.update(
            exact_K=K, exact_kappa=kappa, exact_mean_final_error=mean_final,
            exact_final_bound=final_bound, exact_mean_contraction=mean_factor,
            exact_contraction_bound=rate, exact_max_labels=max(r.labels_used for r in runs),
            exact_trials=trials,
        )

    if cfg.mode in ("fast", "both"):
        gen = rng.substream(1).generator()
        X = conditioned_design(cfg.n, cfg.d, cfg.kappa, gen)
        w0 = gen.standard_normal(cfg.d)
        data = Dataset(X=X, y=X @ w0)
        svd = thin_svd(data)
        w_star, _ = full_solve(data, svd)
        setup = fast_setup(X, FastSolverConfig(), rng.substream(2))
        K = 400 if cfg.iters is None else cfg.iters
        trials = cfg.trials if cfg.mode == "fast" else min(cfg.trials, 100)

        runs = [
            kaczmarz_fast(data, K, rng.substream(20_000 + i), w_star=w_star, setup=setup)
            for i in range(trials)
        ]
        traces = np.stack([r.error_trace for r in runs])
        w_traces = np.stack([r.w_error_trace for r in runs])
        max_labels = max(r.labels_used for r in runs)
        slope = _fit_log_slope(traces.mean(axis=0))
        slope_bound = math.log(1.0 - 1.0 / (9.0 * cfg.d)) + 0.02
        criteria.append(_criterion("kaczmarz-fast-slope-le-bound", slope, slope_bound))
        criteria.append(_criterion("kaczmarz-fast-label-accounting", max_labels, K))
        # trend bound in weight space: contraction^t scaled by the squared
        # singular-value ratio of R, over the steps with rate^t above the
        # rounding floor
        s_r = np.linalg.svd(setup.precond.r_matrix(), compute_uv=False)
        kappa_r_sq = (s_r[0] / s_r[-1]) ** 2
        w_norm_sq = float(w_star @ w_star)
        rate = 1.0 - 1.0 / (9.0 * cfg.d)
        decay = rate ** np.arange(w_traces.shape[1])
        checked = decay >= RELATIVE_ERROR_FLOOR
        w_means = w_traces.mean(axis=0)[checked]
        w_gap = float(np.max(w_means / (decay[checked] * kappa_r_sq * w_norm_sq)))
        criteria.append(_criterion("kaczmarz-fast-w-space-bound", w_gap, 1.0, slack=1e-6))
        measurements.update(
            fast_K=K, fast_trials=trials, fast_slope=slope, fast_slope_bound=slope_bound,
            fast_kappa_R_sq=kappa_r_sq, fast_max_labels=max_labels, fast_r1=setup.column_op.r,
            fast_design_kappa=cfg.kappa,
        )
    return criteria, measurements


# ----------------------------------------------------------------------
# jlt
# ----------------------------------------------------------------------

def _jlt(cfg: ExperimentConfig):
    """SRHT embedding quality and approximate-leverage accuracy.

    The 1/2-embedding dimension from the SRHT bound is capped at the
    padded input size (at desk scale the bound exceeds n, making the
    sketch orthogonal and the check exact).  Leverage estimates from the
    72 ln(n+1) row-space sign sketch must stay within [1/2, 3/2] of the
    true preconditioned row norms in at least 19 of 20 seeds; identity
    sketches must reproduce the leverage scores exactly.
    """
    _require(cfg.d >= 2, "jlt experiment needs d >= 2: the SRHT size's ln d factor is 0 at d = 1")
    _require(cfg.trials >= 2, "jlt experiment needs trials >= 2")  # a seed count may miss one
    rng = RngStream(cfg.seed)
    seeds = cfg.trials
    n, d = cfg.n, cfg.d
    X = make_design(cfg.design, n, d, rng.substream(0))
    svd = thin_svd(Dataset(X=X))
    profile = leverage_scores(svd)

    r_embed = min(srht_dim(n, d, 0.5, 0.05), next_pow2(n))
    defect_hits = 0
    properties_ok = 0
    part4_worst = 0.0
    defects = []
    for i in range(seeds):
        op = make_srht(n, r_embed, rng.substream(100 + i))
        SX = apply_sketch(op, X)
        # S U = (S basis) factor; the basis is X unless X took a second pass
        PU = (SX if svd.basis is X else apply_sketch(op, svd.basis)) @ svd.factor
        report = check_embedding_properties(PU)
        defects.append(report["defect"])
        if report["defect"] <= 0.5:
            defect_hits += 1
        part4 = pinv_factorization_residual(SX, PU, svd.sigma, svd.V)
        scale = 1.0 + float(np.linalg.norm(np.linalg.pinv(SX), ord=2))
        part4_worst = max(part4_worst, part4 / scale)
        if report["applicable"] and report["all_hold"] and part4 <= 1e-8 * scale:
            properties_ok += 1

    # leverage estimates: fixed preconditioner, fresh row-space sketch per seed
    cfg_fast = FastSolverConfig()
    op1 = make_srht(n, cfg_fast.resolve_r1(n, d), rng.substream(50))
    precond = build_preconditioner(X, op1)
    true_row_sq = _squared_row_norms(X, precond.Rinv)
    r2 = cfg_fast.resolve_r2(n)
    leverage_hits = 0
    for i in range(seeds):
        op2 = make_dense_sign_jlt(d, r2, rng.substream(300 + i))
        ratios = approx_leverage(X, precond, op2) / true_row_sq
        if ratios.min() >= 0.5 and ratios.max() <= 1.5:
            leverage_hits += 1

    ident = approx_leverage(
        X, build_preconditioner(X, make_identity_sketch(n)), make_identity_sketch(d)
    )
    ident_err = float(np.max(np.abs(ident - profile.ell)))

    need = seeds - 1
    criteria = [
        _criterion("jlt-srht-defect-le-half", defect_hits, need, cmp=">="),
        _criterion("jlt-embedding-properties-hold", properties_ok, need, cmp=">=", tol=1e-8),
        _criterion("jlt-approx-leverage-in-band", leverage_hits, need, cmp=">="),
        _criterion("jlt-identity-exact-leverage", ident_err, EXACT_TOL, tol=EXACT_TOL),
    ]
    measurements = {
        "r_embed": r_embed,
        "r_embed_uncapped": srht_dim(n, d, 0.5, 0.05),
        "r2": r2,
        "seeds": seeds,
        "max_defect": float(np.max(defects)),
        "defect_hits": defect_hits,
        "properties_ok": properties_ok,
        "part4_worst_relative": part4_worst,
        "leverage_hits": leverage_hits,
        "identity_leverage_error": ident_err,
    }
    return criteria, measurements


# ----------------------------------------------------------------------
# the table and the runner
# ----------------------------------------------------------------------

class Experiment(NamedTuple):
    """A verification body and the config fields it reads, each with
    the default the command line starts it from."""

    body: Callable[[ExperimentConfig], Tuple[List[Dict], Dict]]
    fields: Dict


# the fields besides its table entry's that every experiment takes; the
# command line reads ``out``
EVERY_EXPERIMENT_READS = ("experiment", "seed", "out")

EXPERIMENTS: Dict[str, Experiment] = {
    "one-point": Experiment(_one_point, dict(n=100, d=5, design=GAUSSIAN, noise=1.0)),
    "k-points": Experiment(_k_points, dict(n=12, d=2, k=2, design=GAUSSIAN, noise=1.0,
                                           trials=2000)),
    "sampler": Experiment(_sampler, dict(n=10, d=2, k=2, design=GAUSSIAN, trials=100_000)),
    "precond": Experiment(_preconditioner, dict(n=256, d=8, design=GAUSSIAN, trials=20)),
    "kaczmarz": Experiment(_kaczmarz, dict(n=400, d=5, trials=200, mode="both", kappa=1e6,
                                           iters=None)),
    "jlt": Experiment(_jlt, dict(n=512, d=8, design=GAUSSIAN, trials=20)),
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Validate ``cfg``, run its experiment's body and report."""
    cfg.validate()
    experiment = EXPERIMENTS[cfg.experiment]
    t0 = time.perf_counter()
    criteria, measurements = experiment.body(cfg)
    for crit in criteria:
        crit["seed"] = int(cfg.seed)
    return ExperimentReport(
        experiment=cfg.experiment,
        config={name: getattr(cfg, name)
                for name in (*EVERY_EXPERIMENT_READS, *experiment.fields)},
        library_version=__version__,
        criteria=criteria,
        measurements=measurements,
        timings={"wall_clock_s": time.perf_counter() - t0},
        passed=all(c["passed"] for c in criteria),
    )
