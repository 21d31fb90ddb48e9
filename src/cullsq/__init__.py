"""Label-frugal least squares.

Reject k rows jointly, oblivious to the labels, using an influence
distribution over subsets built from leverage scores; solve the reduced
regression with a provable (1 + dk^2/(n-dk)^2) expected-error factor.
Consistent systems get randomized Kaczmarz solvers whose label count is
logarithmic in the conditioning, backed by SRHT/sign-sketch
preconditioners and fast approximate leverage scores.

The package imports lazily (PEP 562): ``import cullsq`` loads neither
numpy nor a computation module, and the first use of a public name
imports the module that defines it.
"""

import importlib

from ._version import __version__

# each public name and the module that defines it
_EXPORTS = {
    "errors": (
        "CullsqError", "DegenerateDistribution", "DimensionMismatch", "InvalidConfig",
        "InvalidDimension", "InvalidInput", "InvalidK", "InvalidRng", "MissingLabels",
        "NonpositiveWeight", "RankDeficient", "SingularDeficientSystem",
        "SketchRankDeficient", "TooLarge", "TrialBudgetExceeded", "ZeroRow",
    ),
    "rng": ("RngStream",),
    "regression": (
        "INDEX_DTYPE", "Dataset", "DeficientFit", "LeverageProfile", "RowSubset", "ThinSvd",
        "deficient_solve", "full_solve", "leverage_scores", "thin_svd",
    ),
    "influence": (
        "AcceptanceBound", "SamplerStats", "default_max_trials",
        "enumerate_subset_distribution", "estimate_acceptance", "rejection_sample_many",
        "rejection_sample_subset", "sample_sum_over_rows_many",
    ),
    "sketching": (
        "Preconditioner", "SketchOperator", "apply_sketch", "approx_leverage",
        "build_preconditioner", "check_embedding_properties", "embedding_defect", "fwht",
        "make_dense_sign_jlt", "make_identity_sketch", "make_srht", "srht_dim",
    ),
    "kaczmarz": (
        "FastSetup", "FastSolverConfig", "KaczmarzRun", "fast_setup", "kaczmarz_exact",
        "kaczmarz_fast", "labels_for_target",
    ),
    "experiments": ("ExperimentConfig", "ExperimentReport", "generate_dataset", "run_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
