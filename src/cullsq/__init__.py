"""Label-frugal least squares.

Reject k rows jointly, oblivious to the labels, using an influence
distribution over subsets built from leverage scores; solve the reduced
regression with a provable (1 + dk^2/(n-dk)^2) expected-error factor.
Consistent systems get randomized Kaczmarz solvers whose label count is
logarithmic in the conditioning, backed by SRHT/sign-sketch
preconditioners and fast approximate leverage scores.
"""

from ._version import __version__
from .errors import (
    CullsqError,
    DegenerateDistribution,
    DimensionMismatch,
    InvalidConfig,
    InvalidDimension,
    InvalidInput,
    InvalidK,
    InvalidRng,
    MissingLabels,
    NonpositiveWeight,
    RankDeficient,
    SingularDeficientSystem,
    SketchRankDeficient,
    TooLarge,
    TrialBudgetExceeded,
    ZeroRow,
)
from .rng import RngStream
from .regression import (
    INDEX_DTYPE,
    Dataset,
    DeficientFit,
    LeverageProfile,
    RowSubset,
    ThinSvd,
    deficient_solve,
    full_solve,
    leverage_scores,
    thin_svd,
)
from .influence import (
    AcceptanceBound,
    SamplerStats,
    default_max_trials,
    enumerate_subset_distribution,
    estimate_acceptance,
    rejection_sample_many,
    rejection_sample_subset,
    sample_sum_over_rows_many,
    single_row_influences,
)
from .sketching import (
    Preconditioner,
    SketchOperator,
    apply_sketch,
    approx_leverage,
    build_preconditioner,
    check_embedding_properties,
    embedding_defect,
    fwht,
    make_dense_sign_jlt,
    make_identity_sketch,
    make_srht,
    srht_dim,
)
from .kaczmarz import (
    FastSetup,
    FastSolverConfig,
    KaczmarzRun,
    fast_setup,
    kaczmarz_exact,
    kaczmarz_fast,
    kaczmarz_row_norm,
    labels_for_target,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    generate_dataset,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
