"""Exception types shared across the library."""


class CullsqError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(CullsqError, ValueError):
    """An input array or option is malformed: wrong shape, too few rows,
    non-finite entries, or a value outside its range."""


class InvalidRng(CullsqError, TypeError):
    """The random source has the wrong type for the call."""


class ZeroRow(CullsqError):
    """The design matrix contains an all-zero row."""


class RankDeficient(CullsqError):
    """The design matrix is numerically rank deficient."""


class MissingLabels(CullsqError):
    """The operation needs labels but the dataset carries none."""


class SingularDeficientSystem(CullsqError):
    """Deleting the requested rows destroys full column rank."""


class InvalidK(CullsqError):
    """Subset size k is out of range for the given matrix."""


class NonpositiveWeight(CullsqError):
    """Sampling weights must be strictly positive and finite."""


class DegenerateDistribution(CullsqError):
    """Every candidate has zero weight; there is nothing to sample."""


class TrialBudgetExceeded(CullsqError):
    """The rejection sampler ran out of proposals before accepting."""

    def __init__(self, trials, accepted, acceptance_bound):
        self.trials = trials
        self.accepted = accepted
        self.empirical_rate = accepted / trials if trials else 0.0
        self.acceptance_bound = acceptance_bound
        super().__init__(
            f"no acceptance within {trials} proposals "
            f"(empirical rate {self.empirical_rate:.3g}, "
            f"theoretical lower bound {acceptance_bound:.3g})"
        )


class TooLarge(CullsqError):
    """A size limit is exceeded: too many subsets to enumerate, or more
    rows than the index dtype holds."""


class InvalidDimension(CullsqError):
    """A sketch was requested with an unusable embedding dimension."""


class DimensionMismatch(CullsqError):
    """Operand shapes are incompatible."""


class SketchRankDeficient(CullsqError):
    """The sketched matrix lost column rank, no preconditioner exists."""


class InvalidConfig(CullsqError):
    """An experiment configuration violates its constraints."""
