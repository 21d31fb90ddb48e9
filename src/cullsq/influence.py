"""Joint influence distribution over row subsets, with exact samplers.

The influence of a k-subset A of rows is proportional to
(1 - s_A)^2 / s_A where s_A = ||U_A U_A^T||_2 is the spectral norm of
the subset's partial projection.  Subsets whose removal would destroy
full rank (s_A within 1e-10 of 1) get weight zero.

Sampling uses rejection: propose from the sum-over-rows distribution
q_A proportional to sum_{i in A} 1/ell_i (exactly realizable by drawing
one row from the normalized weights and the rest uniformly), then accept
with ratio

    theta_A = [(1 - s_A)^2 / s_A] / [(d / k^2) * sum_{i in A} 1/ell_i],

the influence weight over the proposal weight, which is always at most
1, so accepted subsets are distributed exactly according to the
influence probabilities.  The acceptance probability is at least
k^2 / (n * mu) with mu the mean inverse leverage, provided n >= 8 d k.

One rejection loop serves every sampler; a single draw is a round of
proposals that stops at its first acceptance.  A round of B proposals
costs O(B k log k) time and holds O(B k) memory plus a fixed-size block
of gathered rows U_A.  The cumulative proposal weights, the one O(n)
array, are built once per :class:`LeverageProfile`, on first use, and
kept on it (``proposal_cdf``); the acceptance ratio reads 1/ell only at
the proposed rows, so no draw allocates an array sized by n.  Every
subset index array returned (the samplers' draws, the oracle's rows and
the one read-only array a :class:`RowSubset` stores) has the one dtype
``INDEX_DTYPE``, int32; a single draw is the :class:`RowSubset` of its
sampled row.

The exact oracle, :func:`enumerate_subset_distribution`, returns every
k-subset as one (C(n, k), k) index array and the probabilities as one
array, from one pass of the blocked kernel.  Near its C(n, k) <= 2e6
limit (200 x 5, k = 3, 1,313,400 subsets, one BLAS thread on a 2-core
Xeon) it takes 2.3-2.8 s and a 46 MB tracemalloc peak.  Given the
residuals of the optimal fit, the same pass (:func:`_enumerate`) also
returns each subset's closed-form error increase, so every exact check
reads one pass.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateDistribution,
    InvalidK,
    NonpositiveWeight,
    TooLarge,
    TrialBudgetExceeded,
)
from .regression import (
    SPEC_SINGULAR_TOL,
    LeverageProfile,
    RowSubset,
    ThinSvd,
    _subset_projection,
    index_dtype,
)
from .rng import as_generator, inverse_cdf_draw

ENUMERATION_LIMIT = 2_000_000
DEFAULT_BATCH = 4096


def _check_weights(f_values: np.ndarray) -> np.ndarray:
    f = np.asarray(f_values, dtype=float)
    if f.ndim != 1:
        raise NonpositiveWeight("weights must be a 1-D array")
    if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
        raise NonpositiveWeight("weights must be finite and strictly positive")
    return f


def sample_sum_over_rows_many(f_values, k: int, count: int, rng) -> np.ndarray:
    """Draw ``count`` independent k-subsets from the sum-over-rows
    distribution, P[A] = sum_{i in A} f_i / (C(n-1, k-1) * sum_j f_j),
    as a (count, k) ``INDEX_DTYPE`` array of sorted index rows.

    Each row is one index drawn by inverse CDF over the weights plus a
    uniform (k-1)-subset of the other n-1 indices, which costs O(k) per
    row (see :func:`_uniform_subsets`).
    """
    f = _check_weights(f_values)
    n = f.shape[0]
    dtype = index_dtype(n)
    if not (1 <= k <= n):
        raise InvalidK(f"k={k} out of range for n={n}")
    if count < 1:
        raise InvalidK("count must be at least 1")
    gen = as_generator(rng)
    return _propose_batch(gen, np.cumsum(f), n, k, count).astype(dtype)


def _uniform_subsets(gen, m: int, size: int, batch: int) -> np.ndarray:
    """(batch, size) sorted rows, each a uniform size-subset of range(m).

    Values are drawn with replacement; the positions that repeat a value
    are redrawn until no row has a duplicate.  The rule only looks at the
    multiset a row holds, so it commutes with relabelling range(m) and the
    final row is an exactly uniform subset.  Above m/2 the complement is
    drawn instead, so the redraw loop stays short as size nears m.
    """
    if 2 * size > m:
        drop = _uniform_subsets(gen, m, m - size, batch)
        keep = np.ones((batch, m), dtype=bool)
        keep[np.arange(batch)[:, None], drop] = False
        return np.nonzero(keep)[1].reshape(batch, size)
    rows = np.sort(gen.integers(0, m, size=(batch, size), dtype=np.intp), axis=1)
    active = np.arange(batch)
    while active.size:
        sub = rows[active]
        dup = np.zeros(sub.shape, dtype=bool)
        dup[:, 1:] = sub[:, 1:] == sub[:, :-1]
        hit = dup.any(axis=1)
        active, sub, dup = active[hit], sub[hit], dup[hit]
        sub[dup] = gen.integers(0, m, size=int(dup.sum()), dtype=np.intp)
        sub.sort(axis=1)
        rows[active] = sub
    return rows


def _propose_batch(gen, cumulative, n, k, batch) -> np.ndarray:
    first = inverse_cdf_draw(gen, cumulative, batch)
    rest = _uniform_subsets(gen, n - 1, k - 1, batch)
    rest += rest >= first[:, None]
    subsets = np.concatenate([first[:, None], rest], axis=1)
    subsets.sort(axis=1)
    return subsets


def _influence_weights(spec: np.ndarray) -> np.ndarray:
    """Unnormalized influence weight (1-s)^2/s, zero at near-singular s."""
    spec = np.asarray(spec, dtype=float)
    weights = (1.0 - spec) ** 2 / np.clip(spec, 1e-300, None)
    return np.where(spec >= 1.0 - SPEC_SINGULAR_TOL, 0.0, weights)


def _acceptance_ratios(spec, q_weight, d: int, k: int) -> np.ndarray:
    """theta = [(1-s)^2/s] / [(d/k^2) q]: the influence weight over the
    sum-over-rows proposal weight, zero where s is within 1e-10 of 1."""
    return _influence_weights(spec) * (k * k / d) / q_weight


def default_max_trials(profile: LeverageProfile, k: int) -> int:
    """Proposal budget: 50x the expected trials implied by the
    k^2/(n*mu) acceptance lower bound."""
    return int(math.ceil(50.0 * profile.n * profile.coherence_mu / k**2))


class AcceptanceBound(NamedTuple):
    """Lower bound k^2/(n*mu) on the acceptance probability.

    ``precondition_met`` flags whether n >= 8dk, the regime in which the
    bound is guaranteed; outside it the value is reported but not
    guaranteed.
    """

    lower_bound: float
    precondition_met: bool


def estimate_acceptance(
    profile: LeverageProfile, k: int, d: Optional[int] = None
) -> AcceptanceBound:
    """The k^2/(n mu) bound and whether n >= 8 d k holds.

    ``d`` is the column count, which callers holding the
    :class:`ThinSvd` pass as ``svd.d``.  Without it d is taken as the
    rounded sum of the leverage scores, an O(n) pass that is exact only
    while the scores are.
    """
    n = profile.n
    if d is None:
        d = int(round(float(np.sum(profile.ell))))
    bound = k**2 / (n * profile.coherence_mu)
    return AcceptanceBound(lower_bound=bound, precondition_met=n >= 8 * d * k)


class SamplerStats(NamedTuple):
    proposals: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else 0.0


def _accept_reject(svd, profile, k, count, rng):
    """The rejection loop behind both public samplers, within
    ``default_max_trials`` proposals per subset.  Keeping the first
    ``count`` accepted proposals of an i.i.d. stream gives exact draws
    however the stream is cut into rounds.  A round proposes the count
    still needed over the rate estimate (accepted + 1) / (proposals + 1),
    floored at the k^2/(n mu) bound and capped at DEFAULT_BATCH.  Returns
    the draws, the statistics and the stream position of the last draw kept.
    """
    n, d = svd.n, svd.d
    dtype = index_dtype(n)
    if not (1 <= k < n):
        raise InvalidK(f"k={k} out of range for n={n}")
    if count < 1:
        raise InvalidK("count must be at least 1")
    budget = default_max_trials(profile, k) * count
    gen = as_generator(rng)
    cumulative = profile.proposal_cdf
    bound = estimate_acceptance(profile, k, d).lower_bound
    # proposals are drawn in intp, which fixes the random stream, and
    # narrowed to the index dtype as they are kept
    out = np.empty((count, k), dtype=dtype)
    got = proposals = accepted = position = 0
    while got < count:
        if proposals >= budget:
            raise TrialBudgetExceeded(proposals, accepted, bound)
        need = count - got
        rate = max((accepted + 1) / (proposals + 1), bound)
        b = min(DEFAULT_BATCH, budget - proposals, math.ceil(need / rate))
        subs = _propose_batch(gen, cumulative, n, k, b)
        spec = _subset_projection(svd, subs)
        theta = _acceptance_ratios(spec, (1.0 / profile.ell[subs]).sum(axis=1), d, k)
        hits = np.flatnonzero(gen.random(b) < theta)
        kept = hits[:need]
        out[got : got + kept.size] = subs[kept]
        got += kept.size
        if kept.size:
            position = proposals + int(kept[-1]) + 1
        proposals += b
        accepted += hits.size
    return out, SamplerStats(proposals=proposals, accepted=accepted), position


def rejection_sample_subset(
    svd: ThinSvd,
    profile: LeverageProfile,
    k: int,
    rng,
) -> Tuple[RowSubset, int]:
    """Draw one subset distributed exactly by the joint influence.

    Returns the subset and the number of proposals consumed, the
    accepted one included.  Raises :class:`TrialBudgetExceeded` after
    :func:`default_max_trials` rejected proposals.
    """
    out, _, trials = _accept_reject(svd, profile, k, 1, rng)
    return RowSubset(out[0]), trials


def rejection_sample_many(
    svd: ThinSvd,
    profile: LeverageProfile,
    k: int,
    count: int,
    rng,
) -> Tuple[np.ndarray, SamplerStats]:
    """Draw ``count`` independent subsets from the joint influence.

    Proposals are made in rounds of at most ``DEFAULT_BATCH`` (see
    :func:`_accept_reject`), within :func:`default_max_trials` proposals
    per subset.  Returns a (count, k) array of sorted index rows, of dtype
    ``INDEX_DTYPE``, plus statistics over every proposal, including any
    after the last draw kept.
    """
    out, stats, _ = _accept_reject(svd, profile, k, count, rng)
    return out, stats


def enumerate_subset_distribution(
    svd: ThinSvd, profile: LeverageProfile, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every k-subset as a (C(n, k), k) ``INDEX_DTYPE`` array of index
    rows in lexicographic order, and the (C(n, k),) array of its exact
    influence probabilities.  Exponential in k; guarded at C(n, k) <= 2e6."""
    subsets, _, probs, _ = _enumerate(svd, k)
    return subsets, probs


def _enumerate(svd: ThinSvd, k: int, residuals=None):
    """One kernel pass over every k-subset: the (C(n, k), k) subsets in
    lexicographic order, the spectral norm of each, the probabilities
    and, given the n ``residuals`` X w* - y of the optimal fit, each
    subset's closed-form error increase (else None)."""
    n = svd.n
    dtype = index_dtype(n)
    if not (1 <= k <= n):
        raise InvalidK(f"k={k} out of range for n={n}")
    total = math.comb(n, k)
    if total > ENUMERATION_LIMIT:
        raise TooLarge(f"C({n},{k}) = {total} exceeds {ENUMERATION_LIMIT}")
    subsets = np.fromiter(combinations(range(n), k), dtype=(dtype, k), count=total)
    if residuals is None:
        spec, increases = _subset_projection(svd, subsets), None
    else:
        spec, increases = _subset_projection(svd, subsets, residuals[subsets])
    weights = _influence_weights(spec)
    normalizer = weights.sum()
    if normalizer <= 0.0:
        raise DegenerateDistribution(
            "every subset has spectral norm 1; influence normalizer is zero"
        )
    return subsets, spec, weights / normalizer, increases
