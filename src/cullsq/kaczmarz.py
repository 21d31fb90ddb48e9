"""Randomized Kaczmarz solvers for consistent systems.

One projective-update loop, :func:`_kaczmarz`, with per-run label
accounting, behind two adapters that differ only in the rows q_j the
iterate v is projected onto, the weights they are sampled by, and the
map from v back to w:

* exact: rows of the left singular basis U, sampled by leverage, and
  w = V diag(1/sigma) v.  The expected squared error in v contracts by
  (1 - 1/d) per step, so d ln(n kappa^2 / d) steps reach the d/n error
  floor whatever the conditioning.
* fast: rows q = R^{-T} x_j of a sketched pivoted-QR preconditioner R,
  sampled by the exact squared row norms of X R^{-1}, and w = R^{-1} v.
  Preprocessing reads only the design matrix, never the labels.  The
  contraction weakens to (1 - 1/(9 d)) per step but stays independent
  of the input conditioning.

A run touches at most one label per iteration.  Its :class:`KaczmarzRun`
stores the K indices it sampled (``INDEX_DTYPE``) and derives the rest:
``iterations`` is K and ``labels_used`` the number of distinct indices,
so the label count reported is exactly the labels the run read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInput, InvalidK, InvalidRng
from .regression import Dataset, ThinSvd, _as_design, index_dtype
from .rng import RngStream, as_generator, inverse_cdf_draw
from .sketching import (
    Preconditioner,
    SketchOperator,
    approx_leverage,
    build_preconditioner,
    make_identity_sketch,
    make_srht,
    next_pow2,
)


@dataclass(frozen=True, eq=False)
class KaczmarzRun:
    """Outcome of one solver run: the weights ``w`` and, in order, the
    K row indices the iterations sampled, from which the counts derive.

    ``error_trace`` (test mode only; needs the true weights) holds
    ||v_t - v*||^2 for t = 0..K, and ``w_error_trace`` the matching
    ||w_t - w*||^2.
    """

    w: np.ndarray
    sampled_indices: np.ndarray
    error_trace: Optional[np.ndarray] = None
    w_error_trace: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        return len(self.sampled_indices)

    @cached_property
    def labels_used(self) -> int:
        """Labels revealed: the number of distinct sampled indices."""
        return int(np.unique(self.sampled_indices).size)


@dataclass(frozen=True)
class FastSolverConfig:
    """Sketch dimensions for the fast variant.

    The dimensions follow the simplified constants 48 d ln d (SRHT
    column-space sketch, capped at the padded input size) and
    72 ln(n+1) (row-space sign sketch).  ``fast_setup`` uses only r1:
    its exact norms cost d^2 products a row where a row-space sketch
    costs r2 d, which is more whenever d < r2 (and r2 >= 80 at n >= 2).
    r2 sizes the row-space sign sketch that ``approx_leverage`` accepts
    and ``verify jlt`` checks.
    """

    def resolve_r1(self, n: int, d: int) -> int:
        r1 = int(math.ceil(48.0 * d * math.log(d))) if d > 1 else 1
        return min(max(r1, d), next_pow2(n))

    def resolve_r2(self, n: int) -> int:
        return int(math.ceil(72.0 * math.log(n + 1.0)))


def labels_for_target(n: float, d: int, kappa: float, variant: str = "exact") -> int:
    """Iteration count reaching the d/n error floor.

    exact: ceil(d ln(n kappa^2 / d)); fast: ceil(9 d ln(n kappa / d)).
    Needs n > d >= 1 and a finite kappa >= 1.
    """
    if not (n > d >= 1):
        raise InvalidInput(f"need n > d >= 1, got n={n}, d={d}")
    if not (math.isfinite(kappa) and kappa >= 1.0):
        raise InvalidInput(f"condition number must be finite and >= 1, got {kappa}")
    if variant == "exact":
        val = d * math.log(n * kappa**2 / d)
    elif variant == "fast":
        val = 9.0 * d * math.log(n * kappa / d)
    else:
        raise InvalidInput(f"unknown variant {variant!r}")
    return max(1, int(math.ceil(val)))


def _sq_dist(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    diff = points - ref
    return np.einsum("ij,ij->i", diff, diff)


def _kaczmarz(
    weights: np.ndarray,
    rows_of: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    K: int,
    gen: np.random.Generator,
    to_w: Callable[[np.ndarray], np.ndarray],
    v_star: Optional[np.ndarray] = None,
    w_star: Optional[np.ndarray] = None,
) -> KaczmarzRun:
    """Draw K indices i.i.d. by ``weights``, take the (K, d) rows
    q_t = ``rows_of(idx)`` at once, and run v <- v - q_t (q_t^T v - y_j)
    / ||q_t||^2 from v = 0.  ``to_w`` maps one iterate, or a stack of
    them one per row, back to w.  Given ``v_star`` and ``w_star`` the
    iterates are kept as a (K+1, d) array and traced after the loop.
    """
    if not isinstance(K, numbers.Integral) or K < 1:
        raise InvalidK(f"need an integer count of at least one iteration, got {K!r}")
    dtype = index_dtype(len(weights))  # draws stay intp; the run keeps this dtype
    idx = inverse_cdf_draw(gen, np.cumsum(weights), K)
    Q = rows_of(idx)
    norms_sq = np.einsum("ij,ij->i", Q, Q)
    rhs = y[idx]
    v = np.zeros(Q.shape[1])
    iterates = None
    if v_star is not None:
        iterates = np.empty((K + 1, v.shape[0]))
        iterates[0] = v
    for t in range(K):
        q = Q[t]
        v -= q * ((q @ v - rhs[t]) / norms_sq[t])
        if iterates is not None:
            iterates[t + 1] = v
    return KaczmarzRun(
        w=to_w(v),
        sampled_indices=idx.astype(dtype),
        error_trace=None if iterates is None else _sq_dist(iterates, v_star),
        w_error_trace=None if iterates is None else _sq_dist(to_w(iterates), w_star),
    )


def kaczmarz_exact(
    svd: ThinSvd,
    y: np.ndarray,
    K: int,
    rng,
    w_star: Optional[np.ndarray] = None,
) -> KaczmarzRun:
    """Leverage-sampled Kaczmarz in the left singular basis.

    Samples K indices i.i.d. with probability ell_i/d, performs the
    projective update v <- v - u_j (u_j^T v - y_j)/||u_j||^2 from v = 0,
    and returns w = V diag(1/sigma) v.  The weights are U's squared row
    norms, from one sweep of its row blocks, and the K sampled rows are
    formed at once (:meth:`ThinSvd.rows`).  Consistency of y is assumed,
    not checked.
    """
    y = np.asarray(y, dtype=float)
    sigma, V = svd.sigma, svd.V
    if y.shape != (svd.n,):
        raise InvalidInput(f"y must have shape ({svd.n},)")
    v_star = None if w_star is None else sigma * (V.T @ w_star)
    return _kaczmarz(
        svd._squared_row_norms(), svd.rows, y, K, as_generator(rng),
        lambda vs: (vs / sigma) @ V.T, v_star, w_star,
    )


@dataclass(frozen=True, eq=False)
class FastSetup:
    """Label-free preprocessing output for the fast solver.

    Built from the design matrix alone: the column-space sketch, the
    triangular preconditioner, the row-space sketch (the identity: the
    estimates are exact row norms), and ``leverage``, the read-only (n,)
    array of estimates from :func:`approx_leverage` used as the sampling
    distribution.
    """

    precond: Preconditioner
    leverage: np.ndarray
    column_op: SketchOperator
    row_op: SketchOperator


def fast_setup(X: np.ndarray, cfg: FastSolverConfig, rng: RngStream) -> FastSetup:
    """SRHT sketch, factor, estimate leverage.  Touches no labels.

    The estimates are the exact squared row norms of X R^{-1}; the
    (1 - 1/(9 d)) rate needs them only within a constant factor, and
    exact norms give factor 1 for less work than a row-space sketch
    wherever r2 > d.
    """
    X = _as_design(X)
    n, d = X.shape
    op1 = make_srht(n, cfg.resolve_r1(n, d), rng.substream(1))
    precond = build_preconditioner(X, op1)
    op2 = make_identity_sketch(d)
    leverage = approx_leverage(X, precond, op2)
    return FastSetup(precond=precond, leverage=leverage, column_op=op1, row_op=op2)


def kaczmarz_fast(
    data: Dataset,
    K: int,
    rng: RngStream,
    w_star: Optional[np.ndarray] = None,
    setup: Optional[FastSetup] = None,
) -> KaczmarzRun:
    """Sketch-preconditioned Kaczmarz.

    Indices are presampled i.i.d. from the leverage estimates, the
    preconditioned rows q_t = R^{-T} x_{j_t} come from one product of
    the sampled rows with the cached d x d R^{-1}, and the iterate maps
    back via w = R^{-1} v_K.  A precomputed ``setup`` may be reused
    across runs, in which case only the iteration sampling consumes
    randomness.
    """
    if not isinstance(rng, RngStream):
        raise InvalidRng("kaczmarz_fast needs an RngStream (it derives substreams)")
    y = data.require_labels()
    X = data.X
    if setup is None:
        setup = fast_setup(X, FastSolverConfig(), rng)
    pre = setup.precond
    v_star = None
    if w_star is not None:
        v_star = pre.T @ np.asarray(w_star, dtype=float)[pre.piv]  # R w*
    return _kaczmarz(
        setup.leverage, lambda idx: pre.x_times_inverse(X[idx]), y, K,
        rng.substream(3).generator(), lambda vs: pre.apply_inverse(vs.T).T,
        v_star, w_star,
    )
