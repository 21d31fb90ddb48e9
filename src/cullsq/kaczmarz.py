"""Randomized Kaczmarz solvers for consistent systems.

Two preconditioned variants, both with per-run label accounting:

* exact: work in the coordinates of the left singular basis.  Sample a
  row index proportionally to its leverage score, project the iterate v
  onto the sampled equation u_j^T v = y_j, and map back through
  w = V diag(1/sigma) v.  The expected squared error in v contracts by
  (1 - 1/d) per step, so d ln(n kappa^2 / d) steps reach the d/n error
  floor whatever the conditioning.

* fast: replace the SVD with a sketched pivoted-QR preconditioner R and
  take the exact squared row norms of X R^{-1} as leverage estimates.
  Preprocessing reads only the design matrix, never the labels;
  iterations sample by approximate leverage and update with the
  preconditioned row q = R^{-T} x_j.  The contraction weakens to
  (1 - 1/(9 d)) per step but stays independent of the input
  conditioning.

A run touches at most one label per iteration, so the number of labels
revealed is bounded by the iteration count (and reported exactly as the
number of distinct sampled indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InconsistentSystem, InvalidInput, InvalidK, InvalidRng
from .regression import Dataset, ThinSvd
from .rng import RngStream, as_generator, inverse_cdf_draw
from .sketching import (
    ApproxLeverage,
    Preconditioner,
    SketchOperator,
    approx_leverage,
    build_preconditioner,
    make_dense_sign_jlt,
    make_identity_sketch,
    make_srht,
    next_pow2,
)

CONSISTENCY_RTOL = 1e-8


@dataclass
class KaczmarzRun:
    """Outcome of one solver run.

    ``error_trace`` (test mode only; needs the true weights) holds
    ||v_t - v*||^2 for t = 0..K, and ``w_error_trace`` the matching
    ||w_t - w*||^2.
    """

    w: np.ndarray
    labels_used: int
    iterations: int
    error_trace: Optional[np.ndarray] = None
    w_error_trace: Optional[np.ndarray] = None
    sampled_indices: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FastSolverConfig:
    """Sketch choice and dimensions for the fast variant.

    The dimensions follow the simplified constants 48 d ln d
    (column-space sketch, capped at the padded input size) and
    72 ln(n+1) (row-space sign sketch).  ``fast_setup`` uses only r1:
    it forms each row of X R^{-1} anyway, and its exact norm then costs
    d products where a row-space sketch would add r2 d.  r2 sizes the
    row-space sign sketch that ``approx_leverage`` accepts and
    ``verify jlt`` checks.
    """

    column_sketch: str = "srht"

    def resolve_r1(self, n: int, d: int) -> int:
        r1 = int(math.ceil(48.0 * d * math.log(d))) if d > 1 else 1
        return min(max(r1, d), next_pow2(n))

    def resolve_r2(self, n: int) -> int:
        return int(math.ceil(72.0 * math.log(n + 1.0)))


def labels_for_target(n: float, d: int, kappa: float, variant: str = "exact") -> int:
    """Iteration count reaching the d/n error floor.

    exact: ceil(d ln(n kappa^2 / d)); fast: ceil(9 d ln(n kappa / d)).
    """
    if kappa < 1.0:
        raise InvalidInput("condition number must be >= 1")
    if variant == "exact":
        val = d * math.log(n * kappa**2 / d)
    elif variant == "fast":
        val = 9.0 * d * math.log(n * kappa / d)
    else:
        raise InvalidInput(f"unknown variant {variant!r}")
    return max(1, int(math.ceil(val)))


def _run_projections(
    v: np.ndarray,
    rows: np.ndarray,
    rhs: np.ndarray,
    norms_sq: np.ndarray,
    v_star: Optional[np.ndarray],
    w_map: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    w_star: Optional[np.ndarray] = None,
):
    """Projective-update loop; optionally traces v- and w-space errors.

    With a trace the iterates are kept as a (K+1, d) array and ``w_map``
    maps all of them to w-space at once (one row per iterate) after the
    loop.
    """
    K = rows.shape[0]
    iterates = None
    if v_star is not None:
        iterates = np.empty((K + 1, v.shape[0]))
        iterates[0] = v
    for t in range(K):
        q = rows[t]
        v -= q * ((q @ v - rhs[t]) / norms_sq[t])
        if iterates is not None:
            iterates[t + 1] = v
    if iterates is None:
        return None, None
    diff = iterates - v_star
    v_trace = np.einsum("ij,ij->i", diff, diff)
    w_trace = None
    if w_map is not None and w_star is not None:
        wdiff = w_map(iterates) - w_star
        w_trace = np.einsum("ij,ij->i", wdiff, wdiff)
    return v_trace, w_trace


def kaczmarz_exact(
    svd: ThinSvd,
    y: np.ndarray,
    K: int,
    rng,
    w_star: Optional[np.ndarray] = None,
    check_consistency: bool = False,
) -> KaczmarzRun:
    """Leverage-sampled Kaczmarz in the left singular basis.

    Samples K indices i.i.d. with probability ell_i/d, performs the
    projective update v <- v - u_j (u_j^T v - y_j)/||u_j||^2 from v = 0,
    and returns w = V diag(1/sigma) v.  Consistency is an assumption;
    pass ``check_consistency=True`` (test mode) to verify that y lies in
    the column space first.
    """
    if K < 1:
        raise InvalidK("need at least one iteration")
    y = np.asarray(y, dtype=float)
    U, sigma, V = svd.U, svd.sigma, svd.V
    if y.shape != (svd.n,):
        raise InvalidInput(f"y must have shape ({svd.n},)")
    if check_consistency:
        resid = y - U @ (U.T @ y)
        if np.linalg.norm(resid) > CONSISTENCY_RTOL * np.linalg.norm(y):
            raise InconsistentSystem("labels are not in the column space of X")
    ell = np.einsum("ij,ij->i", U, U)
    gen = as_generator(rng)
    idx = inverse_cdf_draw(gen, np.cumsum(ell), K)

    v = np.zeros(svd.d)
    v_star = w_star_arr = None
    if w_star is not None:
        w_star_arr = np.asarray(w_star, dtype=float)
        v_star = sigma * (V.T @ w_star_arr)
    v_trace, w_trace = _run_projections(
        v, U[idx], y[idx], ell[idx], v_star,
        w_map=lambda vs: (vs / sigma) @ V.T, w_star=w_star_arr,
    )
    return KaczmarzRun(
        w=V @ (v / sigma),
        labels_used=int(np.unique(idx).size),
        iterations=K,
        error_trace=v_trace,
        w_error_trace=w_trace,
        sampled_indices=idx,
    )


@dataclass(frozen=True)
class FastSetup:
    """Label-free preprocessing output for the fast solver.

    Built from the design matrix alone: the column-space sketch, the
    triangular preconditioner, the row-space sketch (the identity: the
    estimates are exact row norms), and the leverage estimates used as
    the sampling distribution.
    """

    precond: Preconditioner
    leverage: ApproxLeverage
    column_op: SketchOperator
    row_op: SketchOperator


def fast_setup(X: np.ndarray, cfg: FastSolverConfig, rng: RngStream) -> FastSetup:
    """Sketch, factor, estimate leverage.  Touches no labels.

    The estimates are the exact squared row norms of X R^{-1}; the
    (1 - 1/(9 d)) rate needs them only within a constant factor, and
    exact norms give factor 1 for less work than a row-space sketch of
    the rows already formed.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    r1 = cfg.resolve_r1(n, d)
    if cfg.column_sketch == "srht":
        op1 = make_srht(n, r1, rng.substream(1))
    elif cfg.column_sketch == "dense_sign":
        op1 = make_dense_sign_jlt(n, r1, rng.substream(1))
    else:
        raise InvalidInput(f"unknown column sketch {cfg.column_sketch!r}")
    precond = build_preconditioner(X, op1)
    op2 = make_identity_sketch(d)
    leverage = approx_leverage(X, precond, op2)
    return FastSetup(precond=precond, leverage=leverage, column_op=op1, row_op=op2)


def kaczmarz_fast(
    data: Dataset,
    K: int,
    rng: RngStream,
    cfg: Optional[FastSolverConfig] = None,
    w_star: Optional[np.ndarray] = None,
    check_consistency: bool = False,
    setup: Optional[FastSetup] = None,
) -> KaczmarzRun:
    """Sketch-preconditioned Kaczmarz.

    Indices are presampled i.i.d. from the leverage estimates, the
    preconditioned rows q_t = R^{-T} x_{j_t} come from one multi-RHS
    triangular solve, and the iterate maps back via w = R^{-1} v_K.  A
    precomputed ``setup`` may be reused across runs, in which case only
    the iteration sampling consumes randomness.
    """
    if K < 1:
        raise InvalidK("need at least one iteration")
    if not isinstance(rng, RngStream):
        raise InvalidRng("kaczmarz_fast needs an RngStream (it derives substreams)")
    y = data.require_labels()
    X = data.X
    if check_consistency:
        w_ls = np.linalg.lstsq(X, y, rcond=None)[0]
        if np.linalg.norm(X @ w_ls - y) > CONSISTENCY_RTOL * np.linalg.norm(y):
            raise InconsistentSystem("labels are not in the column space of X")
    cfg = cfg or FastSolverConfig()
    if setup is None:
        setup = fast_setup(X, cfg, rng)
    gen = rng.substream(3).generator()
    idx = inverse_cdf_draw(gen, np.cumsum(setup.leverage.ell_hat), K)

    # one triangular solve with K right-hand sides gives every q_t
    Q = setup.precond.x_times_inverse(X[idx])  # (K, d)
    norms_sq = np.einsum("ij,ij->i", Q, Q)

    v = np.zeros(X.shape[1])
    v_star = w_star_arr = None
    if w_star is not None:
        w_star_arr = np.asarray(w_star, dtype=float)
        v_star = setup.precond.T @ w_star_arr[setup.precond.piv]  # R w*
    v_trace, w_trace = _run_projections(
        v, Q, y[idx], norms_sq, v_star,
        w_map=lambda vs: setup.precond.apply_inverse(vs.T).T, w_star=w_star_arr,
    )
    return KaczmarzRun(
        w=setup.precond.apply_inverse(v),
        labels_used=int(np.unique(idx).size),
        iterations=K,
        error_trace=v_trace,
        w_error_trace=w_trace,
        sampled_indices=idx,
    )


def kaczmarz_row_norm(
    X: np.ndarray,
    y: np.ndarray,
    K: int,
    rng,
    w_star: Optional[np.ndarray] = None,
) -> KaczmarzRun:
    """Plain row-norm-sampled Kaczmarz baseline (no preconditioning).

    Converges at a rate governed by the squared condition number; the
    preconditioned variants are measured against it.
    """
    if K < 1:
        raise InvalidK("need at least one iteration")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    norms = np.einsum("ij,ij->i", X, X)
    gen = as_generator(rng)
    idx = inverse_cdf_draw(gen, np.cumsum(norms), K)
    v_star = np.asarray(w_star, dtype=float) if w_star is not None else None
    v = np.zeros(X.shape[1])
    v_trace, _ = _run_projections(v, X[idx], y[idx], norms[idx], v_star)
    return KaczmarzRun(
        w=v,
        labels_used=int(np.unique(idx).size),
        iterations=K,
        error_trace=v_trace,
        sampled_indices=idx,
    )
