"""Subspace-embedding sketches, preconditioners, and fast leverage scores.

Two sketch families are provided:

* dense sign: entries drawn uniformly from {-1/sqrt(r), +1/sqrt(r)};
* SRHT: zero-pad to a power of two, flip signs, Walsh-Hadamard
  transform, subsample r coordinates without replacement, rescale by
  sqrt(n_pad / r).

An operator Pi is an eps-embedding for an orthonormal U when
``||I - (Pi U)^T (Pi U)||_2 <= eps``; :func:`embedding_defect` measures
that quantity and :func:`check_embedding_properties` checks the
standard consequences (singular-value deviation, pseudo-inverse bounds).

A QR factorization with column pivoting of the sketched matrix yields a
triangular-times-permutation preconditioner R = T P.  Householder QR
first reduces the (r x d) sketch to a d x d triangle, and the pivoting
runs on that triangle in O(d^3); R^{-1} is then formed once, a d x d
array, and every apply is one matrix product with it, so the package
needs numpy alone.  The singular values of X R^{-1} are exactly the
inverses of those of Pi U (reversed), so X R^{-1} inherits the sketch's
conditioning.  The squared row norms of X R^{-1} are then constant
relative-error approximations to the leverage scores.  A second sketch
Pi2 acting on the d-dimensional row space may compress them further, as
in Drineas, Magdon-Ismail, Mahoney and Woodruff (JMLR 2012):
:func:`approx_leverage` forms W = R^{-1} Pi2^T once, a d x r2 array,
and takes the squared row norms of X W, with the identity sketch
(Pi2 = I) giving the exact norms.  They come from the sweep that gives
the exact leverage scores, :func:`cullsq.regression._squared_row_norms`,
with W in place of the thin SVD's d x d factor.  That product costs
n d r2 against the n d^2 of the exact pass, so the sketch saves work
only at r2 < d, and the fast Kaczmarz set-up uses exact norms.

Memory: an SRHT computes only its r sampled rows and never forms the
zero-padded (n_pad x d) copy (Woolfe, Liberty, Rokhlin and Tygert, ACHA
2008, compute the sampled outputs of a randomized transform without the
full one).  X is walked in blocks of B rows, B a power of two from
(n_pad, r) alone; each block is signed, transformed by H_B as one GEMM
per small Sylvester factor, and added into the r outputs with a sign
fixed by the block number (:func:`_sampled_hadamard`).  It holds
O(B d + r d) beyond X: a tracemalloc peak of 1.4 MB at 2^20 x 10 with
r = 2876.  :func:`fwht` is the all-rows case of the same kernel.  The
leverage estimates take O(n + d r2) beyond X and one 1 MB row block
(regression's one row-block rule, ``_row_blocks``), never the O(n r2)
of sketching every row at once; the label-free set-up of the fast
Kaczmarz solver thus stays O(n d) in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDimension,
    InvalidInput,
    SketchRankDeficient,
    ZeroRow,
)
from .regression import _as_design, _squared_row_norms
from .rng import as_generator

DENSE_SIGN = "dense_sign"
SRHT = "srht"
IDENTITY = "identity"

# roundoff allowance on each bound check_embedding_properties compares
EMBEDDING_CHECK_SLACK = 1e-8
# the sampled Hadamard transform walks X in blocks of at least this many
# rows (more when r is larger), and applies H_B as a product of
# Sylvester factors of at most 2^HADAMARD_FACTOR_BITS rows, one GEMM
# each: with one OpenBLAS thread on a Xeon with 2 MB of L2 per core,
# factors of 8 ran a 4096 x 20 block two to three times as fast as
# factors of 16 or 64
HADAMARD_MIN_BLOCK = 2**12
HADAMARD_FACTOR_BITS = 3


def next_pow2(n: int) -> int:
    if n < 1:
        raise InvalidDimension("dimension must be positive")
    return 1 << (n - 1).bit_length()


def fwht(M: np.ndarray) -> np.ndarray:
    """Normalized fast Walsh-Hadamard transform along axis 0.

    Orthogonal (self-inverse) Sylvester ordering; the leading dimension
    must be a power of two.  The input is not modified.  This is the
    all-rows case of the sampled kernel behind the SRHT: n rows make one
    block of n rows, transformed by one GEMM per Sylvester factor of at
    most ``2**HADAMARD_FACTOR_BITS`` rows, so the transform holds the
    output plus a few arrays of the input's size.  Inputs with integer
    entries give exact integer sums before the final division.
    """
    a = np.asarray(M, dtype=float)
    n = a.shape[0] if a.ndim else 0
    if n < 1 or n & (n - 1):
        raise InvalidDimension(f"leading dimension {n} is not a power of two")
    out = _sampled_hadamard(a.reshape(n, -1), n, np.arange(n))
    out /= math.sqrt(n)
    return out if a.ndim == 2 else out.reshape(a.shape)


def _sylvester(bits: int) -> np.ndarray:
    """The unnormalized 2^bits x 2^bits Sylvester-Hadamard matrix."""
    H = np.ones((1, 1))
    for _ in range(bits):
        H = np.kron(H, [[1.0, 1.0], [1.0, -1.0]])
    return H


def _sampled_hadamard(
    M: np.ndarray, n_pad: int, rows: np.ndarray, signs: Optional[np.ndarray] = None
) -> np.ndarray:
    """Rows ``rows`` of H diag(signs) [M; 0], H the unnormalized n_pad x
    n_pad Sylvester-Hadamard matrix and M of shape (n_in, m), n_in <=
    n_pad; the result is (len(rows), m) and the padded copy is never
    formed.

    H[i, k] = (-1)^popcount(i & k).  With a block size B, a power of two,
    write i = hi B + lo and k = c B + l; the entry splits as
    (-1)^popcount(hi & c) H_B[lo, l].  So M is walked in blocks of B
    rows: each block c is signed and transformed by H_B once, and adds its
    rows lo into the sampled outputs with the sign (-1)^popcount(hi & c).
    Blocks past n_in are zero and skipped.  H_B is the Kronecker product
    of Sylvester factors of at most 2^HADAMARD_FACTOR_BITS rows: viewing
    the block as (f, rest), ``block.T @ H_f`` applies one factor along the
    leading axis and moves that axis last, so each factor is one GEMM and
    after all of them the block is back in transposed, (m, B), layout.

    B = max(HADAMARD_MIN_BLOCK, next_pow2(r)) capped at n_pad, so the r
    gathers of each block cost at most about what its transform costs.
    Work: n_in m (sum of factor sizes) products plus ceil(n_in / B) r m
    gathers.  Memory: O(B m + r m) beyond the output.
    """
    n_in, m = M.shape
    r = len(rows)
    B = min(n_pad, max(HADAMARD_MIN_BLOCK, next_pow2(r)))
    bits = B.bit_length() - 1
    count = -(-bits // HADAMARD_FACTOR_BITS)
    factors = [
        _sylvester(bits // count + (j < bits % count)) for j in range(count)
    ]
    hi = rows >> bits
    lo = rows & (B - 1)
    # (-1)^popcount(v) for every block number v
    parity_sign = np.ones(n_pad // B)
    h = 1
    while h < len(parity_sign):
        parity_sign[h:2 * h] = -parity_sign[:h]
        h *= 2

    x = np.empty(B * m)
    y = np.empty(B * m)
    acc = np.empty((m, r))
    gathered = np.empty((m, r)) if n_in > B else None
    for c, start in enumerate(range(0, n_in, B)):
        stop = min(start + B, n_in)
        block = x.reshape(B, m)
        block_signs = 1.0 if signs is None else signs[start:stop, None].astype(float)
        np.multiply(M[start:stop], block_signs, out=block[: stop - start])
        block[stop - start:] = 0.0
        src, dst = x, y
        for H in factors:
            f = len(H)
            np.matmul(src.reshape(f, B * m // f).T, H, out=dst.reshape(B * m // f, f))
            src, dst = dst, src
        transformed = src.reshape(m, B)
        if c == 0:
            np.take(transformed, lo, axis=1, out=acc)
        else:
            np.take(transformed, lo, axis=1, out=gathered)
            gathered *= parity_sign[hi & c]
            acc += gathered
    return acc.T.copy()


def hadamard_columns(n: int, d: int) -> np.ndarray:
    """First d columns of the n x n normalized Hadamard matrix."""
    if n & (n - 1):
        raise InvalidDimension(f"n={n} is not a power of two")
    if not (1 <= d <= n):
        raise InvalidDimension(f"d={d} out of range for n={n}")
    basis = np.zeros((n, d))
    basis[np.arange(d), np.arange(d)] = 1.0
    return fwht(basis)


@dataclass(frozen=True, eq=False)
class SketchOperator:
    """A linear sketch acting from the left on matrices with n_in rows."""

    kind: str
    n_in: int
    r: int
    matrix: Optional[np.ndarray] = None   # dense sign only, (r, n_in)
    n_pad: Optional[int] = None           # SRHT only
    signs: Optional[np.ndarray] = None    # SRHT only, (n_pad,) int8 +-1
    coords: Optional[np.ndarray] = None   # SRHT only, (r,) distinct


def srht_dim(n: int, d: int, eps: float, gamma: float) -> int:
    """SRHT embedding dimension ensuring an eps-embedding for a
    d-dimensional subspace of R^n with probability 1 - gamma:
    ceil((12 / (5 eps^2)) (sqrt(d) + sqrt(8 ln(3 n / gamma)))^2 ln d).

    Note: at desk scale this often exceeds n, in which case callers cap
    the dimension at the padded size (the sketch is then orthogonal and
    the embedding exact).
    """
    if not (0.0 < eps <= 0.5) or not (0.0 < gamma < 1.0) or n < 1 or d < 1:
        raise InvalidDimension("need 0 < eps <= 1/2, 0 < gamma < 1, n, d >= 1")
    val = (12.0 / (5.0 * eps**2)) * (
        math.sqrt(d) + math.sqrt(8.0 * math.log(3.0 * n / gamma))
    ) ** 2 * math.log(d)
    return max(1, int(math.ceil(val)))


def make_dense_sign_jlt(n_in: int, r: int, rng) -> SketchOperator:
    """Dense sign sketch with entries +-1/sqrt(r)."""
    if r < 1 or n_in < 1:
        raise InvalidDimension(f"invalid dimensions n_in={n_in}, r={r}")
    gen = as_generator(rng)
    signs = gen.integers(0, 2, size=(r, n_in)).astype(float) * 2.0 - 1.0
    return SketchOperator(kind=DENSE_SIGN, n_in=n_in, r=r, matrix=signs / math.sqrt(r))


def make_srht(n_in: int, r: int, rng) -> SketchOperator:
    """SRHT sketch: signs, Hadamard transform, and r coordinates sampled
    without replacement from the padded dimension."""
    if n_in < 1:
        raise InvalidDimension(f"invalid input dimension {n_in}")
    n_pad = next_pow2(n_in)
    if not (1 <= r <= n_pad):
        raise InvalidDimension(f"need 1 <= r <= n_pad={n_pad}, got r={r}")
    gen = as_generator(rng)
    signs = (gen.integers(0, 2, size=n_pad) * 2 - 1).astype(np.int8)
    coords = np.sort(gen.choice(n_pad, size=r, replace=False))
    return SketchOperator(
        kind=SRHT, n_in=n_in, r=r, n_pad=n_pad, signs=signs, coords=coords
    )


def make_identity_sketch(n_in: int) -> SketchOperator:
    """The exact (no-op) sketch; useful as the zero-error reference."""
    if n_in < 1:
        raise InvalidDimension(f"invalid input dimension {n_in}")
    return SketchOperator(kind=IDENTITY, n_in=n_in, r=n_in)


def apply_sketch(op: SketchOperator, M: np.ndarray) -> np.ndarray:
    """Apply the sketch to a matrix with op.n_in rows (returns r rows)."""
    M = np.asarray(M, dtype=float)
    squeeze = M.ndim == 1
    if squeeze:
        M = M[:, None]
    if M.ndim != 2 or M.shape[0] != op.n_in:
        raise DimensionMismatch(
            f"operator expects {op.n_in} rows, got array of shape {M.shape}"
        )
    if op.kind == IDENTITY:
        out = M.copy()
    elif op.kind == DENSE_SIGN:
        out = op.matrix @ M
    elif op.kind == SRHT:
        # sqrt(n_pad / r) times the rows coords of H / sqrt(n_pad)
        out = _sampled_hadamard(M, op.n_pad, op.coords, op.signs)
        out /= math.sqrt(op.r)
    else:
        raise InvalidDimension(f"unknown sketch kind {op.kind!r}")
    return out[:, 0] if squeeze else out


def embedding_defect(sketched_u: np.ndarray) -> float:
    """||I - (Pi U)^T (Pi U)||_2 for an already-sketched orthonormal U."""
    PU = np.asarray(sketched_u, dtype=float)
    d = PU.shape[1]
    gram = PU.T @ PU
    eigs = np.linalg.eigvalsh(np.eye(d) - gram)
    return float(np.max(np.abs(eigs)))


def check_embedding_properties(sketched_u: np.ndarray) -> dict:
    """Measured consequences of an embedding with defect e, checked
    against their bounds with the measured defect substituted for eps.

    Returns the defect, the rank and the quantities bounded by the
    standard implications: singular-value deviation (<= e),
    ||S - S^{-1}|| and ||pinv - transpose|| (<= e/sqrt(1-e)),
    ||I - S^{-2}|| and ||I - pinv pinv^T|| (<= e/(1-e)), each within
    ``EMBEDDING_CHECK_SLACK``.  The checks are applicable only when the
    defect is below 1.
    """
    PU = np.asarray(sketched_u, dtype=float)
    d = PU.shape[1]
    e = embedding_defect(PU)
    svals = np.linalg.svd(PU, compute_uv=False)
    report = {
        "defect": e,
        "rank": int(np.sum(svals > 0.0)),
        "sv_deviation": float(np.max(np.abs(1.0 - svals**2))),
    }
    if svals[-1] > 0.0:
        report["sigma_minus_inverse"] = float(np.max(np.abs(svals - 1.0 / svals)))
        report["one_minus_inv_sq"] = float(np.max(np.abs(1.0 - svals**-2)))
        pinv = np.linalg.pinv(PU)
        report["pinv_minus_transpose"] = float(
            np.linalg.norm(pinv - PU.T, ord=2)
        )
        report["pinv_gram_deviation"] = float(
            np.linalg.norm(np.eye(d) - pinv @ pinv.T, ord=2)
        )
    applicable = e < 1.0
    report["applicable"] = applicable
    if not applicable:
        report["all_hold"] = False
        return report
    slack = EMBEDDING_CHECK_SLACK
    sqrt_bound = e / math.sqrt(1.0 - e)
    ratio_bound = e / (1.0 - e)
    checks = {
        "part1_sv_deviation": report["sv_deviation"] <= e + slack,
        "part1_full_rank": report["rank"] == d,
        "part2_sigma_minus_inverse": report["sigma_minus_inverse"] <= sqrt_bound + slack,
        "part2_one_minus_inv_sq": report["one_minus_inv_sq"] <= ratio_bound + slack,
        "part3_pinv_minus_transpose": report["pinv_minus_transpose"] <= sqrt_bound + slack,
        "part5_pinv_gram_deviation": report["pinv_gram_deviation"] <= ratio_bound + slack,
    }
    report["checks"] = checks
    report["all_hold"] = all(checks.values())
    return report


def pinv_factorization_residual(
    sketched_x: np.ndarray, sketched_u: np.ndarray, sigma: np.ndarray, V: np.ndarray
) -> float:
    """Residual of pinv(Pi X) = V diag(1/sigma) pinv(Pi U) (spectral norm)."""
    lhs = np.linalg.pinv(np.asarray(sketched_x, dtype=float))
    rhs = (V / sigma) @ np.linalg.pinv(np.asarray(sketched_u, dtype=float))
    return float(np.linalg.norm(lhs - rhs, ord=2))


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """Triangular-times-permutation factor R = T P from pivoted QR.

    ``piv`` is the column permutation reported by the factorization:
    sketch[:, piv] = Q T.  R^{-1} = P^T T^{-1} is formed once, as the
    read-only d x d array ``Rinv``, so each apply is one matrix product:
    O(d^2) per vector and one GEMM for a block of rows.
    """

    T: np.ndarray
    piv: np.ndarray
    Rinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        T = np.array(self.T, dtype=float)
        piv = np.array(self.piv, dtype=np.intp)
        d = T.shape[0] if T.ndim == 2 else 0
        if d < 1 or T.shape != (d, d) or piv.shape != (d,):
            raise InvalidInput("inconsistent factor shapes")
        if not np.all(np.isfinite(T)):
            raise InvalidInput("triangular factor has non-finite entries")
        if np.any(np.tril(T, -1)):
            raise InvalidInput("triangular factor has entries below the diagonal")
        if not np.array_equal(np.sort(piv), np.arange(d)):
            raise InvalidInput(f"piv is not a permutation of range({d})")
        diag = np.abs(np.diag(T))
        if diag.min() <= 1e-12 * np.abs(T).max():
            raise SketchRankDeficient(
                f"triangular factor numerically singular "
                f"(min |T_ii| = {diag.min():.3e})"
            )
        # LU with partial pivoting takes no row swap on an upper triangle
        # and leaves it unchanged, so this inverse is a back substitution
        Rinv = np.empty((d, d))
        Rinv[piv] = np.linalg.inv(T)
        for name, a in (("T", T), ("piv", piv), ("Rinv", Rinv)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def d(self) -> int:
        return self.T.shape[0]

    def permutation_matrix(self) -> np.ndarray:
        P = np.zeros((self.d, self.d))
        P[np.arange(self.d), self.piv] = 1.0
        return P

    def r_matrix(self) -> np.ndarray:
        """Dense R = T P (for inspection; applies use ``Rinv``)."""
        inv_piv = np.argsort(self.piv)
        return self.T[:, inv_piv]

    def apply_inverse(self, b: np.ndarray) -> np.ndarray:
        """R^{-1} b, for b of shape (d,) or (d, m)."""
        return self.Rinv @ np.asarray(b, dtype=float)

    def x_times_inverse(self, X: np.ndarray) -> np.ndarray:
        """X R^{-1}."""
        return np.asarray(X, dtype=float) @ self.Rinv


def _pivoted_qr_of_triangle(R0: np.ndarray):
    """Businger-Golub column-pivoted Householder QR of a d x d matrix:
    (T, piv) with R0[:, piv] = Q T, Q orthogonal.

    Each step moves the column of largest norm over the remaining rows
    to the front, as LAPACK geqp3 does (its first such column on a tie),
    and reflects it onto the diagonal.  The partial norms are recomputed
    at each step rather than downdated, O(d^2) a step and O(d^3) in all.
    """
    A = np.array(R0, dtype=float)
    d = A.shape[1]
    piv = np.arange(d)
    for j in range(d):
        tail = A[j:, j:]
        p = j + int(np.argmax(np.einsum("ij,ij->j", tail, tail)))
        A[:, [j, p]] = A[:, [p, j]]
        piv[[j, p]] = piv[[p, j]]
        v = A[j:, j].copy()
        alpha = -math.copysign(np.linalg.norm(v), v[0])
        if alpha == 0.0:
            continue    # a zero column: Preconditioner reports the rank
        v[0] -= alpha
        A[j:, j + 1:] -= np.outer(v, (2.0 / (v @ v)) * (v @ A[j:, j + 1:]))
        A[j, j] = alpha
        A[j + 1:, j] = 0.0
    return A, piv


def build_preconditioner(X: np.ndarray, op: SketchOperator) -> Preconditioner:
    """Pivoted QR of the sketched matrix; requires op output >= d rows.

    Householder QR reduces the (r x d) sketch to a d x d triangle, and the
    column pivoting runs on that triangle only: column norms are the same
    in both, so the pivots are those of pivoted QR on the sketch.
    """
    X = _as_design(X)
    d = X.shape[1]
    if op.r < d:
        raise SketchRankDeficient(
            f"sketch dimension r={op.r} is below the column count d={d}"
        )
    sketched = apply_sketch(op, X)
    T, piv = _pivoted_qr_of_triangle(np.linalg.qr(sketched, mode="r"))
    return Preconditioner(T=T, piv=piv)


def approx_leverage(
    X: np.ndarray, precond: Preconditioner, op2: SketchOperator
) -> np.ndarray:
    """Squared row norms of X R^{-1} Pi2^T, as a read-only (n,) array.

    W = R^{-1} Pi2^T, d x r2, is formed once from the cached
    ``precond.Rinv`` and Pi2 = ``apply_sketch(op2, I_d)``, and row i's
    estimate is ||x_i W||^2.  The identity ``op2`` makes W = R^{-1}: the
    exact squared row norms of X R^{-1}, and with identity sketches on
    both sides the exact leverage scores.  Any other ``op2`` approximates
    them in n d r2 products, fewer than the exact n d^2 only at r2 < d.

    The norms come from the one squared-row-norm sweep,
    :func:`cullsq.regression._squared_row_norms`, which forms X W in
    blocks of ``ROW_BLOCK_ELEMENTS // r2`` rows in one reused buffer, so
    a block stays in cache; blocking changes nothing but the order in
    which BLAS sums.  Raises ``ZeroRow`` for all-zero rows of X and
    ``InvalidInput`` for any other estimate not finite and positive.
    """
    X = _as_design(X)
    d = X.shape[1]
    if op2.n_in != d:
        raise DimensionMismatch(
            f"row-space sketch expects input dimension {op2.n_in}, data has d={d}"
        )
    W = precond.Rinv @ apply_sketch(op2, np.eye(d)).T    # (d, r2)
    ell_hat = _squared_row_norms(X, W)
    bad = np.flatnonzero(~(np.isfinite(ell_hat) & (ell_hat > 0.0)))
    zero = bad[~np.any(X[bad], axis=1)]
    if zero.size:
        raise ZeroRow(f"zero rows at indices {zero}")
    if bad.size:
        raise InvalidInput("approximate leverage scores must be finite and positive")
    ell_hat.setflags(write=False)
    return ell_hat
