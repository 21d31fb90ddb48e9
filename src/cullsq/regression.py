"""Dense least-squares substrate with exact row-deletion analysis.

Everything here is deterministic linear algebra: a thin SVD held as a
basis and a d x d factor, leverage scores, full and row-deleted solves,
and the closed-form identity

    ||X w_minus - y||^2 = ||X w* - y||^2 + r^T Q r,

where r is the residual of the optimal fit on the deleted rows and
Q = (I - P)^{-1} P (I - P)^{-1} is built from the partial projection
P = U_A U_A^T of the deleted rows.  The identity lets the error of the
deleted-row regression be evaluated without ever solving the deficient
system.  With the d x d Gram G = U_A^T U_A the increase is evaluated in
its Woodbury form

    r^T Q r = ||(I - G)^{-1} U_A^T r||^2,

and ||P||_2 = lambda_max(G).  One blocked kernel,
:func:`_subset_projection`, is the one evaluator of both, for a batch of
subsets (a single subset is a batch of one); the samplers, the
enumeration oracle, :func:`deficient_solve`'s rank check and the
experiments all take their subset norms and increases from it.

The value types store their inputs alone: :class:`LeverageProfile` the
scores ell, from which it derives ``coherence_mu``, ``z1`` and
``proposal_cdf`` on first use, :class:`ThinSvd` a basis, a d x d factor,
sigma and V, and :class:`RowSubset` one read-only, strictly increasing
``INDEX_DTYPE`` array, which ``array()`` returns.

The thin SVD is computed by Cholesky QR, in matrix products (BLAS-3)
over X instead of the memory-bound Householder passes of LAPACK's
``gesdd``: Gram matrix, Cholesky factor T, Q <- Q T^{-1}, until a
factor has kappa_2(T) <= 3, after which the d x d product of the
factors is decomposed by a small SVD.  A well-conditioned X, kappa <= 3
at any column scale, takes one pass; CholeskyQR2, as accurate as
Householder QR for kappa up to about 1e8, applies once kappa > 3.
The last pass writes no product: ``ThinSvd`` holds the basis Q whose
Gram that pass factored and the pass's d x d factor M, and a row of U
is that row of Q times M, formed when a reader needs it.  With one pass
the basis is X itself, so U costs no n x d array beside X; with more,
the passes before the last write their product once, as the basis.
That product is held, not formed again per reader: two computations of
X M_1 may round apart by about d u kappa, which a later pass's Gram no
longer absorbs, and one product X (M_1 ... M_p) would lose u kappa of
orthogonality.  A worse X takes a pass or two more, and a pass whose
plain Cholesky fails adds a shift of 11 (n d + d (d + 1)) u ||X||_F^2
to the Gram (shifted CholeskyQR3), which carries the method to the
kappa <= 1 / RANK_TOL = 1e12 the rank tolerance admits.  Beyond that,
:class:`RankDeficient`.  No check sweeps U: a rounding-error bound on
||U^T U - I||_2, made in O(d^3) from d x d data of the last pass,
proves U orthonormal to ORTHONORMAL_TOL = 1e-10 for its rows however
they are formed, and only when the bound is larger does the
``ThinSvd`` constructor form U^T U, in row blocks.  The one sweep of
U's rows is the one that makes their squared norms, the leverage
scores and the exact Kaczmarz weights: :func:`_squared_row_norms`,
which also gives the fast set-up's estimates, with R^{-1} Pi2^T in
place of the factor.  Every blocked sweep over n rows takes its blocks
from one rule, :func:`_row_blocks`.
References: Fukaya et al., "CholeskyQR2: a simple and
communication-avoiding algorithm", ScalA 2014; Fukaya, Kannan,
Nakatsukasa et al., "Shifted Cholesky QR for computing the QR
factorization of ill-conditioned matrices", SIAM J. Sci. Comput. 2020.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    MissingLabels,
    RankDeficient,
    SingularDeficientSystem,
    TooLarge,
    ZeroRow,
)

# Numeric policy.  The model assumes exact full rank; these are the
# float64 stand-ins; RANK_TOL is also the kappa limit of thin_svd's QR.
RANK_TOL = 1e-12            # relative sigma_d / sigma_1 cutoff
ORTHONORMAL_TOL = 1e-10     # max |A^T A - I| allowed of U and V in a ThinSvd
SPEC_SINGULAR_TOL = 1e-10   # ||P_A||_2 above 1 - tol counts as rank loss
LEVERAGE_FLOOR = 1e-14      # clamp for leverage scores
# doubles of gathered rows U_A held at once by the partial-projection kernel (2 MB)
SPEC_BLOCK_ELEMENTS = 2**18
# doubles of rows held at once by every blocked sweep over n rows (1 MB)
ROW_BLOCK_ELEMENTS = 2**17
# Cholesky QR passes before the input counts as rank deficient: each
# shifted pass cuts kappa by a factor of 1e2 or more, so kappa <= 1e12
# needs at most five
CHOLESKY_QR_MAX_PASSES = 8
UNIT_ROUNDOFF = np.finfo(float).eps / 2
# dtype of every subset index array the library returns: half the bytes
# of intp, and it holds every row index of a design with n <= 2^31 - 1
INDEX_DTYPE = np.int32


def index_dtype(n: int):
    """INDEX_DTYPE, after checking that it holds every row index of an
    n-row design; raises TooLarge for n > 2^31 - 1."""
    if n > np.iinfo(INDEX_DTYPE).max:
        raise TooLarge(f"n = {n} rows exceed the {np.dtype(INDEX_DTYPE).name} "
                       f"index limit of 2^31 - 1")
    return INDEX_DTYPE


def _nothing_writes(a: np.ndarray) -> bool:
    """True unless a writable ndarray or buffer is in a's base chain."""
    base = a.base
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    try:
        return base is None or (not isinstance(base, np.ndarray) and memoryview(base).readonly)
    except (TypeError, ValueError):
        return False


def _frozen(a: np.ndarray) -> np.ndarray:
    """a itself if it is read-only float64 and ``_nothing_writes(a)`` (a
    memmap "r" is adopted, still tied to its file), else a frozen copy."""
    if a.dtype == float and not a.flags.writeable and _nothing_writes(a):
        return a
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _as_design(X) -> np.ndarray:
    """X as a float array, raising InvalidInput unless it is 2-D."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidInput(f"X must be 2-D, got shape {X.shape}")
    return X


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix with optional labels.

    Requires n > d >= 1, no zero rows and finite entries (one pass over row
    blocks); :func:`thin_svd` enforces full column rank.  X and y are held
    read-only; arrays that nothing can write to (from :mod:`cullsq.designs`,
    :mod:`cullsq.dataio`, or after ``X.setflags(write=False)``) are adopted,
    others copied.  An adopted ``.npy`` map reads its file, which must not
    be rewritten while the dataset, or a ``ThinSvd`` of it, is in use.
    """

    X: np.ndarray
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        X = _as_design(self.X)
        n, d = X.shape
        if not (n > d >= 1):
            raise InvalidInput(f"need n > d >= 1, got n={n}, d={d}")
        zero = []
        for b in _row_blocks(n, d):
            block = X[b]
            if not np.isfinite(block).all():
                raise InvalidInput("X contains non-finite entries")
            zero.extend(np.flatnonzero(~block.any(axis=1)) + b.start)
        if zero:
            raise ZeroRow(f"zero rows at indices {np.array(zero)}")
        object.__setattr__(self, "X", _frozen(X))
        if self.y is not None:
            y = np.asarray(self.y, dtype=float)
            if y.shape != (n,):
                raise InvalidInput(f"y must have shape ({n},), got {y.shape}")
            if not np.all(np.isfinite(y)):
                raise InvalidInput("y contains non-finite entries")
            object.__setattr__(self, "y", _frozen(y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def require_labels(self) -> np.ndarray:
        if self.y is None:
            raise MissingLabels("dataset has no labels")
        return self.y


def _identity_error(G: np.ndarray) -> float:
    """max |G - I| of a Gram matrix G: NaN or infinite, which fails every
    tolerance, when the factor G came from holds a NaN or an infinity."""
    return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def _row_blocks(n: int, width: int) -> list:
    """The row slices of every blocked sweep over n rows whose blocks
    hold ``width`` doubles a row: at most ROW_BLOCK_ELEMENTS // width
    rows each, the first the longest."""
    rows = max(1, ROW_BLOCK_ELEMENTS // width)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _formed_rows(A: np.ndarray, W: np.ndarray):
    """``(slice, block)`` for each row block of A @ W (:func:`_row_blocks`
    at W's width), formed in one reused buffer, so a block is valid only
    until the next is yielded."""
    blocks = _row_blocks(A.shape[0], W.shape[1])
    buf = np.empty((blocks[0].stop if blocks else 0, W.shape[1]))
    for b in blocks:
        yield b, np.matmul(A[b], W, out=buf[:b.stop - b.start])


def _squared_row_norms(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The squared norm of each row of A @ W, unclipped, as a new array,
    from one sweep of its formed row blocks: the exact leverage scores
    and Kaczmarz weights with A W = U, the fast set-up's estimates with
    W = R^{-1} Pi2^T (:func:`cullsq.sketching.approx_leverage`)."""
    norms = np.empty(A.shape[0])
    for b, B in _formed_rows(A, W):
        np.einsum("ij,ij->i", B, B, out=norms[b])
    return norms


@dataclass(frozen=True, eq=False, init=False)
class ThinSvd:
    """Thin SVD X = U diag(sigma) V^T with orthonormal U columns, held as
    an n x d basis and a d x d factor.

    The rows of U at ``idx`` are ``basis[idx] @ factor`` (:meth:`rows`).
    :func:`thin_svd` holds as the basis the matrix whose Gram its last
    Cholesky QR pass factored, X itself when one pass suffices, and that
    pass's factor, so a well-conditioned X costs no n x d array beside
    X.  A caller's ``ThinSvd(U, sigma, V)`` holds a frozen copy of U as
    the basis and the identity as the factor, which forms U's rows
    bit for bit.  U's column signs follow no convention:
    every quantity the library reads from U (leverage, subset norms and
    increases, w*, the Kaczmarz iterates mapped back to w) is unchanged
    when a column of U and the matching column of V are negated.

    The constructor checks a caller's factors in full: consistent
    shapes, a finite sigma, positive and nonincreasing, and
    max |U^T U - I| and max |V^T V - I| at most ORTHONORMAL_TOL, a
    comparison that a NaN or an infinity in U or V fails.
    :func:`thin_svd` runs every check but U^T U, in whose place it proves
    a rounding-error bound on ||U^T U - I||_2 from d x d data of its last
    pass (:func:`_orthonormality_bound`), for rows formed by any sweep or
    gather; only when that bound exceeds ORTHONORMAL_TOL is U^T U formed,
    in row blocks.
    """

    basis: np.ndarray    # (n, d): X, the earlier passes' product, or a caller's U
    factor: np.ndarray   # (d, d): the last pass's, or the identity for a caller's U
    sigma: np.ndarray    # (d,) positive, nonincreasing
    V: np.ndarray        # (d, d) orthogonal

    def __init__(self, U, sigma, V):
        U = np.asarray(U, dtype=float)
        if U.ndim != 2:
            raise InvalidInput("U must be a 2-D array")
        self._hold(U, np.eye(U.shape[1]), sigma, V, check_u=True)

    @classmethod
    def _factored(cls, basis, factor, sigma, V, check_u: bool) -> "ThinSvd":
        """A ThinSvd of U = basis factor, its U^T U formed only if ``check_u``."""
        svd = cls.__new__(cls)
        svd._hold(basis, factor, sigma, V, check_u)
        return svd

    def _hold(self, basis, factor, sigma, V, check_u: bool):
        d = basis.shape[1]
        sigma = np.asarray(sigma, dtype=float)
        V = np.asarray(V, dtype=float)
        if sigma.shape != (d,) or V.shape != (d, d):
            raise InvalidInput("inconsistent factor shapes")
        if not np.isfinite(sigma).all():
            raise InvalidInput("singular values must be finite")
        if not np.all(sigma > 0.0):
            raise RankDeficient("nonpositive singular value")
        if not np.all(np.diff(sigma) <= 0.0):
            raise InvalidInput("singular values must be nonincreasing")
        object.__setattr__(self, "basis", _frozen(basis))
        object.__setattr__(self, "factor", _frozen(factor))
        if check_u and not _identity_error(self._gram()) <= ORTHONORMAL_TOL:
            raise InvalidInput(f"U columns are not orthonormal to {ORTHONORMAL_TOL:.0e}")
        with np.errstate(invalid="ignore", over="ignore"):
            v_error = _identity_error(V.T @ V)
        if not v_error <= ORTHONORMAL_TOL:
            raise InvalidInput(f"V is not orthogonal to {ORTHONORMAL_TOL:.0e}")
        object.__setattr__(self, "sigma", _frozen(sigma))
        object.__setattr__(self, "V", _frozen(V))

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    @property
    def condition_number(self) -> float:
        return float(self.sigma[0] / self.sigma[-1])

    def rows(self, idx) -> np.ndarray:
        """The rows of U at an integer index array of any shape, as an
        ``idx.shape + (d,)`` array: the basis rows gathered and taken
        through the factor in one product."""
        idx = np.asarray(idx)
        return (self.basis[idx.reshape(-1)] @ self.factor).reshape(idx.shape + (self.d,))

    @property
    def U(self) -> np.ndarray:
        """All n rows of U as one new read-only array, formed block by
        block as every sweep forms them, for tests and callers at small
        n.  The library reads U's rows through :meth:`rows` and its row
        blocks through :func:`_formed_rows` instead."""
        U = np.empty((self.n, self.d))
        for b, B in _formed_rows(self.basis, self.factor):
            U[b] = B
        U.setflags(write=False)
        return U

    def _gram(self) -> np.ndarray:
        """U^T U, summed over U's row blocks."""
        G = np.zeros((self.d, self.d))
        with np.errstate(invalid="ignore", over="ignore"):
            for _, B in _formed_rows(self.basis, self.factor):
                G += B.T @ B
        return G


@dataclass(frozen=True, eq=False)
class LeverageProfile:
    """Per-row leverage scores ell in (0, 1], the one stored field; the
    summaries are derived from it on first use and kept.

    ``coherence_mu`` is the mean inverse leverage; ``z1`` is the
    normalizer of the single-row influence distribution,
    sum_i (1 - ell_i)^2 / ell_i.
    """

    ell: np.ndarray

    def __post_init__(self):
        ell = np.asarray(self.ell, dtype=float)
        if ell.ndim != 1 or not np.all((ell > 0.0) & (ell <= 1.0)):
            raise InvalidInput("leverage scores must lie in (0, 1]")
        object.__setattr__(self, "ell", _frozen(ell))

    @property
    def n(self) -> int:
        return self.ell.shape[0]

    @cached_property
    def coherence_mu(self) -> float:
        return float(np.mean(1.0 / self.ell))

    @cached_property
    def z1(self) -> float:
        return float(np.sum((1.0 - self.ell) ** 2 / self.ell))

    @cached_property
    def proposal_cdf(self) -> np.ndarray:
        """Read-only cumsum(1/ell), the cumulative weights of the
        samplers' first proposed row: built on first use and kept, so
        neither the constructor nor a draw pays for the O(n) pass."""
        cdf = np.divide(1.0, self.ell)
        np.cumsum(cdf, out=cdf)
        cdf.setflags(write=False)
        return cdf


@dataclass(frozen=True, eq=False)
class RowSubset:
    """A nonempty set of row indices, stored as one read-only, strictly
    increasing ``INDEX_DTYPE`` array.  Two subsets of the same rows are
    equal and hash equal."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or idx.size < 1:
            raise InvalidInput("subset must be a nonempty 1-D array of indices")
        if idx.dtype.kind not in "iu":
            raise InvalidInput(f"indices must be integers, got dtype {idx.dtype}")
        if np.any(idx[1:] <= idx[:-1]):
            raise InvalidInput("indices must be strictly increasing")
        if idx[0] < 0:
            raise InvalidInput("negative index")
        index_dtype(int(idx[-1]) + 1)  # INDEX_DTYPE must hold the largest index
        idx = idx.astype(INDEX_DTYPE)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, indices) -> "RowSubset":
        """The subset of ``indices`` given in any order."""
        idx = np.asarray(indices)
        return cls(np.sort(idx) if idx.ndim == 1 else idx)

    def __eq__(self, other):
        if not isinstance(other, RowSubset):
            return NotImplemented
        return self.indices.tobytes() == other.indices.tobytes()

    def __hash__(self):
        return hash(self.indices.tobytes())

    @property
    def k(self) -> int:
        return self.indices.size

    def array(self) -> np.ndarray:
        """The stored read-only ``indices`` array itself."""
        return self.indices


@dataclass(frozen=True, eq=False)
class DeficientFit:
    """Result of the regression with a row subset deleted.

    ``full_error`` is evaluated on the complete dataset and
    ``error_increase`` is its excess over the optimal error.
    """

    w_minus: np.ndarray
    full_error: float
    error_increase: float


def _cholesky_qr_svd(X: np.ndarray):
    """Unsigned thin SVD of a full-column-rank X by Cholesky QR (see the
    module docstring), as ``(Q, M, sigma, Vt, beta)``: U = Q M, with Q
    the n x d matrix whose Gram the last pass factored and M that pass's
    d x d factor, and ``beta`` a bound on ||U^T U - I||_2
    (:func:`_orthonormality_bound`) for rows formed by any sweep or
    gather of Q's rows.

    A pass factors the Gram matrix of Q (X at first), Q^T Q = T^T T.
    The first pass forms it in row blocks from s X, s a power of two that
    puts max |s X| in [1/2, 1): it cannot overflow, no product large
    enough to matter underflows, and dividing T by s is exact.  A later
    pass's Q is O(1), since the passes before it made it so, and its Gram
    is formed unscaled.  When the plain Cholesky fails, the pass adds the
    shift 11 (n d + d (d + 1)) u ||s Q||_F^2 to the diagonal of a copy,
    more than the Gram's rounding error, and cuts kappa by about the
    square root of that relative shift.  Passes repeat until a factor has
    kappa_2(T) <= 3: Q, whose Gram is T^T T, then has kappa <= 3 whatever
    the scale of its columns, and M is T^{-1} U_R, with U_R Sigma V^T the
    SVD of the d x d product of every T.  So an X with kappa <= 3 takes
    one pass, returns Q = X and writes no n x d array, and CholeskyQR2
    applies once kappa > 3.  A pass that is not the last sets
    Q <- Q T^{-1}, row block by row block: from X into one new n x d
    array, and in place through ``buf`` after that.  X is never written.
    ``beta`` comes from the last pass's unshifted Gram and its M, d x d
    data, so nothing reads U to check it.
    """
    n, d = X.shape
    blocks = _row_blocks(n, d)
    rows = blocks[0].stop
    m = rows + len(blocks)  # terms in each Gram entry: a block's rows, then the blocks
    # buf holds the row block of s X, or of Q T^{-1} in a later pass: with
    # a new temporary per block, glibc trimmed the heap after each call and
    # the next call faulted ~3 MB back in (32768 x 10, 1 BLAS thread)
    Q, R, buf = X, np.eye(d), np.empty((rows, d))
    s = np.ldexp(1.0, -int(np.frexp(max(X.max(), -X.min()))[1]))
    for _ in range(CHOLESKY_QR_MAX_PASSES):
        G = np.zeros((d, d))
        for b in blocks:
            B = np.multiply(X[b], s, out=buf[:b.stop - b.start]) if Q is X else Q[b]
            G += B.T @ B
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            shifted = G.copy()  # the bound reads the unshifted G
            shifted[np.diag_indices(d)] += (
                11.0 * (n * d + d * (d + 1)) * UNIT_ROUNDOFF * np.trace(G))
            L = np.linalg.cholesky(shifted)
        T = L.T / s
        if np.linalg.cond(T) <= 3.0:
            Ur, sigma, Vt = np.linalg.svd(T @ R)
            M = np.linalg.inv(T) @ Ur
            return Q, M, sigma, Vt, _orthonormality_bound(G, M / s, n, m)
        M = np.linalg.inv(T)
        R = T @ R
        if Q is X:
            Q = np.empty((n, d))
            for b in blocks:
                np.matmul(X[b], M, out=Q[b])
        else:
            for b in blocks:
                Q[b] = np.matmul(Q[b], M, out=buf[:b.stop - b.start])
        s = 1.0
    raise RankDeficient(
        f"Cholesky QR found no orthonormal basis in {CHOLESKY_QR_MAX_PASSES} passes"
    )


def _orthonormality_bound(G: np.ndarray, M: np.ndarray, n: int, m: int) -> float:
    """A bound beta >= ||U^T U - I||_2 for a computed U = fl(Q' M), its
    rows formed by any sweep or gather, from d x d data alone.

    Q' is the n x d matrix whose Gram the last Cholesky QR pass formed,
    G its computed Gram before any shift, each entry a sum of at most m
    products (a block's rows, then the blocks), and M the pass's factor
    divided by s.  Q' = s Q and M / s are exact, and fl(Q' M) holds the
    bits of fl(Q M), so the bound is made in this scaled frame, where
    nothing is divided by s^2 (which overflows when X is tiny).  Q's rows
    are read, never formed again, so every form of U rounds the same Q'.
    With gamma_k = k u / (1 - k u), the standard rounding model (Higham,
    "Accuracy and Stability of Numerical Algorithms", sec. 3) gives
    |G - Q'^T Q'| <= gamma_m |Q'|^T |Q'|, so ||Q'||_F^2 <= t =
    tr(G) / (1 - gamma_m).  With P = Q' M,

        beta_P = ||fl(M^T G M) - I||_F + (2 gamma_d + gamma_d^2) ||M||_F^2 ||G||_F
               + gamma_m t ||M||_2^2 >= ||P^T P - I||_2,

    so ||P||_2 <= sqrt(1 + beta_P).  U = P + W, where W is the rounding
    of the product, |fl(Q' M) - Q' M| <= gamma_d |Q'| |M| in any
    summation order, plus d 2^-1075 an entry for underflow:

        ||W||_F <= w = gamma_d sqrt(t) ||M||_F + sqrt(n d) d 2^-1074,

    and U^T U - I = (P^T P - I) + P^T W + W^T P + W^T W gives
    beta = beta_P + 2 sqrt(1 + beta_P) w + w^2.  ||M||_2 comes from a
    d x d SVD, rounded up by a relative 1e-8, and beta by
    1 + gamma_{4 d^2 + 16}, more than the rounding of its own d x d
    arithmetic.  O(d^3) work, against the O(n d^2) of forming U^T U.
    """
    d = M.shape[0]
    g_d = _gamma(d)
    t = np.trace(G) / (1.0 - _gamma(m))
    two = np.linalg.svd(M, compute_uv=False)[0] * (1.0 + 1e-8)
    fro = np.linalg.norm(M)
    beta_p = (np.linalg.norm(M.T @ G @ M - np.eye(d))
              + (2.0 * g_d + g_d**2) * fro**2 * np.linalg.norm(G)
              + _gamma(m) * t * two**2)
    w = g_d * np.sqrt(t) * fro + np.sqrt(n * d) * d * 2.0**-1074
    beta = beta_p + 2.0 * np.sqrt(1.0 + beta_p) * w + w**2
    return float(beta * (1.0 + _gamma(4 * d * d + 16)))


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of a k-term sum."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def thin_svd(data: Dataset) -> ThinSvd:
    """Thin SVD of the design matrix, held as the basis and factor of
    its last Cholesky QR pass (:func:`_cholesky_qr_svd`): one pass over X
    of matrix products at kappa <= 3, with X itself as the basis and no
    n x d array written, a few more above, with an SVD only of a d x d
    factor.  U's rows are formed on demand (:meth:`ThinSvd.rows`), and
    its column signs are whatever the d x d SVD gives: deterministic for
    a given X, and read by nothing.  U's orthonormality is proved from
    d x d data of the last pass; only when that bound exceeds
    ORTHONORMAL_TOL is U^T U formed, in row blocks.
    """
    Q, M, s, Vt, beta = _cholesky_qr_svd(data.X)
    if s[-1] < RANK_TOL * s[0]:
        raise RankDeficient(
            f"sigma_d/sigma_1 = {s[-1] / s[0]:.3e} below tolerance {RANK_TOL:.1e}"
        )
    if Q is not data.X:
        Q.setflags(write=False)  # ours: ThinSvd keeps it without a copy
    return ThinSvd._factored(Q, M, s, Vt.T, check_u=beta > ORTHONORMAL_TOL)


def leverage_scores(svd: ThinSvd) -> LeverageProfile:
    """Leverage of each row: squared norm of the corresponding row of U,
    clipped into [LEVERAGE_FLOOR, 1], from one sweep of U's row blocks."""
    ell = _squared_row_norms(svd.basis, svd.factor)
    np.clip(ell, LEVERAGE_FLOOR, 1.0, out=ell)
    ell.setflags(write=False)  # ours: LeverageProfile keeps it without a copy
    return LeverageProfile(ell)


def _svd_of(data: Dataset, svd: Optional[ThinSvd]) -> ThinSvd:
    """The caller's ``svd`` once its U matches X in shape, else thin_svd(data)."""
    if svd is None:
        return thin_svd(data)
    if (svd.n, svd.d) != data.X.shape:
        raise DimensionMismatch(
            f"the SVD's U has shape {(svd.n, svd.d)} but X has shape {data.X.shape}"
        )
    return svd


def _optimal_weights(svd: ThinSvd, y: np.ndarray) -> np.ndarray:
    """w* = V diag(1/sigma) U^T y, with U^T y = factor^T (basis^T y)."""
    return svd.V @ ((svd.factor.T @ (svd.basis.T @ y)) / svd.sigma)


def full_solve(data: Dataset, svd: Optional[ThinSvd] = None):
    """Optimal weights and optimal squared error via the pseudo-inverse.

    Returns ``(w_star, opt_error)`` with w* = V diag(1/sigma) U^T y.
    """
    y = data.require_labels()
    svd = _svd_of(data, svd)
    w_star = _optimal_weights(svd, y)
    resid = data.X @ w_star - y
    return w_star, float(resid @ resid)


def _projection(UA: np.ndarray, r=None):
    """``(top, z)`` for a (b, k, d) stack of rows U_A: top the unclipped
    largest eigenvalue of U_A U_A^T, from the Gram matrix on the smaller
    of the k- and d-sized sides, and, given the (b, k) residuals ``r``,
    z = (I - G)^{-1} U_A^T r_A with G = U_A^T U_A for each subset whose
    top is below 1 - SPEC_SINGULAR_TOL (a zero row for the others), else
    None."""
    k, d = UA.shape[1:]
    UAt = np.swapaxes(UA, 1, 2)
    gram = UAt @ UA if (k > d or r is not None) else None
    side = UA @ UAt if k <= d else gram
    top = np.linalg.eigvalsh(side)[..., -1]
    if r is None:
        return top, None
    ok = top < 1.0 - SPEC_SINGULAR_TOL
    z = np.zeros((len(UA), d))
    rhs = UAt[ok] @ r[ok][..., None]  # (b, d, 1)
    z[ok] = np.linalg.solve(np.eye(d) - gram[ok], rhs)[..., 0]
    return top, z


def _subset_projection(svd: ThinSvd, subsets: np.ndarray, r=None):
    """Spectral norm of U_A U_A^T for each row of a (B, k) ``subsets``
    array and, given the (B, k) residuals ``r`` on those rows, the
    closed-form error increase ||(I - G)^{-1} U_A^T r_A||^2 with
    G = U_A^T U_A (:func:`_projection`).

    Returns the (B,) norms, clipped to [0, 1], or with ``r`` the pair
    (norms, increases).  A subset with norm at least 1 - 1e-10 gets a
    zero increase (its influence probability is zero).  The rows U_A
    are formed (:meth:`ThinSvd.rows`: a gather of the basis and one
    product with the factor) for at most ``SPEC_BLOCK_ELEMENTS // (k d)``
    subsets at a time, so a batch of B subsets holds O(B k) inputs and
    results plus a fixed-size block, not the (B, k, d) gather of the
    whole batch.
    """
    B, k = subsets.shape
    step = max(1, SPEC_BLOCK_ELEMENTS // (k * svd.d))
    top = np.empty(B)
    increase = None if r is None else np.empty(B)
    for start in range(0, B, step):
        block = slice(start, start + step)
        top[block], z = _projection(svd.rows(subsets[block]), None if r is None else r[block])
        if z is not None:
            increase[block] = np.einsum("bi,bi->b", z, z)
    np.clip(top, 0.0, 1.0, out=top)
    return top if r is None else (top, increase)


def deficient_solve(
    data: Dataset, subset: RowSubset, svd: Optional[ThinSvd] = None
) -> DeficientFit:
    """Least-squares weights with the subset's rows deleted.

    Implemented as a downdate of the full solution in d x d form (the
    Woodbury identity pushed through U_A):

        w_minus = w* + V diag(1/sigma) (I_d - G_A)^{-1} U_A^T r_A,

    with G_A = U_A^T U_A and r_A = X_A w* - y_A, so no k x k matrix is
    formed; U_A is formed once, and the rank check and the downdate both
    read it (:func:`_projection`).  ``full_error`` and ``error_increase``
    are direct residual sums over all n rows, both from one product
    X [w*, w_minus] - y.  Requires ||P_A||_2 < 1 - 1e-10, otherwise the
    reduced system has lost column rank.
    """
    y = data.require_labels()
    svd = _svd_of(data, svd)
    # O(1): the indices are sorted and nonnegative
    if subset.indices[-1] >= svd.n:
        raise InvalidInput(f"index {subset.indices[-1]} out of range for n={svd.n}")
    idx = subset.indices
    w_star = _optimal_weights(svd, y)
    resid_A = data.X[idx] @ w_star - y[idx]
    top, z = _projection(svd.rows(idx)[None], resid_A[None])
    spec = min(max(float(top[0]), 0.0), 1.0)
    if spec >= 1.0 - SPEC_SINGULAR_TOL:
        raise SingularDeficientSystem(
            f"||P_A||_2 = {spec:.15f}; deleting rows {idx.tolist()} "
            "destroys full rank"
        )
    w_minus = w_star + svd.V @ (z[0] / svd.sigma)
    resid = data.X @ np.column_stack([w_star, w_minus])
    resid -= y[:, None]
    opt_error, full_error = np.einsum("ij,ij->j", resid, resid)
    return DeficientFit(
        w_minus=_frozen(w_minus),
        full_error=float(full_error),
        error_increase=float(full_error - opt_error),
    )
