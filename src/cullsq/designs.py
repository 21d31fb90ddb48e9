"""Synthetic design matrices and label generators for experiments.

Three design families cover the leverage-profile extremes: i.i.d.
gaussian (mildly non-uniform leverage), hadamard-uniform (exactly
uniform leverage d/n, n a power of two), and coherent (gaussian with
its first round(``SPIKE_FRACTION`` n) rows, at least one, inflated by
``SPIKE_SCALE`` so leverage concentrates on them and the coherence mu
blows up).  :func:`make_design` builds each, read-only.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig
from .regression import Dataset
from .rng import as_generator

SPIKE_SCALE = 1e3
SPIKE_FRACTION = 0.1

GAUSSIAN = "gaussian"
HADAMARD_UNIFORM = "hadamard-uniform"
COHERENT = "coherent"

DESIGN_KINDS = (GAUSSIAN, HADAMARD_UNIFORM, COHERENT)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def conditioned_design(n: int, d: int, kappa: float, rng) -> np.ndarray:
    """Design with prescribed condition number: random orthonormal
    factors around geometrically spaced singular values 1 .. 1/kappa."""
    if not (np.isfinite(kappa) and kappa >= 1.0 and n >= d):
        raise InvalidConfig(f"need a finite kappa >= 1 and n >= d, got {kappa=}, {n=}, {d=}")
    gen = as_generator(rng)
    U, _ = np.linalg.qr(gen.standard_normal((n, d)))
    V, _ = np.linalg.qr(gen.standard_normal((d, d)))
    sigma = np.geomspace(1.0, 1.0 / kappa, d)
    return _read_only((U * sigma) @ V.T)


def make_design(kind: str, n: int, d: int, rng) -> np.ndarray:
    """An n x d design of the named kind; needs n > d >= 1."""
    if not (n > d >= 1):
        raise InvalidConfig(f"need n > d >= 1, got n={n}, d={d}")
    if kind == GAUSSIAN:
        return _read_only(as_generator(rng).standard_normal((n, d)))
    if kind == HADAMARD_UNIFORM:
        # every row of the first d normalized Hadamard columns has squared
        # norm d/n, so the leverage scores are exactly uniform
        if n & (n - 1):
            raise InvalidConfig(f"hadamard-uniform design needs n a power of two, got {n}")
        from .sketching import hadamard_columns
        return _read_only(hadamard_columns(n, d))
    if kind == COHERENT:
        X = as_generator(rng).standard_normal((n, d))
        X[: max(1, int(round(SPIKE_FRACTION * n)))] *= SPIKE_SCALE
        return _read_only(X)
    raise InvalidConfig(f"unknown design kind {kind!r}")


def make_dataset(kind: str, n: int, d: int, noise: float, rng) -> Dataset:
    """Design plus labels y = X w0 + noise * g with gaussian w0 and g.

    noise = 0 gives a consistent system.  Draw order (design entries,
    then w0, then g) is fixed so a seed pins the dataset exactly.
    """
    gen = as_generator(rng)
    X = make_design(kind, n, d, gen)
    w0 = gen.standard_normal(d)
    y = X @ w0
    if noise != 0.0:
        y = y + noise * gen.standard_normal(n)
    return Dataset(X=X, y=_read_only(y))
