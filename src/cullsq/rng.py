"""Deterministic, splittable random streams.

A stream is identified by a 64-bit (seed, stream_id) pair and is backed by
the counter-based Philox4x64 bit generator.  Philox output for a fixed key
is specified exactly, so identical pairs reproduce identical draws
bit-for-bit on every platform.  Parallel work items get independent
streams via :meth:`RngStream.substream`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRng

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    """One round of the splitmix64 mixing function (a 64-bit bijection)."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Handle for a reproducible random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) for v in (self.seed, self.stream_id)):
            raise InvalidRng(f"seed and stream_id must be integers, got {self!r}")
        # as Python ints: a numpy integer overflows in the 64-bit key arithmetic
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream_id", int(self.stream_id))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array(
            [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        """Derive the stream for parallel work item ``index``.

        The derived stream id is a splitmix64 hash of (stream_id, index),
        so distinct indices map to well-separated Philox keys.
        """
        mixed = _splitmix64((self.stream_id * _GOLDEN + index + 1) & _MASK64)
        return RngStream(self.seed, mixed)


def as_generator(rng) -> np.random.Generator:
    """Accept either an :class:`RngStream` or a live numpy Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InvalidRng(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def inverse_cdf_draw(gen: np.random.Generator, cumulative: np.ndarray, size=None):
    """Index draws by binary search on a precomputed cumulative array."""
    u = gen.random(size) * cumulative[-1]
    idx = np.searchsorted(cumulative, u, side="right")
    return np.minimum(idx, len(cumulative) - 1)
