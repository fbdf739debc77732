"""Deterministic numeric primitives.

Counter-based RNG streams (Philox) keyed by ``(seed, stream_id)`` so that
every client/round/sample draws from its own reproducible stream regardless
of execution order. ``summary`` and ``gaussian_cdf`` are the scalar forms of
the attack's null fit and tail score, which the attack computes vectorised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FedAuditError

_MASK64 = (1 << 64) - 1
_SQRT2 = math.sqrt(2.0)


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer (stateless 64-bit mixing)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _scratch(ws: dict | None, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of ``shape``: fresh when the workspace ``ws`` is None,
    else a view of its flat buffer ``name``, which a hot loop reuses instead of new pages."""
    size = math.prod(shape)
    if ws is not None and (name not in ws or ws[name].size < size):
        ws[name] = np.empty(size)
    return np.empty(shape) if ws is None else ws[name][:size].reshape(shape)


@dataclass(frozen=True)
class RngStream:
    """A value-typed handle for a reproducible random stream.

    Two streams with the same ``(seed, stream_id)`` replay bit-identical
    sequences; distinct ``stream_id`` values index statistically
    independent Philox counter streams. Streams are plain values and may
    be copied freely across threads.
    """

    seed: int
    stream_id: int = 0

    def derive(self, *ids: int) -> "RngStream":
        """Child stream obtained by folding integer tags into the id."""
        h = self.stream_id & _MASK64
        for v in ids:
            h = _splitmix64(h ^ _splitmix64(v & _MASK64))
        return RngStream(self.seed, h)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the origin of this stream."""
        key = ((self.seed & _MASK64) << 64) | (self.stream_id & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SummaryStats:
    """Mean and population variance (divide-by-n) of a sample."""

    mean: float
    variance: float
    count: int


def summary(values: Sequence[float] | np.ndarray) -> SummaryStats:
    """Population mean/variance of a non-empty sample.

    The variance divides by the sample count, not ``count - 1``; a
    constant sample therefore has variance exactly zero.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise FedAuditError("summary of an empty sample")
    if not np.all(np.isfinite(v)):
        raise FedAuditError("summary requires finite values")
    if np.all(v == v.flat[0]):
        return SummaryStats(float(v.flat[0]), 0.0, int(v.size))
    mean = float(v.mean())
    var = float(np.mean((v - mean) ** 2))
    return SummaryStats(mean, var, int(v.size))


def gaussian_cdf(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    """P(X <= x) for X ~ Normal(mean, variance).

    Raises ``FedAuditError`` when ``variance <= 0``; callers
    that can see a collapsed null distribution apply a variance floor
    before calling (see the attack scoring rule).
    """
    if not (math.isfinite(x) and math.isfinite(mean) and math.isfinite(variance)):
        raise FedAuditError("gaussian_cdf requires finite inputs")
    if variance <= 0.0:
        raise FedAuditError(f"variance must be > 0, got {variance}")
    z = (x - mean) / math.sqrt(variance)
    return 0.5 * (1.0 + math.erf(z / _SQRT2))
