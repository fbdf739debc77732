"""Independent oracles shared by the unit and acceptance suites.

Everything here is deliberately written against the definitions, not the
implementations under test: quadrature instead of erf, exhaustive pair
counting instead of a threshold sweep, a threshold-by-threshold ROC
instead of one sort, Monte Carlo instead of the sweep line, central
differences instead of backprop.
"""

from __future__ import annotations

import mpmath
import numpy as np

from fedaudit import model as mdl


def normal_cdf_quadrature(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    """Standard-normal CDF by high-precision numerical integration."""
    mpmath.mp.dps = 30
    z = (mpmath.mpf(x) - mpmath.mpf(mean)) / mpmath.sqrt(mpmath.mpf(variance))
    pdf = lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi)  # noqa: E731
    if z <= 0:
        return float(mpmath.quad(pdf, [-mpmath.inf, z]))
    return float(1 - mpmath.quad(pdf, [z, mpmath.inf]))


def pairwise_auc(scores: np.ndarray, is_member: np.ndarray) -> float:
    """Mann-Whitney pair statistic: wins plus half-ties over all pairs."""
    pos = scores[is_member]
    neg = scores[~is_member]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def roc_threshold_loop(scores: np.ndarray, is_member: np.ndarray) -> tuple:
    """ROC points by re-classifying the cohort at every distinct score, O(n^2)."""
    pos = int(is_member.sum())
    neg = len(is_member) - pos
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    for th in np.unique(scores)[::-1]:
        called = scores > th
        tp = int(np.count_nonzero(called & is_member))
        fp = int(np.count_nonzero(called & ~is_member))
        pt = (fp / neg, tp / pos)
        if pt != points[-1]:
            points.append(pt)
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return tuple(points)


def mc_hypervolume(
    points: list[tuple[float, float]],
    reference: tuple[float, float] = (1.0, 1.0),
    num_samples: int = 10**6,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of the dominated area and its standard error."""
    g = np.random.default_rng(seed)
    q = g.uniform(0.0, reference, size=(num_samples, 2))
    covered = np.zeros(num_samples, dtype=bool)
    for (a, b) in points:
        covered |= (q[:, 0] >= a) & (q[:, 1] >= b)
    box = reference[0] * reference[1]
    p = covered.mean()
    est = box * p
    se = box * np.sqrt(p * (1 - p) / num_samples)
    return float(est), float(se)


def finite_diff_grad(
    spec: mdl.ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of the loss of a one-row batch (x, y)."""
    out = np.empty_like(params)
    for i in range(len(params)):
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        out[i] = (mdl.loss_many(spec, up, x, y)[0] - mdl.loss_many(spec, down, x, y)[0]) / (2 * h)
    return out
