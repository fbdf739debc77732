"""Attack evaluation: ROC/AUC, TPR at a low-FPR operating point, Pareto
fronts over (utility loss, privacy leakage), and the 2-D hypervolume.

The ROC functions take a cohort as two aligned 1-D arrays: finite
``scores`` (higher meaning member) and ``is_member``, holding both
classes. A cohort is checked once, where it enters the program: read back
from an artifact through its manifest (``artifacts.read_artifacts``) or
scored by ``harness.run_attacks``.

Orientation convention: a point is (utility_loss, privacy_leakage), both
in [0, 1] and both minimized by a good defense; the hypervolume against
reference (1, 1) measures defense quality, so a stronger attack pushes
leakage up and shrinks it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import FedAuditError


def roc(scores: np.ndarray, is_member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fpr, tpr) of a threshold sweep from (0, 0) to (1, 1), both nondecreasing.

    Every distinct score is a threshold, classifying score > threshold. One
    descending sort: the point at a threshold counts the members and
    non-members ranked before that score's tie group. The first group starts
    at (0, 0), and each later group adds at least one record, so no two
    points are equal and the last before (1, 1) is below it.
    """
    pos = int(is_member.sum())
    neg = len(is_member) - pos
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    tp = np.concatenate(([0], np.cumsum(is_member[order])))
    fp = np.arange(len(ranked) + 1) - tp
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    return np.append(fp[starts] / neg, 1.0), np.append(tp[starts] / pos, 1.0)


def _area(fpr: np.ndarray, tpr: np.ndarray) -> float:
    # cumsum adds the trapezoids in sequence, as a loop would; np.sum pairs them.
    return float(np.cumsum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0)[-1])


def _best_point(fpr: np.ndarray, tpr: np.ndarray, fpr_cap: float) -> tuple[float, float]:
    # The points with fpr <= fpr_cap (>= 0, so (0, 0) among them) are a prefix;
    # its highest tpr, first reached, has the lowest fpr of the points sharing it.
    best = int(np.argmax(tpr[: np.searchsorted(fpr, fpr_cap, side="right")]))
    return float(tpr[best]), float(fpr[best])


def auc(scores: np.ndarray, is_member: np.ndarray) -> float:
    """Trapezoidal area under the ROC (equals the pair statistic, ties at 1/2)."""
    return _area(*roc(scores, is_member))


def operating_point(scores: np.ndarray, is_member: np.ndarray,
                    fpr_cap: float) -> tuple[float, float]:
    """(TPR, achieved FPR) at the best threshold with FPR <= fpr_cap, a cap >= 0.

    The achieved FPR is reported because small cohorts cannot realize
    very low caps exactly.
    """
    return _best_point(*roc(scores, is_member), fpr_cap)


def roc_metrics(scores: np.ndarray, is_member: np.ndarray,
                fpr_cap: float) -> tuple[float, float, float]:
    """(AUC, TPR, achieved FPR) of ``auc`` and ``operating_point`` from one ROC."""
    fpr, tpr = roc(scores, is_member)
    return (_area(fpr, tpr), *_best_point(fpr, tpr, fpr_cap))


def _distinct_points(points: Sequence[tuple[float, float]], what: str) -> list[tuple[float, float]]:
    """The distinct (utility_loss, privacy_leakage) pairs, ascending; at least one,
    each coordinate in [0, 1]."""
    coords = sorted({(float(u), float(leak)) for u, leak in points})
    if not coords:
        raise FedAuditError(f"{what} of no points")
    for u, leak in coords:
        if not (0 <= u <= 1 and 0 <= leak <= 1):
            raise FedAuditError(f"coordinates must be in [0, 1]: {(u, leak)}")
    return coords


def pareto_front(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated (utility_loss, privacy_leakage) subset (minimize both),
    sorted by utility_loss."""
    front: list[tuple[float, float]] = []
    best_leak = float("inf")
    for u, leak in _distinct_points(points, "pareto_front"):
        if leak < best_leak:  # ascending utility; keep strict leakage improvements
            front.append((u, leak))
            best_leak = leak
    return front


def hypervolume(points: Sequence[tuple[float, float]]) -> float:
    """Area of the union of boxes [p, (1, 1)] for 2-D minimization points."""
    coords = _distinct_points(points, "hypervolume")
    area = 0.0
    best_y = float("inf")
    xs = [c[0] for c in coords] + [1.0]
    for i, (x, y) in enumerate(coords):
        best_y = min(best_y, y)
        width = xs[i + 1] - x
        if width > 0:
            area += width * (1.0 - best_y)
    return area
