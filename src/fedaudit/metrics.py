"""Attack evaluation: ROC/AUC, TPR at a low-FPR operating point, Pareto
fronts over (utility loss, privacy leakage), and the 2-D hypervolume.

Orientation convention: a point is (utility_loss, privacy_leakage), both
in [0, 1] and both minimized by a good defense; the hypervolume against
reference (1, 1) measures defense quality, so a stronger attack pushes
leakage up and shrinks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CohortError, EmptySampleError, ParameterError, ReferencePointError


@dataclass(frozen=True, eq=False)
class ScoredCohort:
    """Attack scores with membership ground truth; both classes non-empty."""

    scores: np.ndarray
    is_member: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "is_member", np.asarray(self.is_member, dtype=bool))
        if self.scores.shape != self.is_member.shape or self.scores.ndim != 1:
            raise CohortError("scores and is_member must be aligned 1-D arrays")
        if not np.all(np.isfinite(self.scores)):
            raise CohortError("scores must be finite")
        pos = int(self.is_member.sum())
        if pos == 0 or pos == len(self.is_member):
            raise CohortError("cohort needs at least one member and one non-member")


@dataclass(frozen=True)
class RocCurve:
    """Threshold-sweep (fpr, tpr) points from (0,0) to (1,1), both nondecreasing."""

    points: tuple[tuple[float, float], ...]


def roc(cohort: ScoredCohort) -> RocCurve:
    """Sweep every distinct score as a threshold, classifying score > threshold.

    One descending sort: the point at a threshold counts the members and
    non-members ranked before that score's tie group.
    """
    pos = int(cohort.is_member.sum())
    neg = len(cohort.is_member) - pos
    order = np.argsort(-cohort.scores, kind="stable")
    ranked = cohort.scores[order]
    tp = np.concatenate(([0], np.cumsum(cohort.is_member[order])))
    fp = np.arange(len(ranked) + 1) - tp
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    for pt in zip((fp[starts] / neg).tolist(), (tp[starts] / pos).tolist()):
        if pt != points[-1]:
            points.append(pt)
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return RocCurve(tuple(points))


def _area(curve: RocCurve) -> float:
    pts = curve.points
    area = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        area += (x2 - x1) * (y1 + y2) / 2.0
    return area


def _best_point(curve: RocCurve, fpr_cap: float) -> tuple[float, float]:
    if not (0 <= fpr_cap < 1):
        raise ParameterError(f"fpr_cap must be in [0, 1), got {fpr_cap}")
    best = (0.0, 0.0)
    for fpr, tpr in curve.points:
        if fpr <= fpr_cap and (tpr > best[0] or (tpr == best[0] and fpr < best[1])):
            best = (tpr, fpr)
    return best


def auc(cohort: ScoredCohort) -> float:
    """Trapezoidal area under the ROC (equals the pair statistic, ties at 1/2)."""
    return _area(roc(cohort))


def operating_point(cohort: ScoredCohort, fpr_cap: float) -> tuple[float, float]:
    """(TPR, achieved FPR) at the best threshold with FPR <= fpr_cap.

    The achieved FPR is reported because small cohorts cannot realize
    very low caps exactly.
    """
    return _best_point(roc(cohort), fpr_cap)


def roc_metrics(cohort: ScoredCohort, fpr_cap: float) -> tuple[float, float, float]:
    """(AUC, TPR, achieved FPR) of ``auc`` and ``operating_point`` from one ROC."""
    curve = roc(cohort)
    tpr, achieved = _best_point(curve, fpr_cap)
    return _area(curve), tpr, achieved


@dataclass(frozen=True)
class ParetoPoint:
    """One defense operating point: (test error rate, TPR at the low-FPR cap)."""

    utility_loss: float
    privacy_leakage: float

    def __post_init__(self) -> None:
        if not (0 <= self.utility_loss <= 1 and 0 <= self.privacy_leakage <= 1):
            raise ParameterError(f"coordinates must be in [0, 1]: {self}")


def _as_points(points: Sequence[ParetoPoint] | Sequence[tuple[float, float]]) -> list[ParetoPoint]:
    out = []
    for p in points:
        out.append(p if isinstance(p, ParetoPoint) else ParetoPoint(float(p[0]), float(p[1])))
    return out


def pareto_front(points: Sequence[ParetoPoint] | Sequence[tuple[float, float]]) -> list[ParetoPoint]:
    """Non-dominated subset (minimize both coordinates), sorted by utility_loss."""
    pts = _as_points(points)
    if not pts:
        raise EmptySampleError("pareto_front of no points")
    uniq = sorted(set((p.utility_loss, p.privacy_leakage) for p in pts))
    front: list[ParetoPoint] = []
    best_leak = float("inf")
    for u, leak in uniq:  # ascending utility; keep strict leakage improvements
        if leak < best_leak:
            front.append(ParetoPoint(u, leak))
            best_leak = leak
    return front


def hypervolume(
    points: Sequence[ParetoPoint] | Sequence[tuple[float, float]],
    reference: tuple[float, float] = (1.0, 1.0),
) -> float:
    """Area of the union of boxes [p, reference] for 2-D minimization points."""
    pts = _as_points(points)
    if not pts:
        raise EmptySampleError("hypervolume of no points")
    zx, zy = float(reference[0]), float(reference[1])
    for p in pts:
        if p.utility_loss > zx or p.privacy_leakage > zy:
            raise ReferencePointError(f"point {p} exceeds reference {reference}")
    coords = sorted(set((p.utility_loss, p.privacy_leakage) for p in pts))
    area = 0.0
    best_y = float("inf")
    xs = [c[0] for c in coords] + [zx]
    for i, (x, y) in enumerate(coords):
        best_y = min(best_y, y)
        width = xs[i + 1] - x
        if width > 0:
            area += width * (zy - best_y)
    return area
