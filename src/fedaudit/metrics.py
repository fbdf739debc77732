"""Attack evaluation: ROC/AUC, TPR at a low-FPR operating point, Pareto
fronts over (utility loss, privacy leakage), and the 2-D hypervolume.

The ROC functions score a cohort of n records: ``is_member``, a 1-D bool
array holding both classes, and finite ``scores`` aligned with it (higher
meaning member). ``roc`` and ``roc_metrics`` take rows, an (m, n) matrix
that scores the cohort once per row (once per attack method, say, or per
communication round), in one sort and one pass for all rows; each row's
bits are those it has alone. ``roc`` also takes one (n,) row, as ``auc``
and ``operating_point`` do. A cohort is checked once, where it enters the
program: read back from an artifact through its manifest
(``artifacts.read_artifacts``) or scored by ``harness.run_attacks``.

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
    stable descending sort per row: column j is the point after the j
    highest-ranked records, and the ROC's points are the columns where a tie
    group starts (counting the records ranked before it) and column n, which
    is (1, 1). The first group starts at (0, 0), and each later group adds at
    least one record, so no two points are equal.

    For (n,) ``scores``, the ROC's points. For an (m, n) matrix, one row of
    n + 1 columns per row of ``scores``, where a column inside a tie group
    repeats the point before it, so every row has the same length.
    """
    rows = scores.reshape(-1, scores.shape[-1])
    m, n = rows.shape
    pos = int(is_member.sum())
    neg = n - pos
    order = np.argsort(-rows, axis=1, kind="stable")
    ranked = np.take_along_axis(rows, order, axis=1)
    tp = np.zeros((m, n + 1), dtype=np.int64)
    np.cumsum(is_member[order], axis=1, out=tp[:, 1:])
    fp = np.arange(n + 1) - tp
    starts = np.ones((m, n + 1), dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:, 1:n])
    if scores.ndim == 1:
        return fp[starts] / neg, tp[starts] / pos
    last = np.maximum.accumulate(np.where(starts, np.arange(n + 1), 0), axis=1)
    return np.take_along_axis(fp, last, 1) / neg, np.take_along_axis(tp, last, 1) / pos


def roc_metrics(scores: np.ndarray, is_member: np.ndarray,
                fpr_cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(AUC, TPR, achieved FPR) of each row of the (m, n) ``scores``, as three (m,)
    arrays: the area under the row's ROC, and its best operating point with
    FPR <= fpr_cap, a cap >= 0. Each row's bits are those of the row alone.

    The area adds the trapezoids of consecutive columns of ``roc``'s rows by
    one cumsum along the row, in sequence as a loop over the points would
    (np.sum pairs them): a repeated point adds exactly +0.0. The operating
    point is the first arg-max of the TPR among the columns with
    FPR <= fpr_cap, (0, 0) always among them: a point, not its repeat, and
    the lowest FPR of the points sharing the highest TPR.
    """
    fpr, tpr = roc(scores, is_member)
    area = np.cumsum(np.diff(fpr, axis=1) * (tpr[:, :-1] + tpr[:, 1:]) / 2.0, axis=1)[:, -1]
    best = np.argmax(np.where(fpr <= fpr_cap, tpr, -1.0), axis=1)[:, None]
    return area, np.take_along_axis(tpr, best, 1)[:, 0], np.take_along_axis(fpr, best, 1)[:, 0]


def auc(scores: np.ndarray, is_member: np.ndarray) -> float:
    """Trapezoidal area under the ROC (equals the pair statistic, ties at 1/2)."""
    return float(roc_metrics(scores[None], is_member, 0.0)[0][0])


def operating_point(scores: np.ndarray, is_member: np.ndarray,
                    fpr_cap: float) -> tuple[float, float]:
    """(TPR, achieved FPR) at the best threshold with FPR <= fpr_cap, a cap >= 0.

    The achieved FPR is reported because small cohorts cannot realize
    very low caps exactly.
    """
    _, tpr, fpr = roc_metrics(scores[None], is_member, fpr_cap)
    return float(tpr[0]), float(fpr[0])


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
