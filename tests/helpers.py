"""Independent oracles shared by the unit and acceptance suites.

Everything here is deliberately written against the definitions, not the
implementations under test: quadrature instead of erf, exhaustive pair
counting instead of a threshold sweep, a threshold-by-threshold ROC
instead of one sort, point-by-point loops for the ROC's points, area and
operating point instead of array operations, Monte Carlo instead of the
sweep line, central differences instead of backprop, a client-by-client
FedAvg loop of 2-D products instead of the stacked group trainer, and the
attack's null fit applied record by record and round by round instead of
the grouped fit.
Also the trace and cohort builders that only the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import mpmath
import numpy as np

from fedaudit import attack as atk
from fedaudit import data as dat
from fedaudit import fedsim as fed
from fedaudit import model as mdl
from fedaudit.errors import FedAuditError
from fedaudit.numstat import RngStream, summary


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


def roc_sweep_loop(scores: np.ndarray, is_member: np.ndarray) -> tuple:
    """ROC points of one descending sort, appended one tie group at a time
    unless equal to the last point: ``metrics.roc``'s scalar reference."""
    pos = int(is_member.sum())
    neg = len(is_member) - pos
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    tp = np.concatenate(([0], np.cumsum(is_member[order])))
    fp = np.arange(len(ranked) + 1) - tp
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    for pt in zip((fp[starts] / neg).tolist(), (tp[starts] / pos).tolist()):
        if pt != points[-1]:
            points.append(pt)
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return tuple(points)


def area_loop(points: Sequence[tuple[float, float]]) -> float:
    """Trapezoidal area under ROC points, summed left to right."""
    area = 0.0
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        area += (x2 - x1) * (y1 + y2) / 2.0
    return area


def best_point_loop(points: Sequence[tuple[float, float]], fpr_cap: float) -> tuple[float, float]:
    """(TPR, FPR) of the point with FPR <= fpr_cap and the highest TPR, then the
    lowest FPR, by a scan of every point."""
    best = (0.0, 0.0)
    for fpr, tpr in points:
        if fpr <= fpr_cap and (tpr > best[0] or (tpr == best[0] and fpr < best[1])):
            best = (tpr, fpr)
    return best


def trace_prefix(trace: fed.UpdateTrace, num_rounds: int) -> fed.UpdateTrace:
    """The trace truncated to its first ``num_rounds`` rounds."""
    if not (1 <= num_rounds <= trace.num_rounds):
        raise FedAuditError(f"prefix length {num_rounds} out of range")
    final = (trace.final_model if num_rounds == trace.num_rounds
             else trace.rounds[num_rounds].global_before)
    return replace(trace, rounds=trace.rounds[:num_rounds], final_model=final,
                   round_accuracy=trace.round_accuracy[:num_rounds])


def scaled_updates(trace: fed.UpdateTrace, factor: float) -> fed.UpdateTrace:
    """Copy of the trace with every uploaded update multiplied by ``factor``."""
    rounds = [fed.RoundRecord(r.round_index, r.global_before, factor * r.updates, r.lr_effective)
              for r in trace.rounds]
    return replace(trace, rounds=rounds, round_accuracy=list(trace.round_accuracy))


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


def batch_grad_2d(
    spec: mdl.ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Mean cross-entropy gradient of one model on one (n, d) batch, flat."""
    d, h, c, n = spec.input_dim, spec.hidden_dim, spec.num_classes, len(y)
    if spec.kind == "linear_softmax":
        w, b = params[: c * d].reshape(c, d), params[c * d :]
        logits = x @ w.T + b
    else:
        w1, b1 = params[: h * d].reshape(h, d), params[h * d : h * d + h]
        w2, b2 = params[h * d + h : h * d + h + c * h].reshape(c, h), params[h * d + h + c * h :]
        a1 = np.tanh(x @ w1.T + b1)
        logits = a1 @ w2.T + b2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    delta = e / e.sum(axis=1, keepdims=True)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    if spec.kind == "linear_softmax":
        return np.concatenate([(delta.T @ x).ravel(), delta.sum(axis=0)])
    d1 = (delta @ w2) * (1.0 - a1 * a1)
    return np.concatenate(
        [(d1.T @ x).ravel(), d1.sum(axis=0), (delta.T @ a1).ravel(), delta.sum(axis=0)]
    )


def federation_loop(
    dataset: dat.Dataset, partition: dat.Partition, spec: mdl.ModelSpec, config: fed.FedConfig,
    defense: fed.DefenseConfig, seed: int,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """FedAvg one client at a time: ([(global_before, updates)] per round, final model).

    Each client shuffles (a ``subsample`` of) its records every epoch and
    takes one SGD step per batch of ``batch_grad_2d``; under mixup a batch
    of two or more mixes with a partner after drawing lam, and is scored
    against both label sets.
    """
    root = RngStream(seed)
    omega = mdl.init_params(spec, root.derive(fed.TAG_INIT))
    rounds = []
    for t in range(config.rounds):
        lr = fed.lr_effective(config, t)
        updates = np.empty((partition.num_clients, spec.param_count()))
        for k, idx in enumerate(partition.client_indices):
            x, y = dataset.arrays(idx)
            g = root.derive(fed.TAG_CLIENT, t, k).generator()
            w = omega.copy()
            for _ in range(config.local_epochs):
                if defense.kind in ("sample", "augment_and_sample"):
                    perm = g.permutation(dat.subsample(g, len(y), defense.portion))
                else:
                    perm = g.permutation(len(y))
                for start in range(0, len(perm), config.batch_size):
                    batch = perm[start : start + config.batch_size]
                    bx, by = x[batch], y[batch]
                    if defense.kind in ("augment", "augment_and_sample"):
                        bx = dat.augment_batch(g, bx, dataset.geometry, defense.augment_ops)
                    if defense.kind == "mixup" and len(batch) >= 2:
                        lam = float(g.beta(defense.alpha, defense.alpha))
                        partner = g.permutation(len(batch))
                        mixed = lam * bx + (1.0 - lam) * bx[partner]
                        grad = lam * batch_grad_2d(spec, w, mixed, by)
                        grad += (1.0 - lam) * batch_grad_2d(spec, w, mixed, by[partner])
                    else:
                        grad = batch_grad_2d(spec, w, bx, by)
                    w -= lr * grad
            upd = (omega - w) / lr
            if defense.is_update_level:
                upd = fed.defend_update(upd, defense, root.derive(fed.TAG_DEFENSE, t, k))
            updates[k] = upd
        rounds.append((omega, updates))
        omega = omega - lr * updates.mean(axis=0)
    return rounds, omega


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """Per-(round, client) measurements for one target record."""

    sample_id: int
    target_client: int
    values: np.ndarray  # (T, K)


@dataclass(frozen=True)
class RoundOutDistribution:
    """Gaussian null fitted to the filtered non-target measurements."""

    round_index: int
    kept_clients: tuple[int, ...]
    mu_out: float
    v_out: float


def round_out(
    values: np.ndarray,
    target_client: int,
    orientation: str,
    round_index: int,
    leave_one_out: bool = False,
) -> RoundOutDistribution:
    """The 3-sigma null fit of one round's (K,) values, one value at a time."""
    k = len(values)
    if k < 3:
        raise FedAuditError(f"need at least 3 clients for a null estimate, got {k}")
    others = np.delete(np.arange(k), target_client)
    vals = values[others]
    if leave_one_out:
        keep_mask = np.ones(len(vals), dtype=bool)
        for j in range(len(vals)):
            st = summary(np.delete(vals, j))
            bound = 3.0 * np.sqrt(st.variance)
            if orientation == "member_high":
                keep_mask[j] = vals[j] <= st.mean + bound
            else:
                keep_mask[j] = vals[j] >= st.mean - bound
        if not keep_mask.any():
            keep_mask[:] = True
    else:
        st = summary(vals)
        bound = 3.0 * np.sqrt(st.variance)
        if orientation == "member_high":
            keep_mask = vals <= st.mean + bound
        else:
            keep_mask = vals >= st.mean - bound
    kept = others[keep_mask]
    st_out = summary(values[kept])
    return RoundOutDistribution(round_index, tuple(int(c) for c in kept), st_out.mean, st_out.variance)


def estimate_out(
    matrix: MeasurementMatrix,
    round_index: int,
    orientation: str,
    leave_one_out: bool = False,
) -> RoundOutDistribution:
    """Null distribution for one round of a target's measurement matrix."""
    return round_out(
        matrix.values[round_index], matrix.target_client, orientation, round_index, leave_one_out
    )


def score_temporal(per_round: Sequence[float] | np.ndarray) -> float:
    """Mean of the per-round scores (the aggregate membership score)."""
    arr = np.asarray(per_round, dtype=np.float64)
    if arr.size == 0:
        raise FedAuditError("no per-round scores to aggregate")
    return float(arr.mean())


def scalar_fedmia(
    values: np.ndarray, target_client: int, orientation: str, leave_one_out: bool = False
) -> tuple[np.ndarray, np.ndarray, list[list[RoundOutDistribution]]]:
    """Steps 2-3 record by record on (n, T, K) measurements: the reference.

    Returns the (n, T) per-round scores, the (n,) aggregates and every
    fitted null.
    """
    n, rounds, _ = values.shape
    per_round, aggregate, fits = np.empty((n, rounds)), np.empty(n), []
    for i in range(n):
        matrix = MeasurementMatrix(i, target_client, values[i])
        outs = [estimate_out(matrix, t, orientation, leave_one_out) for t in range(rounds)]
        per_round[i] = [
            atk.score_round(values[i, t, target_client], out, orientation)
            for t, out in enumerate(outs)
        ]
        aggregate[i] = score_temporal(per_round[i])
        fits.append(outs)
    return per_round, aggregate, fits
