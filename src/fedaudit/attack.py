"""Membership inference against a recorded federation trace.

The main attack scores a target record in three steps, per round:

  1. Reduce each client's high-dimensional upload to a scalar measurement
     conditioned on the target record — by default the cosine between the
     upload and the record's gradient at that round's global model
     (variant II), or the record's loss under the client's reconstructed
     post-training model (variant I).

  2. Estimate the null distribution of that measurement from the
     non-target clients: take the population mean/std over all K-1
     non-target values, drop values beyond three standard deviations on
     the member side (they may themselves be contaminated), and fit a
     Gaussian to the survivors. Because client datasets are disjoint, at
     least K-2 of those values are guaranteed clean.

  3. Score the target client's measurement by its one-sided Gaussian tail
     probability under that null, then average the per-round scores over
     all recorded rounds.

``audit_cohort`` runs the steps for a whole cohort in two chains over the
rounds, each vectorised over (records x non-target clients). The loss
chain measures each record's loss under every client's rebuilt model,
through the stacked loss kernel of ``model``, and scores variant I. The
gradient chain takes one gradient product per round, which feeds the
cosine and grad_diff measurements, scores variant II and keeps the target
client's series. The chains share no array, so when the process may run
on two cores (its affinity mask, in a pool worker too) the loss chain
runs on a helper thread; on one core they run in turn, which is faster
there. The bits are those of one pass over the rounds, and so is the
first error raised. A row whose 3-sigma test keeps every value takes the
population fit as its null, exactly. Rows with a drop are grouped by
survivor count, and each group's survivors, gathered in client order
into one contiguous block, are fitted row by row with the same
reductions; leave-one-out builds its keep mask one column at a time.
No step loops over rows. The scalar rule, applied record by record, lives
in ``tests/helpers.py`` as the reference the engine matches bit for bit.

Every score is a NumPy array aligned with the cohort: row i scores the
i-th record of ``x``/``y``, (n, T) per round or (n,) in aggregate. A
record is declared a member when the aggregate score exceeds a
threshold. Any record flagged by the aggregate score is necessarily
flagged by at least one single-round score at the same threshold (the
aggregate is a mean); ``check_aggregate_inclusion`` verifies this on the
boolean decision masks of ``decision_sets``.

Six single-signal attacks against the same trace are provided for
comparison, every score oriented so that higher means member. Each
method's score from rounds 0..t is defined once, by ``CohortAudit.scores``:
the final scores read it at the last round, the round curves at every round.

With K - 1 = n non-target values the standardized deviation of a single
outlier is at most (n - 1) / sqrt(n), which stays below 3 for n <= 10: at
the common 10-client setting the 3-sigma filter removes nothing. The rule
is implemented verbatim anyway, and a leave-one-out variant is available
behind a flag for larger cohorts.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import model as mdl
from .errors import ConfigError, FedAuditError, ZeroVectorError
from .fedsim import RoundRecord, UpdateTrace
from .numstat import _scratch, gaussian_cdf

MEASUREMENT_KINDS = ("cosine", "loss", "grad_diff")

# Which side of the null a member lands on, per measurement that fedmia scores.
DEFAULT_ORIENTATION = {"cosine": "member_high", "loss": "member_low"}

# Each baseline's score at round t: the target-client series it reads,
# whether it averages rounds 0..t (else it reads round t alone), and
# whether it is negated so that higher means member.
BASELINE_SCORES = {
    "blackbox_loss": ("loss_global", False, True),
    "grad_cosine": ("cosine", False, False),
    "grad_norm": ("update_norm", False, True),
    "loss_series": ("loss_global", True, True),
    "avg_cosine": ("cosine", True, False),
    "grad_diff": ("grad_diff", True, False),
}
BASELINE_METHODS = tuple(BASELINE_SCORES)
FEDMIA_METHODS = ("fedmia_i", "fedmia_ii")
ALL_METHODS = FEDMIA_METHODS + BASELINE_METHODS
# The measurement each fedmia variant reads, and the methods reading each
# target-client series (in the order the audit stores them).
FEDMIA_KIND = {"fedmia_i": "loss", "fedmia_ii": "cosine"}
SERIES_READERS = {
    k: {m for m, (series, _, _) in BASELINE_SCORES.items() if series == k}
    for k in ("loss_global", "cosine", "grad_diff", "update_norm")
}

# Relative floor applied to the null variance before the tail integral;
# absorbs rounds where every kept measurement is identical.
SIGMA_FLOOR_REL = 1e-8

# Rows per block of ``_row_norms``: its squares workspace holds this many
# rows, not a (records x parameters) copy of the gradients.
_NORM_BLOCK = 16

_SQRT2 = math.sqrt(2.0)
# NumPy has no erf; math.erf elementwise gives gaussian_cdf's exact bits.
_erf = np.frompyfunc(math.erf, 1, 1)


@dataclass(frozen=True, eq=False)
class CohortAudit:
    """The audit of a trace: (n, T) per-round scores and target-client series."""

    per_round: dict[str, np.ndarray]  # fedmia method -> per-round scores
    series: dict[str, np.ndarray]  # SERIES_READERS key -> series, if read

    def scores(self, method: str, t: int) -> np.ndarray:
        """(n,) scores of ``method`` from rounds 0..t, higher meaning member.

        fedmia averages its per-round scores, a baseline reads ``BASELINE_SCORES``.
        """
        if method in FEDMIA_METHODS:
            return self.per_round[method][:, : t + 1].mean(axis=1)
        name, averaged, negated = BASELINE_SCORES[method]
        series = self.series[name]
        vals = series[:, : t + 1].mean(axis=1) if averaged else series[:, t]
        return -vals if negated else vals


def _cohort_arrays(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x, y = np.atleast_2d(np.asarray(x, dtype=np.float64)), np.asarray(y, dtype=np.int64)
    if len(y) == 0:
        raise FedAuditError("no target records")
    return x, y


def _row_norms(a: np.ndarray, ws: dict | None) -> np.ndarray:
    """``np.linalg.norm(a, axis=1)``, by the same operations. Each row squares and
    reduces alone, so ``_NORM_BLOCK`` rows at a time are squared into the workspace."""
    norms = np.empty(len(a))
    for lo in range(0, len(a), _NORM_BLOCK):
        block = a[lo : lo + _NORM_BLOCK]
        squares = np.multiply(block, block, out=_scratch(ws, "squares", block.shape))
        np.add.reduce(squares, axis=1, out=norms[lo : lo + len(block)])
    return np.sqrt(norms, out=norms)


def _client_losses(spec: mdl.ModelSpec, rec: RoundRecord, x: np.ndarray, y: np.ndarray,
                   ws: dict | None) -> np.ndarray:
    """(n, K) losses of the cohort under each client's rebuilt model global - lr_eff * update."""
    local = np.multiply(rec.updates, rec.lr_effective, out=_scratch(ws, "local", rec.updates.shape))
    np.subtract(rec.global_before, local, out=local)
    return mdl._stacked_loss(spec, local, x, y, _scratch(ws, "loss", (len(y), len(local))), ws)


def _measure_round(
    spec: mdl.ModelSpec, rec: RoundRecord, x: np.ndarray, y: np.ndarray, kinds: set[str],
    ws: dict | None = None,
) -> dict[str, np.ndarray]:
    """The requested (n, K) measurements of one round; cosine and grad_diff share one gemm."""
    updates = rec.updates
    out: dict[str, np.ndarray] = {}
    if "loss" in kinds:
        out["loss"] = _client_losses(spec, rec, x, y, ws)
    if kinds & {"cosine", "grad_diff"}:
        grads = mdl.grad_samples(spec, rec.global_before, x, y,
                                 _scratch(ws, "grads", (len(y), spec.param_count())))
        dots = grads @ updates.T
        out["grad_diff"] = dots
        if "cosine" in kinds:
            gnorm = _row_norms(grads, ws)
            zero = np.flatnonzero(gnorm == 0.0)
            if len(zero):
                raise ZeroVectorError(
                    f"round {rec.round_index}, cohort row {zero[0]}: target record has zero "
                    "gradient at the round's global model (stationary point)",
                    row=int(zero[0]),
                )
            unorm = _row_norms(updates, ws)
            cos = np.zeros_like(dots)
            nz = unorm > 0.0
            cos[:, nz] = dots[:, nz] / (gnorm[:, None] * unorm[None, nz])
            out["cosine"] = cos
    return out


def measure_cohort(
    trace: UpdateTrace,
    x: np.ndarray,
    y: np.ndarray,
    kind: str,
) -> np.ndarray:
    """Measurements for a whole cohort at once, shape (n, T, K).

    cosine     : cos(update_k_t, grad of record at that round's global model)
    loss       : record loss under client k's reconstructed local model
                 (global_t - lr_eff_t * update_k_t)
    grad_diff  : raw inner product <update_k_t, grad of record>

    A zero record gradient (stationary point) raises ZeroVectorError; a
    zero-norm defended upload yields cosine 0 (uninformative direction).
    """
    if kind not in MEASUREMENT_KINDS:
        raise ConfigError(f"unknown measurement kind {kind!r}")
    x, y = _cohort_arrays(x, y)
    out = np.empty((len(y), trace.num_rounds, trace.num_clients))
    for t, rec in enumerate(trace.rounds):
        out[:, t, :] = _measure_round(trace.model_spec, rec, x, y, {kind})[kind]
    return out


def score_round(
    m_target: float,
    out,
    orientation: str,
    sigma_floor_rel: float = SIGMA_FLOOR_REL,
) -> float:
    """One-sided Gaussian tail probability of the target measurement.

    ``out`` is a fitted null with ``mu_out`` and ``v_out``. member_high
    scores P(X <= m) under the null, member_low the mirror P(X >= m). The
    variance is floored at (sigma_floor_rel*(1+|mu|))^2 so a collapsed
    null still yields a well-defined score. The scalar form of step 3;
    ``_score_rows`` computes it for a whole round.
    """
    floor = sigma_floor_rel * (1.0 + abs(out.mu_out))
    v = max(out.v_out, floor * floor)
    p = gaussian_cdf(float(m_target), out.mu_out, v)
    return p if orientation == "member_high" else 1.0 - p


def _row_fit(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise population mean and variance of a contiguous (m, c) block.

    Each row reduces with the same pairwise summation as a 1-D sample, and
    a constant row gets its value and variance exactly 0, so every row's
    bits are those of the scalar fit of that row.
    """
    mu = block.mean(axis=1)
    v = ((block - mu[:, None]) ** 2).mean(axis=1)
    const = (block == block[:, :1]).all(axis=1)
    mu[const], v[const] = block[const, 0], 0.0
    return mu, v


def _keep(values: np.ndarray, mu: np.ndarray, v: np.ndarray, orientation: str) -> np.ndarray:
    """The 3-sigma test: values within three standard deviations on the member side."""
    bound = 3.0 * np.sqrt(v)
    if orientation == "member_high":
        return values <= mu + bound
    return values >= mu - bound


def _score_rows(
    values: np.ndarray,
    target_client: int,
    orientation: str,
    round_index: int,
    sigma_floor_rel: float,
    leave_one_out: bool,
) -> np.ndarray:
    """Steps 2-3 for one round, (n, K) -> (n,), with no loop over rows.

    The 3-sigma test compares each non-target value with the fit of its
    row (under leave-one-out, of its row without it: one contiguous
    (n, K-2) block per column). A row that keeps every value takes the
    population fit as its null. The other rows are grouped by survivor
    count c, and each group's survivors, in client order, form one (m, c)
    block fitted by ``_row_fit``. A leave-one-out row that flags every
    value keeps them all.
    """
    if not np.all(np.isfinite(values)):
        raise FedAuditError(f"non-finite measurement in round {round_index}")
    others = np.delete(values, target_client, axis=1)
    mu, v = _row_fit(others)
    if leave_one_out:
        keep = np.empty(others.shape, dtype=bool)
        for j in range(others.shape[1]):
            keep[:, j] = _keep(others[:, j], *_row_fit(np.delete(others, j, axis=1)), orientation)
        keep[~keep.any(axis=1)] = True
    else:
        keep = _keep(others, mu[:, None], v[:, None], orientation)
    rows = np.flatnonzero(~keep.all(axis=1))
    survivors = keep[rows].sum(axis=1)
    # The distinct counts, ascending. Not np.unique: NumPy 2.4's keeps about
    # 0.5 MB in the heap of each thread that calls it, the loss chain's included.
    for c in np.flatnonzero(np.bincount(survivors)):
        group = rows[survivors == c]
        mu[group], v[group] = _row_fit(others[group][keep[group]].reshape(len(group), c))
    floor = sigma_floor_rel * (1.0 + np.abs(mu))
    v = np.maximum(v, floor * floor)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(v))):
        raise FedAuditError(f"non-finite null estimate in round {round_index}")
    if np.any(v <= 0.0):
        raise FedAuditError(f"null variance must be > 0 in round {round_index}")
    p = 0.5 * (1.0 + _erf((values[:, target_client] - mu) / np.sqrt(v) / _SQRT2).astype(float))
    return p if orientation == "member_high" else 1.0 - p


def audit_cohort(
    trace: UpdateTrace,
    x: np.ndarray,
    y: np.ndarray,
    target_client: int,
    methods: Iterable[str],
    sigma_floor_rel: float = SIGMA_FLOOR_REL,
    leave_one_out: bool = False,
) -> CohortAudit:
    """Steps 1-3 for every requested method, in two chains over the rounds.

    The loss chain measures every client's loss and scores fedmia_i; the
    gradient chain does the rest. Each round measures only what the
    methods read and keeps only the fedmia scores and the target client's
    series. With work in both chains and two or more usable cores, the
    loss chain runs on a helper thread while this one runs the gradient
    chain; else they run in turn. The helper calls only private functions,
    so every public call stays on this thread. The arrays are the same
    bits either way, and a failure raises the error that one pass over the
    rounds, measuring and then scoring in method order, would raise first.
    The measurement kind fixes the member side (``DEFAULT_ORIENTATION``).
    ``methods`` are names of ``ALL_METHODS``, which the attack config checks.
    """
    methods = list(dict.fromkeys(methods))
    _check_clients(trace.num_clients, target_client, methods)
    x, y = _cohort_arrays(x, y)
    fedmia = [m for m in methods if m in FEDMIA_METHODS]
    shape = (len(y), trace.num_rounds)
    per_round = {m: np.empty(shape) for m in fedmia}
    series = {k: np.empty(shape) for k, readers in SERIES_READERS.items() if readers & set(methods)}
    kinds = ({FEDMIA_KIND[m] for m in fedmia} | series.keys()) & {"cosine", "grad_diff"}
    spec = trace.model_spec
    # A step's place in one pass over a round: measuring (0), then scoring in method order.
    place = {m: i + 1 for i, m in enumerate(fedmia)}

    def score(m: str, t: int, values: np.ndarray) -> None:
        kind = FEDMIA_KIND[m]
        per_round[m][:, t] = _score_rows(
            values, target_client, DEFAULT_ORIENTATION[kind], t, sigma_floor_rel, leave_one_out,
        )

    def loss_chain():
        ws: dict = {}
        for t, rec in enumerate(trace.rounds):
            yield t, place["fedmia_i"]
            score("fedmia_i", t, _client_losses(spec, rec, x, y, ws))

    def gradient_chain():
        ws: dict = {}
        for t, rec in enumerate(trace.rounds):
            yield t, 0
            measured = _measure_round(spec, rec, x, y, kinds, ws)
            if "fedmia_ii" in place:
                yield t, place["fedmia_ii"]
                score("fedmia_ii", t, measured["cosine"])
            for k, out in series.items():
                if k == "loss_global":
                    out[:, t] = mdl.loss_many(spec, rec.global_before, x, y)
                elif k == "update_norm":
                    out[:, t] = np.linalg.norm(rec.updates[target_client])
                else:
                    out[:, t] = measured[k][:, target_client]

    chains = [chain() for chain, work in ((loss_chain, "fedmia_i" in place),
                                          (gradient_chain, bool(kinds or series))) if work]
    _run_chains(chains, helper=len(chains) == 2 and _usable_cores() >= 2)
    return CohortAudit(per_round, series)


def _check_clients(k: int, target_client: int, methods: Iterable[str]) -> None:
    """The attack's rules on the client count ``k`` of the trace it reads."""
    if not (0 <= target_client < k):
        raise ConfigError(f"target_client: must be in [0, {k}) for {k} clients, "
                          f"got {target_client}")
    if set(methods) & set(FEDMIA_METHODS) and k < 3:
        raise ConfigError(f"methods: fedmia methods need at least 3 clients for a "
                          f"null estimate, got {k}")


def _usable_cores() -> int:
    """The cores this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chains(chains: list, helper: bool) -> None:
    """Drain each chain, a generator that yields (round, place) before each step.

    With ``helper`` the first chain runs on a helper thread, joined before
    this returns; else the chains run in turn. A chain that fails stops
    the others after the round it failed in. The failure first in
    (round, place) order is raised, as one pass over the rounds raises it.
    """
    failures: list = []  # ((round, place), exception); list.append is atomic

    def drain(chain) -> None:
        at = None
        try:
            for at in chain:
                if any(failed < at[0] for (failed, _), _ in failures):
                    return
        except Exception as exc:  # raised on the calling thread below
            failures.append((at, exc))

    if helper:
        thread = threading.Thread(target=drain, args=(chains[0],))
        thread.start()
        try:
            drain(chains[1])
        finally:
            thread.join()
    else:
        for chain in chains:
            drain(chain)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def fedmia_scores(
    trace: UpdateTrace,
    x: np.ndarray,
    y: np.ndarray,
    target_client: int,
    variant: str = "II",
    sigma_floor_rel: float = SIGMA_FLOOR_REL,
    leave_one_out: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-3 for a cohort of target records: (n, T) per-round scores and their (n,) mean.

    Row i scores record i of ``x``/``y``. Variant I measures per-client
    loss (members score on the low tail), variant II measures
    update/gradient cosine (high tail).
    """
    if variant not in ("I", "II"):
        raise ConfigError(f"unknown variant {variant!r}; expected 'I' or 'II'")
    method = "fedmia_i" if variant == "I" else "fedmia_ii"
    audit = audit_cohort(
        trace, x, y, target_client, [method],
        sigma_floor_rel=sigma_floor_rel, leave_one_out=leave_one_out,
    )
    return audit.per_round[method], audit.scores(method, trace.num_rounds - 1)


def decision_sets(
    per_round: np.ndarray, aggregate: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Members called at threshold delta (strict: score > delta).

    Boolean masks aligned with the score rows: (n, T) per round and (n,) by
    the aggregate score.
    """
    return per_round > delta, aggregate > delta


def baselines(
    trace: UpdateTrace,
    x: np.ndarray,
    y: np.ndarray,
    methods: Iterable[str],
    audit: CohortAudit,
) -> dict[str, np.ndarray]:
    """Single-signal attack scores, (n,) per method, each oriented so higher means member.

    blackbox_loss : -loss under the final global model
    grad_cosine   : final-round cosine measurement of the target client
    grad_norm     : -||final-round target update|| (record-independent)
    loss_series   : -mean over rounds of the loss under each global model
    avg_cosine    : mean over rounds of the target-client cosine
    grad_diff     : mean over rounds of the raw inner product

    Row i scores record i of ``x``/``y``. All but ``blackbox_loss`` are
    ``audit.scores(method, T - 1)``, which the round curves share;
    ``audit`` is ``audit_cohort`` of the same inputs and methods.
    """
    return {
        m: (-mdl.loss_many(trace.model_spec, trace.final_model, x, y) if m == "blackbox_loss"
            else audit.scores(m, trace.num_rounds - 1))
        for m in methods
    }


def check_aggregate_inclusion(per_round_mask: np.ndarray, aggregate_mask: np.ndarray) -> bool:
    """True iff every aggregate-flagged record is flagged in some round."""
    return bool(np.all(per_round_mask.any(axis=1) | ~aggregate_mask))
