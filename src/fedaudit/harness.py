"""Experiment runner: train -> attack -> evaluate, replay, plots and report.

A run executes, for every (defense sweep value, seed) pair: build the
dataset and partition, train the federation, run every configured attack
against its update trace, and score the attacks. Artifacts land in one
report directory, laid out as README's artifact tree shows, with a
``manifest.json`` in each directory that holds files (``artifacts.commit``).

Each file is rendered before any is written, and ``artifacts.commit`` writes
each directory: a new run directory appears whole, once its attack has run. A
job that fails leaves no staging directory; a killed one at most a
``<dir>.partial-<pid>`` sibling, or a ``.partial-<pid>`` inside an existing one.

Everything except report.json timestamps is a pure function of
(config, seed): rerunning a config produces byte-identical metric CSVs,
and replaying a persisted trace reproduces the inline attack results
bit-exactly. The config and its checks are ``fedaudit.config``.

``main`` is the CLI. Each exit code has one error class (``fedaudit.errors``);
an ``OSError`` or ``MemoryError`` (the environment failed) exits 4 too.
The ``FEDAUDIT_OUT`` environment variable, when set and not empty, supplies
the default output root.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from . import attack as atk
from . import data as dat
from . import fedsim as fed
from . import metrics as met
from .artifacts import (commit, read_csv, read_json, read_json_artifact,
                        removing_new_dirs_on_error)
from .config import AttackSuiteConfig, ExperimentConfig, config_hash
from .errors import ConfigError, FedAuditError, IntegrityError, ZeroVectorError
from .numstat import RngStream
from .schema import under

ENV_OUT = "FEDAUDIT_OUT"
REPORT_SCHEMA_VERSION = 1

# Harness-level stream tags (fedsim uses 1..3 on the same seed).
TAG_DATA = 10
TAG_PARTITION = 11
TAG_EVAL = 12
TAG_TARGETS = 13

METRICS_HEADER = (
    "seed,method,defense,param,auc,tpr_at_fpr,fpr_cap,achieved_fpr,utility_loss"
)
METRIC_KEYS = METRICS_HEADER.split(",")  # the keys of a metric row; floats from auc on
MEANS = ("auc", "tpr_at_fpr", "utility_loss")  # averaged over the seeds of a sweep point
SCORES_CSV = "attack_scores.csv"
SCORES_HEADER = "method,sample_id,is_member_truth,score"
TARGETS_HEADER = ["sample_id", "is_member", "label"]  # then f1,...,fd


def load_config(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_json(path))


# --------------------------------------------------------------------------
# Building experiment inputs
# --------------------------------------------------------------------------


def build_dataset(config: ExperimentConfig, seed: int) -> dat.Dataset:
    dc = config.dataset
    if dc.kind == "csv":
        try:
            ds = dat.load_csv(dc.csv_path, dc.num_classes)
        except OSError as exc:
            raise ConfigError(f"dataset.csv_path: cannot read {dc.csv_path}: {exc.strerror}") from None
        except ConfigError as exc:
            raise ConfigError(f"dataset.csv_path: {dc.csv_path}: {exc}") from None
    else:
        rng = RngStream(seed).derive(TAG_DATA)
        ds = dat.synth_blobs(rng, dc.num_classes, dc.input_dim, dc.per_class, dc.class_sep)
    with under("dataset"):
        dc.check_geometry(ds.input_dim)
    return replace(ds, geometry=dc.geometry)


def build_partition(config: ExperimentConfig, dataset: dat.Dataset, seed: int) -> dat.Partition:
    """The partition. One too large for the dataset (a CSV dataset's size is known
    only here) or a client's share short of ``per_client`` names the key that
    sizes it; a Dirichlet draw that leaves a client empty names ``partition.beta``."""
    pc = config.partition
    with under("partition"):
        pc.check_size(len(dataset))
    rng = RngStream(seed).derive(TAG_PARTITION)
    try:
        if pc.kind == "iid":
            return dat.partition_iid(rng, dataset, pc.clients, pc.per_client, pc.holdout)
        partition = dat.partition_dirichlet(rng, dataset, pc.clients, pc.beta, pc.holdout)
    except ConfigError as exc:  # the short share; under beta "inf" the holdout sizes it
        key = "per_client" if pc.kind == "iid" else "holdout"
        raise ConfigError(f"partition.{key}: {exc}") from None
    empty = [k for k, idx in enumerate(partition.client_indices) if len(idx) == 0]
    if empty:
        raise ConfigError(f"partition.beta: client {empty[0]} has no training samples")
    return partition


@dataclass(frozen=True, eq=False)
class TargetCohort:
    """The scored records: features, labels, dataset ids, membership truth."""

    x: np.ndarray
    y: np.ndarray
    ids: np.ndarray
    is_member: np.ndarray


def select_targets(
    config: ExperimentConfig, dataset: dat.Dataset, partition: dat.Partition, seed: int
) -> TargetCohort:
    """Equal-size member/non-member cohorts, capped by pool availability.

    Both are non-empty by construction: the partition gives the target
    client at least one record, the non-member pool holds at least one,
    and ``targets_per_class`` is at least 1."""
    pc, ac = config.partition, config.attack
    members, nonmembers = dat.make_eval_split(
        RngStream(seed).derive(TAG_EVAL),
        partition,
        ac.target_client,
        pc.nonmember_source,
        pc.holdout_fraction,
        pc.others_fraction,
    )
    g = RngStream(seed).derive(TAG_TARGETS).generator()
    n = min(ac.targets_per_class, len(members), len(nonmembers))
    mem = np.sort(g.choice(members, n, replace=False))
    non = np.sort(g.choice(nonmembers, n, replace=False))
    ids = np.concatenate([mem, non])
    x, y = dataset.arrays(ids)
    is_member = np.concatenate([np.ones(n, dtype=bool), np.zeros(n, dtype=bool)])
    return TargetCohort(x, y, ids, is_member)


# --------------------------------------------------------------------------
# Attacks against one trace
# --------------------------------------------------------------------------


def run_attacks(
    trace: fed.UpdateTrace,
    cohort: TargetCohort,
    ac: AttackSuiteConfig,
    param: object,
    render: bool,
) -> tuple[list[dict], dict, dict[str, str]]:
    """All configured attacks: the metric rows (``param`` the sweep value), the
    inclusion checks and, if ``render``, the texts of attack_scores.csv and the
    sidecar by file name.

    A method whose final scores, or the audit array they come from, hold a
    non-finite value raises FedAuditError naming the seed, the defense and
    the method, so every score written or ranked downstream is finite."""
    where = f"seed {trace.seed}, defense {json.dumps(trace.defense.to_dict(), sort_keys=True)}"
    try:
        audit = atk.audit_cohort(
            trace, cohort.x, cohort.y, ac.target_client, ac.methods,
            sigma_floor_rel=ac.sigma_floor_rel, leave_one_out=ac.leave_one_out,
        )
    except ZeroVectorError as exc:
        raise ZeroVectorError(f"{where}, sample_id {int(cohort.ids[exc.row])}: {exc}") from exc
    scores: dict[str, np.ndarray] = {}
    checks: dict = {}
    for method, per_round in audit.per_round.items():
        scores[method] = audit.scores(method, trace.num_rounds - 1)
        checks[method] = {
            repr(float(delta)): atk.check_aggregate_inclusion(
                *atk.decision_sets(per_round, scores[method], delta))
            for delta in ac.delta_grid
        }
    base_methods = [m for m in ac.methods if m in atk.BASELINE_METHODS]
    if base_methods:
        scores.update(atk.baselines(trace, cohort.x, cohort.y, base_methods, audit))
    for method in ac.methods:
        audited = (audit.per_round[method] if method in atk.FEDMIA_METHODS
                   else audit.series[atk.BASELINE_SCORES[method][0]])
        if not (np.isfinite(scores[method]).all() and np.isfinite(audited).all()):
            raise FedAuditError(f"{where}, method {method}: non-finite attack score")
    scores = {m: scores[m] for m in ac.methods}
    aucs, tprs, achieved = (a.tolist() for a in met.roc_metrics(
        np.stack(list(scores.values())), cohort.is_member, ac.fpr_cap))
    rows = [dict(zip(METRIC_KEYS, (
        trace.seed, method, trace.defense.kind, _param_label(param), auc, tpr, ac.fpr_cap,
        fpr, 1.0 - trace.round_accuracy[-1])))
        for method, auc, tpr, fpr in zip(scores, aucs, tprs, achieved)]
    files = {SCORES_CSV: _render_scores(cohort, scores),
             SIDECAR: _render_sidecar(audit, cohort, ac.delta_grid, checks)} if render else {}
    return rows, checks, files


# --------------------------------------------------------------------------
# attack_rounds.json: the audit of one run, written and read back here only
# --------------------------------------------------------------------------

SIDECAR = "attack_rounds.json"
# The sidecar's names for the audit's target-client series.
SERIES_NAMES = {"loss_global": "loss_global", "cosine": "cosine_target",
                "grad_diff": "grad_diff_target", "update_norm": "update_norm_target"}
# Record-independent series, stored as their (T,) first row.
SHARED_SERIES = {"update_norm"}


def _render_sidecar(
    audit: atk.CohortAudit, cohort: TargetCohort, delta_grid: tuple, checks: dict
) -> str:
    """The cohort, the inclusion checks, the fedmia per-round scores and the series."""
    sidecar: dict = {
        "sample_ids": [int(i) for i in cohort.ids],
        "is_member": [bool(b) for b in cohort.is_member],
        "delta_grid": list(delta_grid),
        "inclusion_checks": checks,
    }
    for method, per_round in audit.per_round.items():
        sidecar[method] = {"per_round": per_round}
    sidecar["series"] = {SERIES_NAMES[k]: v[0] if k in SHARED_SERIES else v
                         for k, v in audit.series.items()}
    return _json_text(sidecar) + "\n"


def _json_text(value: object) -> str:
    """``json.dumps(value)`` (C encoder: no indent), where each array becomes a list
    only as it is encoded: one array's floats at a time, not all of them, are alive
    while the largest artifact of a run is rendered."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in value.items()) + "}"
    return json.dumps(value.tolist() if isinstance(value, np.ndarray) else value)


def _read_sidecar(
    run_dir: str, methods: tuple[str, ...], num_rounds: int
) -> tuple[atk.CohortAudit, np.ndarray]:
    """The audit of ``methods`` and the membership truth that ``_render_sidecar`` made."""
    def parse(sidecar: dict) -> tuple[atk.CohortAudit, np.ndarray]:
        shape = (len(sidecar["is_member"]), num_rounds)
        per_round = {m: np.array(sidecar[m]["per_round"])
                     for m in methods if m in atk.FEDMIA_METHODS}
        series = {k: np.broadcast_to(np.array(sidecar["series"][SERIES_NAMES[k]]), shape)
                  for k, readers in atk.SERIES_READERS.items() if readers & set(methods)}
        return atk.CohortAudit(per_round, series), np.array(sidecar["is_member"])

    return read_json_artifact(os.path.join(run_dir, SIDECAR), parse)


def _read_report(path: str) -> tuple[ExperimentConfig, dict]:
    """The config and the contents of report.json."""
    return read_json_artifact(path, lambda report: (
        ExperimentConfig.from_dict(report["config"], "config"), report))


def _fmt(x: float) -> str:
    return repr(float(x))


def _param_label(value: object) -> str:
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, float) else str(value)


def _run_grid(config: ExperimentConfig, report_dir: str):
    """(sweep value, defense, label, {seed: run dir}) per sweep point: the one
    place the layout ``runs/<defense>[_<param>]/seed<seed>`` is spelled."""
    for value, defense in config.sweep.points:
        label = f"{defense.kind}_{_param_label(value)}" if value is not None else defense.kind
        yield value, defense, label, {
            seed: os.path.join(report_dir, "runs", label, f"seed{seed}") for seed in config.seeds
        }


def _render_targets(cohort: TargetCohort) -> str:
    """The cohort, one record per row, in lines that end in ``\\r\\n``."""
    lines = [",".join(TARGETS_HEADER + [f"f{i+1}" for i in range(cohort.x.shape[1])])]
    for sid, member, label, x in zip(cohort.ids.tolist(), cohort.is_member.tolist(),
                                     cohort.y.tolist(), cohort.x.tolist()):
        lines.append(",".join([str(sid), str(int(member)), str(label)] + [_fmt(v) for v in x]))
    return "\r\n".join(lines) + "\r\n"


def load_targets_csv(path: str) -> TargetCohort:
    """The cohort ``_render_targets`` made."""
    return read_csv(path, "targets", lambda h: h[:3] == TARGETS_HEADER, _parse_targets)


def _parse_targets(rows: list[list[str]]) -> TargetCohort:
    return TargetCohort(
        np.array([[float(v) for v in row[3:]] for row in rows]),
        np.array([int(row[2]) for row in rows], dtype=np.int64),
        np.array([int(row[0]) for row in rows], dtype=np.int64),
        np.array([row[1] == "1" for row in rows], dtype=bool),
    )


def _render_scores(cohort: TargetCohort, scores: dict[str, np.ndarray]) -> str:
    records = [f"{sid},{int(t)}" for sid, t in zip(cohort.ids.tolist(), cohort.is_member.tolist())]
    return SCORES_HEADER + "\n" + "".join(
        f"{m},{record},{_fmt(v)}\n" for m, values in scores.items()
        for record, v in zip(records, values.tolist()))


def _read_scores_csv(path: str, methods: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The (n,) scores of each of ``methods`` that ``_render_scores`` made."""
    values = read_csv(path, "scores", lambda h: h == SCORES_HEADER.split(","),
                      lambda rows: np.array([float(row[3]) for row in rows]))
    return dict(zip(methods, values.reshape(len(methods), -1)))


def run_single(
    config: ExperimentConfig,
    defense: fed.DefenseConfig,
    param: object,
    seed: int,
    run_dir: str,
) -> tuple[list[dict], dict]:
    """One (defense, seed) job: train, attack and score, then write ``run_dir`` whole."""
    dataset = build_dataset(config, seed)
    partition = build_partition(config, dataset, seed)
    spec = config.model.spec(dataset.input_dim, dataset.num_classes)
    cohort = select_targets(config, dataset, partition, seed)
    trace = fed.run_federation(dataset, partition, spec, config.federation, defense, seed)
    rows, checks, files = run_attacks(trace, cohort, config.attack, param, render=True)
    commit(run_dir, {"trace": lambda p: fed.save_trace(trace, p),
                     "targets.csv": _render_targets(cohort), **files})
    return rows, checks


def _job(args: tuple) -> tuple[list[dict], dict]:
    """``run_single(*args)``. The pool maps this private name, which pickles
    even where perfbench's tracer has replaced the public ``run_single``."""
    return run_single(*args)


def run_experiment(
    config: ExperimentConfig,
    out_dir: str,
    jobs: int | None = None,
) -> str:
    """Execute the full sweep x seeds grid and write the report directory.

    The (defense, seed) jobs are independent. They run in up to ``jobs``
    worker processes (default: the usable cores), never more than there
    are jobs; with one worker they run in this process. Results merge in
    grid order, so every artifact is the same whatever the worker count.
    On Linux the workers are forked from this process, so they start with
    its modules loaded and its BLAS, thread count included, on which the
    attack_scores.csv bytes depend. That is safe because this process runs
    no job and holds no thread of its own when it forks (the attack joins
    its helper thread before it returns), OpenBLAS stops its own threads
    around a fork, and the pool forks every worker before it starts its
    manager thread; Python 3.12 and later may still warn
    (``DeprecationWarning``) on a fork while OpenBLAS threads are live. A
    forked worker flushes its copy of this process's buffered stdout and
    stderr when it exits, so multiprocessing flushes both before each fork,
    and no text is written twice. Elsewhere the workers are spawned, with
    this process's environment. The first failed job's error is raised, as
    in a serial run, jobs not yet started are cancelled, and every directory
    made for ``out_dir`` is removed if empty.
    """
    if jobs is not None and jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    job_args = [
        (config, defense, value, seed, run_dir)
        for value, defense, _, run_dirs in _run_grid(config, out_dir)
        for seed, run_dir in run_dirs.items()
    ]

    workers = min(len(job_args), jobs or atk._usable_cores())
    # The pool shuts down inside the block, so no job races the removal.
    with removing_new_dirs_on_error(*(a[-1] for a in job_args)):
        if workers > 1:
            import multiprocessing  # imported only here: a one-job grid never starts a pool
            from concurrent.futures import ProcessPoolExecutor

            start = multiprocessing.get_context("fork" if sys.platform == "linux" else "spawn")
            with ProcessPoolExecutor(max_workers=workers, mp_context=start) as pool:
                try:
                    results = list(pool.map(_job, job_args))
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
        else:
            results = [_job(a) for a in job_args]

    all_rows: list[dict] = []
    inclusion: dict = {}
    for (cfg, defense, value, seed, _run_dir), (rows, checks) in zip(job_args, results):
        all_rows.extend(rows)
        if checks:
            key = f"{defense.kind}:{_param_label(value)}:seed{seed}"
            inclusion[key] = checks

    report = _build_report(config, all_rows, inclusion)
    commit(out_dir, {"metrics.csv": _render_metrics(all_rows),
                     "report.json": json.dumps(report, indent=2, sort_keys=True) + "\n"})
    return out_dir


def _render_metrics(rows: list[dict]) -> str:
    return METRICS_HEADER + "\n" + "".join(
        ",".join([str(r[k]) for k in METRIC_KEYS[:4]] + [_fmt(r[k]) for k in METRIC_KEYS[4:]])
        + "\n" for r in rows)


def _group_means(rows: list[dict], *keys: str) -> dict[tuple, dict[str, float]]:
    """The ``keys`` of a group of metric rows -> the mean of each of MEANS over its
    rows, in row order; groups in the order of their first row."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault(tuple(r[k] for k in keys), []).append(r)
    return {key: {m: float(np.mean([r[m] for r in grp])) for m in MEANS}
            for key, grp in groups.items()}


def _build_report(config: ExperimentConfig, rows: list[dict], inclusion: dict) -> dict:
    means = _group_means(rows, "method", "defense", "param")
    per_method: dict = {}
    for method in config.attack.methods:
        points = [{"defense": defense, "param": param, **{f"mean_{m}": v for m, v in mean.items()}}
                  for (of, defense, param), mean in means.items() if of == method]
        coords = [(p["mean_utility_loss"], p["mean_tpr_at_fpr"]) for p in points]
        front = met.pareto_front(coords)
        per_method[method] = {
            "points": points,
            "pareto_front": [list(p) for p in front],
            "hypervolume": met.hypervolume(coords),
        }
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "code_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "fpr_cap": config.attack.fpr_cap,
        "inclusion_checks": inclusion,
        "per_method": per_method,
    }


# --------------------------------------------------------------------------
# Replay
# --------------------------------------------------------------------------


def replay_attack(trace_dir: str, ac: AttackSuiteConfig, out_dir: str | None = None) -> list[dict]:
    """Re-run attacks on a persisted trace; equals the inline results bit-exactly."""
    trace = fed.load_trace(trace_dir)
    path = os.path.join(os.path.dirname(trace_dir.rstrip("/")), "targets.csv")
    cohort = load_targets_csv(path)
    if cohort.x.shape[1] != trace.model_spec.input_dim:
        raise IntegrityError(
            f"corrupt targets file {path}: {cohort.x.shape[1]} features, "
            f"the trace's model takes {trace.model_spec.input_dim}"
        )
    with under("attack"):
        ac.check_clients(trace.num_clients)
    rows, _, files = run_attacks(trace, cohort, ac, None, render=out_dir is not None)
    if out_dir is not None:
        with removing_new_dirs_on_error(out_dir):
            commit(out_dir, {**files, "metrics.csv": _render_metrics(rows)})
    return rows


# --------------------------------------------------------------------------
# Plot data
# --------------------------------------------------------------------------


def _read_metrics_csv(path: str) -> list[dict]:
    """The rows of metrics.csv, the fields after ``param`` as floats."""
    return read_csv(path, "metrics", lambda h: h == METRIC_KEYS, lambda rows: [
        dict(zip(METRIC_KEYS, row[:4] + [float(v) for v in row[4:]])) for row in rows])


def _seed_mean(per_seed: tuple[np.ndarray, ...]) -> np.ndarray:
    """(T,) mean over the seeds of each round's values, one (T,) array per seed: the
    bits of ``np.mean`` of the round's list, because the (T, S) array is reduced
    along its contiguous axis, which sums each row pairwise as a 1-D sum does."""
    return np.stack(per_seed, axis=1).mean(axis=1)


def emit_plots(report_dir: str) -> str:
    """Write plot-ready CSV series (histograms, round curves, Pareto fronts)."""
    config, report = _read_report(os.path.join(report_dir, "report.json"))
    plots_dir = os.path.join(report_dir, "plots")
    files = {}  # file name -> text

    methods = config.attack.methods
    for _, _, label, run_dirs in _run_grid(config, report_dir):
        runs = []  # (audit, is_member, final scores) per seed
        for run_dir in run_dirs.values():
            audit, is_member = _read_sidecar(run_dir, methods, config.federation.rounds)
            runs.append((audit, is_member,
                         _read_scores_csv(os.path.join(run_dir, SCORES_CSV), methods)))
        is_mem = np.concatenate([is_member for _, is_member, _ in runs])

        # Score histograms: one row per (bin, class).
        for method in methods:
            scores = np.concatenate([final[method] for _, _, final in runs])
            lo, hi = float(scores.min()), float(scores.max())
            edges = np.linspace(lo, hi if hi > lo else lo + 1.0, 21)
            lines = ["bin_lo,bin_hi,cls,count\n"]
            for cls, mask in (("member", is_mem), ("nonmember", ~is_mem)):
                counts, _ = np.histogram(scores[mask], bins=edges)
                lines += [f"{_fmt(edges[i])},{_fmt(edges[i+1])},{cls},{int(c)}\n"
                          for i, c in enumerate(counts)]
            files[f"hist_{method}_{label}.csv"] = "".join(lines)

        # Attack strength vs communication round (seed-mean AUC / TPR): each
        # seed's (T, n) matrix of round scores goes through one ROC pass.
        lines = ["method,round,auc,tpr_at_fpr\n"]
        rounds = range(config.federation.rounds)
        for method in methods:
            aucs, tprs, _ = zip(*(  # one (auc, tpr, achieved fpr) of (T,) arrays per seed
                met.roc_metrics(np.stack([audit.scores(method, t) for t in rounds]), is_member,
                                config.attack.fpr_cap)
                for audit, is_member, _ in runs))
            lines += [f"{method},{t},{_fmt(auc)},{_fmt(tpr)}\n" for t, auc, tpr in zip(
                rounds, _seed_mean(aucs).tolist(), _seed_mean(tprs).tolist())]
        files[f"rounds_{label}.csv"] = "".join(lines)

    # Pareto fronts per method, sorted by utility loss.
    for method, block in report["per_method"].items():
        files[f"pareto_{method}.csv"] = "utility_loss,privacy_leakage\n" + "".join(
            f"{_fmt(u)},{_fmt(leak)}\n" for u, leak in block["pareto_front"])
    commit(plots_dir, files)
    return plots_dir


# --------------------------------------------------------------------------
# Report summary
# --------------------------------------------------------------------------


def summarize_report(report_dir: str) -> str:
    """Human-readable summary of a report directory."""
    rows = _read_metrics_csv(os.path.join(report_dir, "metrics.csv"))
    _, report = _read_report(os.path.join(report_dir, "report.json"))
    hv_lines = []
    checks = [ok for per_method in report["inclusion_checks"].values()
              for per_delta in per_method.values() for ok in per_delta.values()]
    if checks:
        hv_lines.append(f"aggregate-decision inclusion checks: {sum(checks)}/{len(checks)} passed")
    for method, block in sorted(report["per_method"].items()):
        hv_lines.append(f"hypervolume[{method}] = {block['hypervolume']:.4f}")
    lines = [f"{'defense':<20}{'param':<10}{'method':<16}{'auc':>8}{'tpr':>8}{'util_loss':>11}"]
    for (defense, param, method), mean in sorted(
            _group_means(rows, "defense", "param", "method").items()):
        lines.append(f"{defense:<20}{param:<10}{method:<16}{mean['auc']:>8.3f}"
                     f"{mean['tpr_at_fpr']:>8.3f}{mean['utility_loss']:>11.3f}")
    return "\n".join(lines + hv_lines)


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def _default_out() -> str:
    return os.environ.get(ENV_OUT) or "fedaudit_out"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fedaudit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a full experiment from a config file")
    run.add_argument("config")
    run.add_argument("--out", default=None, help=f"output dir (default ${ENV_OUT} or ./fedaudit_out)")
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: one per job, up to the usable cores)")

    rp = sub.add_parser("replay", help="re-run attacks against a persisted trace")
    rp.add_argument("trace_dir")
    rp.add_argument("attack_config")
    rp.add_argument("--out", default=None)

    rep = sub.add_parser("report", help="summarize a report directory")
    rep.add_argument("report_dir")

    pl = sub.add_parser("plots", help="emit plot-ready CSV series for a report")
    pl.add_argument("report_dir")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            out = args.out or _default_out()
            run_experiment(config, out, args.jobs)
            print(f"report written to {out}")
        elif args.command == "replay":
            ac = AttackSuiteConfig.from_dict(read_json(args.attack_config), "attack")
            rows = replay_attack(args.trace_dir, ac, args.out)
            for r in rows:
                print(
                    f"{r['method']}: auc={r['auc']:.4f} "
                    f"tpr@fpr<={r['fpr_cap']}: {r['tpr_at_fpr']:.4f}"
                )
        elif args.command == "report":
            print(summarize_report(args.report_dir))
        elif args.command == "plots":
            out = emit_plots(args.report_dir)
            print(f"plot data written to {out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (FedAuditError, OSError) as exc:  # OSError: a path, a full disk, a file-size limit
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4
    return 0
