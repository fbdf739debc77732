"""Experiment runner: config parsing, train -> attack -> evaluate, replay.

A run executes, for every (defense sweep value, seed) pair: build the
dataset and partition, train the federation, persist the update trace,
run every configured attack against it, and score the attacks. Artifacts
land in one report directory:

  report_dir/
    report.json                   provenance, per-method Pareto fronts and
                                  hypervolumes, per-run decision-set checks
    metrics.csv                   seed,method,defense,param,auc,tpr_at_fpr,
                                  fpr_cap,achieved_fpr,utility_loss
    runs/<defense>_<param>/seed<seed>/
      trace/                      persisted update trace (see fedsim)
      targets.csv                 sample_id,is_member,label,f1,...,fd (header)
      attack_scores.csv           method,sample_id,is_member_truth,score
      attack_rounds.json          per-round audit scores and series
    plots/                        CSV series emitted by the plots command

Everything except report.json timestamps is a pure function of
(config, seed): rerunning a config produces byte-identical metric CSVs,
and replaying a persisted trace reproduces the inline attack results
bit-exactly.

Configs are strict JSON, decoded by ``fedaudit.schema`` against the
config dataclasses below: a field without a default is a required key.
Unknown or missing keys, wrong-typed or out-of-range values and
NaN/Infinity (except ``partition.beta: "inf"``) are config errors raised
before any training, as are data inputs that cannot be read or that are
too small for the partition.

CLI: ``run <config>``, ``replay <trace_dir> <attack_config>``,
``report <report_dir>``, ``plots <report_dir>`` with ``--out``,
``--seed-override`` and ``--jobs``. Exit codes: 0 ok, 2 config error,
3 integrity error (missing, corrupt or malformed artifact, including
trace metadata), 4 runtime failure. The ``FEDAUDIT_OUT`` environment
variable supplies the default output root.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from . import attack as atk
from . import data as dat
from . import fedsim as fed
from . import metrics as met
from . import model as mdl
from .errors import (
    ConfigError,
    FedAuditError,
    InsufficientDataError,
    IntegrityError,
    ParameterError,
    ZeroVectorError,
)
from .numstat import RngStream
from .schema import Codec, FloatOrInf, check_keys, decode, dump_value, field_types

ENV_OUT = "FEDAUDIT_OUT"
CONFIG_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1

# Harness-level stream tags (fedsim uses 1..3 on the same seed).
TAG_DATA = 10
TAG_PARTITION = 11
TAG_EVAL = 12
TAG_TARGETS = 13

METRICS_HEADER = (
    "seed,method,defense,param,auc,tpr_at_fpr,fpr_cap,achieved_fpr,utility_loss"
)
SCORES_HEADER = "method,sample_id,is_member_truth,score"


@dataclass(frozen=True, kw_only=True)
class DatasetConfig(Codec):
    kind: str
    num_classes: int | None = None
    input_dim: int | None = None
    per_class: int | None = None
    class_sep: float | None = None
    csv_path: str | None = None
    geometry: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "csv"):
            raise ConfigError(f"dataset.kind must be synthetic or csv, got {self.kind!r}")
        if self.kind == "synthetic":
            for name in ("num_classes", "input_dim", "per_class", "class_sep"):
                if getattr(self, name) is None:
                    raise ConfigError(f"dataset.{name} is required for synthetic data")
            for name in ("num_classes", "input_dim", "per_class"):
                if getattr(self, name) < 1:
                    raise ConfigError(f"dataset.{name}: must be >= 1, got {getattr(self, name)}")
            if self.class_sep < 0:
                raise ConfigError(f"dataset.class_sep: must be >= 0, got {self.class_sep}")
        else:
            if not self.csv_path:
                raise ConfigError("dataset.csv_path is required for csv data")


@dataclass(frozen=True, kw_only=True)
class PartitionConfig(Codec):
    kind: str
    clients: int
    per_client: int | None = None
    holdout: int
    beta: FloatOrInf | None = None
    nonmember_source: str = "holdout"
    holdout_fraction: float = 0.1
    others_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in ("iid", "dirichlet"):
            raise ConfigError(f"partition.kind must be iid or dirichlet, got {self.kind!r}")
        if self.kind == "iid" and self.per_client is None:
            raise ConfigError("partition.per_client is required for iid")
        if self.kind == "dirichlet" and self.beta is None:
            raise ConfigError("partition.beta is required for dirichlet")
        if self.per_client is not None and self.per_client < 1:
            raise ConfigError(f"partition.per_client: must be >= 1, got {self.per_client}")
        if self.beta is not None and self.beta <= 0:
            raise ConfigError(f"partition.beta: must be > 0, got {self.beta}")
        if self.holdout < 1:
            raise ConfigError("partition.holdout must be >= 1 (non-member pool)")
        if self.nonmember_source not in ("holdout", "holdout+others"):
            raise ConfigError(
                f"partition.nonmember_source must be holdout or holdout+others, "
                f"got {self.nonmember_source!r}"
            )


@dataclass(frozen=True, kw_only=True)
class ModelConfig(Codec):
    kind: str
    hidden_dim: int | None = None  # None: 32 for mlp, 0 otherwise
    init_std: float = 0.1

    def __post_init__(self) -> None:
        if self.hidden_dim is None:
            object.__setattr__(self, "hidden_dim", 32 if self.kind == "mlp" else 0)


@dataclass(frozen=True, kw_only=True)
class FederationConfig(Codec):
    """The ``fed.FedConfig`` hyperparameters, under the same names."""

    rounds: int
    local_epochs: int = 3
    lr: float = 0.1
    lr_decay: float = 0.99
    batch_size: int = 32


@dataclass(frozen=True, kw_only=True)
class AttackSuiteConfig(Codec):
    methods: tuple[str, ...]
    delta_grid: tuple[float, ...] = (0.5, 0.7, 0.9)
    fpr_cap: float = 0.01
    target_client: int = 0
    targets_per_class: int = 200
    sigma_floor_rel: float = atk.SIGMA_FLOOR_REL
    leave_one_out: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.methods) - set(atk.ALL_METHODS)
        if unknown:
            raise ConfigError(f"attack.methods: unknown methods {sorted(unknown)}")
        if not self.methods:
            raise ConfigError("attack.methods must not be empty")
        if not (0 <= self.fpr_cap < 1):
            raise ConfigError("attack.fpr_cap must be in [0, 1)")
        if self.targets_per_class < 1:
            raise ConfigError("attack.targets_per_class must be >= 1")


def _sweep_types() -> dict[str, object]:
    """Sweep key -> annotation of the DefenseConfig / AugmentOps field it sets."""
    types = dict(field_types(fed.DefenseConfig))
    ops = field_types(dat.AugmentOps)
    types.update(defense=types.pop("kind"), flip_h=ops["flip_h"], shift=ops["shift"],
                 augment_noise_std=ops["noise_std"])
    del types["augment_ops"]
    return types


@dataclass(frozen=True)
class SweepConfig(Codec):
    """A defense kind with at most one list-valued parameter (the sweep axis)."""

    defense: str = "none"
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def from_dict(cls, d: object, path: str = "sweep") -> "SweepConfig":
        types = _sweep_types()
        check_keys(d, types, {"defense"}, path)
        kind = decode(str, d["defense"], f"{path}.defense")
        if kind not in fed.DEFENSE_KINDS:
            raise ConfigError(f"{path}.defense: unknown kind {kind!r}")
        params = tuple(
            (k, decode(tuple[types[k], ...] if isinstance(v, (list, tuple)) else types[k], v,
                       f"{path}.{k}"))
            for k, v in sorted(d.items()) if k != "defense"
        )
        axes = [k for k, v in params if isinstance(v, tuple)]
        if len(axes) > 1:
            raise ConfigError(f"{path}: at most one list-valued parameter, got {axes}")
        if axes and not d[axes[0]]:
            raise ConfigError(f"{path}.{axes[0]}: the sweep list must not be empty")
        sweep = cls(defense=kind, params=params)
        sweep.expand()  # every sweep point's range errors surface at load
        return sweep

    def to_dict(self) -> dict:
        return {"defense": self.defense, **{k: dump_value(v) for k, v in self.params}}

    def expand(self) -> list[tuple[object, fed.DefenseConfig]]:
        """(sweep value, DefenseConfig) pairs; value None when nothing varies."""
        params = dict(self.params)
        axis = next((k for k, v in params.items() if isinstance(v, tuple)), None)
        values = list(params[axis]) if axis else [None]
        out = []
        for v in values:
            p = dict(params)
            if axis:
                p[axis] = v
            out.append((v, _defense_from_params(self.defense, p)))
        return out


def _defense_from_params(kind: str, p: dict) -> fed.DefenseConfig:
    ops = None
    if kind in ("augment", "augment_and_sample"):
        try:
            ops = dat.AugmentOps(
                flip_h=p.pop("flip_h", False),
                shift=p.pop("shift", False),
                noise_std=float(p.pop("augment_noise_std", 0.0)),
            )
        except ParameterError as exc:
            raise ConfigError(f"sweep.augment_noise_std: {exc}") from None
    allowed = {
        "perturb": {"clip_norm", "noise_std"},
        "quantize": {"bits"},
        "sparsify": {"rate"},
        "mixup": {"alpha"},
        "sample": {"portion"},
        "augment": set(),
        "augment_and_sample": {"portion"},
        "none": set(),
    }[kind]
    unknown = set(p) - allowed
    if unknown:
        raise ConfigError(f"sweep: {sorted(unknown)} not valid for defense {kind!r}")
    return fed.DefenseConfig(kind=kind, augment_ops=ops, **p)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(Codec):
    schema_version: int
    dataset: DatasetConfig
    partition: PartitionConfig
    model: ModelConfig
    federation: FederationConfig
    attack: AttackSuiteConfig
    sweep: SweepConfig = field(default_factory=SweepConfig)
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.schema_version != CONFIG_SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {CONFIG_SCHEMA_VERSION}, got {self.schema_version}"
            )
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        needs_null = set(self.attack.methods) & set(atk.FEDMIA_METHODS)
        if needs_null and self.partition.clients < 3:
            raise ConfigError("fedmia methods need at least 3 clients")
        if not (0 <= self.attack.target_client < self.partition.clients):
            raise ConfigError("attack.target_client out of range")


def _read_json(path: str, error: type[FedAuditError] = ConfigError) -> object:
    """A JSON file; one that cannot be read or parsed raises ``error`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_read_json(path))


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Building experiment inputs
# --------------------------------------------------------------------------


def build_dataset(config: ExperimentConfig, seed: int) -> dat.Dataset:
    dc = config.dataset
    if dc.kind == "csv":
        try:
            return dat.load_csv(dc.csv_path, dc.num_classes, dc.geometry)
        except OSError as exc:
            raise ConfigError(f"dataset.csv_path: cannot read {dc.csv_path}: {exc.strerror}") from None
    rng = RngStream(seed).derive(TAG_DATA)
    ds = dat.synth_blobs(rng, dc.num_classes, dc.input_dim, dc.per_class, dc.class_sep)
    if dc.geometry is not None:
        ds = dat.Dataset(ds.features, ds.labels, ds.num_classes, dc.geometry)
    return ds


def build_partition(config: ExperimentConfig, dataset: dat.Dataset, seed: int) -> dat.Partition:
    pc = config.partition
    rng = RngStream(seed).derive(TAG_PARTITION)
    if pc.kind == "iid":
        return dat.partition_iid(rng, dataset, pc.clients, pc.per_client, pc.holdout)
    try:
        return dat.partition_dirichlet(rng, dataset, pc.clients, pc.beta, pc.holdout)
    except InsufficientDataError as exc:
        raise InsufficientDataError(f"partition.holdout: {exc}") from None


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
    """Equal-size member/non-member cohorts, capped by pool availability."""
    pc, ac = config.partition, config.attack
    pools = dat.make_eval_split(
        RngStream(seed).derive(TAG_EVAL),
        partition,
        ac.target_client,
        pc.nonmember_source,
        pc.holdout_fraction,
        pc.others_fraction,
    )
    if len(pools.nonmember_indices) == 0:
        raise ConfigError("non-member pool is empty; increase partition.holdout")
    g = RngStream(seed).derive(TAG_TARGETS).generator()
    n = min(ac.targets_per_class, len(pools.member_indices), len(pools.nonmember_indices))
    mem = np.sort(g.choice(pools.member_indices, n, replace=False))
    non = np.sort(g.choice(pools.nonmember_indices, n, replace=False))
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
) -> tuple[dict[str, dict[int, float]], atk.CohortAudit, dict]:
    """All configured attacks: scores per method, the audit, its inclusion checks."""
    ids = [int(i) for i in cohort.ids]
    try:
        audit = atk.audit_cohort(
            trace, cohort.x, cohort.y, ac.target_client, ac.methods,
            sigma_floor_rel=ac.sigma_floor_rel, leave_one_out=ac.leave_one_out,
        )
    except ZeroVectorError as exc:
        raise ZeroVectorError(
            f"seed {trace.seed}, defense {json.dumps(trace.defense.to_dict(), sort_keys=True)}, "
            f"sample_id {ids[exc.row]}: {exc}"
        ) from exc
    scores: dict[str, dict[int, float]] = {}
    checks: dict = {}
    for method in audit.per_round:
        ms = audit.memberships(method, ids)
        scores[method] = {sid: ms[sid].aggregate for sid in ids}
        checks[method] = {
            repr(float(delta)): atk.check_aggregate_inclusion(atk.decision_sets(ms, delta))
            for delta in ac.delta_grid
        }
    base_methods = [m for m in ac.methods if m in atk.BASELINE_METHODS]
    if base_methods:
        scores.update(atk.baselines(
            trace, cohort.x, cohort.y, ac.target_client, ids, base_methods, audit=audit,
        ))
    return {m: scores[m] for m in ac.methods}, audit, checks


# --------------------------------------------------------------------------
# attack_rounds.json: the audit of one run, written and read back here only
# --------------------------------------------------------------------------

SIDECAR = "attack_rounds.json"
# The sidecar's names for the audit's target-client series.
SERIES_NAMES = {"loss_global": "loss_global", "cosine": "cosine_target",
                "grad_diff": "grad_diff_target", "update_norm": "update_norm_target"}
# Record-independent series, stored as their (T,) first row.
SHARED_SERIES = {"update_norm"}


def _write_sidecar(
    run_dir: str, audit: atk.CohortAudit, cohort: TargetCohort, delta_grid: tuple, checks: dict
) -> None:
    """The cohort, the inclusion checks, the fedmia per-round scores and the series."""
    sidecar: dict = {
        "sample_ids": [int(i) for i in cohort.ids],
        "is_member": [bool(b) for b in cohort.is_member],
        "delta_grid": list(delta_grid),
        "inclusion_checks": checks,
    }
    for method, per_round in audit.per_round.items():
        sidecar[method] = {"per_round": per_round.tolist()}
    sidecar["series"] = {
        SERIES_NAMES[k]: (v[0] if k in SHARED_SERIES else v).tolist()
        for k, v in audit.series.items()
    }
    with open(os.path.join(run_dir, SIDECAR), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(sidecar) + "\n")  # dumps uses the C encoder, dump does not


def _read_sidecar(
    run_dir: str, methods: tuple[str, ...], num_rounds: int
) -> tuple[atk.CohortAudit, np.ndarray]:
    """The audit of ``methods`` and the membership truth that ``_write_sidecar`` stored.

    A missing or unreadable file, a missing key, or an array whose shape
    is not (len(sample_ids), num_rounds) raises IntegrityError naming the path.
    """
    path = os.path.join(run_dir, SIDECAR)
    sidecar = _read_json(path, IntegrityError)
    try:
        shape = (len(sidecar["sample_ids"]), num_rounds)
        is_member = _stored(sidecar["is_member"], "is_member", shape[:1], bool)
        per_round = {m: _stored(sidecar[m]["per_round"], m, shape)
                     for m in methods if m in atk.FEDMIA_METHODS}
        series = {
            k: np.broadcast_to(_stored(sidecar["series"][SERIES_NAMES[k]], SERIES_NAMES[k],
                                       shape[1:] if k in SHARED_SERIES else shape), shape)
            for k, readers in atk.SERIES_READERS.items() if readers & set(methods)
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"corrupt audit sidecar {path}: {exc!r}") from None
    return atk.CohortAudit(per_round, series), is_member


def _stored(value: object, name: str, shape: tuple[int, ...], dtype: type = np.float64) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def _read_report(path: str) -> dict:
    report = _read_json(path, IntegrityError)
    if not isinstance(report, dict) or not {"config", "per_method"} <= report.keys():
        raise IntegrityError(f"corrupt report file {path}: no config or per_method")
    return report


def _fmt(x: float) -> str:
    return repr(float(x))


def _param_label(value: object) -> str:
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, float) else str(value)


def _write_targets_csv(path: str, dataset_dim: int, cohort: TargetCohort) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "is_member", "label"] + [f"f{i+1}" for i in range(dataset_dim)])
        for i, sid in enumerate(cohort.ids):
            row = [int(sid), int(cohort.is_member[i]), int(cohort.y[i])]
            row += [_fmt(v) for v in cohort.x[i]]
            w.writerow(row)


def load_targets_csv(path: str) -> TargetCohort:
    if not os.path.exists(path):
        raise IntegrityError(f"missing targets file: {path}")
    ids, members, labels, feats = [], [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:3] != ["sample_id", "is_member", "label"]:
            raise IntegrityError(f"corrupt targets file {path}: bad header")
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, header has {len(header)}")
                ids.append(int(row[0]))
                if row[1] not in ("0", "1"):
                    raise ValueError(f"is_member must be 0 or 1, got {row[1]!r}")
                members.append(row[1] == "1")
                labels.append(int(row[2]))
                feats.append([float(v) for v in row[3:]])
                if not np.all(np.isfinite(feats[-1])):
                    raise ValueError("non-finite feature value")
            except ValueError as exc:
                raise IntegrityError(
                    f"corrupt targets file {path}: line {reader.line_num}: {exc}"
                ) from None
    if not ids:
        raise IntegrityError(f"corrupt targets file {path}: no rows")
    return TargetCohort(
        np.array(feats), np.array(labels, dtype=np.int64),
        np.array(ids, dtype=np.int64), np.array(members, dtype=bool),
    )


def _write_scores_csv(path: str, cohort: TargetCohort, scores: dict[str, dict[int, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SCORES_HEADER + "\n")
        truth = dict(zip((int(i) for i in cohort.ids), cohort.is_member))
        for method, per_id in scores.items():
            for sid in cohort.ids:
                sid = int(sid)
                fh.write(f"{method},{sid},{int(truth[sid])},{_fmt(per_id[sid])}\n")


def _metric_rows(
    seed: int,
    defense_kind: str,
    param: object,
    utility_loss: float,
    cohort: TargetCohort,
    scores: dict[str, dict[int, float]],
    ac: AttackSuiteConfig,
) -> list[dict]:
    rows = []
    for method, per_id in scores.items():
        arr = np.array([per_id[int(sid)] for sid in cohort.ids])
        auc, tpr, achieved = met.roc_metrics(met.ScoredCohort(arr, cohort.is_member), ac.fpr_cap)
        rows.append(
            {
                "seed": seed,
                "method": method,
                "defense": defense_kind,
                "param": _param_label(param),
                "auc": auc,
                "tpr_at_fpr": tpr,
                "fpr_cap": ac.fpr_cap,
                "achieved_fpr": achieved,
                "utility_loss": utility_loss,
            }
        )
    return rows


def run_single(
    config: ExperimentConfig,
    defense: fed.DefenseConfig,
    param: object,
    seed: int,
    run_dir: str,
) -> tuple[list[dict], dict]:
    """One (defense, seed) job: train, persist, attack, score."""
    dataset = build_dataset(config, seed)
    partition = build_partition(config, dataset, seed)
    spec = mdl.ModelSpec(
        kind=config.model.kind,
        input_dim=dataset.input_dim,
        hidden_dim=config.model.hidden_dim if config.model.kind == "mlp" else 0,
        num_classes=dataset.num_classes,
        init_std=config.model.init_std,
    )
    fed_config = fed.FedConfig(
        num_clients=config.partition.clients, defense=defense, seed=seed,
        **config.federation.to_dict(),
    )
    cohort = select_targets(config, dataset, partition, seed)
    trace = fed.run_federation(dataset, partition, spec, fed_config)

    os.makedirs(run_dir, exist_ok=True)
    fed.save_trace(trace, os.path.join(run_dir, "trace"))
    _write_targets_csv(os.path.join(run_dir, "targets.csv"), dataset.input_dim, cohort)

    scores, audit, checks = run_attacks(trace, cohort, config.attack)
    _write_scores_csv(os.path.join(run_dir, "attack_scores.csv"), cohort, scores)
    _write_sidecar(run_dir, audit, cohort, config.attack.delta_grid, checks)

    utility_loss = 1.0 - trace.round_accuracy[-1]
    rows = _metric_rows(seed, defense.kind, param, utility_loss, cohort, scores, config.attack)
    return rows, checks


def _job(args: tuple) -> tuple[list[dict], dict]:
    return run_single(*args)


def run_experiment(
    config: ExperimentConfig,
    out_dir: str,
    seed_override: int | None = None,
    jobs: int = 1,
) -> str:
    """Execute the full sweep x seeds grid and write the report directory.

    With ``seed_override`` the report records that seed as the only one,
    so ``plots`` finds the runs that exist.
    """
    if seed_override is not None:
        config = replace(config, seeds=(seed_override,))
    seeds = config.seeds
    points = config.sweep.expand()
    os.makedirs(out_dir, exist_ok=True)

    job_args = []
    for value, defense in points:
        label = f"{defense.kind}_{_param_label(value)}" if value is not None else defense.kind
        for seed in seeds:
            run_dir = os.path.join(out_dir, "runs", label, f"seed{seed}")
            job_args.append((config, defense, value, seed, run_dir))

    results: list[tuple[list[dict], dict]] = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_job, job_args))
    else:
        results = [_job(a) for a in job_args]

    all_rows: list[dict] = []
    inclusion: dict = {}
    for (cfg, defense, value, seed, _run_dir), (rows, checks) in zip(job_args, results):
        all_rows.extend(rows)
        if checks:
            key = f"{defense.kind}:{_param_label(value)}:seed{seed}"
            inclusion[key] = checks

    _write_metrics_csv(os.path.join(out_dir, "metrics.csv"), all_rows)
    report = _build_report(config, all_rows, inclusion)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


def _write_metrics_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r['seed']},{r['method']},{r['defense']},{r['param']},"
                f"{_fmt(r['auc'])},{_fmt(r['tpr_at_fpr'])},{_fmt(r['fpr_cap'])},"
                f"{_fmt(r['achieved_fpr'])},{_fmt(r['utility_loss'])}\n"
            )


def _build_report(config: ExperimentConfig, rows: list[dict], inclusion: dict) -> dict:
    per_method: dict = {}
    for method in config.attack.methods:
        m_rows = [r for r in rows if r["method"] == method]
        points = []
        seen = []
        for r in m_rows:
            key = (r["defense"], r["param"])
            if key not in seen:
                seen.append(key)
        for defense, param in seen:
            grp = [r for r in m_rows if (r["defense"], r["param"]) == (defense, param)]
            points.append(
                {
                    "defense": defense,
                    "param": param,
                    "mean_auc": float(np.mean([g["auc"] for g in grp])),
                    "mean_tpr_at_fpr": float(np.mean([g["tpr_at_fpr"] for g in grp])),
                    "mean_utility_loss": float(np.mean([g["utility_loss"] for g in grp])),
                }
            )
        coords = [
            (min(1.0, max(0.0, p["mean_utility_loss"])), p["mean_tpr_at_fpr"]) for p in points
        ]
        front = met.pareto_front(coords)
        per_method[method] = {
            "points": points,
            "pareto_front": [[p.utility_loss, p.privacy_leakage] for p in front],
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
    cohort = load_targets_csv(os.path.join(os.path.dirname(trace_dir.rstrip("/")), "targets.csv"))
    scores, audit, checks = run_attacks(trace, cohort, ac)
    utility_loss = 1.0 - trace.round_accuracy[-1]
    rows = _metric_rows(trace.seed, trace.defense.kind, None, utility_loss, cohort, scores, ac)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_scores_csv(os.path.join(out_dir, "attack_scores.csv"), cohort, scores)
        _write_sidecar(out_dir, audit, cohort, ac.delta_grid, checks)
        _write_metrics_csv(os.path.join(out_dir, "metrics.csv"), rows)
    return rows


# --------------------------------------------------------------------------
# Plot data
# --------------------------------------------------------------------------


def _read_metrics_csv(path: str) -> list[dict]:
    if not os.path.exists(path):
        raise IntegrityError(f"missing metrics file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def emit_plots(report_dir: str) -> str:
    """Write plot-ready CSV series (histograms, round curves, Pareto fronts)."""
    report = _read_report(os.path.join(report_dir, "report.json"))
    config = ExperimentConfig.from_dict(report["config"])
    plots_dir = os.path.join(report_dir, "plots")
    os.makedirs(plots_dir, exist_ok=True)

    points = config.sweep.expand()
    seeds = config.seeds
    for value, defense in points:
        label = f"{defense.kind}_{_param_label(value)}" if value is not None else defense.kind
        final: dict[str, list[float]] = {m: [] for m in config.attack.methods}
        runs = []  # (audit, is_member) per seed
        for seed in seeds:
            run_dir = os.path.join(report_dir, "runs", label, f"seed{seed}")
            spath = os.path.join(run_dir, "attack_scores.csv")
            if not os.path.exists(spath):
                raise IntegrityError(f"missing run artifact: {spath}")
            with open(spath, "r", encoding="utf-8", newline="") as fh:
                for row in csv.DictReader(fh):
                    final[row["method"]].append(float(row["score"]))
            runs.append(_read_sidecar(run_dir, config.attack.methods, config.federation.rounds))
        is_mem = np.concatenate([is_member for _, is_member in runs])

        # Score histograms: one row per (bin, class).
        for method in config.attack.methods:
            scores = np.array(final[method])
            lo, hi = float(scores.min()), float(scores.max())
            if lo == hi:
                hi = lo + 1.0
            edges = np.linspace(lo, hi, 21)
            with open(
                os.path.join(plots_dir, f"hist_{method}_{label}.csv"), "w",
                encoding="utf-8", newline="",
            ) as fh:
                fh.write("bin_lo,bin_hi,cls,count\n")
                for cls, mask in (("member", is_mem), ("nonmember", ~is_mem)):
                    counts, _ = np.histogram(scores[mask], bins=edges)
                    for i, c in enumerate(counts):
                        fh.write(f"{_fmt(edges[i])},{_fmt(edges[i+1])},{cls},{int(c)}\n")

        # Attack strength vs communication round (seed-mean AUC / TPR).
        num_rounds = config.federation.rounds
        with open(
            os.path.join(plots_dir, f"rounds_{label}.csv"), "w", encoding="utf-8", newline=""
        ) as fh:
            fh.write("method,round,auc,tpr_at_fpr\n")
            for method in config.attack.methods:
                for t in range(num_rounds):
                    aucs, tprs = [], []
                    for audit, is_member in runs:
                        sc = met.ScoredCohort(audit.scores(method, t), is_member)
                        auc, tpr, _ = met.roc_metrics(sc, config.attack.fpr_cap)
                        aucs.append(auc)
                        tprs.append(tpr)
                    fh.write(
                        f"{method},{t},{_fmt(float(np.mean(aucs)))},{_fmt(float(np.mean(tprs)))}\n"
                    )

    # Pareto fronts per method, sorted by utility loss.
    for method, block in report["per_method"].items():
        with open(
            os.path.join(plots_dir, f"pareto_{method}.csv"), "w", encoding="utf-8", newline=""
        ) as fh:
            fh.write("utility_loss,privacy_leakage\n")
            for u, leak in block["pareto_front"]:
                fh.write(f"{_fmt(u)},{_fmt(leak)}\n")
    return plots_dir


# --------------------------------------------------------------------------
# Report summary
# --------------------------------------------------------------------------


def summarize_report(report_dir: str) -> str:
    """Human-readable summary of a report directory."""
    rows = _read_metrics_csv(os.path.join(report_dir, "metrics.csv"))
    report_path = os.path.join(report_dir, "report.json")
    hv_lines = []
    if os.path.exists(report_path):
        report = _read_report(report_path)
        checks = [
            ok for per_method in report.get("inclusion_checks", {}).values()
            for per_delta in per_method.values() for ok in per_delta.values()
        ]
        if checks:
            hv_lines.append(
                f"aggregate-decision inclusion checks: {sum(checks)}/{len(checks)} passed"
            )
        for method, block in sorted(report["per_method"].items()):
            hv_lines.append(f"hypervolume[{method}] = {block['hypervolume']:.4f}")
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["defense"], r["param"], r["method"]), []).append(r)
    lines = [f"{'defense':<20}{'param':<10}{'method':<16}{'auc':>8}{'tpr':>8}{'util_loss':>11}"]
    for (defense, param, method), grp in sorted(groups.items()):
        mean = lambda k: float(np.mean([float(g[k]) for g in grp]))  # noqa: E731
        lines.append(
            f"{defense:<20}{param:<10}{method:<16}"
            f"{mean('auc'):>8.3f}{mean('tpr_at_fpr'):>8.3f}{mean('utility_loss'):>11.3f}"
        )
    return "\n".join(lines + hv_lines)


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def _default_out() -> str:
    return os.environ.get(ENV_OUT, "fedaudit_out")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fedaudit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a full experiment from a config file")
    run.add_argument("config")
    run.add_argument("--out", default=None, help=f"output dir (default ${ENV_OUT} or ./fedaudit_out)")
    run.add_argument("--seed-override", type=int, default=None)
    run.add_argument("--jobs", type=int, default=1)

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
            run_experiment(config, out, args.seed_override, args.jobs)
            print(f"report written to {out}")
        elif args.command == "replay":
            ac = AttackSuiteConfig.from_dict(_read_json(args.attack_config), "attack")
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
    except FedAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0
