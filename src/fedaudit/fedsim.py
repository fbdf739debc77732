"""Synchronous FedAvg over K clients with per-round trace recording.

Each round: every client runs local SGD from the current global model,
uploads a gradient-like update (parameter delta divided by the round's
effective learning rate, after any update-level defense), and the server
replaces the global model with

    w  <-  w - (lr_eff / K) * sum_k update_k

which with the delta/lr_eff convention is exact model averaging. The full
observation available to a semi-honest server — every per-client update
plus the per-round global models — is recorded as an UpdateTrace and can
be persisted and replayed without retraining.

Update-level defenses (perturb / quantize / sparsify) transform the
uploaded vector; data-level defenses (mixup / augment / sample) act inside
local training, where clients of equal size train as one stack. All
randomness is drawn from per-(round, client) streams, so client grouping
and execution order cannot change the trace. A non-finite round stops
the run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import model as mdl
from .data import AugmentOps, Dataset, Partition, augment_batch, mixup, subsample
from .errors import (
    ConfigError,
    IntegrityError,
    ParameterError,
    ShapeMismatchError,
)
from .model import ModelSpec
from .numstat import RngStream
from .schema import Codec, check_keys, decode, dump, load

UPDATE_DEFENSES = ("perturb", "quantize", "sparsify")
DATA_DEFENSES = ("mixup", "augment", "sample", "augment_and_sample")
DEFENSE_KINDS = ("none",) + UPDATE_DEFENSES + DATA_DEFENSES

# Stream tags for deriving per-purpose RNG streams from the run seed.
TAG_INIT = 1
TAG_CLIENT = 2
TAG_DEFENSE = 3

TRACE_SCHEMA_VERSION = 1
_META_KEYS = ("schema_version", "model", "num_clients", "num_rounds", "dim", "seed", "defense",
              "lr_effective", "round_accuracy")


@dataclass(frozen=True)
class DefenseConfig(Codec):
    """One defense and its parameters; ranges follow the evaluated grids."""

    kind: str = "none"
    clip_norm: float | None = None
    noise_std: float | None = None
    bits: int | None = None
    rate: float | None = None
    alpha: float | None = None
    portion: float | None = None
    augment_ops: AugmentOps | None = None

    def __post_init__(self) -> None:
        if self.kind not in DEFENSE_KINDS:
            raise ConfigError(f"unknown defense kind {self.kind!r}")
        if self.kind == "perturb":
            if self.clip_norm is None or self.clip_norm <= 0:
                raise ConfigError("perturb requires clip_norm > 0")
            if self.noise_std is None or self.noise_std < 0:
                raise ConfigError("perturb requires noise_std >= 0")
        if self.kind == "quantize":
            if self.bits is None or not (1 <= self.bits <= 10):
                raise ConfigError("quantize requires bits in [1, 10]")
        if self.kind == "sparsify":
            if self.rate is None or not (0 <= self.rate <= 0.99):
                raise ConfigError("sparsify requires rate in [0, 0.99]")
        if self.kind == "mixup":
            if self.alpha is None or self.alpha <= 0:
                raise ConfigError("mixup requires alpha > 0")
        if self.kind in ("sample", "augment_and_sample"):
            if self.portion is None or not (0 < self.portion <= 1):
                raise ConfigError("sample requires portion in (0, 1]")
        if self.kind in ("augment", "augment_and_sample"):
            if self.augment_ops is None:
                raise ConfigError("augment requires an AugmentOps block")

    @property
    def is_update_level(self) -> bool:
        return self.kind in UPDATE_DEFENSES

    def to_dict(self) -> dict:
        return {k: v for k, v in super().to_dict().items() if v is not None}


@dataclass(frozen=True)
class FedConfig:
    """Federation hyperparameters for one run."""

    num_clients: int
    rounds: int
    local_epochs: int = 1
    lr: float = 0.1
    lr_decay: float = 1.0
    batch_size: int = 32
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clients < 2:
            raise ConfigError("num_clients must be >= 2")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if not (0 < self.lr_decay <= 1):
            raise ConfigError("lr_decay must be in (0, 1]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


def lr_effective(config: FedConfig, round_index: int) -> float:
    """Learning rate shared by local steps and server scaling at a round."""
    return config.lr * config.lr_decay**round_index


@dataclass(frozen=True, eq=False)
class RoundRecord:
    """Everything the server observed in one communication round."""

    round_index: int
    global_before: np.ndarray  # (d,) model distributed at round start
    updates: np.ndarray  # (K, d) post-defense uploads
    lr_effective: float


@dataclass(eq=False)
class UpdateTrace:
    """The server-side observation of a whole federation run."""

    model_spec: ModelSpec
    rounds: list[RoundRecord]
    final_model: np.ndarray
    round_accuracy: list[float]
    defense: DefenseConfig
    seed: int

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def num_clients(self) -> int:
        return self.rounds[0].updates.shape[0]

    @property
    def dim(self) -> int:
        return self.rounds[0].updates.shape[1]


def defend_update(update: np.ndarray, defense: DefenseConfig, rng: RngStream) -> np.ndarray:
    """Apply an update-level defense to one uploaded vector.

    perturb   : L2-clip to clip_norm, then add iid Gaussian(0, noise_std^2).
    quantize  : symmetric uniform grid of 2^bits levels over [-max|v|, max|v|];
                bits = 1 degenerates to sign(v) * mean(|v|).
    sparsify  : zero the floor(rate * d) smallest-magnitude entries, ties
                broken by index order.
    """
    update = np.asarray(update, dtype=np.float64)
    if defense.kind == "none":
        return update.copy()
    if not defense.is_update_level:
        raise ConfigError(f"{defense.kind} is not an update-level defense")
    if defense.kind == "perturb":
        n = float(np.linalg.norm(update))
        out = update * min(1.0, defense.clip_norm / n) if n > 0 else update.copy()
        if defense.noise_std > 0:
            out = out + defense.noise_std * rng.generator().standard_normal(len(out))
        return out
    if defense.kind == "quantize":
        bits = int(defense.bits)
        if bits == 1:
            return np.sign(update) * np.mean(np.abs(update))
        s = float(np.max(np.abs(update)))
        if s == 0.0:
            return np.zeros_like(update)
        levels = np.linspace(-s, s, 2**bits)
        step = 2 * s / (2**bits - 1)
        idx = np.clip(np.round((update + s) / step).astype(int), 0, 2**bits - 1)
        return levels[idx]
    # sparsify
    k = int(math.floor(defense.rate * len(update)))
    out = update.copy()
    if k > 0:
        order = np.argsort(np.abs(update), kind="stable")
        out[order[:k]] = 0.0
    return out


def client_update(spec: ModelSpec, x: np.ndarray, y: np.ndarray, global_params: np.ndarray,
                  config: FedConfig, lr_eff: float, rngs: Sequence[RngStream],
                  geometry: tuple[int, int] | None = None) -> np.ndarray:
    """Pre-defense uploads (w_global - w_local_after) / lr_eff of equal-size clients.

    The K clients, whose records are ``x`` (K, n, d) and ``y`` (K, n), run
    shuffled mini-batch SGD as one stack. Each epoch shuffles the records a
    client trains on: all n, or a ``subsample`` under sample /
    augment_and_sample. Each batch is augmented under augment /
    augment_and_sample, and under mixup a batch of two or more trains on its
    ``mixup``. Client k draws only from ``rngs[k]``, in the order it would
    alone, and ``model.sgd_step`` computes its row as it would alone, so its
    upload is bit-identical to training it by itself. With one full-batch
    epoch and no defense a row is exactly the mean training gradient.
    """
    k, n = y.shape
    if n == 0:
        raise ConfigError("client has no training samples")
    defense = config.defense
    gens = [rng.generator() for rng in rngs]
    w = np.repeat(np.asarray(global_params, dtype=np.float64)[None, :], k, axis=0)
    rows = np.arange(k)[:, None]
    for _ in range(config.local_epochs):
        if defense.kind in ("sample", "augment_and_sample"):
            perm = np.stack([g.permutation(subsample(g, n, defense.portion)) for g in gens])
        else:
            perm = np.stack([g.permutation(n) for g in gens])
        for start in range(0, perm.shape[1], config.batch_size):
            batch = perm[:, start : start + config.batch_size]
            bx, by = x[rows, batch], y[rows, batch]
            if defense.kind in ("augment", "augment_and_sample"):
                bx = np.stack([augment_batch(g, b, geometry, defense.augment_ops)
                               for g, b in zip(gens, bx)])
            labels, lam = by[None], None
            if defense.kind == "mixup" and batch.shape[1] >= 2:
                mixed = mixup(gens, bx, by, defense.alpha)
                bx, lam = mixed.features, mixed.lam
                labels = np.stack([mixed.labels_a, mixed.labels_b])
            mdl.sgd_step(spec, w, bx, labels, lr_eff, lam)
    np.subtract(global_params, w, out=w)
    w /= lr_eff
    return w


def aggregate(
    updates: Sequence[np.ndarray] | np.ndarray,
    global_params: np.ndarray,
    lr_eff: float,
) -> np.ndarray:
    """Server step: w - lr_eff * mean(updates), summed in client-index order."""
    arr = np.asarray(updates, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError("updates must form a (K, d) matrix")
    global_params = np.asarray(global_params, dtype=np.float64)
    if arr.shape[1] != global_params.shape[0]:
        raise ShapeMismatchError(
            f"update dim {arr.shape[1]} != model dim {global_params.shape[0]}"
        )
    return global_params - lr_eff * arr.mean(axis=0)


def run_federation(
    dataset: Dataset,
    partition: Partition,
    spec: ModelSpec,
    config: FedConfig,
) -> UpdateTrace:
    """Run the synchronous loop and record the complete observation trace.

    Per-round utility is the holdout accuracy of the freshly aggregated
    model (NaN when the partition has no holdout). Deterministic in
    ``config.seed`` regardless of client execution order.
    """
    if partition.num_clients != config.num_clients:
        raise ConfigError(
            f"partition has {partition.num_clients} clients, config says {config.num_clients}"
        )
    groups: dict[int, list[int]] = {}  # clients of equal size train as one stack
    for k, idx in enumerate(partition.client_indices):
        groups.setdefault(len(idx), []).append(k)
    if 0 in groups:
        raise ConfigError(f"client {groups[0][0]} has no training samples")
    stacks = [(ks, *dataset.arrays(np.stack([partition.client_indices[k] for k in ks])))
              for ks in groups.values()]
    root = RngStream(config.seed)
    omega = mdl.init_params(spec, root.derive(TAG_INIT))
    have_holdout = len(partition.holdout_indices) > 0
    if have_holdout:
        hx, hy = dataset.arrays(partition.holdout_indices)
    rounds: list[RoundRecord] = []
    accuracy: list[float] = []
    for t in range(config.rounds):
        lr_eff = lr_effective(config, t)
        updates = np.empty((config.num_clients, spec.param_count()))
        # A diverging round overflows; the finiteness check reports it. A
        # finite but huge global model still overflows when evaluated.
        with np.errstate(over="ignore", invalid="ignore"):
            for ks, gx, gy in stacks:
                rngs = [root.derive(TAG_CLIENT, t, k) for k in ks]
                updates[ks] = client_update(
                    spec, gx, gy, omega, config, lr_eff, rngs, dataset.geometry
                )
            if config.defense.is_update_level:
                for k, upd in enumerate(updates):
                    updates[k] = defend_update(upd, config.defense, root.derive(TAG_DEFENSE, t, k))
            new_omega = aggregate(updates, omega, lr_eff)
            bad = np.flatnonzero(~np.isfinite(updates).all(axis=1))
            if len(bad) or not np.isfinite(new_omega).all():
                who = f"client {bad[0]}'s upload" if len(bad) else "the global model"
                raise ParameterError(f"training diverged in round {t}: {who} is not finite")
            accuracy.append(
                mdl.accuracy(spec, new_omega, hx, hy) if have_holdout else float("nan")
            )
        rounds.append(RoundRecord(t, omega, updates, lr_eff))
        omega = new_omega
    return UpdateTrace(
        model_spec=spec,
        rounds=rounds,
        final_model=omega,
        round_accuracy=accuracy,
        defense=config.defense,
        seed=config.seed,
    )


# --------------------------------------------------------------------------
# Trace persistence
#
# Directory layout (all arrays raw .npy so reruns are byte-identical):
#   trace_meta.json          round count, dims, model spec, defense, lr
#                            schedule, per-round accuracy, seed
#   round_TTTT_global.npy    (d,)   global model at the start of round T
#   round_TTTT_updates.npy   (K, d) post-defense uploads of round T
#   final_model.npy          (d,)   global model after the last aggregation
# --------------------------------------------------------------------------


def save_trace(trace: UpdateTrace, trace_dir: str) -> None:
    """Persist a trace; formats documented above."""
    os.makedirs(trace_dir, exist_ok=True)
    meta = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "model": dump(trace.model_spec),
        "num_clients": trace.num_clients,
        "num_rounds": trace.num_rounds,
        "dim": trace.dim,
        "seed": trace.seed,
        "defense": trace.defense.to_dict(),
        "lr_effective": [r.lr_effective for r in trace.rounds],
        "round_accuracy": trace.round_accuracy,
    }
    with open(os.path.join(trace_dir, "trace_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in trace.rounds:
        np.save(os.path.join(trace_dir, f"round_{r.round_index:04d}_global.npy"), r.global_before)
        np.save(os.path.join(trace_dir, f"round_{r.round_index:04d}_updates.npy"), r.updates)
    np.save(os.path.join(trace_dir, "final_model.npy"), trace.final_model)


def _load_array(path: str, shape: tuple[int, ...]) -> np.ndarray:
    if not os.path.exists(path):
        raise IntegrityError(f"missing trace file: {path}")
    try:
        arr = np.load(path)
    except Exception as exc:
        raise IntegrityError(f"corrupt trace file {path}: {exc}") from exc
    if arr.shape != shape:
        raise IntegrityError(f"trace file {path} has shape {arr.shape}, expected {shape}")
    return arr


def load_trace(trace_dir: str) -> UpdateTrace:
    """Load a persisted trace, verifying presence and shape of every file."""
    meta_path = os.path.join(trace_dir, "trace_meta.json")
    if not os.path.exists(meta_path):
        raise IntegrityError(f"missing trace file: {meta_path}")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"corrupt trace file {meta_path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("schema_version") != TRACE_SCHEMA_VERSION:
        raise IntegrityError(f"unsupported trace schema in {meta_path}")
    try:
        check_keys(meta, _META_KEYS, _META_KEYS, "trace_meta")
        spec = load(ModelSpec, meta["model"], "model")
        defense = DefenseConfig.from_dict(meta["defense"], "defense")
        k, t, d, seed = (
            decode(int, meta[key], key) for key in ("num_clients", "num_rounds", "dim", "seed")
        )
        lr_sched = decode(tuple[float, ...], meta["lr_effective"], "lr_effective")
        accuracy = meta["round_accuracy"]  # NaN when the run had no holdout
        if not isinstance(accuracy, list) or any(type(a) not in (int, float) for a in accuracy):
            raise ConfigError(f"round_accuracy: must be a list of numbers, got {accuracy!r}")
    except (ConfigError, ParameterError) as exc:
        raise IntegrityError(f"corrupt trace file {meta_path}: {exc}") from exc
    if spec.param_count() != d:
        raise IntegrityError(f"model spec implies dim {spec.param_count()}, meta says {d}")
    if len(lr_sched) != t or len(accuracy) != t:
        raise IntegrityError("lr_effective/round_accuracy length does not match num_rounds")
    rounds = []
    for i in range(t):
        g = _load_array(os.path.join(trace_dir, f"round_{i:04d}_global.npy"), (d,))
        u = _load_array(os.path.join(trace_dir, f"round_{i:04d}_updates.npy"), (k, d))
        rounds.append(RoundRecord(i, g, u, float(lr_sched[i])))
    final = _load_array(os.path.join(trace_dir, "final_model.npy"), (d,))
    return UpdateTrace(
        model_spec=spec,
        rounds=rounds,
        final_model=final,
        round_accuracy=[float(a) for a in accuracy],
        defense=defense,
        seed=seed,
    )
