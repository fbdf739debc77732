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

import io
import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model as mdl
from .artifacts import read_artifacts, read_json_artifact, write_text
from .data import (AugmentOps, Dataset, Partition, augment_batch, mixup, permutations,
                   subsample)
from .errors import ConfigError, FedAuditError
from .model import ModelSpec
from .numstat import RngStream, _scratch
from .schema import Codec, check_kind, dump, load

# The parameters each defense kind requires, and the ones it also accepts (none).
DEFENSE_PARAMS = {
    "none": ((), ()),
    "perturb": (("clip_norm", "noise_std"), ()),
    "quantize": (("bits",), ()),
    "sparsify": (("rate",), ()),
    "mixup": (("alpha",), ()),
    "augment": (("augment_ops",), ()),
    "sample": (("portion",), ()),
    "augment_and_sample": (("portion", "augment_ops"), ()),
}
UPDATE_DEFENSES = ("perturb", "quantize", "sparsify")

# Stream tags for deriving per-purpose RNG streams from the run seed.
TAG_INIT = 1
TAG_CLIENT = 2
TAG_DEFENSE = 3

TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DefenseConfig(Codec):
    """One defense and the parameters its kind takes; ranges follow the evaluated grids."""

    kind: str = "none"
    clip_norm: float | None = None
    noise_std: float | None = None
    bits: int | None = None
    rate: float | None = None
    alpha: float | None = None
    portion: float | None = None
    augment_ops: AugmentOps | None = None

    def __post_init__(self) -> None:
        check_kind(self, DEFENSE_PARAMS, "defense")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ConfigError(f"clip_norm: must be > 0, got {self.clip_norm}")
        if self.noise_std is not None and self.noise_std < 0:
            raise ConfigError(f"noise_std: must be >= 0, got {self.noise_std}")
        if self.bits is not None and not (1 <= self.bits <= 10):
            raise ConfigError(f"bits: must be in [1, 10], got {self.bits}")
        if self.rate is not None and not (0 <= self.rate <= 0.99):
            raise ConfigError(f"rate: must be in [0, 0.99], got {self.rate}")
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError(f"alpha: must be > 0, got {self.alpha}")
        if self.portion is not None and not (0 < self.portion <= 1):
            raise ConfigError(f"portion: must be in (0, 1], got {self.portion}")

    @property
    def is_update_level(self) -> bool:
        return self.kind in UPDATE_DEFENSES

    def to_dict(self) -> dict:
        return {k: v for k, v in super().to_dict().items() if v is not None}


@dataclass(frozen=True, kw_only=True)
class FedConfig(Codec):
    """The ``federation`` config block: the hyperparameters of local SGD and FedAvg."""

    rounds: int
    local_epochs: int = 3
    lr: float = 0.1
    lr_decay: float = 0.99
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigError(f"rounds: must be >= 1, got {self.rounds}")
        if self.local_epochs < 1:
            raise ConfigError(f"local_epochs: must be >= 1, got {self.local_epochs}")
        if self.lr <= 0:
            raise ConfigError(f"lr: must be > 0, got {self.lr}")
        if not (0 < self.lr_decay <= 1):
            raise ConfigError(f"lr_decay: must be in (0, 1], got {self.lr_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")


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
    if defense.kind == "perturb":
        n = float(np.linalg.norm(update))
        out = update * min(1.0, defense.clip_norm / n) if n > 0 else update.copy()
        if defense.noise_std > 0:
            out = out + defense.noise_std * rng.generator().standard_normal(len(out))
        return out
    if defense.kind == "quantize":
        if defense.bits == 1:
            return np.sign(update) * np.mean(np.abs(update))
        s = float(np.max(np.abs(update)))
        if s == 0.0:
            return np.zeros_like(update)
        levels = np.linspace(-s, s, 2**defense.bits)
        step = 2 * s / (2**defense.bits - 1)
        idx = np.clip(np.round((update + s) / step).astype(int), 0, 2**defense.bits - 1)
        return levels[idx]
    # sparsify
    k = int(math.floor(defense.rate * len(update)))
    out = update.copy()
    if k > 0:
        order = np.argsort(np.abs(update), kind="stable")
        out[order[:k]] = 0.0
    return out


def client_update(spec: ModelSpec, x: np.ndarray, y: np.ndarray, global_params: np.ndarray,
                  config: FedConfig, defense: DefenseConfig, lr_eff: float,
                  rngs: Sequence[RngStream], geometry: tuple[int, int] | None = None,
                  ws: dict | None = None) -> np.ndarray:
    """Pre-defense uploads (w_global - w_local_after) / lr_eff of equal-size clients.

    The K clients, whose records are ``x`` (K, n, d) and ``y`` (K, n), run
    shuffled mini-batch SGD as one stack. Each epoch shuffles the records a
    client trains on: all n, or a ``subsample`` under sample /
    augment_and_sample. Each batch is augmented under augment /
    augment_and_sample, and under mixup a batch of two or more trains on its
    ``mixup``. Client k draws only from ``rngs[k]``, in the order it would
    alone, and ``model.sgd_step`` computes its row as it would alone, so its
    upload is bit-identical to training it by itself. With one full-batch
    epoch and no defense a row is exactly the mean training gradient. The
    step's arrays live in the workspace ``ws``, which every call may share;
    the uploads returned are one of them, valid until the next call.
    """
    k, n = y.shape
    gens = [rng.generator() for rng in rngs]
    w = _scratch(ws, "local", (k, len(global_params)))
    w[:] = global_params
    rows, flat = np.arange(k)[:, None], x.reshape(k * n, -1)
    for _ in range(config.local_epochs):
        if defense.kind in ("sample", "augment_and_sample"):
            perm = np.stack([g.permutation(subsample(g, n, defense.portion)) for g in gens])
        else:
            perm = permutations(gens, n)
        for start in range(0, perm.shape[1], config.batch_size):
            batch = perm[:, start : start + config.batch_size]
            bx = np.take(flat, rows * n + batch, axis=0, mode="clip",
                         out=_scratch(ws, "batch", batch.shape + flat.shape[1:]))
            by = y[rows, batch]
            if defense.kind in ("augment", "augment_and_sample"):
                bx = np.stack([augment_batch(g, b, geometry, defense.augment_ops)
                               for g, b in zip(gens, bx)])
            labels, lam = by[None], None
            if defense.kind == "mixup" and batch.shape[1] >= 2:
                bx, labels, lam = mixup(gens, bx, by, defense.alpha, ws)
            mdl.sgd_step(spec, w, bx, labels, lr_eff, lam, ws)
    np.subtract(global_params, w, out=w)
    w /= lr_eff
    return w


def aggregate(
    updates: np.ndarray,
    global_params: np.ndarray,
    lr_eff: float,
) -> np.ndarray:
    """Server step: w - lr_eff * mean of the (K, d) updates, summed in client-index order."""
    return global_params - lr_eff * updates.mean(axis=0)


def run_federation(
    dataset: Dataset,
    partition: Partition,
    spec: ModelSpec,
    config: FedConfig,
    defense: DefenseConfig,
    seed: int,
) -> UpdateTrace:
    """Run the synchronous loop and record the complete observation trace.

    Per-round utility is the holdout accuracy of the freshly aggregated
    model. Deterministic in ``seed`` regardless of client execution order.
    """
    groups: dict[int, list[int]] = {}  # clients of equal size train as one stack
    for k, idx in enumerate(partition.client_indices):
        groups.setdefault(len(idx), []).append(k)
    stacks = [(ks, *dataset.arrays(np.stack([partition.client_indices[k] for k in ks])))
              for ks in groups.values()]
    root = RngStream(seed)
    omega = mdl.init_params(spec, root.derive(TAG_INIT))
    hx, hy = dataset.arrays(partition.holdout_indices)
    rounds: list[RoundRecord] = []
    accuracy: list[float] = []
    ws: dict = {}  # every group's local SGD reuses these arrays, one group at a time
    for t in range(config.rounds):
        lr_eff = lr_effective(config, t)
        updates = np.empty((partition.num_clients, spec.param_count()))
        # A diverging round overflows; the finiteness check reports it. A
        # finite but huge global model still overflows when evaluated.
        with np.errstate(over="ignore", invalid="ignore"):
            for ks, gx, gy in stacks:
                rngs = [root.derive(TAG_CLIENT, t, k) for k in ks]
                updates[ks] = client_update(
                    spec, gx, gy, omega, config, defense, lr_eff, rngs, dataset.geometry, ws
                )
            if defense.is_update_level:
                for k, upd in enumerate(updates):
                    updates[k] = defend_update(upd, defense, root.derive(TAG_DEFENSE, t, k))
            new_omega = aggregate(updates, omega, lr_eff)
            bad = np.flatnonzero(~np.isfinite(updates).all(axis=1))
            if len(bad) or not np.isfinite(new_omega).all():
                who = f"client {bad[0]}'s upload" if len(bad) else "the global model"
                raise FedAuditError(f"training diverged in round {t}: {who} is not finite")
            accuracy.append(mdl.accuracy(spec, new_omega, hx, hy))
        rounds.append(RoundRecord(t, omega, updates, lr_eff))
        omega = new_omega
    return UpdateTrace(
        model_spec=spec,
        rounds=rounds,
        final_model=omega,
        round_accuracy=accuracy,
        defense=defense,
        seed=seed,
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
#   manifest.json            sha256 and size of each file, by artifacts.commit
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
    write_text(os.path.join(trace_dir, "trace_meta.json"),
               json.dumps(meta, indent=2, sort_keys=True) + "\n")
    for r in trace.rounds:
        np.save(os.path.join(trace_dir, f"round_{r.round_index:04d}_global.npy"), r.global_before)
        np.save(os.path.join(trace_dir, f"round_{r.round_index:04d}_updates.npy"), r.updates)
    np.save(os.path.join(trace_dir, "final_model.npy"), trace.final_model)


def _array(data: bytes) -> np.ndarray:
    """The array of the bytes of an ``.npy`` file, read-only and not copied."""
    fh = io.BytesIO(data)
    np.lib.format.read_magic(fh)
    shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
    arr = np.frombuffer(data, dtype, offset=fh.tell())
    return arr.reshape(shape, order="F" if fortran else "C")


def load_trace(trace_dir: str) -> UpdateTrace:
    """Load a trace that ``save_trace`` wrote through ``artifacts.commit``; each file
    is read once, through ``artifacts.read_artifacts``."""
    def parse(meta: dict) -> tuple:
        if meta["schema_version"] != TRACE_SCHEMA_VERSION:
            raise ValueError("unsupported trace schema")
        return (load(ModelSpec, meta["model"], "model"),
                DefenseConfig.from_dict(meta["defense"], "defense"),
                meta["seed"], meta["lr_effective"], meta["round_accuracy"])

    spec, defense, seed, lr_sched, accuracy = read_json_artifact(
        os.path.join(trace_dir, "trace_meta.json"), parse)
    names = [f"round_{i:04d}_{kind}.npy" for i in range(len(lr_sched))
             for kind in ("global", "updates")]
    *arrays, final = map(_array, read_artifacts(trace_dir, names + ["final_model.npy"]))
    rounds = [RoundRecord(i, arrays[2 * i], arrays[2 * i + 1], float(lr))
              for i, lr in enumerate(lr_sched)]
    return UpdateTrace(model_spec=spec, rounds=rounds, final_model=final,
                       round_accuracy=[float(a) for a in accuracy], defense=defense, seed=seed)
