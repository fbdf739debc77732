"""Dataset synthesis, client partitioning, and data-level defenses.

Partitions keep client datasets pairwise disjoint and disjoint from the
holdout pool, which is what lets the attack treat non-target clients as
clean null-hypothesis material, and what keeps the member and non-member
pools of ``make_eval_split`` apart. The three data-level defenses
(``mixup``, ``augment_batch``, ``subsample``) draw from the generator of a
client's local epoch and are called by ``fedsim``'s local SGD loop; they
transform training batches only, so attack targets are always original
records. Pools and mixed batches pass between modules as plain arrays.
The config checks every argument range when it is decoded (``config``);
these functions take the checked values. ``load_csv`` checks its file: a
label is below ``num_classes``, and that, given or inferred, is at most the
row count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import ConfigError
from .numstat import RngStream, _scratch


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix plus integer labels; immutable after construction."""

    features: np.ndarray  # (n, input_dim) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int
    geometry: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ConfigError("features must be (n, d) aligned with labels")
        if not np.all(np.isfinite(self.features)):
            raise ConfigError("dataset features must be finite")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ConfigError("labels must lie in [0, num_classes)")
        if self.geometry is not None:
            rows, cols = self.geometry
            if rows * cols != self.input_dim:
                raise ConfigError(
                    f"geometry {self.geometry} does not match input_dim {self.input_dim}"
                )

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def arrays(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(indices, dtype=np.int64)
        return self.features[idx], self.labels[idx]


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint per-client index lists plus a disjoint holdout pool."""

    client_indices: list[np.ndarray]
    holdout_indices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "client_indices",
            [np.asarray(c, dtype=np.int64) for c in self.client_indices],
        )
        object.__setattr__(
            self, "holdout_indices", np.asarray(self.holdout_indices, dtype=np.int64)
        )
        all_idx = np.concatenate(self.client_indices + [self.holdout_indices])
        if len(np.unique(all_idx)) != len(all_idx):
            raise ConfigError("partition lists must be pairwise disjoint")
        if len(all_idx) and all_idx.min() < 0:
            raise ConfigError("partition indices must be nonnegative")

    @property
    def num_clients(self) -> int:
        return len(self.client_indices)


def synth_blobs(
    rng: RngStream,
    num_classes: int,
    input_dim: int,
    per_class: int,
    class_sep: float,
) -> Dataset:
    """Gaussian blobs with unit covariance, one mean per class.

    Class means sit at pairwise distance ``class_sep`` (scaled simplex on
    the coordinate axes when input_dim >= num_classes, random directions
    otherwise), so ``class_sep = 0`` makes the classes indistinguishable.
    """
    g = rng.generator()
    scale = class_sep / math.sqrt(2.0)
    means = np.zeros((num_classes, input_dim))
    if input_dim >= num_classes:
        for c in range(num_classes):
            means[c, c] = scale
    else:
        dirs = g.standard_normal((num_classes, input_dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        means = scale * dirs
    feats = np.empty((num_classes * per_class, input_dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        feats[block] = means[c] + g.standard_normal((per_class, input_dim))
        labels[block] = c
    return Dataset(feats, labels, num_classes)


def load_csv(path: str, num_classes: int | None = None, geometry: tuple[int, int] | None = None) -> Dataset:
    """Load ``label,f1,...,fd`` rows (UTF-8, no header) into a Dataset.

    Parse failures, a byte that is not UTF-8 among them, name the offending
    1-based line. When ``num_classes`` is omitted it is ``max(label) + 1``.
    Given or inferred, a class count above the row count is an error: those
    classes could not all have a record, yet each costs a pass of the
    partition and a row of the model's output layer.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    top_label, top_line = -1, 0  # the largest label and its first line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) < 2:
                raise ConfigError(f"line {lineno}: expected label plus features")
            try:
                label = int(fields[0])
            except ValueError:
                raise ConfigError(f"line {lineno}: non-integer label {fields[0]!r}") from None
            try:
                feats = [float(f) for f in fields[1:]]
            except ValueError:
                raise ConfigError(f"line {lineno}: non-numeric feature value") from None
            if rows and len(feats) != len(rows[0]):
                raise ConfigError(
                    f"line {lineno}: expected {len(rows[0])} features, got {len(feats)}"
                )
            if label < 0:
                raise ConfigError(f"line {lineno}: negative label {label}")
            if num_classes is not None and label >= num_classes:
                raise ConfigError(f"line {lineno}: label {label} out of range for "
                                  f"{num_classes} classes")
            if label > top_label:
                top_label, top_line = label, lineno
            labels.append(label)
            rows.append(feats)
    if not rows:
        raise ConfigError("empty dataset file")
    nc = num_classes if num_classes is not None else top_label + 1
    if nc > len(rows):
        raise ConfigError(f"dataset.num_classes {nc} is above the row count {len(rows)}"
                          if num_classes is not None else f"line {top_line}: label "
                          f"{top_label} is not below the row count {len(rows)}")
    return Dataset(np.array(rows), np.array(labels), nc, geometry)


def _deal_stratified(g: np.random.Generator, dataset: Dataset, num_clients: int) -> list[list[int]]:
    """Shuffle each class and deal it across clients as evenly as possible.

    The +1 remainder chunks rotate with the class index so no client is
    systematically favored.
    """
    pools: list[list[int]] = [[] for _ in range(num_clients)]
    for c in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == c)
        idx = g.permutation(idx)
        base, rem = divmod(len(idx), num_clients)
        pos = 0
        for j in range(num_clients):
            k = (c + j) % num_clients
            take = base + (1 if j < rem else 0)
            pools[k].extend(idx[pos : pos + take].tolist())
            pos += take
    return pools


def partition_iid(
    rng: RngStream,
    dataset: Dataset,
    num_clients: int,
    per_client: int,
    holdout: int,
) -> Partition:
    """Class-stratified uniform partition into equal-size clients plus holdout; a
    client whose share of the deal is short of ``per_client`` raises ConfigError."""
    g = rng.generator()
    pools = _deal_stratified(g, dataset, num_clients)
    clients: list[np.ndarray] = []
    leftover: list[int] = []
    for pool in pools:
        arr = g.permutation(np.array(pool, dtype=np.int64))
        if len(arr) < per_client:
            raise ConfigError(
                f"client pool of {len(arr)} cannot supply per_client={per_client}"
            )
        clients.append(np.sort(arr[:per_client]))
        leftover.extend(arr[per_client:].tolist())
    leftover_arr = g.permutation(np.array(leftover, dtype=np.int64))
    return Partition(clients, np.sort(leftover_arr[:holdout]))


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Integer shares of ``total`` from real ``quotas`` summing to about it: each
    quota's floor, plus one for the largest fractional parts (ties to the
    lower index) until the shares sum to ``total``."""
    counts = np.floor(quotas).astype(int)
    order = np.argsort(-(quotas - counts), kind="stable")
    counts[order[: total - counts.sum()]] += 1
    return counts


def partition_dirichlet(
    rng: RngStream,
    dataset: Dataset,
    num_clients: int,
    beta: float,
    holdout: int,
) -> Partition:
    """Non-IID partition: per-class client proportions drawn from Dirichlet(beta).

    ``beta = inf`` is a documented alias for the IID partition with
    ``per_client = (n - holdout) // num_clients``. Rounding residuals go
    to the clients with the largest fractional shares.
    """
    if math.isinf(beta):
        return partition_iid(rng, dataset, num_clients, (len(dataset) - holdout) // num_clients,
                             holdout)
    g = rng.generator()

    # Reserve the holdout stratified by class.
    holdout_idx: list[int] = []
    remain_by_class: list[np.ndarray] = []
    class_sizes = np.array(
        [np.count_nonzero(dataset.labels == c) for c in range(dataset.num_classes)]
    )
    counts = _largest_remainder(holdout * class_sizes / len(dataset), holdout)
    for c in range(dataset.num_classes):
        idx = g.permutation(np.flatnonzero(dataset.labels == c))
        holdout_idx.extend(idx[: counts[c]].tolist())
        remain_by_class.append(idx[counts[c] :])

    clients: list[list[int]] = [[] for _ in range(num_clients)]
    for c, idx in enumerate(remain_by_class):
        if len(idx) == 0:
            continue
        props = g.dirichlet(np.full(num_clients, float(beta)))
        take = _largest_remainder(props * len(idx), len(idx))
        pos = 0
        for k in range(num_clients):
            clients[k].extend(idx[pos : pos + take[k]].tolist())
            pos += take[k]
    return Partition(
        [np.sort(np.array(c, dtype=np.int64)) for c in clients],
        np.sort(np.array(holdout_idx, dtype=np.int64)),
    )


def make_eval_split(
    rng: RngStream,
    partition: Partition,
    target_client: int,
    nonmember_source: str = "holdout",
    holdout_fraction: float = 0.1,
    others_fraction: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """(members, non-members): sorted index pools for attacking one client.

    ``holdout`` draws non-members from the holdout pool only;
    ``holdout+others`` mixes a fraction of the holdout with a fraction of
    every other client's training data (defaults keep one tenth of each).
    The config checks the source, the target and that each fraction is in (0, 1].
    The pools are disjoint because the partition's lists are.
    """
    members = partition.client_indices[target_client]
    g = rng.generator()
    if nonmember_source == "holdout":
        nonmembers = partition.holdout_indices.copy()
    else:
        parts = []
        nh = math.ceil(holdout_fraction * len(partition.holdout_indices))
        if nh:
            parts.append(g.choice(partition.holdout_indices, nh, replace=False))
        for k, idx in enumerate(partition.client_indices):
            if k == target_client or len(idx) == 0:
                continue
            nk = math.ceil(others_fraction * len(idx))
            parts.append(g.choice(idx, nk, replace=False))
        nonmembers = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return np.sort(members), np.sort(nonmembers)


def mix_with_lambda(x: np.ndarray, y: np.ndarray, partner: np.ndarray, lam: np.ndarray,
                    ws: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mixup's deterministic core, ``lam * x + (1 - lam) * x[partner]`` bit for bit, for
    coefficients (K,) and batch permutations (K, b); the features live in the workspace ``ws``.

    Returns the mixed (K, b, d) features, the (2, K, b) labels ``y`` and
    ``y[partner]``, and ``lam``. Training loss of row i of batch k:
    ``lam[k] * loss(features[k, i], labels[0, k, i]) + (1 - lam[k]) *
    loss(features[k, i], labels[1, k, i])``.
    """
    x = np.asarray(x, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    rows, b = np.arange(len(x))[:, None], x.shape[1]
    mixed = np.take(x.reshape(len(x) * b, -1), rows * b + partner, axis=0,
                    out=_scratch(ws, "mixed", x.shape), mode="clip")
    mixed *= (1.0 - lam)[:, None, None]
    mixed += np.multiply(lam[:, None, None], x, out=_scratch(ws, "lam_x", x.shape))
    return mixed, np.stack([y, y[rows, partner]]), lam


def mixup(gens: list[np.random.Generator], x: np.ndarray, y: np.ndarray, alpha: float,
          ws: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mix each batch of a (K, b, d) stack, b >= 2, with a random in-batch partner.

    Batch k draws from ``gens[k]``: one lam ~ Beta(alpha, alpha) per batch
    (the convention of the original mixup procedure), then the partner
    permutation. Returns what ``mix_with_lambda`` does.
    """
    lam = np.array([g.beta(alpha, alpha) for g in gens])
    return mix_with_lambda(x, y, np.stack([g.permutation(x.shape[1]) for g in gens]), lam, ws)


@dataclass(frozen=True)
class AugmentOps:
    """Which augmentation primitives the defense applies during training."""

    flip_h: bool = False
    shift: bool = False
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if self.noise_std < 0:
            raise ConfigError(f"noise_std: must be >= 0, got {self.noise_std}")

    @property
    def needs_geometry(self) -> bool:
        return self.flip_h or self.shift


def augment_batch(
    g: np.random.Generator,
    x: np.ndarray,
    geometry: tuple[int, int] | None,
    ops: AugmentOps,
) -> np.ndarray:
    """Vectorized augmentation of a training batch (labels unchanged); flip and
    shift need the grid ``geometry``.

    A flip reverses every row of a record's grid. A shift translates the grid
    by (dy, dx) in {-1, 0, 1}^2 with zero fill outside the frame: each record
    gathers from a zero-padded copy of its grid."""
    out = np.array(x, dtype=np.float64, copy=True)
    n = len(out)
    if ops.flip_h:
        mask = g.integers(2, size=n).astype(bool)
        grid = out.reshape(n, *geometry)
        grid[mask] = grid[mask, :, ::-1]
    if ops.shift:
        offsets = g.integers(-1, 2, size=(n, 2))
        rows, cols = geometry
        padded = np.zeros((n, rows + 2, cols + 2))
        padded[:, 1:-1, 1:-1] = out.reshape(n, rows, cols)
        r = np.arange(rows)[None, :, None] + 1 - offsets[:, 0, None, None]
        c = np.arange(cols)[None, None, :] + 1 - offsets[:, 1, None, None]
        out = padded[np.arange(n)[:, None, None], r, c].reshape(out.shape)
    if ops.noise_std > 0:
        out += ops.noise_std * g.standard_normal(out.shape)
    return out


def subsample(g: np.random.Generator, n: int, portion: float) -> np.ndarray:
    """ceil(portion * n) distinct indices of range(n), drawn without replacement."""
    return g.choice(n, math.ceil(portion * n), replace=False)
