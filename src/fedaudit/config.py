"""The experiment config: one block per stage of a run, decoded and checked at load.

Configs are strict JSON, decoded by ``fedaudit.schema`` against the
config dataclasses below: a field without a default is a required key.
Unknown or missing keys, wrong-typed or out-of-range values,
NaN/Infinity (except ``partition.beta: "inf"``) and a synthetic dataset
too small for the partition are config errors raised at load, before
the output directory exists. A CSV dataset that cannot be read or parsed,
does not fit its ``geometry`` or is too small for the partition, is a
config error raised by the job before it trains.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

from . import attack as atk
from . import data as dat
from . import fedsim as fed
from . import model as mdl
from .errors import ConfigError
from .schema import (Codec, FloatOrInf, check_keys, check_kind, check_set, decode,
                     dump_value, field_types, under)

CONFIG_SCHEMA_VERSION = 1

# Per kind: the parameters a dataset or partition requires, and the ones it also accepts.
DATASET_PARAMS = {
    "synthetic": (("num_classes", "input_dim", "per_class", "class_sep"), ("geometry",)),
    "csv": (("csv_path",), ("num_classes", "geometry")),
}
PARTITION_PARAMS = {"iid": (("per_client",), ()), "dirichlet": (("beta",), ())}


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
        check_kind(self, DATASET_PARAMS, "dataset")
        for name, least in (("num_classes", 2), ("input_dim", 1), ("per_class", 1),
                            ("class_sep", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigError(f"{name}: must be >= {least}, got {value}")
        if self.csv_path == "":
            raise ConfigError("csv_path: must not be empty")
        if self.geometry is not None and min(self.geometry) < 1:
            raise ConfigError(f"geometry: entries must be >= 1, got {list(self.geometry)}")
        if self.kind == "synthetic":
            self.check_geometry(self.input_dim)

    def check_geometry(self, input_dim: int) -> None:
        """A ``geometry`` grid has ``input_dim`` cells, the feature count a CSV file has once read."""
        if self.geometry is not None and self.geometry[0] * self.geometry[1] != input_dim:
            raise ConfigError(f"geometry: {list(self.geometry)} does not match input_dim {input_dim}")


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
        check_kind(self, PARTITION_PARAMS, "partition")
        if self.clients < 2:
            raise ConfigError(f"clients: must be >= 2, got {self.clients}")
        if self.per_client is not None and self.per_client < 1:
            raise ConfigError(f"per_client: must be >= 1, got {self.per_client}")
        if self.beta is not None and self.beta <= 0:
            raise ConfigError(f"beta: must be > 0, got {self.beta}")
        if self.holdout < 1:
            raise ConfigError(f"holdout: must be >= 1 (non-member pool), got {self.holdout}")
        if self.nonmember_source not in ("holdout", "holdout+others"):
            raise ConfigError(f"nonmember_source: must be holdout or holdout+others, "
                              f"got {self.nonmember_source!r}")
        for name in ("holdout_fraction", "others_fraction"):
            if not (0 < getattr(self, name) <= 1):
                raise ConfigError(f"{name}: must be in (0, 1], got {getattr(self, name)}")

    def check_size(self, n: int) -> None:
        """The rules that need the dataset size ``n``, which a CSV dataset has
        only once it is read: the partition fits in ``n`` records."""
        if self.kind == "iid" and (need := self.clients * self.per_client + self.holdout) > n:
            raise ConfigError(f"per_client: need {need} samples, have {n}")
        if self.kind == "dirichlet" and self.holdout >= n:
            raise ConfigError(f"holdout: holdout {self.holdout} >= dataset size {n}")
        if self.beta == float("inf") and n - self.holdout < self.clients:
            raise ConfigError(f"holdout: holdout {self.holdout} leaves {n - self.holdout} "
                              f"samples for {self.clients} clients")


@dataclass(frozen=True, kw_only=True)
class ModelConfig(Codec):
    """The ``model.ModelSpec`` fields that do not come from the dataset."""

    kind: str
    hidden_dim: int | None = None  # None: 32 for mlp, 0 otherwise
    init_std: float = 0.1

    def __post_init__(self) -> None:
        if self.hidden_dim is None:
            object.__setattr__(self, "hidden_dim", 32 if self.kind == "mlp" else 0)
        self.spec(input_dim=1, num_classes=2)  # ModelSpec's checks of these fields

    def spec(self, input_dim: int, num_classes: int) -> mdl.ModelSpec:
        return mdl.ModelSpec(self.kind, input_dim, self.hidden_dim, num_classes, self.init_std)


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
            raise ConfigError(f"methods: unknown methods {sorted(unknown)}")
        check_set(self.methods, "methods")
        check_set(self.delta_grid, "delta_grid")
        for i, delta in enumerate(self.delta_grid):  # the fedmia scores lie in [0, 1]
            if not 0 < delta < 1:
                raise ConfigError(f"delta_grid[{i}]: must be in (0, 1), got {delta}")
        if not (0 <= self.fpr_cap < 1):
            raise ConfigError(f"fpr_cap: must be in [0, 1), got {self.fpr_cap}")
        if self.targets_per_class < 1:
            raise ConfigError(f"targets_per_class: must be >= 1, got {self.targets_per_class}")
        if self.sigma_floor_rel <= 0:
            raise ConfigError(f"sigma_floor_rel: must be > 0, got {self.sigma_floor_rel}")

    def check_clients(self, k: int) -> None:
        """The rules that need the client count ``k``, which ``replay`` has only
        once it reads the trace: ``target_client`` and fedmia fit ``k`` clients."""
        atk._check_clients(k, self.target_client, self.methods)


# Sweep keys that set a field of the ``augment_ops`` block -> that field.
AUGMENT_KEYS = {"flip_h": "flip_h", "shift": "shift", "augment_noise_std": "noise_std"}
# Sweep key -> annotation of the DefenseConfig / AugmentOps field it sets.
SWEEP_TYPES = {
    **{"defense" if k == "kind" else k: tp
       for k, tp in field_types(fed.DefenseConfig).items() if k != "augment_ops"},
    **{key: field_types(dat.AugmentOps)[name] for key, name in AUGMENT_KEYS.items()},
}


@dataclass(frozen=True)
class SweepConfig(Codec):
    """A defense kind with at most one list-valued parameter (the sweep axis)."""

    defense: str = "none"
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def from_dict(cls, d: object, path: str = "sweep") -> "SweepConfig":
        check_keys(d, SWEEP_TYPES, {"defense"}, path)
        kind = decode(str, d["defense"], f"{path}.defense")
        if kind not in fed.DEFENSE_PARAMS:
            raise ConfigError(f"{path}.defense: unknown kind {kind!r}")
        params = tuple(
            (k, decode(tuple[SWEEP_TYPES[k], ...] if isinstance(v, (list, tuple))
                       else SWEEP_TYPES[k], v, f"{path}.{k}"))
            for k, v in sorted(d.items()) if k != "defense"
        )
        axes = [k for k, v in params if isinstance(v, tuple)]
        if len(axes) > 1:
            raise ConfigError(f"{path}: at most one list-valued parameter, got {axes}")
        if axes and not d[axes[0]]:
            raise ConfigError(f"{path}.{axes[0]}: the sweep list must not be empty")
        sweep = cls(defense=kind, params=params)
        with under(path):
            sweep.points  # every sweep point's checks run at load, once
        return sweep

    def to_dict(self) -> dict:
        return {"defense": self.defense, **{k: dump_value(v) for k, v in self.params}}

    @functools.cached_property
    def points(self) -> list[tuple[object, fed.DefenseConfig]]:
        """(sweep value, DefenseConfig) pairs, built once; value None when nothing varies."""
        params = dict(self.params)
        axis = next((k for k, v in params.items() if isinstance(v, tuple)), None)
        values = list(params[axis]) if axis else [None]
        check_set(values, axis)  # at load, under the sweep's path
        out = []
        for v in values:
            p = dict(params)
            if axis:
                p[axis] = v
            out.append((v, _defense_from_params(self.defense, p)))
        return out


def _defense_from_params(kind: str, p: dict) -> fed.DefenseConfig:
    """The DefenseConfig of one sweep point; the AUGMENT_KEYS form its ``augment_ops``."""
    if "augment_ops" in fed.DEFENSE_PARAMS[kind][0]:
        try:
            p["augment_ops"] = dat.AugmentOps(
                flip_h=p.pop("flip_h", False), shift=p.pop("shift", False),
                noise_std=float(p.pop("augment_noise_std", 0.0)),  # a float in trace_meta.json
            )
        except ConfigError as exc:  # names noise_std, which the sweep calls augment_noise_std
            raise ConfigError(f"augment_{exc}") from None
    stray = sorted(set(p) & set(AUGMENT_KEYS))
    if stray:
        raise ConfigError(f"{stray[0]}: not a parameter of defense {kind!r}")
    return fed.DefenseConfig(kind=kind, **p)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(Codec):
    schema_version: int
    dataset: DatasetConfig
    partition: PartitionConfig
    model: ModelConfig
    federation: fed.FedConfig
    attack: AttackSuiteConfig
    sweep: SweepConfig = field(default_factory=SweepConfig)
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.schema_version != CONFIG_SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version: must be {CONFIG_SCHEMA_VERSION}, got {self.schema_version}"
            )
        check_set(self.seeds, "seeds")
        with under("attack"):
            self.attack.check_clients(self.partition.clients)
        if self.dataset.kind == "synthetic":
            with under("partition"):
                self.partition.check_size(self.dataset.num_classes * self.dataset.per_class)
        for _, defense in self.sweep.points:
            ops = defense.augment_ops
            if ops is not None and (ops.flip_h or ops.shift) and self.dataset.geometry is None:
                key = "flip_h" if ops.flip_h else "shift"
                raise ConfigError(f"sweep.{key}: needs dataset.geometry, which is null")


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
