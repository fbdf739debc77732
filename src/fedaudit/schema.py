"""The JSON <-> dataclass codec of config blocks and trace metadata.

A block is a dataclass whose field annotations are its schema; a field
without a default is a required key. A block checks its own values when
it is built and names the field (``rounds: must be >= 1``); ``load``
prefixes the block's path. So every error is a ``ConfigError`` that
names the key path, e.g. ``attack.delta_grid[1]`` or ``federation.rounds``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import types
import typing
from typing import Iterable

from .errors import ConfigError

# A float field that also takes the string "inf" (the one non-finite value).
FloatOrInf = typing.NewType("FloatOrInf", float)


@functools.cache
def field_types(cls: type) -> dict[str, object]:
    """Field name -> resolved annotation of a dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _show(value: object) -> str:
    return json.dumps(value, default=repr)


def check_keys(d: object, allowed: Iterable[str], required: Iterable[str], path: str) -> None:
    """``d`` is a JSON object with every required key and no other."""
    where = path or "config"
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: must be an object, got {_show(d)}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def check_kind(block: object, params: dict[str, tuple[tuple, tuple]], what: str) -> None:
    """``block.kind`` is a key of ``params``, which maps each kind to the parameters it
    requires and the ones it also accepts. A parameter is a field whose default is
    None; every other parameter of ``block`` must be None."""
    if block.kind not in params:
        raise ConfigError(f"kind: unknown {what} {block.kind!r}")
    required, accepted = params[block.kind]
    for f in dataclasses.fields(block):
        given = getattr(block, f.name) is not None
        if f.default is None and given != (f.name in required) and f.name not in accepted:
            rule = "not a parameter of" if given else "required by"
            raise ConfigError(f"{f.name}: {rule} {what} {block.kind!r}")


def check_set(values: tuple, path: str) -> None:
    """A list that names a set: at least one value, and none twice."""
    if not values:
        raise ConfigError(f"{path}: must not be empty")
    if len(set(values)) < len(values):
        raise ConfigError(f"{path}: must not repeat a value, got {_show(list(values))}")


def load(cls: type, d: object, path: str = "") -> object:
    """Build dataclass ``cls`` from a JSON object, decoding every value."""
    fields = field_types(cls)
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    check_keys(d, fields, required, path)
    prefix = f"{path}." if path else ""
    values = {k: decode(fields[k], v, prefix + k) for k, v in d.items()}
    with under(path):
        return cls(**values)


@contextlib.contextmanager
def under(path: str):
    """Prefix ``path`` to a ``ConfigError`` that a block's own checks raise."""
    try:
        yield
    except ConfigError as exc:
        if not path:
            raise
        raise type(exc)(f"{path}.{exc}") from None


def decode(tp: object, value: object, path: str) -> object:
    """Check one JSON value against annotation ``tp`` and return the field value.

    ``bool`` takes only true/false. ``int`` takes only JSON integers (not
    ``2.0``, not ``true``). ``float`` takes finite numbers and keeps them as
    given, so an int stays an int. ``X | None`` also takes null;
    ``tuple[...]`` takes a list; ``dict[str, X]`` and a dataclass take an
    object and recurse.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return decode(tp, value, path)
    if tp is FloatOrInf:
        if value == "inf":
            return math.inf
        tp = float
    if tp is bool:
        if isinstance(value, bool):
            return value
        expected = "true or false"
    elif tp is int or tp is float:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if tp is float and isinstance(value, float) and math.isfinite(value):
            return value
        expected = "an integer" if tp is int else "a finite number"
    elif tp is str:
        if isinstance(value, str):
            return value
        expected = "a string"
    elif origin is tuple:
        variadic = args[-1] is Ellipsis
        if isinstance(value, (list, tuple)) and (variadic or len(value) == len(args)):
            item_types = args[:1] * len(value) if variadic else args
            return tuple(
                decode(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(item_types, value))
            )
        expected = "a list" if variadic else f"a list of {len(args)} items"
    elif origin is dict:
        if isinstance(value, dict):
            return {k: decode(args[1], v, f"{path}.{k}") for k, v in value.items()}
        expected = "an object"
    elif dataclasses.is_dataclass(tp):
        return tp.from_dict(value, path) if issubclass(tp, Codec) else load(tp, value, path)
    else:
        raise TypeError(f"{path}: unsupported annotation {tp!r}")
    raise ConfigError(f"{path}: must be {expected}, got {_show(value)}")


def dump_value(value: object) -> object:
    """The JSON value of one field value; +inf is written as "inf"."""
    if isinstance(value, Codec):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return dump(value)
    if isinstance(value, tuple):
        return [dump_value(v) for v in value]
    return "inf" if value == math.inf else value


def dump(obj: object) -> dict:
    """The JSON object of a dataclass, field by field."""
    return {name: dump_value(getattr(obj, name)) for name in field_types(type(obj))}


class Codec:
    """``from_dict``/``to_dict`` of a dataclass through ``load``/``dump``."""

    @classmethod
    def from_dict(cls, d: object, path: str = ""):
        return load(cls, d, path)

    def to_dict(self) -> dict:
        return dump(self)
