"""Typed configs read from JSON objects.

`read_config` overlays a JSON object on a dataclass's defaults. A value
must have the JSON type of its field's default: an int may stand for a
float, a bool is never a number, and a list stands for a tuple. A nested
dataclass is read the same way; a field whose default is None takes any
value, for its dataclass to check.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

from .errors import ConfigInvalidError


def _kind(default) -> str:
    """The JSON type of `default`, by the name of its Python type."""
    if is_dataclass(default):
        return "dict"
    return "list" if isinstance(default, tuple) else type(default).__name__


def same_kind(default, value) -> bool:
    """Whether `value` may replace `default`."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return type(value).__name__ == _kind(default)


def read_config(cls, record, path: str, complete: bool = False):
    """A `cls` from its defaults overlaid with `record`, which `path` names
    in errors; with `complete`, `record` must give every field. Raises
    ConfigInvalidError for a record that is not an object, an unknown or
    missing key, or a value of another JSON type than its default."""
    if not isinstance(record, dict):
        raise ConfigInvalidError(f"{path} must be dict, got {json.dumps(record)}")
    defaults, known, values = cls(), {f.name for f in fields(cls)}, {}
    missing = known - record.keys() if complete else ()
    if missing:
        raise ConfigInvalidError(f"{path} lacks key {min(missing)}")
    for key, value in record.items():
        here = f"{path}.{key}" if path else key
        if key not in known:
            raise ConfigInvalidError(f"unknown config key: {here}")
        base = getattr(defaults, key)
        if is_dataclass(base):
            value = read_config(type(base), value, here, complete)
        elif base is not None and not same_kind(base, value):
            raise ConfigInvalidError(f"{here} must be {_kind(base)}, got {json.dumps(value)}")
        values[key] = tuple(value) if isinstance(base, tuple) else value
    return cls(**values)
