"""Typed configs read from JSON objects.

`read_config` overlays a JSON object on a dataclass's defaults. A value
must have the JSON type of its field's default: a float may be an int in
float range, a bool is never a number, a list stands for a tuple, and a
None default takes any value. A nested dataclass is read the same way.
Every config checks its own values when built, raising ConfigInvalidError.

The ranker and provider configs live here, so reading them loads no NumPy.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional
from urllib.parse import urlsplit  # pathlib imports it already

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
    if isinstance(default, float):  # an int only within float range
        return isinstance(value, float) or isinstance(value, int) and abs(value) <= sys.float_info.max
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


MAX_WIDTH = 2**16  # the widest embedding and hidden layer; NumPy refuses far wider with a ValueError

# Knobs a grid search may vary: the loss factors and two training settings.
_LOSS_KEYS = frozenset({"alpha", "beta", "lambda_penalty"})
GRID_KEYS = _LOSS_KEYS | {"learning_rate", "h"}


@dataclass(frozen=True)
class LossConfig:
    """Factors of the reshaped BCE loss.

    alpha weighs the positive class, beta sharpens the down-weighting of
    easy examples, lambda_penalty scales the extra cost of high-probability
    negatives.
    """

    alpha: float = 0.5
    beta: float = 2.0
    lambda_penalty: float = 4.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigInvalidError("alpha must be in (0, 1)")
        if not 0.0 <= self.beta < math.inf:
            raise ConfigInvalidError("beta must be finite and >= 0")
        if not 0.0 <= self.lambda_penalty < math.inf:
            raise ConfigInvalidError("lambda_penalty must be finite and >= 0")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    epochs: int = 200
    seed: int = 7
    early_stop_patience: int = 10
    loss: LossConfig = field(default_factory=LossConfig)
    h: int = 64
    init_scale: float = 1.0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.h <= 0:
            raise ConfigInvalidError("learning_rate, batch_size and h must be positive")
        if self.h > MAX_WIDTH:
            raise ConfigInvalidError(f"train.h must be <= {MAX_WIDTH}")
        if not math.isfinite(self.learning_rate) or not math.isfinite(self.init_scale):
            raise ConfigInvalidError("learning_rate and init_scale must be finite")
        if self.epochs < 0 or self.early_stop_patience < 0:
            raise ConfigInvalidError("epochs and early_stop_patience must be >= 0")
        if self.seed < 0:
            raise ConfigInvalidError("train.seed must be >= 0")


def with_grid(cfg: TrainConfig, chosen: dict) -> TrainConfig:
    """`cfg` with the grid knobs `chosen` set, each loss factor in `cfg.loss`.
    Raises ConfigInvalidError for a knob outside GRID_KEYS."""
    unknown = chosen.keys() - GRID_KEYS
    if unknown:
        raise ConfigInvalidError(f"unknown grid keys: {sorted(unknown)}")
    loss = replace(cfg.loss, **{k: v for k, v in chosen.items() if k in _LOSS_KEYS})
    return replace(cfg, loss=loss, **{k: v for k, v in chosen.items() if k not in _LOSS_KEYS})


@dataclass(frozen=True)
class RemoteConfig:
    endpoint: str
    model: str
    auth_env: str = ""

    def __post_init__(self):
        try:  # urlsplit raises for a malformed IPv6 host, `port` for a port not in 0..65535
            url = urlsplit(self.endpoint)
            usable = url.scheme in ("http", "https") and url.hostname and url.port != -1
        except ValueError:
            usable = False
        if not usable or not all("!" <= ch <= "~" for ch in self.endpoint):  # http.client's URL chars
            raise ConfigInvalidError("provider.remote.endpoint must be an http(s) URL with a host")


@dataclass(frozen=True)
class ProviderConfig:
    kind: str = "hashed"  # "hashed" | "remote"
    dimension: int = 256
    remote: Optional[RemoteConfig] = None
    cache_dir: Optional[str] = None  # the remote provider's cache; hashing needs none

    def __post_init__(self):
        remote = self.remote  # a JSON config gives an object of strings
        if (isinstance(remote, dict) and all(isinstance(v, str) for v in remote.values())
                and {"endpoint", "model"} <= remote.keys() <= {"endpoint", "model", "auth_env"}):
            object.__setattr__(self, "remote", RemoteConfig(**remote))
        elif not isinstance(remote, (RemoteConfig, type(None))):
            raise ConfigInvalidError(
                "remote must be an object of strings: endpoint, model, optional auth_env"
            )
        if not isinstance(self.cache_dir, (str, type(None))) or "\0" in (self.cache_dir or ""):
            raise ConfigInvalidError("provider.cache_dir must be null or a path")
        if self.kind not in ("hashed", "remote"):
            raise ConfigInvalidError(f"unknown provider kind {self.kind!r}")
        if self.dimension < 8:
            raise ConfigInvalidError("embedding dimension must be >= 8")
        if self.dimension > MAX_WIDTH:
            raise ConfigInvalidError(f"embedding dimension must be <= {MAX_WIDTH}")
        if self.kind == "remote" and self.remote is None:
            raise ConfigInvalidError("remote provider needs endpoint settings")
