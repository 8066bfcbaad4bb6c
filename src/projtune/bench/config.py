"""Experiment configuration: a flat ``key = value`` text format with a strict schema.

Lines are ``key = value``; ``#`` starts a comment; blank lines are ignored.
Unknown keys are rejected at load time so a typo cannot silently fall back to
a default. ``inf`` is a valid float (used for an unbounded projection
radius), lists are comma-separated, and ``exclude_set = *`` means "every
parameter name".
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from ..errors import ConfigError
from ..hyperlr import HyperLrState
from .data import DatasetSpec

__all__ = ["ExperimentConfig", "METHODS", "load_config", "parse_config_text"]

METHODS = ("ft", "linear-probe", "lp-ft", "l2-sp", "mars-sp", "tpgm", "ftp", "hyper-sgd")


@dataclass
class ExperimentConfig:
    # run identity
    method: str = "ft"
    seed: int = 0
    outdir: str = "runs/out"
    # schedule
    epochs: int = 250
    batch_size: int = 16
    checkpoint_every: int = 0
    # base optimizer
    base: str = "sgd"
    lr: float = 0.08
    weight_decay: float = 0.0
    momentum: float = 0.9
    nesterov: bool = False
    # constraint learning
    k: float = 1.0
    exclude_set: tuple[str, ...] = ()
    # method-specific knobs
    tpgm_inner_iters: int = 1
    mars_sp_gamma: float = 1.0
    l2_sp_lambda: float = 1e-3
    wise_ratio: Optional[float] = None
    hyper_alpha0: float = 0.02
    hyper_kappa: float = 1e-4
    # data
    dataset_n_train: int = 4000
    dataset_n_test: int = 2000
    dataset_n_classes: int = 4
    dataset_n_features: int = 8
    dataset_cluster_spread: float = 0.55
    dataset_nuisance_scale: float = 1.0
    dataset_mean_radius: float = 1.6
    # model
    model_hidden: tuple[int, ...] = (16, 16)
    model_activation: str = "tanh"
    # pretraining and the fine-tuning subsample
    pretrain_lr: float = 0.10
    pretrain_epochs: int = 8
    pretrain_path: str = ""
    finetune_n: int = 40
    finetune_skew: float = 0.45

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.seed < 0 or self.checkpoint_every < 0:
            raise ConfigError(f"seed and checkpoint_every must be nonnegative, got "
                              f"{self.seed} and {self.checkpoint_every}")
        HyperLrState(self.hyper_alpha0, self.hyper_kappa)  # checks hyper.alpha0 and hyper.kappa
        if self.wise_ratio is not None and not 0.0 <= self.wise_ratio <= 1.0:
            raise ConfigError(f"wise.ratio must lie in [0, 1], got {self.wise_ratio}")
        if self.method == "hyper-sgd":
            # HyperSgd learns its own rate from hyper.alpha0 and hyper.kappa
            ignored = [k for k in _BASE_KEYS if getattr(self, k) != _FIELD_TYPES[k].default]
            if ignored:
                raise ConfigError(f"method hyper-sgd ignores {ignored}; leave them at their defaults")

    def dataset_spec(self) -> DatasetSpec:
        return DatasetSpec(
            n_train=self.dataset_n_train,
            n_test=self.dataset_n_test,
            n_classes=self.dataset_n_classes,
            n_features=self.dataset_n_features,
            cluster_spread=self.dataset_cluster_spread,
            nuisance_scale=self.dataset_nuisance_scale,
            mean_radius=self.dataset_mean_radius,
        )

    def iters_per_epoch(self, split_size: int) -> int:
        return max(1, -(-split_size // self.batch_size))

    def total_iters(self, split_size: int) -> int:
        return self.epochs * self.iters_per_epoch(split_size)

    def to_dict(self) -> dict:
        out = {}
        for key, name in _KEY_TO_FIELD.items():
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = list(value)
            out[key] = value
        return out


_KEY_GROUPS = ("dataset", "model", "pretrain", "finetune", "tpgm", "mars_sp", "l2_sp",
               "wise", "hyper")


def _field_key(name: str) -> str:
    """Field name -> config key: grouped fields use a dot ('tpgm.inner_iters')."""
    for prefix in _KEY_GROUPS:
        if name.startswith(prefix + "_"):
            return f"{prefix}.{name[len(prefix) + 1:]}"
    return name


_KEY_TO_FIELD = {_field_key(f.name): f.name for f in fields(ExperimentConfig)}
_FIELD_TYPES = {f.name: f for f in fields(ExperimentConfig)}
# the base optimizer's keys; every method but hyper-sgd reads them
_BASE_KEYS = ("base", "lr", "momentum", "weight_decay", "nesterov")


def _parse_value(field_name: str, raw: str):
    raw = raw.strip()
    default = _FIELD_TYPES[field_name].default
    ftype = _FIELD_TYPES[field_name].type
    if field_name in ("exclude_set",):
        if raw in ("", "none"):
            return ()
        if raw == "*":
            return ("*",)
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    if field_name == "model_hidden":
        if raw in ("", "none"):
            return ()
        try:
            return tuple(int(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"model.hidden must be comma-separated integers, got {raw!r}")
    if field_name == "wise_ratio":
        if raw in ("", "none"):
            return None
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"wise.ratio must be a float or 'none', got {raw!r}")
    if isinstance(default, bool) or ftype == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{field_name}: expected a boolean, got {raw!r}")
    if isinstance(default, int) and not isinstance(default, bool):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{field_name}: expected an integer, got {raw!r}")
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{field_name}: expected a float, got {raw!r}")
    return raw


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse ``key = value`` lines (plus optional override pairs) into a config."""
    assignments: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        assignments[key.strip()] = raw.strip()
    if overrides:
        assignments.update({k.strip(): str(v).strip() for k, v in overrides.items()})

    kwargs = {}
    for key, raw in assignments.items():
        field_name = _KEY_TO_FIELD.get(key)
        if field_name is None:
            raise ConfigError(f"unknown configuration key {key!r}")
        kwargs[field_name] = _parse_value(field_name, raw)
    return ExperimentConfig(**kwargs)


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read(), overrides=overrides)
