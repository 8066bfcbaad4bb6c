"""Experiment configuration: a flat ``key = value`` text format with a strict schema.

Lines are ``key = value``; ``#`` starts a comment; blank lines are ignored.
Each value is parsed by the type of its field: ``inf`` is a valid float (used
for an unbounded projection radius), lists are comma-separated, ``""`` and
``none`` give an empty list or no value, and ``exclude_set = *`` means "every
parameter name". Every key is checked at load, so a typo or a value out of
range fails before any work, with an error that names the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from ..baselines import Sgd, make_base_optimizer
from ..errors import ConfigError
from ..ftp import GammaState
from ..hyperlr import HyperLrState
from ..model import MlpSpec
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
        for key, f in _FIELDS.items():
            if not _fits(f.type, value := getattr(self, f.name)):
                raise ConfigError(f"{key}: expected {_RULES[f.type][1]}, got {value!r}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        values = self.to_dict()
        bad = [f"{key} must be finite, got {v}" for key, v in values.items() if isinstance(v, float)
               and not math.isfinite(v) and not (key == "mars_sp.gamma" and v == math.inf)]
        bad += [f"{key} must be at least {floor}, got {values[key]}"
                for key, floor in _AT_LEAST.items() if values[key] < values.get(floor, floor)]
        if not 0.0 < self.finetune_skew <= 1.0:
            bad.append(f"finetune.skew must lie in (0, 1], got {self.finetune_skew}")
        if bad:
            raise ConfigError("; ".join(bad))
        HyperLrState(self.hyper_alpha0, self.hyper_kappa)  # checks hyper.alpha0 and hyper.kappa
        if self.wise_ratio is not None and not 0.0 <= self.wise_ratio <= 1.0:
            raise ConfigError(f"wise.ratio must lie in [0, 1], got {self.wise_ratio}")
        for (key, value), ignored in _IGNORES.items():
            if getattr(self, key) == value and self._changed(ignored):
                raise ConfigError(f"{key} {value} ignores {self._changed(ignored)}; "
                                  f"leave them at their defaults")
        # Build what a run builds from the config, so that each owner's checks run at load;
        # the error names the key of the owner's field at fault. The dataset is checked
        # before the model, so a bad model width can only come from model.hidden.
        for keys, build in (
            ({f.name: f"dataset.{f.name}" for f in fields(DatasetSpec)}, self.dataset_spec),
            ({"widths": "model.hidden", "activations": "model.activation"}, self.model_spec),
            ({"kind": "base", **{key: key for key in _BASE_KEYS[1:]}},
             lambda: make_base_optimizer(self.base, self.lr, momentum=self.momentum,
                                         weight_decay=self.weight_decay, nesterov=self.nesterov)),
            ({"lr": "pretrain.lr"}, lambda: Sgd(self.pretrain_lr)),
            ({"kappa": "k"}, lambda: GammaState(kappa=self.k)),
        ):
            try:
                build()
            except ConfigError as exc:
                raise ConfigError(exc.reason, keys[exc.field]) from None
        unknown = set(self.exclude_set) - set(self.model_spec().layer_names())
        if unknown and self.exclude_set != ("*",):
            raise ConfigError(f"names not in the model: {sorted(unknown)}", "exclude_set")

    def _changed(self, keys) -> list[str]:
        """The ``keys`` whose values differ from their defaults."""
        return [key for key in keys if getattr(self, _FIELDS[key].name) != _FIELDS[key].default]

    def dataset_spec(self) -> DatasetSpec:
        return DatasetSpec(**{f.name: getattr(self, f"dataset_{f.name}")
                              for f in fields(DatasetSpec)})

    def model_spec(self) -> MlpSpec:
        return MlpSpec(widths=(self.dataset_n_features, *self.model_hidden,
                               self.dataset_n_classes),
                       activations=(self.model_activation,) * len(self.model_hidden))

    def anchor_path(self) -> Path:
        """The pretrained anchor's file: ``pretrain.path``, else ``pretrain.ckpt`` in ``outdir``."""
        return Path(self.pretrain_path or Path(self.outdir) / "pretrain.ckpt")

    def iters_per_epoch(self, split_size: int) -> int:
        return max(1, -(-split_size // self.batch_size))

    def total_iters(self, split_size: int) -> int:
        return self.epochs * self.iters_per_epoch(split_size)

    def to_dict(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in ((key, getattr(self, f.name)) for key, f in _FIELDS.items())}


_KEY_GROUPS = ("dataset", "model", "pretrain", "finetune", "tpgm", "mars_sp", "l2_sp",
               "wise", "hyper")


def _field_key(name: str) -> str:
    """Field name -> config key: grouped fields use a dot ('tpgm.inner_iters')."""
    return next((f"{group}.{name[len(group) + 1:]}" for group in _KEY_GROUPS
                 if name.startswith(group + "_")), name)


_FIELDS = {_field_key(f.name): f for f in fields(ExperimentConfig)}  # config key -> field
# the base optimizer's keys; every method but hyper-sgd reads them
_BASE_KEYS = ("base", "lr", "momentum", "weight_decay", "nesterov")
# (key, value) -> the keys a run with that value does not read: hyper-sgd learns its own
# rate, and AdamW has no momentum
_IGNORES = {("method", "hyper-sgd"): _BASE_KEYS, ("base", "adamw"): ("momentum", "nesterov")}
# lower bounds, a number or another key, of the keys that no object built at load checks;
# the owners of the last four need the run's params or data (finetune_subsample checks
# finetune.n and finetune.skew again, with each class's count)
_AT_LEAST = {"epochs": 1, "batch_size": 1, "seed": 0, "checkpoint_every": 0,
             "pretrain.epochs": 0, "tpgm.inner_iters": 0, "mars_sp.gamma": 0,
             "l2_sp.lambda": 0, "finetune.n": "dataset.n_classes"}


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# field annotation -> (parse rule, what it expects); a rule raises ValueError or KeyError
_RULES = {
    "bool": (lambda raw: _BOOLEANS[raw.lower()], "a boolean"),
    "int": (int, "an integer"), "float": (float, "a float"), "str": (str, "a string"),
    "tuple[str, ...]": (lambda raw: tuple(filter(None, map(str.strip, raw.split(",")))), "names"),
    "tuple[int, ...]": (lambda raw: tuple(map(int, raw.split(","))), "comma-separated integers"),
    "Optional[float]": (float, "a float or 'none'"),
}


def _fits(annotation: str, value) -> bool:
    """Whether ``value`` has the type of a field annotated ``annotation``; an int fits a float."""
    if annotation.startswith("Optional["):  # Optional[X]
        return value is None or _fits(annotation[9:-1], value)
    if annotation.startswith("tuple["):  # tuple[X, ...]
        return isinstance(value, tuple) and all(_fits(annotation[6:-6], v) for v in value)
    kind = {"bool": bool, "int": int, "float": (int, float), "str": str}[annotation]
    return isinstance(value, kind) and (annotation == "bool") == isinstance(value, bool)


def _parse_value(key: str, raw: str):
    """``raw`` as a value of the annotated type of ``key``'s field; ``""`` and ``none`` are
    empty for a tuple and ``None`` for an ``Optional``."""
    annotation = _FIELDS[key].type
    if raw in ("", "none") and annotation.startswith(("tuple", "Optional")):
        return () if annotation.startswith("tuple") else None
    rule, expected = _RULES[annotation]
    try:
        return rule(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None


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

    unknown = [key for key in assignments if key not in _FIELDS]
    if unknown:
        raise ConfigError(f"unknown configuration key {unknown[0]!r}")
    return ExperimentConfig(**{_FIELDS[key].name: _parse_value(key, raw)
                               for key, raw in assignments.items()})


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read(), overrides=overrides)
