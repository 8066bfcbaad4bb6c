"""Synthetic classification data with graded distribution shifts.

Classes are Gaussian clusters whose means sit on a circle in the first two
feature coordinates; any further coordinates are pure nuisance noise. OOD
splits apply one of four parametric corruptions to the clean evaluation
inputs at five severities, leaving labels untouched: rotating the informative
plane, translating along a fixed direction, adding Gaussian noise, or zeroing
random feature entries. Everything is a pure function of (spec, seed).

``generate_shift_dataset`` keeps its last result, so callers that ask for the
same (spec, seed) share one dataset. Its splits and their arrays are
read-only; a caller that edits an array copies it first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..errors import ConfigError, DomainError
from ..numerics import SeededRng

__all__ = [
    "N_SEVERITIES",
    "SHIFT_KINDS",
    "DatasetSpec",
    "ShiftDataset",
    "Split",
    "finetune_subsample",
    "generate_shift_dataset",
]

SHIFT_KINDS = ("rotation", "translation", "additive_noise", "feature_dropout")
N_SEVERITIES = 5

# Per-severity shift strength (severity s scales each by s in 1..5).
ROTATION_STEP = 0.17        # radians
TRANSLATION_STEP = 0.22     # offset along a fixed unit direction
NOISE_STEP = 0.16           # additive Gaussian stddev
DROPOUT_STEP = 0.07         # per-entry zeroing probability

# Largest cluster_spread, nuisance_scale or mean_radius whose inputs stay finite: a draw
# of numpy's ziggurat normal sampler lies within 14 of zero, and a shift at most doubles
# a coordinate and adds less than 12.
MAX_SCALE = float(np.finfo(np.float64).max) / 64

# Fixed stream tags so splits and shifts never share random substreams.
_TAG_TRAIN, _TAG_TEST, _TAG_SHIFT, _TAG_SUBSAMPLE = 1, 2, 3, 4


@dataclass(frozen=True)
class DatasetSpec:
    n_train: int = 4000
    n_test: int = 2000
    n_classes: int = 4
    n_features: int = 6
    cluster_spread: float = 0.55
    nuisance_scale: float = 1.0
    mean_radius: float = 1.6

    def __post_init__(self):
        # each of n_train and n_test holds at least one sample per class
        for field, least in (("n_classes", 2), ("n_features", 2), ("n_train", self.n_classes),
                             ("n_test", self.n_classes)):
            if getattr(self, field) < least:
                raise ConfigError(f"must be at least {least}, got {getattr(self, field)}", field)
        for field, positive in (("cluster_spread", True), ("mean_radius", True),
                                ("nuisance_scale", False)):
            value = getattr(self, field)
            if not (value > 0 if positive else value >= 0) or value > MAX_SCALE:
                raise ConfigError(f"must be {'positive' if positive else 'nonnegative'} and at "
                                  f"most {MAX_SCALE:.4g}, got {value}", field)

    def class_means(self) -> np.ndarray:
        means = np.zeros((self.n_classes, self.n_features))
        for c in range(self.n_classes):
            angle = 2.0 * math.pi * c / self.n_classes
            means[c, 0] = self.mean_radius * math.cos(angle)
            means[c, 1] = self.mean_radius * math.sin(angle)
        return means


@dataclass(frozen=True)
class Split:
    inputs: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _balanced_counts(n: int, k: int) -> list[int]:
    base, extra = divmod(n, k)
    return [base + (1 if c < extra else 0) for c in range(k)]


def _make_split(spec: DatasetSpec, n: int, rng: SeededRng) -> Split:
    means = spec.class_means()
    counts = _balanced_counts(n, spec.n_classes)
    blocks, labels = [], []
    for c, count in enumerate(counts):
        x = means[c] + rng.derive(c).normal((count, spec.n_features)) * np.where(
            np.arange(spec.n_features) < 2, spec.cluster_spread, spec.nuisance_scale
        )
        blocks.append(x)
        labels.append(np.full(count, c, dtype=np.int64))
    inputs = np.vstack(blocks)
    labels = np.concatenate(labels)
    order = rng.derive(spec.n_classes).permutation(n)
    return Split(inputs[order], labels[order])


def _rotate(inputs: np.ndarray, angle: float) -> np.ndarray:
    out = inputs.copy()
    c, s = math.cos(angle), math.sin(angle)
    x0, x1 = inputs[:, 0].copy(), inputs[:, 1].copy()
    out[:, 0] = c * x0 - s * x1
    out[:, 1] = s * x0 + c * x1
    return out


def apply_shift(
    inputs: np.ndarray, kind: str, severity: int, rng: SeededRng, direction: np.ndarray
) -> np.ndarray:
    if kind not in SHIFT_KINDS:
        raise ConfigError(f"unknown shift kind {kind!r}; choose from {SHIFT_KINDS}")
    if not 1 <= severity <= N_SEVERITIES:
        raise DomainError(f"severity must lie in 1..{N_SEVERITIES}, got {severity}")
    if kind == "rotation":
        return _rotate(inputs, severity * ROTATION_STEP)
    if kind == "translation":
        return inputs + severity * TRANSLATION_STEP * direction
    if kind == "additive_noise":
        return inputs + rng.normal(inputs.shape, stddev=severity * NOISE_STEP)
    keep = rng.uniform(inputs.shape) >= severity * DROPOUT_STEP
    return inputs * keep


@dataclass(frozen=True)
class ShiftDataset:
    spec: DatasetSpec
    seed: int
    train: Split
    test: Split
    ood: Mapping[tuple[str, int], Split]

    def ood_split(self, kind: str, severity: int) -> Split:
        """OOD evaluation split; severity 0 is the untouched clean split."""
        if severity == 0:
            return self.test
        key = (kind, int(severity))
        if key not in self.ood:
            if kind not in SHIFT_KINDS:
                raise ConfigError(f"unknown shift kind {kind!r}")
            raise DomainError(f"severity must lie in 0..{N_SEVERITIES}, got {severity}")
        return self.ood[key]


@lru_cache(maxsize=1)
def generate_shift_dataset(spec: DatasetSpec, seed: int) -> ShiftDataset:
    """Clean train/test splits plus all (kind, severity) corruption splits.

    The result is shared: the last (spec, seed) is kept and returned again to
    the next caller that asks for it. Every array is read-only and the OOD
    splits share ``test.labels``; copy an array before editing it.
    """
    root = SeededRng(seed)
    train = _make_split(spec, spec.n_train, root.derive(_TAG_TRAIN))
    test = _make_split(spec, spec.n_test, root.derive(_TAG_TEST))

    # fixed unit translation direction in the informative plane
    angle = float(root.derive(_TAG_SHIFT, 0).uniform((), 0.0, 2.0 * math.pi))
    direction = np.zeros(spec.n_features)
    direction[0], direction[1] = math.cos(angle), math.sin(angle)

    ood = {}
    for ki, kind in enumerate(SHIFT_KINDS):
        for severity in range(1, N_SEVERITIES + 1):
            shift_rng = root.derive(_TAG_SHIFT, 1 + ki, severity)
            ood[(kind, severity)] = Split(
                apply_shift(test.inputs, kind, severity, shift_rng, direction),
                test.labels,
            )
    for split in (train, test, *ood.values()):
        split.inputs.flags.writeable = False
        split.labels.flags.writeable = False
    return ShiftDataset(spec=spec, seed=seed, train=train, test=test, ood=MappingProxyType(ood))


def finetune_subsample(dataset: ShiftDataset, n: int, skew: float) -> Split:
    """Small, label-skewed slice of the clean training split.

    Class c receives a share proportional to skew^c (skew in (0, 1]; 1 means
    balanced), with at least one sample per class. Selection is deterministic
    from the dataset seed.
    """
    if n < dataset.spec.n_classes:
        raise ConfigError(f"subsample of {n} cannot cover {dataset.spec.n_classes} classes")
    if not 0.0 < skew <= 1.0:
        raise ConfigError(f"skew must lie in (0, 1], got {skew}")
    k = dataset.spec.n_classes
    weights = np.array([skew**c for c in range(k)])
    weights /= weights.sum()
    counts = np.maximum(1, np.floor(weights * n).astype(int))
    while counts.sum() > n:
        counts[int(np.argmax(counts))] -= 1
    while counts.sum() < n:
        counts[int(np.argmax(weights))] += 1

    rng = SeededRng(dataset.seed, (_TAG_SUBSAMPLE,))
    rows = []
    for c in range(k):
        candidates = np.flatnonzero(dataset.train.labels == c)
        if counts[c] > candidates.size:
            raise ConfigError(f"class {c} has only {candidates.size} training samples")
        picked = rng.derive(c).choice(candidates.size, int(counts[c]), replace=False)
        rows.append(candidates[picked])
    idx = np.concatenate(rows)
    idx = idx[rng.derive(k).permutation(idx.size)]
    return Split(dataset.train.inputs[idx].copy(), dataset.train.labels[idx].copy())
